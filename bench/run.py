"""pareto-cat benchmark: time to frontier, lambda queries and swarm search.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn, each in its own
process. One run of one workload:

1. makes the workload's instance from ``--seed`` (``gen.py``; harness
   time, not measured) and an independent reference answer for it
   (``oracle.py``);
2. starts ``worker.py``, the measured process, which loads and solves for
   ``--seconds`` seconds;
3. checks every output: the reference answer and seed-independent
   invariants at any seed, and at the default seed also the SHA-256 of the
   text against ``digests.json``, frozen from pareto-cat 0.1.0, so a speed-up may not change a byte of seeded output;
4. with ``--trace 1``, also times the real CLI on the same input and
   compares its output bytes with the in-process ones.

Prints each metric with its unit and sample count, then, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics untraced, the per-layer metrics
traced. Exits 1 when any output check failed, 2 when the package
source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 50
TIME_LIMIT_S = 170
FLOAT_TOL = 1e-9

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
from workloads import WORKLOADS, cli_args  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- checks

def check_frontier(doc: dict, oracle) -> list:
    problems = []
    members = [tuple(m) for g in doc["groups"] for m in g["members"]]
    ranks = sorted(oracle.rank(m) for m in members)
    expected = oracle.frontier_ranks().tolist()
    if ranks != expected:
        problems.append(f"frontier has {len(ranks)} members, reference {len(expected)}")
    if doc["functor_count"] != oracle.size:
        problems.append("functor_count differs from K^n")
    if doc["admissible_count"] != int(oracle.admissible.sum()):
        problems.append("admissible_count differs from the reference")
    if doc["frontier_count"] != len(members):
        problems.append("frontier_count differs from the member count")
    reps = [tuple(g["representative"]) for g in doc["groups"]]
    if reps != sorted(reps):
        problems.append("groups are not sorted by representative")
    sigs = set()
    for g in doc["groups"]:
        ms = [tuple(m) for m in g["members"]]
        if ms != sorted(ms) or tuple(g["representative"]) != ms[0]:
            problems.append(f"group {ms[0]} is not sorted or not led by its least member")
        group_sigs = {oracle.signature(m) for m in ms}
        if len(group_sigs) != 1 or group_sigs & sigs:
            problems.append(f"group {ms[0]} does not match one componentwise iso class")
        sigs |= group_sigs
    return problems


def check_lambda(doc: dict, oracle, query) -> list:
    mass = Fraction(doc["mass"])
    problems = []
    if tuple(doc["system"]) != tuple(query):
        problems.append("lambda answers another system")
    if mass != oracle.improving_mass(query):
        problems.append(f"lambda {mass} differs from the reference {oracle.improving_mass(query)}")
    if doc["on_frontier"] != bool(oracle.frontier[oracle.rank(query)]) or \
            doc["on_frontier"] != (mass == 0):
        problems.append("on_frontier disagrees with lambda or the reference")
    return problems


def check_particle(doc: dict, oracle, params: dict, seed: int) -> list:
    exact = params.get("exact", False)
    draws = [tuple(d) for d in doc["draws"]]
    lams = [Fraction(x) if exact else x for x in doc["jump_probs"]]
    problems = []
    if len(draws) != params["draws"] + 1 or len(lams) != len(draws) or doc["seed"] != seed:
        problems.append("trace has the wrong length or seed")
    for d, lam in zip(draws, lams):
        r = oracle.rank(d)
        if not oracle.admissible[r]:
            problems.append(f"draw {d} is not admissible")
            continue
        ref = oracle.improving_mass(d)
        if oracle.frontier[r] != (lam == 0):
            problems.append(f"lambda {lam} of draw {d} is not 0 exactly on the frontier")
        if (lam != ref) if exact else abs(lam - float(ref)) > FLOAT_TOL:
            problems.append(f"lambda {lam} of draw {d} differs from the reference {ref}")
    if exact:
        if sum(Fraction(c) for c in doc["coeffs"]) != 1:
            problems.append("exact coefficients do not sum to exactly 1")
    elif abs(sum(doc["coeffs"]) - 1) > FLOAT_TOL:
        problems.append("coefficients do not sum to 1")
    if not 0 < doc["acceptance_rate"] <= 1:
        problems.append("acceptance rate outside (0, 1]")
    return problems


def check_swarm(doc: dict, oracle, params: dict, seed: int, instance_path: Path) -> list:
    import pareto_cat as pc

    inst = pc.load_instance(instance_path)
    stats = doc["statistics"]
    problems = []
    if doc["config"] != {**params, "seed": seed}:
        problems.append("swarm config differs from the request")
    positions = doc["positions"]
    if len(positions) != params["particles"] or \
            any(len(row) != params["draws"] + 1 for row in positions):
        problems.append("positions have the wrong shape")
    if not all(oracle.admissible[oracle.rank(p)] for row in positions for p in row):
        problems.append("a position is not admissible")
    certified = []
    for f in doc["flagged"]:
        if f["functor"] != positions[f["particle"]][f["draw_index"]] or \
                f["witness"][-1] != [f["particle"], f["draw_index"]]:
            problems.append(f"flag {f['particle']}/{f['draw_index']} does not match its position")
        certified.append(pc.certify_neighborhood(inst, f["functor"], params["epsilon"]))
    precision = sum(certified) / len(certified) if certified else None
    if stats["precision"] != precision:
        problems.append(f"precision {stats['precision']} disagrees with certify ({precision})")
    if stats["flag_count"] != len(doc["flagged"]) or \
            stats["cross_link_count"] != len(doc["cross_links"]):
        problems.append("flag or cross-link counts disagree with the lists")
    groups = {oracle.signature(oracle.values(int(r))) for r in oracle.frontier_ranks()}
    if stats["frontier_group_count"] != len(groups):
        problems.append("frontier_group_count differs from the reference")
    return problems


def check_output(which: str, text: str, spec: dict, oracle) -> list:
    kind, params = WORKLOADS[spec["workload"]][which]
    try:
        doc = json.loads(text)
        if kind == "frontier":
            return check_frontier(doc, oracle)
        if kind == "lambda":
            return check_lambda(doc, oracle, spec["query"])
        if kind == "particle":
            return check_particle(doc, oracle, params, spec["seed"])
        return check_swarm(doc, oracle, params, spec["seed"], Path(spec["instance"]))
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"]


# ---------------------------------------------------------------- one run

def make_input(workload: str, seed: int, out: Path) -> dict:
    """Write the instance; returns the spec the worker and checks share."""
    w = WORKLOADS[workload]
    if "fixture" in w:
        path = SRC / "pareto_cat" / "fixtures" / f"{w['fixture']}.json"
        doc = json.loads(path.read_text())
        query = ()
    else:
        path = gen.write_family(w["family"], seed, out)
        doc = json.loads(path.read_text())
        query = gen.query_system(w["family"], seed)
    return {"workload": workload, "seed": seed, "instance": str(path),
            "query": tuple(query), "doc": doc}


def run_worker(spec: dict, seconds: float, trace: int, out: Path, budget_s: float) -> list:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", spec["workload"],
           "--instance", spec["instance"], "--seed", str(spec["seed"]),
           "--query", ",".join(map(str, spec["query"])), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                          timeout=budget_s)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def cli_cross_check(spec: dict, digests: dict, out: Path) -> tuple:
    """Time ``import pareto_cat.cli`` and one real CLI process per call
    kind. Returns the timings and the call kinds whose CLI output bytes
    differ from the in-process ones."""
    imports = []
    for _ in range(3):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import pareto_cat.cli"], env=_env(),
                       check=True, timeout=60)
        imports.append(perf_counter() - t0)
    process_s, differ = {}, []
    for which, digest in digests.items():
        kind, params = WORKLOADS[spec["workload"]][which]
        target = out / f"cli-{which}.txt"
        cmd = [sys.executable, "-m", "pareto_cat.cli",
               *cli_args(kind, params, spec["instance"], spec["seed"], spec["query"]),
               "--out", str(target)]
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True, timeout=120)
        process_s[which] = perf_counter() - t0
        if proc.returncode != 0 or _digest(target.read_text()) != digest:
            differ.append(which)
    return {"cli.import_s": median(imports), "cli.process_s": process_s["main"]}, differ


def frozen_digest(frozen: dict, spec: dict, which: str):
    """The frozen SHA-256 of a call's text, if there is one for this seed."""
    if spec["seed"] != frozen["seed"]:
        return None
    return frozen.get(spec["workload"], {}).get(which)


def summarize(lines: list, spec: dict, oracle, out: Path, frozen: dict) -> dict:
    """Check every call. Returns the calls, each call kind's digest and
    problems, and one message per failed call."""
    calls = [x for x in lines if x.get("call") in ("main", "exact") or
             x.get("call") == "load" and "error" in x]
    verdicts = {}
    for which in ("main", "exact"):
        path = out / f"{spec['workload']}-{which}.txt"
        text = path.read_text() if path.exists() else None
        problems = check_output(which, text, spec, oracle) if text is not None else ["no output"]
        digest = _digest(text) if text is not None else None
        want = frozen_digest(frozen, spec, which)
        if want is not None and digest != want:
            problems.append(f"sha256 {digest} differs from the frozen {want}")
        verdicts[which] = (digest, problems)
    failed = []
    for c in calls:
        if "error" in c:
            failed.append(f"{c['call']}: {c['error']}")
            continue
        digest, problems = verdicts[c["call"]]
        if c["sha256"] != digest:
            failed.append(f"{c['call']}: output bytes differ between repeats")
        elif problems:
            failed.append(f"{c['call']}: " + "; ".join(problems[:3]))
    return {"calls": calls, "verdicts": verdicts, "failed": failed}


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    from oracle import Oracle

    started = perf_counter()
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec = make_input(args.workload, args.seed, out)
    oracle = Oracle(spec.pop("doc"))
    frozen = json.loads((HERE / "digests.json").read_text())

    lines = run_worker(spec, args.seconds, args.trace, out,
                       TIME_LIMIT_S - (perf_counter() - started))
    s = summarize(lines, spec, oracle, out, frozen)
    untraced = [c for c in lines if "error" not in c and not c.get("traced")]
    samples = {
        "setup_s": [c["setup_s"] for c in untraced if c.get("call") == "load"],
        "solve_s": [c["solve_s"] for c in untraced if c.get("call") == "main"],
        "exact_solve_s": [c["solve_s"] for c in untraced if c.get("call") == "exact"],
    }
    summary = lines[-1]
    failed = list(s["failed"])
    metrics = {}
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"calls={len(s['calls'])} failed={len(failed)}")
    if not args.trace:
        for name, xs in samples.items():
            if xs:
                metrics[name] = {"value": median(xs), "unit": "s"}
                print(f"  {name:<15} {median(xs):10.4f} s    median of {len(xs)}, "
                      f"min {min(xs):.4f}, max {max(xs):.4f}")
        metrics["peak_rss_mb"] = {"value": summary["peak_rss_mb"], "unit": "MB"}
        print(f"  {'peak_rss_mb':<15} {summary['peak_rss_mb']:10.1f} MB   worker process")
    else:
        layer = dict(summary["layers"])
        cli, differ = cli_cross_check(
            spec, {which: v[0] for which, v in s["verdicts"].items()}, out)
        failed += [f"{which}: CLI output bytes differ from the in-process ones"
                   for which in differ]
        layer.update(cli)
        traced = [c["solve_s"] for c in s["calls"]
                  if c.get("traced") and c["call"] == "main" and "error" not in c]
        layer["trace.overhead_s"] = median(traced) - median(samples["solve_s"]) \
            if traced and samples["solve_s"] else 0.0
        layer.update({
            "valuation.systems": oracle.size,
            "valuation.admissible": int(oracle.admissible.sum()),
            "valuation.class_vectors": oracle.class_vectors,
            "valuation.frontier_members": int(oracle.frontier.sum()),
        })
        layer.update(swarm_counts(out / f"{args.workload}-main.txt", spec))
        if not summary["counts_repeat"]:
            failed.append("trace: counts differ between traced iterations")
        if summary["unwrapped"]:
            print(f"  layers not found (read 0): {', '.join(summary['unwrapped'])}")
        for name in sorted(layer):
            unit = "s" if name.endswith("_s") else \
                "ratio" if name.endswith("_ratio") else "count"
            metrics[name] = {"value": layer[name], "unit": unit}
            print(f"  {name:<36} {layer[name]:>14.6g} {unit}")
    for which, (digest, problems) in s["verdicts"].items():
        state = "digest frozen" if frozen_digest(frozen, spec, which) else "not frozen"
        print(f"  output {which:<5} sha256 {digest}  ({state}; "
              f"{'ok' if not problems else problems[0]})")
    for f in failed[:10]:
        print(f"  FAILED {f}")
    print(f"  ops_failed {len(failed)} / ops_attempted {len(s['calls'])}")
    if not failed:  # keep the spans; inputs and outputs only to debug failures
        for f in out.iterdir():
            if not f.name.endswith("-spans.json"):
                f.unlink()
        if not any(out.iterdir()):
            out.rmdir()
    print(json.dumps({"correct": not failed, "attempted": len(s["calls"]),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


def swarm_counts(main_text: Path, spec: dict) -> dict:
    kind, params = WORKLOADS[spec["workload"]]["main"]
    if kind != "swarm":
        return {"swarm.flags": 0, "swarm.cross_links": 0, "swarm.flag_ratio": 0.0}
    stats = json.loads(main_text.read_text())["statistics"]
    return {"swarm.flags": stats["flag_count"], "swarm.cross_links": stats["cross_link_count"],
            "swarm.flag_ratio": stats["flag_count"] / (params["particles"] * params["draws"])}


def run_all(args) -> int:
    """Every workload in its own process; exit 1 if any failed."""
    worst, summary = 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIME_LIMIT_S + 30)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            summary[workload] = json.loads(lines[-1])
    print(json.dumps({"workloads": summary}))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pareto_cat" / "__init__.py").is_file():
        print(f"bench: package source not found under {SRC}", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
