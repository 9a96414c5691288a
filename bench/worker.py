"""The measured process of one benchmark run.

A closed loop with one client: one call at a time, in one process and
one thread, making the workload's ``main`` and ``exact`` calls (see
``workloads.py``) as ``pareto-cat`` invocations would, each on a freshly
loaded instance. Every load is one ``setup_s`` sample.

The first iteration is plain: each call gets a load of its own, and
``peak_rss_mb`` is read after it. Later iterations sample: one load
(repeated while loads are faster than ``MIN_LOAD_S``), the main call on
it, then exact calls on unpickled copies of the loaded instance until
they took as long as the main call. A copy is in the state loading left
the instance in, lazy tables unbuilt, without paying the load again.
Iterations repeat until ``--seconds`` have passed, give or take half an
iteration.

With ``--trace 1`` a plain traced iteration follows each untraced one,
with the layer wrappers of ``layers.py`` installed; at least two traced
iterations run, whatever ``--seconds`` says.

Prints one JSON object per load and per call, then one summary object. Writes the
text of each call kind's first call to ``--out`` for the output checks,
and, when traced, every span.

Run by ``run.py``, which puts the package on ``sys.path`` for it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import pickle
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import layers
from workloads import WORKLOADS, call, emit

# cheap loads are repeated, so that setup_s has enough samples
MIN_LOAD_S = 0.2


def load(pc, spec: dict, repeat: bool):
    """Load the instance; returns ``(lines, instance)``. With ``repeat``,
    loads are repeated until they took ``MIN_LOAD_S``."""
    lines = []
    gc.collect()
    while not lines or repeat and sum(x["setup_s"] for x in lines) < MIN_LOAD_S:
        t0 = perf_counter()
        inst = pc.load_instance(spec["instance"])
        lines.append({"call": "load", "setup_s": perf_counter() - t0})
    return lines, inst


def one_call(pc, spec: dict, which: str, inst, rec=None) -> dict:
    """One call on a freshly loaded instance; returns its output line."""
    kind, params = WORKLOADS[spec["workload"]][which]
    gc.collect()
    t0 = perf_counter()
    result, to_doc = call(pc, kind, params, inst, spec["seed"], spec["query"])
    if rec is not None:
        depth = rec.push("cli.emit", span=True)
    text = emit(to_doc(result))
    if rec is not None:
        rec.pop_to(depth)
    line = {"call": which, "solve_s": perf_counter() - t0,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}
    first = Path(spec["out"]) / f"{spec['workload']}-{which}.txt"
    if not first.exists():
        first.write_text(text)
    return line


def failed(which: str, e: Exception) -> dict:
    return {"call": which, "error": f"{type(e).__name__}: {e}"}


def plain_iteration(pc, spec: dict, rec=None) -> list:
    """The main call and the exact call, each on a load of its own.
    Traced iterations are plain, so that their counts do not depend on
    timing."""
    lines = []
    for which in ("main", "exact"):
        try:
            loaded, inst = load(pc, spec, repeat=False)
            lines += loaded
            lines.append(one_call(pc, spec, which, inst, rec))
        except Exception as e:  # a failed call is counted, not fatal
            lines.append(failed(which, e))
        inst = None
    return lines


def sampling_iteration(pc, spec: dict) -> list:
    """One load, the main call on it, then exact calls on unpickled
    copies of the loaded instance until they took as long as the main
    call. Cheap exact calls thus get as many samples, spread over the
    run, as their noise needs, without a load each."""
    try:
        lines, inst = load(pc, spec, repeat=True)
    except Exception as e:  # a failed call is counted, not fatal
        return [failed("main", e)]
    blob = pickle.dumps(inst, protocol=pickle.HIGHEST_PROTOCOL)
    try:
        lines.append(one_call(pc, spec, "main", inst))
        main_s = lines[-1]["solve_s"]
    except Exception as e:
        lines.append(failed("main", e))
        main_s = 0.0
    inst = None
    exact_s = 0.0
    while not exact_s or exact_s < main_s:
        try:
            lines.append(one_call(pc, spec, "exact", pickle.loads(blob)))
        except Exception as e:
            lines.append(failed("exact", e))
            break
        exact_s += lines[-1]["solve_s"]
    return lines


def print_lines(lines: list, traced: bool) -> None:
    for line in lines:
        if traced:
            line["traced"] = True
        print(json.dumps(line), flush=True)


def layer_metrics(rec) -> dict:
    s, c = rec.self_s, rec.counts
    attempts = c["particle.sampling_attempts"]
    draws = rec.calls["particle.sample_admissible"]
    return {
        "instance.parse_s": s["instance.load"],
        "instance.build_s": s["instance.build"],
        "instance.validate_s": s["instance.validate"],
        "rescat.validate_category_s": s["rescat.validate_category"],
        "valuation.validate_maps_s": s["valuation.validate_maps"],
        "valuation.image_tables_s": s["valuation.image_tables"],
        "valuation.admissible_s": s["valuation.admissible"],
        "valuation.class_vectors_s": s["valuation.class_vectors"],
        "valuation.pareto_frontier_s": s["valuation.pareto_frontier"],
        "cli.emit_s": s["cli.emit"],
        "valuation.minorization_mass_s": s["valuation.minorization_mass"],
        "valuation.minorization_mass_calls": rec.calls["valuation.minorization_mass"],
        "valuation.improving_set_size": c["valuation.improving_set_size"],
        "particle.run_particle_s": s["particle.run_particle"],
        "particle.sample_admissible_s": s["particle.sample_admissible"],
        "particle.sampling_attempts": attempts,
        "particle.acceptance_ratio": draws / attempts if attempts else 0.0,
        "particle.evolve_coefficients_s": s["particle.evolve_coefficients"],
        "valuation.longest_strict_chains_s": s["valuation.longest_strict_chains"],
        "valuation.minorizes_s": s["valuation.minorizes"],
        "valuation.minorizes_calls": rec.calls["valuation.minorizes"],
        "summing.evaluate_calls": c["summing.evaluate"],
        "summing.tuple_rank_calls": c["summing.tuple_rank"],
        "summing.tuple_unrank_calls": c["summing.tuple_unrank"],
        "swarm.search_s": s["swarm.run"],
        "swarm.oracle_s": rec.incl_s["swarm.oracle"],
        "swarm.certify_calls": c["swarm.certify"],
        "instance.scaled_image_calls": c["instance.scaled_image"],
        "scale.scale_objects_built": c["scale.scale_objects_built"],
        "scale.interleaving_distance_s": s["scale.interleaving_distance"],
        "scale.interleaving_distance_calls": rec.calls["scale.interleaving_distance"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one measured benchmark run")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--instance", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--query", default="")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = {"workload": args.workload, "instance": args.instance, "seed": args.seed,
            "query": tuple(int(x) for x in args.query.split(",") if x), "out": args.out}

    import pareto_cat as pc

    start = perf_counter()
    # the first iteration is plain: the high-water mark after it is the
    # peak of a load and a call, as one pareto-cat process has it
    print_lines(plain_iteration(pc, spec), traced=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    recorders, missing, iterations = [], [], 1
    while True:
        if args.trace:
            rec = layers.Recorder()
            undo, missing = layers.install(rec)
            try:
                lines = plain_iteration(pc, spec, rec)
            finally:
                undo()
            print_lines(lines, traced=True)
            recorders.append(rec)
        # stop after the iteration whose end is nearest to --seconds, but
        # not before two traced iterations can show that counts repeat
        elapsed = perf_counter() - start
        if elapsed + elapsed / iterations / 2 >= args.seconds and \
                (not args.trace or len(recorders) >= 2):
            break
        print_lines(sampling_iteration(pc, spec), traced=False)
        iterations += 1

    summary = {"peak_rss_mb": peak_rss_mb}
    if args.trace:
        per_iter = [layer_metrics(r) for r in recorders]
        counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in per_iter]
        summary["layers"] = {k: median(m[k] for m in per_iter) for k in per_iter[0]}
        summary["counts_repeat"] = all(c == counts[0] for c in counts)
        summary["unwrapped"] = missing
        (Path(args.out) / f"{args.workload}-spans.json").write_text(json.dumps(
            {"columns": ["name", "start_s", "end_s", "parent"],
             "iterations": [[[n, a - start, b - start, p] for n, a, b, p in r.spans]
                            for r in recorders]}))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
