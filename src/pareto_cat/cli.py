"""Command-line interface.

Subcommands operate on instance files (JSON documents describing the
resource preorder, objectives, object weights and optional scale
tables). Results print to stdout as JSON with sorted keys; ``--out``
redirects to a file, and a ``.csv`` suffix selects CSV for the tabular
commands (frontier, swarm). Exit status: 0 on success, 1 on any domain
error (bad instance, failed sampling, unwritable ``--out``), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import chain

import numpy as np

from .errors import CapacityError, ParetoCatError, SamplingError
from .instance import load_instance
from .particle import run_particle
from .rescat import conversion_rate
from .scale import interleaving_distance
from .summing import check_capacity
from .swarm import SwarmConfig, certify_neighborhood, run_swarm
from .valuation import minorization_mass, pareto_frontier

_PROG = "pareto-cat"


def _emit(doc: dict, out: str | None, csv_rows=None, csv_header=None) -> None:
    as_csv = out is not None and out.endswith(".csv")
    if as_csv and csv_rows is None:
        raise ParetoCatError(f"CSV output is not available for this command: {out}")
    if not as_csv:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if out is None:
            sys.stdout.write(text)
            return
    try:
        with open(out, "w", newline="" if as_csv else None) as fh:
            if as_csv:
                csv.writer(fh).writerows(chain([csv_header], csv_rows))
            else:
                fh.write(text)
    except OSError as e:
        raise ParetoCatError(f"cannot write {out}: {e.strerror or e}") from e


def _load(args) -> "Instance":
    return load_instance(args.instance, cap=args.cap,
                         use_closure=args.close_hom, strict=True)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = int(np.random.SeedSequence().entropy % 2**32)
    print(f"{_PROG}: generated seed {seed}", file=sys.stderr)
    return seed


def _parse_tuple(text: str, n: int, k: int) -> tuple:
    try:
        vals = tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise ParetoCatError(f"not a comma-separated system: {text!r}")
    if len(vals) != n or any(not 0 <= v < k for v in vals):
        raise ParetoCatError(
            f"system {text!r} must list {n} object ids in 0..{k - 1}")
    return vals


def _warn_if_empty(system) -> bool:
    if not system.admissible_mask.any():
        print(f"{_PROG}: warning: no admissible systems, admissible mass is zero",
              file=sys.stderr)
        return True
    return False


def cmd_validate(args) -> int:
    inst, problems = load_instance(args.instance, cap=args.cap,
                                   use_closure=args.close_hom, strict=False)
    try:
        check_capacity(inst.cat.size, inst.n, inst.cap)
    except CapacityError as e:  # ValuationSystem.validate_maps skips the check past it
        print(f"{_PROG}: warning: valuation.iso_respect not checked: {e}", file=sys.stderr)
    doc = {
        "ok": not problems,
        "problems": [
            {"code": p.code, "path": p.path, "message": p.detail}
            for p in problems
        ],
        "objects": inst.cat.size,
        "system_size": inst.n,
        "valuations": len(inst.objectives),
    }
    _emit(doc, args.out)
    return 0 if not problems else 1


def cmd_frontier(args) -> int:
    inst = _load(args)
    _warn_if_empty(inst.system)
    result = pareto_frontier(inst.system)

    def rows():
        members = [" ".join(map(str, m)) for m in result.rows.tolist()]
        for gi, (a, b) in enumerate(result.spans):
            for m in members[a:b]:
                yield [gi, members[a], m]

    _emit(result.to_dict(), args.out, csv_rows=rows(),
          csv_header=["group", "representative", "member"])
    return 0


def cmd_lambda(args) -> int:
    inst = _load(args)
    _warn_if_empty(inst.system)
    phi = _parse_tuple(args.system, inst.n, inst.cat.size)
    mass = minorization_mass(inst.system, inst.distribution, phi, exact=args.exact)
    doc = {
        "system": list(phi),
        "mass": str(mass) if args.exact else mass,
        "on_frontier": (mass == 0),
    }
    _emit(doc, args.out)
    return 0


def cmd_particle(args) -> int:
    inst = _load(args)
    if _warn_if_empty(inst.system):
        raise SamplingError("cannot sample: no admissible systems", 0.0)
    seed = _seed(args)
    trace = run_particle(inst.system, inst.distribution, args.draws,
                         seed=seed, budget=args.budget, exact=args.exact)
    doc = trace.to_dict()
    if args.exact:
        doc["jump_probs"] = [str(v) for v in trace.jump_probs]
        doc["coeffs"] = [str(v) for v in trace.coeffs]
    _emit(doc, args.out)
    return 0


def cmd_swarm(args) -> int:
    inst = _load(args)
    if _warn_if_empty(inst.system):
        raise SamplingError("cannot sample: no admissible systems", 0.0)
    seed = _seed(args)
    config = SwarmConfig(particles=args.particles, draws=args.draws,
                         epsilon=args.epsilon, seed=seed, budget=args.budget)
    report = run_swarm(inst, config)
    rows = (
        [f.particle, f.draw_index, " ".join(map(str, f.functor)), f.epsilon,
         ";".join(f"{p}:{d}" for p, d in f.witness)]
        for f in report.flagged
    )
    _emit(report.to_dict(), args.out, csv_rows=rows,
          csv_header=["particle", "draw_index", "system", "epsilon", "witness"])
    return 0


def cmd_certify(args) -> int:
    inst = _load(args)
    phi = _parse_tuple(args.system, inst.n, inst.cat.size)
    ok = certify_neighborhood(inst, phi, args.epsilon)
    _emit({"system": list(phi), "epsilon": args.epsilon, "certified": ok}, args.out)
    return 0


def cmd_interleave(args) -> int:
    inst = _load(args)
    phi = _parse_tuple(args.first, inst.n, inst.cat.size)
    psi = _parse_tuple(args.second, inst.n, inst.cat.size)
    d = interleaving_distance(inst.scaled_image(args.alpha, phi),
                              inst.scaled_image(args.alpha, psi))
    doc = {
        "alpha": args.alpha,
        "first": list(phi),
        "second": list(psi),
        "distance": "inf" if d == float("inf") else d,
    }
    _emit(doc, args.out)
    return 0


def cmd_rate(args) -> int:
    inst = _load(args)
    r = conversion_rate(inst.cat, args.a, args.b, n_max=args.n_max)
    doc = {"a": args.a, "b": args.b, "n_max": args.n_max,
           "rate": None if r is None else str(r)}
    _emit(doc, args.out)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance", help="path to an instance JSON file")
    p.add_argument("--cap", type=int, default=10**6,
                   help="refuse enumeration beyond this many systems")
    p.add_argument("--close-hom", action="store_true",
                   help="take the reflexive-transitive closure of hom tables on load")
    p.add_argument("--out", default=None,
                   help="write output to a file (.csv selects CSV where supported)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Frontier search over resource allocation preorders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural and law checks for an instance file")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("frontier", help="exact frontier by exhaustive scan")
    _add_common(p)
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="accepted and unused: results are identical for any value")
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("lambda", help="strict improvement mass of one system")
    _add_common(p)
    p.add_argument("system", help="comma-separated object ids, e.g. 0,2,1")
    p.add_argument("--exact", action="store_true", help="exact rational output")
    p.add_argument("--threads", type=_positive_int, default=1)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("particle", help="single-particle search trace")
    _add_common(p)
    p.add_argument("--draws", type=int, required=True, help="number of re-draw rounds")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=10**5)
    p.add_argument("--exact", action="store_true",
                   help="exact rational jump probabilities and coefficients")
    p.set_defaults(func=cmd_particle)

    p = sub.add_parser("swarm", help="multi-particle search with reversibility flags")
    _add_common(p)
    p.add_argument("--particles", type=int, required=True)
    p.add_argument("--draws", type=int, required=True)
    p.add_argument("--epsilon", type=int, default=0,
                   help="coarsening steps allowed when reversing an improvement")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=10**5)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.set_defaults(func=cmd_swarm)

    p = sub.add_parser("certify", help="is a system within epsilon of the exact frontier")
    _add_common(p)
    p.add_argument("system", help="comma-separated object ids")
    p.add_argument("--epsilon", type=int, default=0)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("interleave", help="interleaving distance of two scaled images")
    _add_common(p)
    p.add_argument("first", help="comma-separated object ids")
    p.add_argument("second", help="comma-separated object ids")
    p.add_argument("--alpha", type=int, default=0, help="objective index")
    p.set_defaults(func=cmd_interleave)

    p = sub.add_parser("rate", help="bounded-window conversion rate between two objects")
    _add_common(p)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--n-max", type=int, default=16)
    p.set_defaults(func=cmd_rate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParetoCatError as e:
        print(f"{_PROG}: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
