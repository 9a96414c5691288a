"""Command-line interface.

Subcommands operate on instance files (JSON documents describing the
resource preorder, objectives, object weights and optional scale
tables). ``main`` loads the instance strictly, calls the subcommand's
``answer_<command>(inst, args)`` and emits the ``(doc, table)`` it
returns once: ``doc``, a document (its text by :mod:`.emit`) or the
pieces of its text, as JSON with sorted keys on stdout or to ``--out``;
``table`` (frontier and swarm; None for the rest), the pieces of a CSV
text, header first, to an ``--out`` ending in ``.csv``: fields that
``csv.writer`` never quotes (integers, and digits, spaces, ``:`` and
``;``), joined by commas, each line ended by ``\r\n``. ``validate``
alone loads leniently, so that it can report every problem. Exit
status: 0 on success, 1 on any domain error (bad instance, failed
sampling, unwritable ``--out``), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import emit
from .errors import CapacityError, ParetoCatError, SamplingError
from .instance import load_instance
from .particle import run_particle
from .rescat import conversion_rate
from .scale import interleaving_distance
from .summing import check_capacity
from .swarm import SwarmConfig, certify_neighborhood, run_swarm
from .valuation import minorization_mass, pareto_frontier

_PROG = "pareto-cat"


def _emit(out: str | None, doc, table=None) -> None:
    as_csv = out is not None and out.endswith(".csv")
    if as_csv and table is None:
        raise ParetoCatError(f"CSV output is not available for this command: {out}")
    text = table if as_csv else [emit.text(doc)] if isinstance(doc, dict) else doc
    if out is None:
        sys.stdout.writelines(text)
        return
    try:
        with open(out, "w", newline="" if as_csv else None) as fh:
            fh.writelines(text)
    except OSError as e:
        raise ParetoCatError(f"cannot write {out}: {e.strerror or e}") from e


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
    _emit(args.out, doc)
    return 0 if not problems else 1


def answer_frontier(inst, args):
    _warn_if_empty(inst.system)
    result = pareto_frontier(inst.system)

    def table():
        yield "group,representative,member\r\n"
        values_text, last = " ".join(["%d"] * inst.n), -1
        for g, values in result.members():
            member = values_text % values
            if g != last:
                first, last = member, g
            yield "%d,%s,%s\r\n" % (g, first, member)

    return result.json_pieces(), table()


def answer_lambda(inst, args):
    _warn_if_empty(inst.system)
    phi = _parse_tuple(args.system, inst.n, inst.cat.size)
    mass = minorization_mass(inst.system, inst.distribution, phi, exact=args.exact)
    doc = {
        "system": list(phi),
        "mass": str(mass) if args.exact else mass,
        "on_frontier": (mass == 0),
    }
    return doc, None


def answer_particle(inst, args):
    if _warn_if_empty(inst.system):
        raise SamplingError("cannot sample: no admissible systems", 0.0)
    seed = _seed(args)
    trace = run_particle(inst.system, inst.distribution, args.draws,
                         seed=seed, budget=args.budget, exact=args.exact)
    doc = trace.to_dict()
    if args.exact:
        doc["jump_probs"] = [str(v) for v in trace.jump_probs]
        doc["coeffs"] = [str(v) for v in trace.coeffs]
    return doc, None


def answer_swarm(inst, args):
    if _warn_if_empty(inst.system):
        raise SamplingError("cannot sample: no admissible systems", 0.0)
    seed = _seed(args)
    config = SwarmConfig(particles=args.particles, draws=args.draws,
                         epsilon=args.epsilon, seed=seed, budget=args.budget)
    report = run_swarm(inst, config)

    def table():
        yield "particle,draw_index,system,epsilon,witness\r\n"
        for f in report.flagged:
            yield "%d,%d,%s,%d,%s\r\n" % (f.particle, f.draw_index, " ".join(map(str, f.functor)),
                                           f.epsilon, ";".join(f"{p}:{d}" for p, d in f.witness))

    return report.to_dict(), table()


def answer_certify(inst, args):
    phi = _parse_tuple(args.system, inst.n, inst.cat.size)
    ok = certify_neighborhood(inst, phi, args.epsilon)
    return {"system": list(phi), "epsilon": args.epsilon, "certified": ok}, None


def answer_interleave(inst, args):
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
    return doc, None


def answer_rate(inst, args):
    r = conversion_rate(inst.cat, args.a, args.b, n_max=args.n_max)
    doc = {"a": args.a, "b": args.b, "n_max": args.n_max,
           "rate": None if r is None else str(r)}
    return doc, None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Frontier search over resource allocation preorders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("instance", help="path to an instance JSON file")
    common.add_argument("--cap", type=_positive_int, default=10**6,
                        help="refuse enumeration beyond this many systems")
    common.add_argument("--close-hom", action="store_true",
                        help="take the reflexive-transitive closure of hom tables on load")
    common.add_argument("--out", default=None,
                        help="write output to a file (.csv selects CSV where supported)")

    def command(name, answer, summary):
        p = sub.add_parser(name, help=summary, parents=[common])
        p.set_defaults(answer=answer)
        return p

    # a parent parser would move --threads, --seed and --budget to the
    # front of their usage lines; these helpers add them in place
    def threads(p):
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="accepted and unused: results are identical for any value")

    def seed_and_budget(p):
        p.add_argument("--seed", type=int, default=None,
                       help="random seed; generated and echoed on stderr when omitted")
        p.add_argument("--budget", type=_positive_int, default=10**5,
                       help="rejection-sampling attempts allowed per admissible draw")

    command("validate", None, "structural and law checks for an instance file")

    threads(command("frontier", answer_frontier, "exact frontier by exhaustive scan"))

    p = command("lambda", answer_lambda, "strict improvement mass of one system")
    p.add_argument("system", help="comma-separated object ids, e.g. 0,2,1")
    p.add_argument("--exact", action="store_true", help="exact rational output")
    threads(p)

    p = command("particle", answer_particle, "single-particle search trace")
    p.add_argument("--draws", type=int, required=True, help="number of re-draw rounds")
    seed_and_budget(p)
    p.add_argument("--exact", action="store_true",
                   help="exact rational jump probabilities and coefficients")

    p = command("swarm", answer_swarm, "multi-particle search with reversibility flags")
    p.add_argument("--particles", type=int, required=True, help="number of particles")
    p.add_argument("--draws", type=int, required=True, help="re-draw rounds per particle")
    p.add_argument("--epsilon", type=int, default=0,
                   help="coarsening steps allowed when reversing an improvement")
    seed_and_budget(p)
    threads(p)

    p = command("certify", answer_certify, "is a system within epsilon of the exact frontier")
    p.add_argument("system", help="comma-separated object ids")
    p.add_argument("--epsilon", type=int, default=0,
                   help="interleaving distance allowed to a frontier member")

    p = command("interleave", answer_interleave, "interleaving distance of two scaled images")
    p.add_argument("first", help="comma-separated object ids")
    p.add_argument("second", help="comma-separated object ids")
    p.add_argument("--alpha", type=int, default=0, help="objective index")

    p = command("rate", answer_rate, "bounded-window conversion rate between two objects")
    p.add_argument("a", type=int, help="resource object id converted from")
    p.add_argument("b", type=int, help="resource object id converted into")
    p.add_argument("--n-max", type=int, default=16,
                   help="largest number of copies of a or b compared")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args)
        inst = load_instance(args.instance, cap=args.cap,
                             use_closure=args.close_hom, strict=True)
        _emit(args.out, *args.answer(inst, args))
        return 0
    except ParetoCatError as e:
        print(f"{_PROG}: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
