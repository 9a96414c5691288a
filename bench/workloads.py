"""The four benchmark workloads and the CLI-equivalent calls they make.

Each workload makes two kinds of call, each on a freshly loaded
instance, as separate ``pareto-cat`` invocations would:

* ``main``, timed as ``solve_s``: the workload's subcommand.
* ``exact``, timed as ``exact_solve_s``: the workload's exact-arithmetic
  (``Fraction``) query, ``particle --exact`` or ``lambda --exact``.

A call covers the public-API calls the subcommand makes
(``prime_admissibility`` first, where the subcommand makes it), then ``to_dict()``
and the subcommand's own post-processing, then the bytes the CLI prints.
The traced run replays both through the real CLI and compares bytes.
"""

from __future__ import annotations

import json

SWARM = {"particles": 8, "draws": 160, "epsilon": 1}

WORKLOADS = {
    "frontier-deep": {
        "family": "deep",
        "main": ("frontier", {}),
        "exact": ("lambda", {}),
    },
    "frontier-wide": {
        "family": "wide",
        "main": ("frontier", {}),
        "exact": ("lambda", {}),
    },
    "particle-lambda": {
        "family": "lambda",
        "main": ("particle", {"draws": 40}),
        "exact": ("particle", {"draws": 10, "exact": True}),
    },
    "swarm-staircase": {
        "fixture": "staircase",
        "main": ("swarm", SWARM),
        "exact": ("particle", {"draws": SWARM["draws"], "exact": True}),
    },
}


def emit(doc: dict) -> str:
    """The text ``pareto-cat`` prints for a result document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def call(pc, kind: str, params: dict, inst, seed: int, query):
    """Run one subcommand's computation; returns ``(result, to_doc)`` so
    the caller can time emission on its own."""
    if kind in ("frontier", "lambda", "swarm"):
        # these subcommands fill the admissibility table with their own
        # scan before the call, so its cached property never runs
        pc.prime_admissibility(inst.system)
    if kind == "frontier":
        return pc.pareto_frontier(inst.system), lambda r: r.to_dict()
    if kind == "lambda":
        mass = pc.minorization_mass(inst.system, inst.distribution, query, exact=True)
        return mass, lambda m: {"system": list(query), "mass": str(m),
                                "on_frontier": m == 0}
    if kind == "particle":
        exact = params.get("exact", False)
        trace = pc.run_particle(inst.system, inst.distribution, params["draws"],
                                seed=seed, budget=10**5, exact=exact)

        def to_doc(t):
            doc = t.to_dict()
            if exact:
                doc["jump_probs"] = [str(v) for v in t.jump_probs]
                doc["coeffs"] = [str(v) for v in t.coeffs]
            return doc

        return trace, to_doc
    if kind == "swarm":
        config = pc.SwarmConfig(particles=params["particles"], draws=params["draws"],
                                epsilon=params["epsilon"], seed=seed, budget=10**5)
        return pc.run_swarm(inst, config), lambda r: r.to_dict()
    raise ValueError(f"unknown call kind {kind!r}")


def cli_args(kind: str, params: dict, path: str, seed: int, query) -> list:
    """The ``pareto-cat`` arguments that print the same bytes as ``call``."""
    if kind == "frontier":
        return ["frontier", path]
    if kind == "lambda":
        return ["lambda", path, ",".join(map(str, query)), "--exact"]
    if kind == "particle":
        args = ["particle", path, "--draws", str(params["draws"]), "--seed", str(seed)]
        return args + (["--exact"] if params.get("exact") else [])
    if kind == "swarm":
        return ["swarm", path, "--particles", str(params["particles"]),
                "--draws", str(params["draws"]), "--epsilon", str(params["epsilon"]),
                "--seed", str(seed)]
    raise ValueError(f"unknown call kind {kind!r}")
