"""Deterministic instance generator for the benchmark.

Every synthetic instance is a level category: object ``x`` has a level,
arrows run from higher to lower-or-equal level, objects of one level are
isomorphic, and the tensor adds levels with a cap at the top level. All
laws hold by construction. Valuations target chains ``0..m`` (arrow
``a -> b`` iff ``a >= b``), so improving a system means lowering its
image in every objective.

The seed relabels the objects by a random permutation and nothing else:
every seed gives an isomorphic instance with the same shape counts
(systems, admissible systems, class vectors, frontier size), while the
object ids, enumeration order and output bytes change. That keeps the
amount of work equal across seeds, so run-to-run spread measures the
program and not the input size.

Usage: ``python3 bench/gen.py --seed 1 --out DIR`` writes the three
synthetic instances and prints their shape counts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path

GRID_LEN = 4

# family name -> (levels of the objects before relabelling, slots,
# weight numerators over their sum, in the same object order)
SHAPES = {
    # capped tensor total (goal: total level >= 1) against top - max level;
    # two objects share level 0, so frontier groups hold several members
    "deep": ((0, 0, 1, 2, 3, 4, 5, 6), 6, (1,) * 8),
    # the deep family at n = 5, with weight 5/8 on the level-5 object and
    # 1/1024 on the top one: nearly every particle draw is off the frontier
    # in the same class vector, with a 16,041-system improving set, so the
    # lambda work of a run is the same at every seed
    "lambda": ((0, 0, 1, 2, 3, 4, 5, 6), 5, (64, 64, 64, 64, 64, 63, 640, 1)),
    # sum of levels against the position-weighted complement of levels
    "wide": ((0, 1, 2, 3, 4, 5), 6, (1,) * 6),
}

# levels of the one system each family's exact lambda query asks about:
# off the frontier, with an improving set of a few hundred systems
QUERY_LEVELS = {
    "deep": (1, 1, 1, 0, 0, 0),
    "lambda": (1, 1, 1, 0, 0),
    "wide": (1, 1, 1, 1, 1, 1),
}


def _chain(size: int) -> dict:
    return {
        "objects": size,
        "hom": [[int(a >= b) for b in range(size)] for a in range(size)],
        "iso_classes": [[a] for a in range(size)],
    }


def _relabel(base, seed: int) -> list:
    """base[x] for object id x after a seeded permutation."""
    order = list(range(len(base)))
    random.Random(seed).shuffle(order)
    return [base[order[x]] for x in range(len(base))]


def _category(levels) -> dict:
    k, top = len(levels), max(levels)
    rep = [min(x for x in range(k) if levels[x] == lv) for lv in range(top + 1)]
    classes = [[x for x in range(k) if levels[x] == lv] for lv in range(top + 1)]
    return {
        "objects": k,
        "hom": [[int(levels[a] >= levels[b]) for b in range(k)] for a in range(k)],
        "iso_classes": classes,
        "unit": rep[0],
        "tensor": [[rep[min(levels[a] + levels[b], top)] for b in range(k)]
                   for a in range(k)],
    }


def _scaled(images) -> list:
    """One coarsening walk per system: the image, then one level lower
    per grid step until level 0."""
    return [[max(v - s, 0) for s in range(GRID_LEN)] for v in images]


def family_doc(family: str, seed: int) -> dict:
    """The instance document of one synthetic family at one seed."""
    base, n, base_weights = SHAPES[family]
    levels = _relabel(base, seed)
    weights = _relabel(base_weights, seed)
    k, top = len(levels), max(levels)
    tuples = list(itertools.product(range(k), repeat=n))
    if family in ("deep", "lambda"):
        first = {"kind": "composed", "h": list(levels)}
        first_images = [min(sum(levels[x] for x in t), top) for t in tuples]
        second_images = [top - max(levels[x] for x in t) for t in tuples]
        targets = (top + 1, top + 1)
        goals = (1, 0)
    else:
        slot_weights = range(1, n + 1)
        first_images = [sum(levels[x] for x in t) for t in tuples]
        second_images = [sum(w * (top - levels[x]) for w, x in zip(slot_weights, t))
                         for t in tuples]
        first = {"kind": "table", "entries": first_images}
        targets = (n * top + 1, sum(slot_weights) * top + 1)
        goals = (0, 0)
    second = {"kind": "table", "entries": second_images}
    return {
        "metadata": {"name": f"bench-{family}", "seed": seed},
        "category": _category(levels),
        "system_size": n,
        "valuations": [
            {"target": _chain(targets[0]), "goal": goals[0], "map": first},
            {"target": _chain(targets[1]), "goal": goals[1], "map": second},
        ],
        "distribution": {"weights": [f"{w}/{sum(weights)}" for w in weights]},
        "scale": {
            "grid_len": GRID_LEN,
            "valuations_scaled": [_scaled(first_images), _scaled(second_images)],
        },
    }


def query_system(family: str, seed: int) -> tuple:
    """The exact lambda query of a family, in the seed's object ids: the
    least object id of each wanted level."""
    levels = _relabel(SHAPES[family][0], seed)
    return tuple(levels.index(lv) for lv in QUERY_LEVELS[family])


def write_family(family: str, seed: int, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{family}-{seed}.json"
    path.write_text(json.dumps(family_doc(family, seed), separators=(",", ":")))
    return path


def shape_counts(doc: dict) -> dict:
    """Shape of an instance, from the independent reference."""
    from oracle import Oracle

    oracle = Oracle(doc)
    return {
        "valuation.systems": oracle.size,
        "valuation.admissible": int(oracle.admissible.sum()),
        "valuation.class_vectors": oracle.class_vectors,
        "valuation.frontier_members": int(oracle.frontier.sum()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for family in sorted(SHAPES):
        path = write_family(family, args.seed, args.out)
        counts = shape_counts(json.loads(path.read_text()))
        print(json.dumps({"family": family, "path": str(path), **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
