import json
import os
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import pareto_cat as pc

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, and
# a reproduction blob printed with any failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

FIXTURES = ("chain3", "cycle2", "staircase")


def fixture_doc(name: str) -> dict:
    return json.loads(Path(pc.fixture_path(name)).read_text())


@pytest.fixture(scope="session")
def chain3():
    return pc.load_instance(pc.fixture_path("chain3"))


@pytest.fixture(scope="session")
def cycle2():
    return pc.load_instance(pc.fixture_path("cycle2"))


@pytest.fixture(scope="session")
def staircase():
    return pc.load_instance(pc.fixture_path("staircase"))


@pytest.fixture(scope="session")
def all_instances(chain3, cycle2, staircase):
    return {"chain3": chain3, "cycle2": cycle2, "staircase": staircase}


def many_objectives_doc(count: int) -> dict:
    """Two systems, (0,) and (1,), and ``count`` table objectives into the
    chain 0 -> 1 with goal 1. Objective 0 sends the systems to 0 and 1;
    every other one sends both to 0. So (1,) strictly improves on (0,),
    and the frontier is (1,) alone, however many objectives there are."""
    chain = {"objects": 2, "hom": [[1, 1], [0, 1]], "iso_classes": [[0], [1]]}
    return {
        "category": {"objects": 2, "hom": [[1, 0], [0, 1]], "iso_classes": [[0], [1]],
                     "unit": 0, "tensor": [[0, 1], [1, 1]]},
        "system_size": 1,
        "valuations": [{"target": chain, "goal": 1,
                        "map": {"kind": "table", "entries": [0, int(a == 0)]}}
                       for a in range(count)],
        "distribution": {"weights": [0.5, 0.5]},
    }


def worst_case_doc(n: int) -> dict:
    """The chain 0 -> 1 as resource category, its tensor capped at 1, and
    one composed objective, the identity into the same chain, with goal 1.
    Every one of the 2^n systems is admissible, and every one but
    (0, ..., 0) is on the frontier, in a group of its own: at n = 19 the
    frontier's text is the largest a 300-byte document makes under the
    default cap."""
    chain = {"objects": 2, "hom": [[1, 1], [0, 1]], "iso_classes": [[0], [1]]}
    return {
        "category": {**chain, "unit": 0, "tensor": [[0, 1], [1, 1]]},
        "system_size": n,
        "valuations": [{"target": chain, "goal": 1, "map": {"kind": "composed", "h": [0, 1]}}],
        "distribution": {"weights": [0.5, 0.5]},
    }


# ---------------------------------------------------------------- strategies

def level_category(draw, size, max_level=None):
    """A resource category built from a level function: arrows go from
    higher to lower-or-equal level, tensor adds levels with a cap, and
    objects of equal level are isomorphic. Satisfies every structural
    law by construction."""
    cap = max_level if max_level is not None else draw(st.integers(1, 3))
    levels = [0] + [draw(st.integers(0, cap)) for _ in range(size - 1)]
    present = sorted(set(levels) | {0})
    # reindex levels onto a contiguous ladder so every tensor value exists
    ladder = {lv: i for i, lv in enumerate(present)}
    levels = [ladder[lv] for lv in levels]
    top = max(levels)
    rep = [levels.index(m) for m in range(top + 1)]
    hom = [[levels[a] >= levels[b] for b in range(size)] for a in range(size)]
    tensor = [
        [rep[min(levels[a] + levels[b], top)] for b in range(size)]
        for a in range(size)
    ]
    classes: dict = {}
    for obj, lv in enumerate(levels):
        classes.setdefault(lv, []).append(obj)
    iso_classes = [classes[lv] for lv in sorted(classes)]
    return pc.ResourceCategory(size, hom, iso_classes, 0, tensor), levels


@st.composite
def resource_categories(draw, max_size=5):
    size = draw(st.integers(2, max_size))
    cat, _ = level_category(draw, size)
    return cat


@st.composite
def valuation_systems(draw, max_size=4, max_n=3, max_objectives=2):
    """Random systems whose objectives respect isomorphism by design."""
    size = draw(st.integers(2, max_size))
    cat, levels = level_category(draw, size)
    n = draw(st.integers(1, max_n))
    n_obj = draw(st.integers(1, max_objectives))
    objectives = []
    for _ in range(n_obj):
        t_size = draw(st.integers(2, 5))
        target, t_levels = level_category(draw, t_size)
        # class-constant choice of target class per resource class,
        # then a free member choice per object
        res_classes = sorted({lv for lv in levels})
        class_pick = {
            lv: draw(st.integers(0, len(target.iso_classes) - 1))
            for lv in res_classes
        }
        h = []
        for obj in range(size):
            members = target.iso_classes[class_pick[levels[obj]]]
            h.append(members[draw(st.integers(0, len(members) - 1))])
        goal = draw(st.integers(0, t_size - 1))
        objectives.append(
            pc.Objective(target=target, goal=goal, kind="composed", h=tuple(h))
        )
    return pc.ValuationSystem(cat=cat, n=n, objectives=tuple(objectives), cap=10**6)


@st.composite
def lambda_sequences(draw, max_len=12, monotone=False):
    n = draw(st.integers(1, max_len))
    vals = [
        draw(st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False))
        for _ in range(n)
    ]
    if monotone:
        vals.sort(reverse=True)
    return vals


@st.composite
def prob_objects(draw, iso_classes, max_components=6):
    """Weights from a normalized positive integer vector: exact sum 1."""
    size = sum(len(c) for c in iso_classes)
    m = draw(st.integers(1, max_components))
    raw = [draw(st.integers(1, 9)) for _ in range(m)]
    total = sum(raw)
    payloads = [draw(st.integers(0, size - 1)) for _ in range(m)]
    from fractions import Fraction

    return pc.ProbObject(
        [(Fraction(r, total), p) for r, p in zip(raw, payloads)]
    )


@st.composite
def preorders(draw, max_size=6):
    """Random reflexive-transitive hom table with singleton iso classes."""
    size = draw(st.integers(2, max_size))
    hom = [
        [a == b or draw(st.booleans()) for b in range(size)]
        for a in range(size)
    ]
    hom = pc.close_hom(hom)
    return pc.TargetCategory(size, hom, [[i] for i in range(size)])


@st.composite
def scale_objects(draw, base, grid_len):
    """A random downward walk along the preorder, always legal."""
    cur = draw(st.integers(0, base.size - 1))
    vals = [cur]
    while len(vals) < grid_len:
        nxt = [b for b in range(base.size) if base.hom[cur][b]]
        cur = nxt[draw(st.integers(0, len(nxt) - 1))]
        vals.append(cur)
    return pc.ScaleObject(base, vals)
