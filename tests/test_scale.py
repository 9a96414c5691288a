import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pareto_cat as pc
from pareto_cat.scale import _ScaleTables, first_bad_row

import oracles
from conftest import preorders, scale_objects, worst_case_doc


def _chain(size: int) -> pc.TargetCategory:
    return pc.TargetCategory(size, [[a >= b for b in range(size)] for a in range(size)],
                             [[a] for a in range(size)])


CHAIN4 = _chain(4)


def test_scale_object_validation():
    pc.ScaleObject(CHAIN4, [3, 1, 0])  # legal downward walk
    with pytest.raises(pc.StructureError):
        pc.ScaleObject(CHAIN4, [])
    with pytest.raises(pc.StructureError):
        pc.ScaleObject(CHAIN4, [0, 4])
    with pytest.raises(pc.StructureError):
        pc.ScaleObject(CHAIN4, [1, 2])  # no arrow 1 -> 2 in a descending chain


def test_value_at_extends_by_last():
    y = pc.ScaleObject(CHAIN4, [3, 2, 0])
    assert [y.value_at(s) for s in range(6)] == [3, 2, 0, 0, 0, 0]
    assert y.grid_len == 3
    with pytest.raises(pc.PreconditionError):
        y.value_at(-1)


def test_shift_examples():
    y = pc.ScaleObject(CHAIN4, [3, 2, 0])
    assert pc.shift(y, 0) == y
    assert pc.shift(y, 1).values == (2, 0, 0)
    assert pc.shift(y, 5).values == (0, 0, 0)
    with pytest.raises(pc.PreconditionError):
        pc.shift(y, -1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_shift_is_a_monoid_action(data):
    base = data.draw(preorders())
    y = data.draw(scale_objects(base, data.draw(st.integers(1, 6))))
    a = data.draw(st.integers(0, 4))
    b = data.draw(st.integers(0, 4))
    assert pc.shift(y, 0) == y
    assert pc.shift(pc.shift(y, a), b) == pc.shift(y, a + b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_first_bad_row_matches_a_row_by_row_scan(data):
    """The first bad row, its kind and its message, on tables of walks
    with some values moved, out of range among them, and missing arrows
    at the first and the last grid step of some rows; held as int64, or
    in the least unsigned dtype when no value is negative. Chains of 15
    to 18 objects put the pair index a * K + b in a byte up to 16 objects
    and in a uint16 past them."""
    base = data.draw(st.one_of(preorders(), st.just(CHAIN4),  # closed random homs are often full
                               st.integers(15, 18).map(_chain)))
    grid_len = data.draw(st.integers(1, 5))
    rows = [list(data.draw(scale_objects(base, grid_len)).values)
            for _ in range(data.draw(st.integers(0, 6)))]
    for _ in range(data.draw(st.integers(0, 3))):
        if rows:
            r, s = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, grid_len - 1))
            rows[r][s] = data.draw(st.integers(-1, base.size))
    missing = [(a, b) for a in range(base.size) for b in range(base.size) if not base.hom[a][b]]
    for _ in range(data.draw(st.integers(0, 3))):
        if rows and grid_len > 1 and missing:
            r, s = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.sampled_from([0, -2]))
            rows[r][s], rows[r][s + 1] = data.draw(st.sampled_from(missing))
    table = np.array(rows, dtype=np.int64).reshape(len(rows), grid_len)
    if table.size and table.min() >= 0:
        table = table.astype(data.draw(st.sampled_from([np.int64, np.min_scalar_type(table.max())])))
    assert first_bad_row(table, base.hom) == oracles.scale_first_bad_row(rows, base.hom)


@pytest.mark.parametrize("size, dtype", [(17, np.uint8), (300, np.uint16)])
def test_scale_rules_read_narrow_tables_as_int64_ones(size, dtype):
    """A loaded scale table is held in the least dtype of its target's
    object ids. Near the top of a 17-object chain, a uint8 pair index
    a * 17 + b wraps, and so does a uint16 one near the top of a 300-object
    chain: the scale-row rule, reversibility and nearness answer as they
    do on the int64 table."""
    doc = worst_case_doc(3)
    target = {"objects": size, "iso_classes": [[a] for a in range(size)],
              "hom": [[int(a >= b) for b in range(size)] for a in range(size)]}
    doc["valuations"][0].update(target=target, goal=0, map={"kind": "composed",
                                                            "h": [size - 2, size - 1]})
    rnd, rows = random.Random(size), []
    for r in range(2**3):  # walks down from the top two objects
        rows.append([size - 1 - r % 2])
        while len(rows[-1]) < 4:
            rows[-1].append(rows[-1][-1] - rnd.randint(0, 2))
    doc["scale"] = {"grid_len": 4, "valuations_scaled": [rows]}
    narrow = pc.load_instance(doc)
    table = narrow.scale.tables[0]
    assert table.dtype == dtype and table.tolist() == rows
    wide = replace(narrow, scale=replace(narrow.scale, tables=(table.astype(np.int64),)))
    hom = narrow.objectives[0].target.hom
    assert first_bad_row(table, hom) is None
    bad = table.copy()
    bad[5, 1:3] = size - 3, size - 1
    assert first_bad_row(bad, hom) == first_bad_row(bad.astype(np.int64), hom) == (
        "transition", 5, f"missing transition arrow {size - 3} -> {size - 1} at scale 1")
    ranks = np.arange(2**3)
    for eps in range(6):  # past the 4-point grid's end
        got, want = _ScaleTables(narrow, eps), _ScaleTables(wide, eps)
        for x in ranks:
            assert got.near(x, ranks).tolist() == want.near(x, ranks).tolist()
            assert [got.reversible(x, y) for y in ranks] == [want.reversible(x, y) for y in ranks]
    assert {want.reversible(x, y) for x in ranks for y in ranks} == {True, False}


def test_nearness_holds_one_shift_at_a_time():
    """n = 12 of the worst-case family with a 32-point scale section, where
    rank r's row turns from object 0 to 1 at grid point r mod 32, so two
    ranks are as far apart as their turning points. At eps = 31 every
    rank is near rank 1, and nearness peaks under 1 MiB, 8 bytes a rank
    and grid point, as at eps = 0 (0.5 MiB). Holding every shift at once
    took (ranks x shifts x grid) arrays and peaked at 8.3 MiB."""
    doc = worst_case_doc(12)
    doc["scale"] = {"grid_len": 32, "valuations_scaled": [
        [[0] * (r % 32) + [1] * (32 - r % 32) for r in range(2**12)]]}
    inst, ranks = pc.load_instance(doc), np.arange(2**12)
    for eps in (0, 1, 31):
        tables = _ScaleTables(inst, eps)
        tracemalloc.start()
        try:
            near = tables.near(1, ranks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert near.tolist() == (abs(ranks % 32 - 1) <= eps).tolist()
        assert peak < 2**20, f"eps {eps}: peak {peak / 2**20:.1f} MiB"


def test_interleaving_frozen_cases():
    y = pc.ScaleObject(CHAIN4, [2, 1, 0, 0])
    z = pc.ScaleObject(CHAIN4, [1, 0, 0, 0])
    assert not pc.epsilon_interleaved(y, z, 0)
    assert pc.epsilon_interleaved(y, z, 1)
    assert pc.interleaving_distance(y, z) == 1
    assert pc.interleaving_distance(y, y) == 0
    with pytest.raises(pc.PreconditionError):
        pc.epsilon_interleaved(y, z, -1)


def test_interleaving_infinite_when_tails_diverge(cycle2):
    # the two mutually convertible resource objects have scaled images
    # whose tails land in incomparable targets, so no shift reconciles them
    y = cycle2.scaled_image(0, (1,))
    z = cycle2.scaled_image(0, (2,))
    assert y.values == (1, 3, 3)
    assert z.values == (2, 4, 4)
    assert pc.interleaving_distance(y, z) == math.inf


def test_pair_mismatch_rejected():
    y = pc.ScaleObject(CHAIN4, [2, 1])
    z = pc.ScaleObject(CHAIN4, [2, 1, 0])
    with pytest.raises(pc.PreconditionError):
        pc.interleaving_distance(y, z)
    other = pc.TargetCategory(2, [[1, 0], [1, 1]], [[0], [1]])
    w = pc.ScaleObject(other, [1, 0, 0])
    with pytest.raises(pc.PreconditionError):
        pc.interleaving_distance(z, w)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_pseudo_metric_axioms(data):
    base = data.draw(preorders())
    glen = data.draw(st.integers(1, 6))
    x = data.draw(scale_objects(base, glen))
    y = data.draw(scale_objects(base, glen))
    z = data.draw(scale_objects(base, glen))
    assert pc.interleaving_distance(x, x) == 0
    assert pc.interleaving_distance(x, y) == pc.interleaving_distance(y, x)
    dxz = pc.interleaving_distance(x, z)
    dxy = pc.interleaving_distance(x, y)
    dyz = pc.interleaving_distance(y, z)
    assert dxz <= dxy + dyz  # inf is absorbing on the right


def test_epsilon_reversible(chain3):
    y = chain3.scaled_image(0, (1, 1))  # image at the top level
    z = chain3.scaled_image(0, (0, 1))  # one improvement step down
    assert y.values == (2, 1, 0)
    assert z.values == (1, 0, 0)
    assert not pc.epsilon_reversible(y, z, 0, 0)
    assert pc.epsilon_reversible(y, z, 0, 1)
    with pytest.raises(pc.PreconditionError):
        pc.epsilon_reversible(z, y, 0, 1)  # no conversion to reverse
    with pytest.raises(pc.PreconditionError):
        pc.epsilon_reversible(y, z, 0, -1)


def test_convergence_staircase(staircase):
    chain = [staircase.scaled_image(0, (1, 1)), staircase.scaled_image(0, (0, 1))]
    assert pc.check_convergence(chain, 1)
    assert not pc.check_convergence(chain, 0)


def test_convergence_longer_chain():
    chain = [
        pc.ScaleObject(CHAIN4, [3, 2, 1, 0]),
        pc.ScaleObject(CHAIN4, [2, 1, 0, 0]),
        pc.ScaleObject(CHAIN4, [1, 0, 0, 0]),
    ]
    # reverse arrows hold per link at eps = 1, but the first element is
    # two reversal steps from the limit, so the conclusion needs eps = 2
    assert not pc.check_convergence(chain, 1)
    assert pc.check_convergence(chain, 2)
    # dropping the first element brings the bound back down
    assert pc.check_convergence(chain, 1, n0=1)


def test_convergence_preconditions():
    y = pc.ScaleObject(CHAIN4, [1, 0])
    z = pc.ScaleObject(CHAIN4, [2, 1])
    with pytest.raises(pc.PreconditionError):
        pc.check_convergence([], 1)
    with pytest.raises(pc.PreconditionError):
        pc.check_convergence([y, z], 1)  # link broken: no arrow 1 -> 2
    with pytest.raises(pc.PreconditionError):
        pc.check_convergence([y, y], 1)  # not strict anywhere
    with pytest.raises(pc.PreconditionError):
        pc.check_convergence([z, y], 1, n0=5)
    with pytest.raises(pc.PreconditionError):
        pc.check_convergence([z, y], -1)
