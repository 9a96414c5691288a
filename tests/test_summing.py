import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pareto_cat as pc

from conftest import resource_categories
from test_rescat import CHAIN4


def test_count():
    assert pc.count_functors(4, 2) == 16
    assert pc.count_functors(3, 0) == 1


def test_enumeration_is_lexicographic():
    got = list(pc.enumerate_summing_functors(CHAIN4, 1))
    assert got == [(0,), (1,), (2,), (3,)]
    got2 = list(pc.enumerate_summing_functors(CHAIN4, 2))
    assert got2[0] == (0, 0)
    assert got2[1] == (0, 1)
    assert got2[-1] == (3, 3)
    assert len(got2) == 16
    assert got2 == sorted(got2)


def test_enumeration_cap():
    with pytest.raises(pc.CapacityError) as ei:
        pc.enumerate_summing_functors(CHAIN4, 11, cap=10**6)
    assert ei.value.required == 4**11
    assert ei.value.cap == 10**6


def test_evaluate_subsets():
    # tensor over an index subset, unit for the empty set
    assert pc.evaluate(CHAIN4, (1, 2, 1), ()) == 0
    assert pc.evaluate(CHAIN4, (1, 2, 1), (0,)) == 1
    assert pc.evaluate(CHAIN4, (1, 2, 1), (0, 1)) == 3
    assert pc.evaluate(CHAIN4, (1, 2, 1), (0, 2)) == 2
    assert pc.evaluate(CHAIN4, (1, 2, 1), range(3)) == 3
    with pytest.raises(pc.PreconditionError):
        pc.evaluate(CHAIN4, (1, 2), (0, 5))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.integers(0, 3), st.data())
def test_rank_unrank_roundtrip(k, n, data):
    tup = tuple(data.draw(st.integers(0, k - 1)) for _ in range(n))
    r = pc.tuple_rank(k, tup)
    assert 0 <= r < k**n
    assert pc.tuple_unrank(k, n, r) == tup


def test_rank_order_matches_enumeration():
    for r, tup in enumerate(pc.enumerate_summing_functors(CHAIN4, 2)):
        assert pc.tuple_rank(4, tup) == r


def test_componentwise_iso():
    cat = pc.ResourceCategory(
        4,
        [[1, 0, 0, 0], [1, 1, 0, 1], [1, 1, 1, 1], [1, 1, 0, 1]],
        [[0], [1, 3], [2]],
        0,
        [[0, 1, 2, 1], [1, 2, 2, 2], [2, 2, 2, 2], [1, 2, 2, 2]],
    )
    assert pc.functors_isomorphic(cat, (0, 1), (0, 3))
    assert pc.functors_isomorphic(cat, (1, 3), (3, 1))
    assert not pc.functors_isomorphic(cat, (0, 1), (1, 0))
    with pytest.raises(pc.PreconditionError):
        pc.functors_isomorphic(cat, (0,), (0, 1))


@pytest.mark.parametrize("a, b", [((-1, 0), (3, 0)), ((9, 0), (0, 0))])
def test_componentwise_iso_refuses_object_ids_out_of_range(a, b):
    cat = pc.load_instance(pc.fixture_path("chain3")).cat
    with pytest.raises(pc.StructureError, match="^object id out of range"):
        pc.functors_isomorphic(cat, a, b)


@pytest.mark.parametrize("call, error, message", [
    (lambda: pc.evaluate(CHAIN4, (1, 4), (0, 1)), pc.StructureError, "object id 4 out of range"),
    (lambda: pc.tuple_rank(4, (0, -1)), pc.StructureError, "object id -1 out of range"),
    (lambda: pc.tuple_unrank(4, 2, 16), pc.PreconditionError, r"rank 16 out of range for 4\^2"),
    (lambda: pc.tuple_unrank(4, 2, -1), pc.PreconditionError, r"rank -1 out of range for 4\^2"),
    (lambda: pc.enumerate_summing_functors(CHAIN4, -1), pc.PreconditionError,
     "system size must be >= 0, got -1"),
], ids=["evaluate", "rank", "unrank-high", "unrank-negative", "enumerate"])
def test_out_of_range_arguments_are_refused(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


@settings(max_examples=50, deadline=None)
@given(resource_categories(), st.data())
def test_componentwise_iso_is_equivalence(cat, data):
    n = data.draw(st.integers(1, 3))
    mk = lambda: tuple(data.draw(st.integers(0, cat.size - 1)) for _ in range(n))
    a, b, c = mk(), mk(), mk()
    assert pc.functors_isomorphic(cat, a, a)
    assert pc.functors_isomorphic(cat, a, b) == pc.functors_isomorphic(cat, b, a)
    if pc.functors_isomorphic(cat, a, b) and pc.functors_isomorphic(cat, b, c):
        assert pc.functors_isomorphic(cat, a, c)


@settings(max_examples=30, deadline=None)
@given(resource_categories(), st.data())
def test_evaluate_respects_iso(cat, data):
    """Componentwise-isomorphic tuples evaluate to isomorphic objects."""
    n = data.draw(st.integers(1, 3))
    a = tuple(data.draw(st.integers(0, cat.size - 1)) for _ in range(n))
    cls = cat.iso_class_of
    b = []
    for x in a:
        members = [o for o in range(cat.size) if cls[o] == cls[x]]
        b.append(members[data.draw(st.integers(0, len(members) - 1))])
    b = tuple(b)
    va, vb = pc.evaluate(cat, a, range(n)), pc.evaluate(cat, b, range(n))
    assert cat.isomorphic(va, vb)
