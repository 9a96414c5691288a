"""The emitter prints what ``json.dumps(doc, indent=2, sort_keys=True)``
prints, and the frontier's text path prints what its ``to_dict`` does,
without holding the document or the text."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pareto_cat as pc
from pareto_cat import emit, valuation

from conftest import FIXTURES, valuation_systems, worst_case_doc


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=2**64, max_value=2**300).map(lambda i: i * (-1) ** i),
    st.floats(),
    st.sampled_from([1e-300, 0.1, -0.0, 1e16, math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "é中", "\U0001f600", "\ud800", '"\\/\b\f\n\r\t']),
)
documents = st.recursive(
    scalars,
    lambda kids: st.one_of(st.lists(kids, max_size=5),
                           st.lists(kids, max_size=3).map(tuple),
                           st.dictionaries(st.text(max_size=4), kids, max_size=5)),
    max_leaves=30)


@given(documents)
@settings(max_examples=400)
def test_emitter_prints_what_json_dumps_prints(doc):
    assert emit.text(doc) == dumps(doc)


@pytest.mark.parametrize("doc", [
    [{}, [], [[]], {"": {}}], [[1, [2, [3, {"k": [None]}]]]], {"b": (), "a": {"": ()}},
], ids=["empty containers", "deep nesting", "tuples"])
def test_emitter_containers(doc):
    assert emit.text(doc) == dumps(doc)


@pytest.mark.parametrize("doc", [{"x": object()}, {"x": np.int64(1)}, {1: "int key"}],
                         ids=["object", "numpy int", "int key"])
def test_emitter_refuses_what_it_does_not_write(doc):
    """A value ``json.dumps`` refuses, and a key that is not a string."""
    with pytest.raises(TypeError):
        emit.text(doc)


# ------------------------------------------------------- the frontier's text

def frontier_text_matches(result: pc.FrontierResult) -> None:
    assert "".join(result.json_pieces()) == dumps(result.to_dict())


@pytest.mark.parametrize("name", FIXTURES)
def test_frontier_text_matches_on_every_fixture(all_instances, name):
    frontier_text_matches(pc.pareto_frontier(all_instances[name].system))


@given(valuation_systems(max_size=4, max_n=4), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_frontier_text_matches_on_random_systems(system, chunk):
    """Also with rows read a few at a time, so groups span chunks."""
    result = pc.pareto_frontier(system)
    frontier_text_matches(result)
    with mock.patch.object(valuation, "_CHUNK_ROWS", chunk):
        frontier_text_matches(result)
        assert [g for g, _ in result.members()] == [
            g for g, grp in enumerate(result.groups) for _ in grp.members]


@pytest.mark.parametrize("n", [0, 1, 5])
def test_frontier_text_matches_on_the_worst_case_family(n):
    result = pc.pareto_frontier(pc.load_instance(worst_case_doc(n)).system)
    assert len(result.rows) == max(2**n - 1, 1)
    frontier_text_matches(result)


def test_frontier_text_of_an_empty_frontier(cycle2):
    result = pc.pareto_frontier(cycle2.system)
    assert len(result.rows) == 0 and len(result.ends) == 0
    frontier_text_matches(result)
    frontier_text_matches(pc.FrontierResult(rows=np.zeros((0, 3), np.uint8),
                                            ends=np.zeros(0, np.intp),
                                            admissible_count=0, functor_count=27))


def test_frontier_rows_are_object_ids_in_the_least_dtype(staircase):
    result = pc.pareto_frontier(staircase.system)
    assert result.rows.dtype == np.uint8
    assert result.to_dict()["groups"][0]["members"][0] == result.rows[0].tolist()


def test_pareto_frontier_memory_is_bounded():
    """At n = 16 of the worst-case family (65,536 systems, 65,535 members)
    the frontier allocates under 10 MiB at its peak, 160 bytes a system.
    Object-id rows built through two int64 (rows x n) intermediates take
    256 bytes a system, and the frontier peaked at 19.6 MiB with them."""
    inst = pc.load_instance(worst_case_doc(16))
    tracemalloc.start()
    try:
        result = pc.pareto_frontier(inst.system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.rows) == 2**16 - 1
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_frontier_result_keeps_little_beyond_its_rows():
    """At n = 16 of the worst-case family (65,535 groups of one member
    each), the result holds under 1 MiB beyond its 1 MiB of rows, 16
    bytes a group: its group ends are one intp array (512 KiB). As a
    tuple of Python ints they took 2.5 MiB."""
    system = pc.load_instance(worst_case_doc(16)).system
    system.image_class_vectors, system.admissible_mask, system.iso_representatives
    tracemalloc.start()
    try:
        result = pc.pareto_frontier(system)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.ends) == 2**16 - 1
    assert held - result.rows.nbytes < 2**20, f"{(held - result.rows.nbytes) / 2**20:.2f} MiB"


def test_grouping_the_frontier_needs_no_sort():
    """At n = 16 of the worst-case family, with the system's tables built,
    the frontier's members are found and grouped by iso representative
    under 2.6 MiB, 42 bytes a system, before they are put in order (2.3 MiB
    by a presence table over the ranks); grouping by sorting
    (``np.unique``) held the keys, their argsort and the inverse at once
    and peaked at 3.1 MiB."""
    system = pc.load_instance(worst_case_doc(16)).system
    system.image_class_vectors, system.admissible_mask, system.iso_representatives
    argsort, peaks = np.argsort, []

    def ordering(*args, **kwargs):  # the first call orders the grouped members
        peaks.append(tracemalloc.get_traced_memory()[1])
        return argsort(*args, **kwargs)

    tracemalloc.start()
    try:
        with mock.patch.object(np, "argsort", ordering):
            result = pc.pareto_frontier(system)
    finally:
        tracemalloc.stop()
    assert len(result.ends) == 2**16 - 1
    assert peaks[0] < 2.6 * 2**20, f"peak {peaks[0] / 2**20:.2f} MiB"
