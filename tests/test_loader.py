"""The loader's integer rule, its one-pass scale tables, its collector
pause, and a fuzz of whole documents and single-field mutations."""

import copy
import gc
import json
import math
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pareto_cat as pc
from pareto_cat.cli import main
from pareto_cat.instance import _grid_table

from conftest import FIXTURES, fixture_doc


def mutated(doc, path, value):
    d = copy.deepcopy(doc)
    cur = d
    for key in path[:-1]:
        cur = cur[key]
    cur[path[-1]] = value
    return d


# ------------------------------------------------------ integers are integers

@pytest.mark.parametrize("path, value, code, where", [
    (("category", "objects"), 4.0, "category.shape", "category"),
    (("category", "unit"), 0.5, "category.shape", "category"),
    (("category", "iso_classes", 1, 0), "1", "category.shape", "category"),
    (("category", "tensor", 0, 1), 1.0, "category.shape", "category"),
    (("valuations", 1, "target", "objects"), True, "category.shape", "valuations[1].target"),
    (("system_size",), 2.5, "parse.shape", "system_size"),
    (("valuations", 0, "goal"), "1", "valuation.shape", "valuations[0]"),
    (("valuations", 0, "map", "h", 0), True, "valuation.shape", "valuations[0]"),
    (("valuations", 1, "map", "entries", 3), 0.0, "valuation.shape", "valuations[1]"),
    (("scale", "grid_len"), "4", "scale.shape", "scale.grid_len"),
    (("scale", "valuations_scaled", 0, 5, 1), 1.5, "scale.shape", "scale.valuations_scaled[0][5]"),
    (("scale", "valuations_scaled", 1, 7, 0), "1", "scale.shape", "scale.valuations_scaled[1][7]"),
    (("scale", "valuations_scaled", 1, 2, 3), False, "scale.shape", "scale.valuations_scaled[1][2]"),
    (("category", "hom", 0, 1), "0", "category.shape", "category"),
    (("category", "hom", 1, 0), 0.5, "category.shape", "category"),
    (("category", "hom", 2, 2), 2, "category.shape", "category"),
    (("valuations", 0, "target", "hom", 0, 0), [1], "category.shape", "valuations[0].target"),
    (("valuations", 1, "target", "hom", 3, 0), True, "category.shape", "valuations[1].target"),
], ids=lambda x: ".".join(map(str, x)) if isinstance(x, tuple) else None)
def test_non_integers_fail_with_the_sections_shape_code(path, value, code, where):
    with pytest.raises(pc.LoadError) as e:
        pc.load_instance(mutated(fixture_doc("staircase"), path, value))
    assert (e.value.code, e.value.path) == (code, where)


@pytest.mark.parametrize("where", ["category", "valuations[1].target"])
def test_an_empty_iso_cell_is_a_shape_error(where):
    doc = fixture_doc("staircase")
    section = doc["category"] if where == "category" else doc["valuations"][1]["target"]
    section["iso_classes"].append([])
    with pytest.raises(pc.LoadError) as e:
        pc.load_instance(doc)
    assert (e.value.code, e.value.path) == ("category.shape", where)
    assert "empty cell" in e.value.detail


# ------------------------------------------------- the scale table fast path

def reference_grid_table(table, grid_len, size, path):
    """The table by ``np.array``, after a scan for the first row that is
    not ``grid_len`` JSON integers fitting an int64."""
    def good(row):
        if type(row) is not list or len(row) != grid_len:
            return False
        if any(type(x) is not int for x in row):
            return False
        try:
            np.array(row, dtype=np.int64)
        except OverflowError:
            return False
        return True

    first = next((r for r, row in enumerate(table) if not good(row)), len(table))
    arr = np.array(table[:first], dtype=np.int64).reshape(first, grid_len)
    out = np.flatnonzero(((arr < 0) | (arr >= size)).any(axis=1))
    if out.size:
        return "scale.range", f"{path}[{out[0]}]"
    if first < len(table):
        return "scale.shape", f"{path}[{first}]"
    return arr


# short strings that look like numbers ("1", "0.5", "1/3") as well as words
texts = st.text(alphabet="013./-eaé字", max_size=4)

odd_values = st.one_of(
    st.integers(-3, 8),
    st.sampled_from([2**63 - 1, -2**63, 2**63, -2**63 - 1, 2**70]),
    st.floats(allow_nan=False), st.booleans(), texts, st.none(),
)
odd_rows = st.one_of(
    st.lists(odd_values, max_size=5),
    st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=1, max_size=4),
    st.dictionaries(texts, st.integers(0, 3), max_size=3),
    texts, st.integers(), st.none(),
)


@st.composite
def grid_tables(draw):
    grid_len, size = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(0, size - 1), min_size=grid_len,
                                  max_size=grid_len), min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows[r] = draw(odd_rows)
        elif isinstance(rows[r], list) and rows[r]:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(odd_values)
    return rows, grid_len, size


@given(grid_tables())
@settings(max_examples=300)
def test_grid_table_matches_the_reference(case):
    rows, grid_len, size = case
    want = reference_grid_table(rows, grid_len, size, "t")
    try:
        got = _grid_table(rows, len(rows), 1, grid_len, size, "t")
    except pc.LoadError as e:
        assert (e.code, e.path) == want
    else:
        assert isinstance(want, np.ndarray), want
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)


# ------------------------------------------------------- the collector pause

@pytest.fixture
def gc_state():
    """Yield a setter for the collector's state; restore it afterwards."""
    was = gc.isenabled()
    yield lambda on: (gc.enable if on else gc.disable)()
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("case", ["ok", "parse.json", "scale.shape"])
def test_load_instance_leaves_the_collector_as_it_found_it(tmp_path, gc_state, enabled, case):
    p = tmp_path / "inst.json"
    doc = fixture_doc("staircase")
    if case == "scale.shape":
        doc["scale"]["valuations_scaled"][0][3] = [0, 0]
    p.write_text("{ not json" if case == "parse.json" else json.dumps(doc))
    gc_state(enabled)
    if case == "ok":
        pc.load_instance(p)
    else:
        with pytest.raises(pc.LoadError) as e:
            pc.load_instance(p)
        assert e.value.code == case
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_to_dict_and_emission_leave_the_collector_as_they_found_it(chain3, gc_state, capsys,
                                                                   enabled):
    result = pc.pareto_frontier(chain3.system)
    gc_state(enabled)
    assert result.to_dict()["frontier_count"] == len(result.rows)
    assert gc.isenabled() is enabled
    assert main(["frontier", pc.fixture_path("chain3")]) == 0
    assert gc.isenabled() is enabled
    assert json.loads(capsys.readouterr().out) == result.to_dict()


# ----------------------------------------------------------------- weights

@pytest.mark.parametrize("weight, code", [
    ("1/0", "distribution.shape"), ("0/0", "distribution.shape"),
    ("1e10000000", "distribution.shape"), ("1e999999999", "distribution.shape"),
    (10**400, "distribution.sum"),
], ids=["1/0", "0/0", "1e10000000", "1e999999999", "10**400"])
def test_unreadable_weights_fail_fast_with_a_load_error(tmp_path, capsys, weight, code):
    """A string weight is "p/q" or a decimal without an exponent: no
    division by zero, no billion-digit integer, and no float overflow
    when a huge integer weight is summed."""
    doc = fixture_doc("chain3")
    doc["distribution"]["weights"][0] = weight
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    t0 = perf_counter()
    with pytest.raises(pc.LoadError) as e:
        pc.load_instance(p)
    assert perf_counter() - t0 < 1
    assert (e.value.code, e.value.path) == (code, "distribution.weights")
    assert main(["validate", str(p)]) == 1  # a shape error on stderr, a law in the report
    printed = capsys.readouterr()
    assert code in printed.out + printed.err


def test_object_distribution_reads_every_weight_or_raises_load_error():
    assert pc.ObjectDistribution(["1/3", "0.25", 0.4, 2, Fraction(1, 7)]).weights == (
        Fraction(1, 3), Fraction(1, 4), Fraction(2, 5), Fraction(2), Fraction(1, 7))
    for bad in ("abc", "1/0", "1e5", "1E-3", None, True):
        with pytest.raises(pc.LoadError) as e:
            pc.ObjectDistribution([bad])
        assert e.value.code == "distribution.shape"


# ------------------------------------------------------------------ the fuzz

# values that sit on an edge of some field's rule, drawn more often than
# the general strategies would draw them
edge_values = st.sampled_from([0, 1, -1, 2**31, 2**63, -2**63 - 1, 2**70, 10**400, 0.5, 1.0,
                               1e308, math.inf, -math.inf, math.nan, "1", "1/3", "1/0",
                               "1e999999999", "", True, False])

json_values = st.recursive(
    edge_values | st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=12,
)


def loads_or_load_error(path: Path) -> None:
    try:
        pc.load_instance(path)
    except pc.LoadError as e:
        assert e.code and "." in e.code


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000,
                                  b'{"metadata": {"n": ' + b"9" * 5000 + b"}}"],
                         ids=["not-utf8", "too-deep", "too-many-digits"])
def test_unreadable_text_is_a_parse_error(tmp_path, data):
    p = tmp_path / "doc.json"
    p.write_bytes(data)
    with pytest.raises(pc.LoadError) as e:
        pc.load_instance(p)
    assert e.value.code == "parse.json"


@given(json_values)
@settings(max_examples=200)
def test_any_json_value_loads_or_raises_load_error(fuzz_file, value):
    fuzz_file.write_text(json.dumps(value))
    loads_or_load_error(fuzz_file)


@given(st.data())
@settings(max_examples=600)
def test_single_field_mutations_load_or_raise_load_error(fuzz_file, data):
    doc = fixture_doc(data.draw(st.sampled_from(FIXTURES)))
    # walk down from the root, stopping at each level with even odds, so
    # that a top-level field is drawn about as often as the many values deep
    # in the scale tables
    parent, key = doc, data.draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.booleans()):
        parent = parent[key]
        key = data.draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                        else range(len(parent))))
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(edge_values | json_values)
    fuzz_file.write_text(json.dumps(doc))
    loads_or_load_error(fuzz_file)
