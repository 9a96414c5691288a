"""The loader's integer rule, its one-pass scale tables, its numpy
reader for large scale sections and table entries, its collector pause,
and a fuzz of whole documents and single-field mutations."""

import copy
import gc
import importlib.util
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pareto_cat as pc
from pareto_cat.cli import main
from pareto_cat import instance
from pareto_cat.instance import _first_digits, _grid_table, _numpy_sections
from pareto_cat.scale import first_bad_row

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
        assert got.dtype == np.min_scalar_type(size - 1) and got.shape == want.shape
        assert np.array_equal(got, want)


# ------------------------------------------------ the numpy section reader

PLACEHOLDER = "@section@"


def section_text(doc: dict, rnd, field: str, key: str, section: str, extra: str = "") -> str:
    """``doc`` as JSON text, its top-level fields in random order, with the
    ``field`` that holds ``PLACEHOLDER`` written as ``key`` (the field's
    name, perhaps escaped), ``section`` and ``extra``."""
    text = json.dumps(dict(rnd.sample(sorted(doc.items()), len(doc))))
    return text.replace(f'"{field}": "{PLACEHOLDER}"', f'"{key}": {section}{extra}')


SPACES = ("", "", " ", "\n", "\t", "\r\n  ")


def render(value, rnd, spaces=SPACES) -> str:
    """Nested lists of value texts as JSON, with whitespace drawn from
    ``spaces`` in every slot: ``("",)`` writes compact JSON."""
    if isinstance(value, str):
        return value
    space = lambda: rnd.choice(spaces)
    return ("[" + space() + ("," + space()).join(render(v, rnd, spaces) + space() for v in value)
            + "]")


# one token of a section replaced: its old text in, its new text out
TOKEN_MUTATIONS = {"float": lambda v: v + ".0", "exponent": lambda v: v + "e0",
                   "true": lambda v: "true", "minus": lambda v: "-" + v,
                   "leading zero": lambda v: "0" + v, "19 digits": lambda v: "1" + "0" * 18,
                   "string": lambda v: f'"{v}"', "nested list": lambda v: f"[{v}]",
                   "two digits": lambda v: "10", "space after": lambda v: v + " "}
SCALE_SHAPE_MUTATIONS = ("row+", "row-", "column+", "column-", "objective+", "objective-",
                         "value moved to the next row")
ENTRY_SHAPE_MUTATIONS = ("entry+", "entry-")
KEY_MUTATIONS = ("duplicate key", "key in a metadata string", "key in metadata",
                 "constant in metadata", "escaped key", "trailing junk")
# the mutations after which the reader leaves the whole text to json
DECLINES = {*TOKEN_MUTATIONS, *SCALE_SHAPE_MUTATIONS, "duplicate key", "key in metadata",
            "constant in metadata", "trailing junk", "entries in a composed map"} - {
    "two digits", "space after"}  # a compact one-digit section with these takes the digit passes


def mutate_token(values: list, rnd, mutation: str) -> None:
    """Apply a token mutation to one random value of nested lists."""
    at = values
    while isinstance(at[0], list):
        at = rnd.choice(at)
    i = rnd.randrange(len(at))
    at[i] = TOKEN_MUTATIONS[mutation](at[i])


@st.composite
def section_cases(draw, where: str):
    """:func:`section_case` drawn: random values, whitespace or none, and
    at most one mutation."""
    rnd = draw(st.randoms(use_true_random=False))
    top = draw(st.sampled_from([3, 3, 9, 999, 10**6, 10**18 - 1]))  # uint8 to uint64
    shapes = SCALE_SHAPE_MUTATIONS if where == "scale" else ENTRY_SHAPE_MUTATIONS
    extras = ("entries in a composed map",) if where == "entries" else ()
    mutation = draw(st.sampled_from((None,) * 4 + tuple(TOKEN_MUTATIONS) + shapes
                                    + KEY_MUTATIONS + extras))
    spaces = draw(st.sampled_from((SPACES, ("",))))
    return section_case(where, rnd, top, mutation, spaces, draw(st.integers(1, 4)))


def section_case(where: str, rnd, top: int, mutation, spaces: tuple, grid_len: int) -> tuple:
    """The staircase document with random scale tables of ``grid_len``
    columns (``where`` is ``"scale"``) or random entries of its second
    objective (``"entries"``), values in 0..top, rendered with ``spaces``,
    and at most one mutation; returns ``(text, mutation)``."""
    doc = fixture_doc("staircase")
    if where == "scale":
        values = [[[str(rnd.randint(0, top)) for _ in range(grid_len)] for _ in range(16)]
                  for _ in range(2)]
        table, row = rnd.choice(values), rnd.randrange(16)
        if mutation == "row+":
            table.insert(row, list(table[row]))
        elif mutation == "row-":
            del table[row]
        elif mutation == "column+":
            table[row].append("0")
        elif mutation == "column-":
            table[row].pop()
        elif mutation == "value moved to the next row":
            table[(row + 1) % 16].append(table[row].pop())
        elif mutation == "objective+":
            values.append(table)
        elif mutation == "objective-":
            values.remove(table)
        field, home, small = "valuations_scaled", doc["scale"], [[["0"] * grid_len] * 16] * 2
        fields = [("grid_len", grid_len), (field, PLACEHOLDER)]
    else:
        values = [str(rnd.randint(0, top)) for _ in range(16)]
        i = rnd.randrange(16)
        if mutation == "entry+":
            values.insert(i, values[i])
        elif mutation == "entry-":
            del values[i]
        elif mutation == "entries in a composed map":
            doc["valuations"][0]["map"]["entries"] = [0] * 16
        field, home, small = "entries", doc["valuations"][1]["map"], ["0"] * 16
        fields = [("kind", "table"), (field, PLACEHOLDER)]
    if mutation in TOKEN_MUTATIONS:
        mutate_token(values, rnd, mutation)
    home.clear()
    home.update(fields[::rnd.choice((1, -1))])
    section = render(values, rnd, spaces)
    key, extra = field, ""
    if mutation == "duplicate key":
        extra = f', "{field}": ' + render(small, rnd)
    elif mutation == "key in a metadata string":
        doc["metadata"]["name"] = f'"{field}": ' + section
    elif mutation == "key in metadata":  # integers, so only where its hole lands is wrong
        doc["metadata"][field] = json.loads(render(small, rnd))
    elif mutation == "constant in metadata":
        doc["metadata"]["limit"] = rnd.choice((math.nan, math.inf, -math.inf))
    elif mutation == "escaped key":
        key = field.replace("_", "\\u005f") if where == "scale" else "entri\\u0065s"
    text = section_text(doc, rnd, field, key, section, extra)
    return text + (rnd.choice((" x", "]", "{}")) if mutation == "trailing junk" else ""), mutation


def load_outcome(path):
    """The scale tables, the objectives' entries and arrays and the problems
    of a lenient load, or the code and path of the LoadError it raises."""
    try:
        inst, problems = pc.load_instance(path, strict=False)
    except pc.LoadError as e:
        return e.code, e.path
    return ([(t.dtype, t.shape, t.tolist()) for t in inst.scale.tables],
            [(o.entries, {type(x) for x in o.entries or ()}, o.array.dtype, o.array.tolist())
             for o in inst.objectives],
            [(p.code, p.path) for p in problems])


def compact_case(where: str, mutation: str) -> tuple:
    """A compact section of one-digit integers with one change."""
    return section_case(where, random.Random(mutation), 9, mutation, ("",), 3)


# a compact one-digit section with a two-digit value, a space, a minus or
# one integer list fewer is read by the digit passes, or declined, as before
@given(section_cases("scale"))
@settings(max_examples=300)
@example(case=compact_case("scale", "two digits"))
@example(case=compact_case("scale", "space after"))
@example(case=compact_case("scale", "minus"))
@example(case=compact_case("scale", "row-"))
def test_numpy_scale_reader_matches_json_or_declines(fuzz_file, case):
    check_numpy_reader(fuzz_file, "scale", *case)


@given(section_cases("entries"))
@settings(max_examples=300)
@example(case=compact_case("entries", "two digits"))
@example(case=compact_case("entries", "space after"))
@example(case=compact_case("entries", "minus"))
@example(case=compact_case("entries", "entry-"))
def test_numpy_entries_reader_matches_json_or_declines(fuzz_file, case):
    check_numpy_reader(fuzz_file, "entries", *case)


def reader_dtype(values: list) -> np.dtype:
    """The dtype the numpy reader reads a section of ``values`` into: the
    least unsigned one that holds any integer as long as the longest."""
    return np.min_scalar_type(10 ** len(str(max(values))) - 1)


def check_numpy_reader(fuzz_file, where: str, text: str, mutation) -> None:
    """Both readers give the same outcome for ``text``, and the numpy
    reader declines exactly after the mutations that should make it."""
    fuzz_file.write_text(text, encoding="utf-8")
    want = load_outcome(fuzz_file)  # a small file never passes the size gate
    with mock.patch.object(instance, "_NUMPY_SCALE_MIN", 0):
        read = _numpy_sections(text.encode())
        assert load_outcome(fuzz_file) == want
    # every key of a section's name is read, so one in metadata makes the
    # reader decline; an escaped key is not seen, and json reads its section
    assert (read is None) == (mutation in DECLINES), mutation
    if read is not None:
        ref = json.loads(text)
        tables = read["scale"]["valuations_scaled"]
        entries = read["valuations"][1]["map"]["entries"]
        by_numpy = {"scale", "entries"} - ({where} if mutation == "escaped key" else set())
        if "scale" in by_numpy:
            want_tables = ref["scale"]["valuations_scaled"]
            dtype = reader_dtype(np.array(want_tables).ravel().tolist())
            assert [(t.dtype, t.shape) for t in tables] == [
                (dtype, np.array(t).shape) for t in want_tables]
            read["scale"]["valuations_scaled"] = [t.tolist() for t in tables]
        if "entries" in by_numpy:
            want_entries = ref["valuations"][1]["map"]["entries"]
            assert (entries.dtype, entries.shape) == (reader_dtype(want_entries),
                                                      (len(want_entries),))
            read["valuations"][1]["map"]["entries"] = entries.tolist()
        assert read == ref


def big_staircase(n: int, table: bool = False) -> dict:
    """The staircase category at system size ``n`` and a scale row per
    system that walks down from its rank mod 4. Both objectives are
    composed, or with ``table`` the second sends rank ``r`` to ``r mod 12``
    in a 12-object chain."""
    doc = fixture_doc("staircase")
    doc["system_size"] = n
    doc["valuations"][1] = {**doc["valuations"][0], "goal": 0}
    if table:
        size = 12
        doc["valuations"][1] = {
            "target": {"objects": size, "iso_classes": [[a] for a in range(size)],
                       "hom": [[int(a >= b) for b in range(size)] for a in range(size)]},
            "goal": 0, "map": {"kind": "table", "entries": [r % size for r in range(4**n)]}}
    doc["scale"]["valuations_scaled"] = [
        [[max(r % 4 - s - a, 0) for s in range(4)] for r in range(4**n)] for a in range(2)]
    return doc


def test_a_large_scale_section_loads_by_numpy_as_by_json(tmp_path):
    doc = big_staircase(7)
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc))
    data = p.read_bytes()
    assert len(data) - data.index(b'"valuations_scaled"') > instance._NUMPY_SCALE_MIN
    assert _numpy_sections(data) is not None
    inst = pc.load_instance(p)
    assert inst == pc.load_instance(doc)
    assert [t.dtype for t in inst.scale.tables] == [np.dtype(np.uint8)] * 2
    assert pc.emit_instance(inst)["scale"] == doc["scale"]
    assert inst.scaled_image(1, (3,) * 7).values == (2, 1, 0, 0)
    doc["scale"]["valuations_scaled"][1][5][2] = 4
    p.write_text(json.dumps(doc))
    with pytest.raises(pc.LoadError) as e:
        pc.load_instance(p)
    assert (e.value.code, e.value.path) == ("scale.range", "scale.valuations_scaled[1][5]")


def test_a_large_table_loads_by_numpy_as_by_json(tmp_path):
    doc = big_staircase(8, table=True)
    del doc["scale"]
    p = tmp_path / "table.json"
    p.write_text(json.dumps(doc))
    entries = doc["valuations"][1]["map"]["entries"]
    assert isinstance(_numpy_sections(p.read_bytes())["valuations"][1]["map"]["entries"],
                      np.ndarray)
    inst = pc.load_instance(p)
    assert inst == pc.load_instance(doc)
    obj = inst.objectives[1]
    assert obj.array.dtype == np.int64 and obj.array.tolist() == entries
    assert type(obj.entries[0]) is int and {type(x) for x in obj.entries} == {int}
    assert pc.emit_instance(inst)["valuations"][1]["map"]["entries"] == entries
    # an array in a caller's document is copied, not shared with the instance
    arr = np.array(entries, dtype=np.int64)
    doc["valuations"][1]["map"]["entries"] = arr
    obj = pc.load_instance(doc).objectives[1]
    assert obj == inst.objectives[1]
    arr[:] = 0
    assert obj.array.tolist() == list(obj.entries) == entries
    doc["valuations"][1]["map"]["entries"] = entries
    entries[5] = 12
    p.write_text(json.dumps(doc))
    with pytest.raises(pc.LoadError) as e:
        pc.load_instance(p)
    assert (e.value.code, e.value.path) == ("valuation.range", "valuations[1].map.entries")


def test_the_numpy_reader_holds_less_than_json():
    """The reader's transient memory, its arrays included, stays below
    what ``json`` holds for the same text: a large scale section, one with
    a large table's entries as well, as in the frontier benchmark, and
    65,536 one-digit entries alone, which ``json`` holds as shared ints."""
    def peak(read) -> int:
        tracemalloc.start()
        try:
            read()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    entries_only = big_staircase(8, table=True)
    del entries_only["scale"]
    entries_only["valuations"][1]["map"]["entries"] = [r % 10 for r in range(4**8)]
    for doc in (big_staircase(7), big_staircase(8, table=True), entries_only):
        data = json.dumps(doc, separators=(",", ":")).encode()
        read = _numpy_sections(data)
        assert [isinstance(v["map"].get("entries"), np.ndarray) for v in read["valuations"]] \
            == [False, "entries" in doc["valuations"][1]["map"]]
        del read
        assert peak(lambda: _numpy_sections(data)) < 0.8 * peak(lambda: json.loads(data.decode()))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_one_digit_reader_matches_json_or_declines(data):
    """Compact text of one-digit integers nested as a random 1- to
    3-dimensional shape is read as ``json`` reads it. After one byte is
    changed to one of ``[],0123456789 x``, it is read as ``json`` reads it
    when that still gives an integer array of the shape, else declined."""
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    size = math.prod(shape)
    digits = data.draw(st.lists(st.integers(0, 9), min_size=size, max_size=size))
    text = bytearray(json.dumps(np.reshape(digits, shape).tolist(), separators=(",", ":")).encode())

    def read(text):
        got = _first_digits(np.frombuffer(bytes(text), np.uint8), shape)
        return None if got is None else (got.dtype, got.tolist())

    def parse(text):
        try:
            want = np.array(json.loads(text))
        except ValueError:  # not JSON, or ragged
            return None
        return (np.dtype(np.uint8), want.tolist()) if want.shape == shape \
            and want.dtype.kind == "i" else None

    assert read(text) == parse(text) == (np.dtype(np.uint8), np.reshape(digits, shape).tolist())
    text[data.draw(st.integers(0, len(text) - 1))] = data.draw(st.sampled_from(b"[],0123456789 x"))
    assert read(text) == parse(text)


def _bench_gen():
    """``bench/gen.py``, the benchmark's instance generator, as a module."""
    spec = importlib.util.spec_from_file_location(
        "gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


@pytest.fixture(scope="module")
def deep_instance(tmp_path_factory):
    """The frontier benchmark's deep instance at seed 1, as ``bench/gen.py`` writes it."""
    return _bench_gen().write_family("deep", 1, tmp_path_factory.mktemp("deep"))


def test_the_deep_load_allocates_nothing_as_large_as_its_scale_section(deep_instance):
    """Reading the sections of the deep instance, building it, checking
    its maps and checking each scale table leave no transient as large as
    its scale section's text (5.2 MB): neither a section-sized skeleton of
    the text nor an intp index per transition (6 MiB a table). Transient
    is the step's traced peak above what it holds after."""
    data = deep_instance.read_bytes()
    start = data.index(b"[", data.index(b'"valuations_scaled"'))
    section = data.index(b"]]]", start) + 3 - start

    def transient(step):
        tracemalloc.reset_peak()
        out = step()
        held, peak = tracemalloc.get_traced_memory()
        return out, peak - held

    tracemalloc.start()
    try:
        doc, read = transient(lambda: _numpy_sections(data))
        inst, built = transient(lambda: pc.build_instance(doc))
        del doc
        problems, maps = transient(inst.system.validate_maps)
        rows = [transient(lambda: first_bad_row(t, o.target.hom))
                for t, o in zip(inst.scale.tables, inst.objectives)]
    finally:
        tracemalloc.stop()
    assert section > 5_000_000 and problems == [] and [bad for bad, _ in rows] == [None, None]
    assert max(read, built, maps, *(size for _, size in rows)) < section


def test_the_exact_query_holds_bytes_not_words(deep_instance):
    """On the loaded deep instance, the admissibility table, the class
    vectors and the benchmark's exact lambda query keep at most 2 bytes per
    rank (the admissibility table and the class-vector ids, one byte each),
    beside at most 64 KiB of per-vector tables and Python objects, and
    allocate at most 4 bytes per rank above that on the way: no intp table
    over the ranks."""
    inst = pc.load_instance(deep_instance)
    system, ranks = inst.system, inst.system.functor_count
    query = _bench_gen().query_system("deep", 1)
    tracemalloc.start()
    try:
        system.admissible_mask, system.image_class_vectors
        mass = pc.minorization_mass(system, inst.distribution, query, exact=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mass == Fraction(81, 16384)
    assert held <= 2 * ranks + 65536
    assert peak - held <= 4 * ranks


def test_a_non_ascii_document_loads_whatever_the_locale(tmp_path):
    """The file is read as UTF-8, not in the locale's encoding."""
    doc = fixture_doc("chain3")
    doc["metadata"] = {"name": "Pareto–cat é"}
    p = tmp_path / "doc.json"
    p.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    assert pc.load_instance(p).metadata["name"] == "Pareto–cat é"


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
