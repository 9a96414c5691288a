"""On-disk problem instances: parsing, validation, emission.

The JSON layout is documented in docs/instance-schema.md. Loading is
two-phase: structural problems (bad shapes, ids out of range) raise
immediately with a ``*.shape`` / ``*.range`` code, then every law is
checked and the violations are reported together, each with a stable
machine-readable code such as ``rescat.hom.transitivity``,
``valuation.iso_respect`` or ``distribution.sum``.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import LoadError, PreconditionError, StructureError
from .rescat import ResourceCategory, TargetCategory, _check_shape, close_hom, validate_category
from .scale import ScaleObject, first_bad_row
from .summing import DEFAULT_CAP, count_within
from .valuation import Objective, ObjectDistribution, ValuationSystem, gc_paused


def _weight_json(w: Fraction):
    """Emit a weight as a number when the decimal literal reproduces it
    exactly, else as an exact "p/q" string."""
    if w.denominator == 1:
        return int(w)
    f = float(w)
    if Fraction(repr(f)) == w:
        return f
    return f"{w.numerator}/{w.denominator}"


@dataclass(frozen=True, eq=False)
class ScaleData:
    grid_len: int
    tables: tuple  # [objective] -> int array, row ``rank`` holds its grid values

    def __eq__(self, other) -> bool:
        return (isinstance(other, ScaleData) and self.grid_len == other.grid_len
                and len(self.tables) == len(other.tables)
                and all(np.array_equal(a, b) for a, b in zip(self.tables, other.tables)))


@dataclass(frozen=True, eq=True)
class Instance:
    cat: ResourceCategory
    n: int
    objectives: tuple
    distribution: ObjectDistribution
    scale: Optional[ScaleData] = None
    metadata: dict = field(default_factory=dict)
    cap: int = DEFAULT_CAP

    @cached_property
    def system(self) -> ValuationSystem:
        return ValuationSystem(cat=self.cat, n=self.n, objectives=self.objectives, cap=self.cap)

    def scaled_image(self, alpha: int, values: Sequence[int]) -> ScaleObject:
        """The scale-indexed image of a system in one objective; raises
        :class:`PreconditionError` for an ``alpha`` out of range."""
        if self.scale is None:
            raise LoadError("scale.missing", "scale", "instance has no scale section")
        if not 0 <= alpha < len(self.objectives):
            raise PreconditionError(f"alpha must be in 0..{len(self.objectives) - 1}")
        rank = self.system.rank(values)
        target = self.objectives[alpha].target
        return ScaleObject(target, self.scale.tables[alpha][rank].tolist())

    def admissible_mass(self, exact: bool = False):
        """Product-measure mass of the admissible set (0 iff it is empty)."""
        ranks = np.flatnonzero(self.system.admissible_mask)
        return self.distribution.mass(self.system.digits(ranks), exact=exact)


def _is_int(x) -> bool:
    """The one rule for an integer field: a JSON integer. bool, float
    and str are refused rather than coerced, so ``0.5`` or ``"4"``
    never load as ``0`` or ``4``."""
    if isinstance(x, bool):
        return False
    try:
        operator.index(x)
    except TypeError:
        return False
    return True


def _int(x, code: str, path: str, what: str) -> int:
    if not _is_int(x):
        raise LoadError(code, path, f"{what} must be an integer, not {type(x).__name__}")
    return operator.index(x)


def _int_rows(rows, code: str, path: str, what: str) -> list:
    """Rows of integers (iso classes, tensor rows, a map's entries) as
    tuples: one type pass over all their values, and a check of each
    value only when that pass finds something other than an int."""
    try:
        rows = list(map(tuple, rows))
    except TypeError:
        raise LoadError(code, path, f"{what} must be lists of integers") from None
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows
    return [tuple(_int(x, code, path, what) for x in row) for row in rows]


def _build_category(doc, path: str, use_closure: bool, resource: bool = False):
    """A target category from its ``objects``, ``hom`` and ``iso_classes``
    fields; a resource category also reads ``unit`` and ``tensor``."""
    if not isinstance(doc, dict):
        raise LoadError("category.shape", path, "category must be an object")
    try:
        fields = [_int(doc["objects"], "category.shape", path, "objects"),
                  _int_rows(doc["hom"], "category.shape", path, "hom entries"),
                  _int_rows(doc["iso_classes"], "category.shape", path, "iso classes")]
        if not set(chain.from_iterable(fields[1])) <= {0, 1}:
            raise StructureError("hom entries must be 0 or 1")
        if resource:
            fields += [_int(doc["unit"], "category.shape", path, "unit"),
                       _int_rows(doc["tensor"], "category.shape", path, "tensor rows")]
        cat = (ResourceCategory if resource else TargetCategory)(*fields)
        _check_shape(cat)
    except KeyError as e:
        raise LoadError("category.shape", path, f"missing field {e}")
    except (StructureError, TypeError, ValueError) as e:
        raise LoadError("category.shape", path, str(e))
    if use_closure:
        cat = replace(cat, hom=close_hom(cat.hom))
    return cat


_INT64 = np.iinfo(np.int64)


def _grid_row(row, grid_len: int) -> bool:
    """Whether a scale row is ``grid_len`` integers that fit an int64."""
    return (isinstance(row, (list, tuple)) and len(row) == grid_len
            and all(_is_int(x) and _INT64.min <= x <= _INT64.max for x in row))


def _grid_table(table, k: int, n: int, grid_len: int, size: int, path: str) -> np.ndarray:
    """One objective's scale table as a (systems, grid_len) array in the
    least unsigned dtype that holds ``0..size-1``.

    The table needs K^n rows. Rows are checked in rank order: the first
    row with the wrong shape or a value out of ``0..size-1`` is the one
    reported. An integer array of ``grid_len`` columns, as
    :func:`_numpy_sections` reads a large section, is taken as it is, and a
    table of int lists is read in one pass; the row scan runs only when
    neither holds.
    """
    if not isinstance(table, (list, np.ndarray)) or len(table) != count_within(k, n, len(table)):
        raise LoadError("scale.shape", path, f"need {k}^{n} rows (one per system)")
    total = good = len(table)
    arr = None
    if isinstance(table, np.ndarray):
        arr = table if table.dtype.kind in "iu" and table.shape[1:] == (grid_len,) else None
    elif (set(map(type, table)) <= {list} and set(map(len, table)) <= {grid_len}
            and set(map(type, chain.from_iterable(table))) <= {int}):
        try:
            arr = np.fromiter(chain.from_iterable(table), np.int64,
                              total * grid_len).reshape(total, grid_len)
        except OverflowError:
            pass
    if arr is None:
        good = next((r for r, row in enumerate(table) if not _grid_row(row, grid_len)), total)
        arr = np.array(table[:good], dtype=np.int64)  # (good, grid_len), or empty
    if arr.size and not 0 <= arr.min() <= arr.max() < size:
        row = ((arr < 0) | (arr >= size)).any(axis=1).argmax()
        raise LoadError("scale.range", f"{path}[{row}]", "grid value out of range")
    if good < total:
        raise LoadError("scale.shape", f"{path}[{good}]", f"need {grid_len} grid values")
    return arr.astype(np.min_scalar_type(size - 1), copy=False)


def build_instance(doc: dict, cap: int = DEFAULT_CAP, use_closure: bool = False) -> Instance:
    """Structural phase: construct an Instance or raise LoadError."""
    if not isinstance(doc, dict):
        raise LoadError("parse.shape", "$", "instance document must be an object")
    for key in ("category", "system_size", "valuations", "distribution"):
        if key not in doc:
            raise LoadError("parse.shape", "$", f"missing section {key!r}")
    cat = _build_category(doc["category"], "category", use_closure, resource=True)
    n = _int(doc["system_size"], "parse.shape", "system_size", "system size")
    if n < 0:
        raise LoadError("parse.shape", "system_size", "system size must be >= 0")

    objectives = []
    vals = doc["valuations"]
    if not isinstance(vals, list) or not vals:
        raise LoadError("valuation.shape", "valuations", "need at least one objective")
    for i, v in enumerate(vals):
        path = f"valuations[{i}]"
        if not isinstance(v, dict) or not isinstance(v.get("map", {}), dict):
            raise LoadError("valuation.shape", path, "valuation and its map must be objects")
        target = _build_category(v.get("target", {}), path + ".target", use_closure)
        m = v.get("map", {})
        kind = m.get("kind")
        if kind not in ("table", "composed"):
            raise LoadError("valuation.kind", path + ".map.kind", f"unknown kind {kind!r}")
        field_name = "entries" if kind == "table" else "h"
        goal = _int(v.get("goal", -1), "valuation.shape", path, "goal")
        values = m.get(field_name, [])
        if kind == "table" and isinstance(values, np.ndarray) and values.dtype.kind in "iu" \
                and values.ndim == 1:  # as :func:`_numpy_sections` reads large entries
            objectives.append(Objective.from_entries(target, goal, values))
            continue
        values, = _int_rows([values], "valuation.shape", path, field_name)
        objectives.append(Objective(target=target, goal=goal, kind=kind, **{field_name: values}))

    ddoc = doc["distribution"]
    dw = ddoc.get("weights") if isinstance(ddoc, dict) else None
    if not isinstance(dw, list):
        raise LoadError("distribution.shape", "distribution.weights", "weights must be a list")
    dist = ObjectDistribution(dw)

    scale = None
    if "scale" in doc and doc["scale"] is not None:
        sdoc = doc["scale"]
        if not isinstance(sdoc, dict):
            raise LoadError("scale.shape", "scale", "scale must be an object")
        grid_len = _int(sdoc.get("grid_len", 0), "scale.shape", "scale.grid_len", "grid_len")
        if grid_len < 1:
            raise LoadError("scale.shape", "scale.grid_len", "grid_len must be >= 1")
        tables = sdoc.get("valuations_scaled")
        if not isinstance(tables, list) or len(tables) != len(objectives):
            raise LoadError("scale.shape", "scale.valuations_scaled",
                            f"need one table per objective ({len(objectives)})")
        frozen = [
            _grid_table(table, cat.size, n, grid_len, objectives[a].target.size,
                        f"scale.valuations_scaled[{a}]")
            for a, table in enumerate(tables)
        ]
        scale = ScaleData(grid_len=grid_len, tables=tuple(frozen))

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise LoadError("parse.shape", "metadata", "metadata must be an object")
    return Instance(
        cat=cat,
        n=n,
        objectives=tuple(objectives),
        distribution=dist,
        scale=scale,
        metadata=dict(metadata),
        cap=cap,
    )


def validate_instance(inst: Instance) -> list:
    """Law phase: every violation as a LoadError record (not raised)."""
    sections = [("category", inst.cat)] + [
        (f"valuations[{i}].target", obj.target) for i, obj in enumerate(inst.objectives)]
    problems = [LoadError(v.code, path, v.message)
                for path, cat in sections for v in validate_category(cat).violations]
    try:
        inst.distribution.validate(inst.cat.size)
    except LoadError as e:
        problems.append(e)
    if not problems:
        problems.extend(inst.system.validate_maps())
        if inst.scale is not None:
            for a, (table, obj) in enumerate(zip(inst.scale.tables, inst.objectives)):
                bad = first_bad_row(table, obj.target.hom)
                if bad:
                    kind, row, message = bad
                    problems.append(LoadError(f"scale.{kind}",
                                              f"scale.valuations_scaled[{a}][{row}]", message))
    return problems


# a section of at least this many bytes is tried by numpy before json
_NUMPY_SCALE_MIN = 1 << 16
_SECTION_KEY = re.compile(rb'"(valuations_scaled|entries)"\s*:\s*\[')


def _compact_len(shape: tuple) -> int:
    """The length of compact JSON that nests one-digit integers as ``shape``."""
    size = 1
    for s in reversed(shape):
        size = s * (size + 1) + 1  # s items, s - 1 commas, 2 brackets
    return size


def _first_digits(tokens: np.ndarray, shape: tuple) -> Optional[np.ndarray]:
    """The digit after each opening bracket or comma of ``tokens``, a
    section's text, as a uint8 array of ``shape`` (no axis of length 0); or
    None unless the other bytes are the brackets and commas that nest
    ``shape``. Each byte is checked in place, through strided views: per
    depth, of every array's ``[``, its ``]`` and the commas between its
    children, then of the digits. The flags are written to the digits' buffer."""
    if len(tokens) != _compact_len(shape):
        return None
    strides = [_compact_len(shape[d + 1:]) + 1 for d in range(len(shape))]
    inner = lambda a: np.moveaxis(a, int(np.argmax(a.shape)), -1) if a.ndim else a  # long loops
    view = lambda start, dims, steps: inner(np.lib.stride_tricks.as_strided(
        tokens[start:], dims, steps))
    first = np.empty(shape, np.uint8)
    flags = first.reshape(-1).view(bool)
    for d, s in enumerate(shape):
        for byte, at in ((b"[", view(d, shape[:d], strides[:d])),
                         (b"]", view(d + _compact_len(shape[d:]) - 1, shape[:d], strides[:d])),
                         (b",", view(d + strides[d], shape[:d] + (s - 1,), strides[:d + 1]))):
            if not np.equal(at, byte[0], out=flags[:at.size].reshape(at.shape), order="C").all():
                return None
    np.subtract(view(len(shape), shape, strides), 48, out=inner(first), order="C")
    return first if first.max() <= 9 else None  # uint8 wraps below b"0"


def _int_array(text: np.ndarray, shape: tuple) -> Optional[np.ndarray]:
    """A section's bytes as an array of ``shape``, whose one ``-1`` is read
    from the count of integers, in the least unsigned dtype that holds any
    integer as long as its longest; or None unless the bytes are brackets,
    commas, JSON whitespace and integers of at most 18 digits with no
    leading zero, nested exactly as ``shape``.

    Compact text of one-digit integers is read in one pass: its length
    alone gives the ``-1``. Any other text first drops its whitespace and
    all but the first digit of each integer, then reads the further digits.
    """
    fill = lambda x: tuple(x if s < 0 else s for s in shape)
    empty = _compact_len(fill(0))  # the length is affine in the -1
    size, rest = divmod(len(text) - empty, _compact_len(fill(1)) - empty)
    if not rest and size > 0 and text[len(shape) + 1] in b",]" \
            and (vals := _first_digits(text, fill(size))) is not None:  # no 2nd digit, no space
        return vals
    digit = (text - 48) < 10  # uint8 wraps below b"0"
    lead = digit.copy()
    np.greater(digit[1:], digit[:-1], out=lead[1:])  # the first digit of each integer
    # a byte per bracket, comma and integer: JSON whitespace and further digits go
    drop = digit ^ lead
    if (text <= 32).any():
        drop |= (text == 32) | (text == 10) | (text == 13) | (text == 9)
    tokens = text[~drop]
    del drop
    count, known = np.count_nonzero(lead), -math.prod(shape)  # known: the other lengths
    if not count or count % known:
        return None
    vals = _first_digits(tokens, fill(count // known))  # uint8, widened below as needed
    if vals is None:
        return None
    del tokens  # freed before the passes over longer integers
    # one pass per further digit, if some integer has more than one
    run = lead
    for j in range(1, 19 if np.count_nonzero(digit) > count else 1):
        run = run[:-1] & digit[j:]  # run[i]: the integer starting at i has a digit at i + j
        if not run.any():
            break
        more = run[lead[:len(run)]]  # in value order; an integer in the last j bytes is shorter
        vals = vals.astype(np.promote_types(vals.dtype, np.min_scalar_type(10 ** (j + 1) - 1)),
                           copy=False)  # wide enough for j + 1 digits
        head = vals.reshape(-1)[:len(more)]
        if j == 18 or j == 1 and np.any(head[more] == 0):  # 19 digits, or a leading zero
            return None
        head[more] = head[more] * 10 + (text[j:][run] - 48)
    return vals


def _numpy_sections(data: bytes) -> Optional[dict]:
    """The document with its large integer sections read by numpy into
    unsigned integer arrays, or None to leave the text to ``json``.

    The sections are ``scale.valuations_scaled``, one (rows, ``grid_len``)
    array per objective, and the ``entries`` of each table map, one flat
    array. A section is tried when its text is at least
    ``_NUMPY_SCALE_MIN`` bytes. Every tried section must be read by
    :func:`_int_array`, and the ``NaN`` put in its place must land at its
    path when ``json`` parses the rest, with these ``NaN`` the document's
    only ``NaN`` or ``Infinity``; else the whole text goes to ``json``.
    """
    if len(data) < _NUMPY_SCALE_MIN:
        return None
    spans, at = [], 0
    while key := _SECTION_KEY.search(data, at):
        start = key.end() - 1
        # a section numpy can read holds no quote or brace: it ends before the first one
        at = end = min((i for i in (data.find(b'"', start), data.find(b"}", start)) if i >= 0),
                       default=len(data))
        while data[end - 1] in b" \t\n\r,":
            end -= 1
        if end - start >= _NUMPY_SCALE_MIN:
            spans.append((key[1].decode(), start, end))
    if not spans:
        return None
    cuts = [0, *(i for _, start, end in spans for i in (start, end)), len(data)]
    holes = [[] for _ in spans]  # what parse_constant returns: no other value is one of them
    found, calls = iter(holes), []
    try:
        rest = b"NaN".join(data[a:b] for a, b in zip(cuts[::2], cuts[1::2])).decode("utf-8")
        doc = json.loads(rest, parse_constant=lambda c: calls.append(c) or next(found, None))
        objs = len(doc["valuations"])
        tables = [v["map"] for v in doc["valuations"] if v["map"]["kind"] == "table"]
        sdoc = doc["scale"] if any(k == "valuations_scaled" for k, _, _ in spans) else {}
        grid_len = sdoc.get("grid_len")
    except (ValueError, RecursionError, LookupError, TypeError, AttributeError):
        return None
    if calls != ["NaN"] * len(holes):
        return None
    for (key, start, end), hole in zip(spans, holes):
        if key == "entries":
            home, shape = next((m for m in tables if m.get("entries") is hole), {}), (-1,)
        elif type(grid_len) is int and grid_len > 0 and objs > 0:
            home, shape = sdoc, (objs, -1, grid_len)
        else:
            return None
        if home.get(key) is not hole or (arr := _int_array(
                np.frombuffer(data, np.uint8, end - start, start), shape)) is None:
            return None
        home[key] = arr if key == "entries" else list(arr)
    return doc


def _read(source):
    if isinstance(source, dict):
        return source
    try:
        data = Path(source).read_bytes()
        return _numpy_sections(data) or json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise LoadError("parse.json", str(source), str(e))
    except OSError as e:
        raise LoadError("parse.io", str(source), str(e))


def load_instance(source: Union[str, Path, dict], cap: int = DEFAULT_CAP,
                  use_closure: bool = False, strict: bool = True):
    """Parse, build and validate an instance.

    ``source`` may be a path or an already-parsed document. With
    ``strict`` (the default) the first law violation raises; otherwise
    returns ``(instance, problems)`` for reporting. The cyclic collector
    is paused throughout; the parsed document is released before it
    resumes.
    """
    with gc_paused():
        inst = build_instance(_read(source), cap=cap, use_closure=use_closure)
        problems = validate_instance(inst)
    if strict:
        if problems:
            raise problems[0]
        return inst
    return inst, problems


def _category_json(cat: TargetCategory) -> dict:
    """The fields :func:`_build_category` reads, for either kind of category."""
    doc = {"objects": cat.size, "hom": [[int(x) for x in row] for row in cat.hom],
           "iso_classes": [list(c) for c in cat.iso_classes]}
    if isinstance(cat, ResourceCategory):
        doc.update(unit=cat.unit, tensor=[list(row) for row in cat.tensor])
    return doc


def emit_instance(inst: Instance) -> dict:
    """Write the instance back out; reloading reproduces it exactly."""
    doc: dict = {
        "metadata": dict(inst.metadata),
        "category": _category_json(inst.cat),
        "system_size": inst.n,
        "valuations": [],
        "distribution": {"weights": [_weight_json(w) for w in inst.distribution.weights]},
    }
    for obj in inst.objectives:
        field_name = "entries" if obj.kind == "table" else "h"
        doc["valuations"].append({
            "target": _category_json(obj.target),
            "goal": obj.goal,
            "map": {"kind": obj.kind, field_name: list(getattr(obj, field_name))},
        })
    if inst.scale is not None:
        doc["scale"] = {
            "grid_len": inst.scale.grid_len,
            "valuations_scaled": [
                table.tolist() for table in inst.scale.tables
            ],
        }
    return doc


def save_instance(inst: Instance, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(emit_instance(inst), indent=2, sort_keys=True) + "\n")
