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
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import LoadError, StructureError
from .gcpause import gc_paused
from .rescat import ResourceCategory, TargetCategory, _check_shape, close_hom, validate_category
from .scale import ScaleObject, first_bad_row
from .summing import DEFAULT_CAP, count_within
from .valuation import Objective, ObjectDistribution, ValuationSystem


def _parse_weight(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(str(x))
    except ValueError:
        raise LoadError("distribution.shape", "distribution.weights",
                        f"weight {x!r} is not a number")


def _weight_json(w: Fraction):
    """Emit a weight as a number when the decimal literal reproduces it
    exactly, else as an exact "p/q" string."""
    if w.denominator == 1:
        return int(w)
    f = float(w)
    if _parse_weight(repr(f)) == w:
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
        """The scale-indexed image of a system in one objective."""
        if self.scale is None:
            raise LoadError("scale.missing", "scale", "instance has no scale section")
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


def _bool_table(rows, path: str) -> list:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise LoadError("category.shape", path, "hom must be a list of lists")
    return [[bool(x) for x in r] for r in rows]


def _build_category(doc, path: str, use_closure: bool, resource: bool = False):
    """A target category from its ``objects``, ``hom`` and ``iso_classes``
    fields; a resource category also reads ``unit`` and ``tensor``."""
    if not isinstance(doc, dict):
        raise LoadError("category.shape", path, "category must be an object")
    try:
        fields = [_int(doc["objects"], "category.shape", path, "objects"),
                  _bool_table(doc["hom"], path + ".hom"),
                  _int_rows(doc["iso_classes"], "category.shape", path, "iso classes")]
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
    """One objective's scale table as a (systems, grid_len) int array.

    The table needs K^n rows. Rows are checked in rank order: the first
    row with the wrong shape or a value out of ``0..size-1`` is the one
    reported. A table of int lists is read in one pass; the row scan
    runs only when that pass finds something else.
    """
    if not isinstance(table, list) or len(table) != count_within(k, n, len(table)):
        raise LoadError("scale.shape", path, f"need {k}^{n} rows (one per system)")
    total = good = len(table)
    arr = None
    if (set(map(type, table)) <= {list} and set(map(len, table)) <= {grid_len}
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
    return arr


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
        values, = _int_rows([m.get(field_name, [])], "valuation.shape", path, field_name)
        objectives.append(Objective(target=target, goal=goal, kind=kind, **{field_name: values}))

    ddoc = doc["distribution"]
    dw = ddoc.get("weights") if isinstance(ddoc, dict) else None
    if not isinstance(dw, list):
        raise LoadError("distribution.shape", "distribution.weights", "weights must be a list")
    dist = ObjectDistribution([_parse_weight(w) for w in dw])

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
    problems: list[LoadError] = []
    report = validate_category(inst.cat)
    for v in report.violations:
        problems.append(LoadError(v.code, "category", v.message))
    for i, obj in enumerate(inst.objectives):
        t_report = validate_category(obj.target)
        for v in t_report.violations:
            problems.append(LoadError(v.code, f"valuations[{i}].target", v.message))
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


def _read(source):
    if isinstance(source, dict):
        return source
    try:
        return json.loads(Path(source).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
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
