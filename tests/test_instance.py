import copy
import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import pareto_cat as pc

from conftest import fixture_doc


def broken(doc, mutate):
    d = copy.deepcopy(doc)
    mutate(d)
    return d


def code_of(excinfo) -> str:
    return excinfo.value.code


# ------------------------------------------------------------- round trips

@pytest.mark.parametrize("name", ["chain3", "cycle2", "staircase"])
def test_load_emit_load_is_identity(name):
    inst = pc.load_instance(pc.fixture_path(name))
    again = pc.load_instance(pc.emit_instance(inst))
    assert again == inst


@pytest.mark.parametrize("name", ["chain3", "cycle2", "staircase"])
def test_emit_writes_the_fixture_layout(name):
    """The writer's output is the fixture document itself, key for key;
    only staircase's weights change notation ("1/4" is written 0.25)."""
    doc = fixture_doc(name)
    emitted = pc.emit_instance(pc.load_instance(doc))
    if name == "staircase":
        assert emitted["distribution"]["weights"] == [0.25] * 4
        assert doc["distribution"]["weights"] == ["1/4"] * 4
        doc["distribution"] = emitted["distribution"]
    assert emitted == doc


def test_save_and_reload(tmp_path, cycle2):
    p = tmp_path / "out.json"
    pc.save_instance(cycle2, p)
    assert pc.load_instance(p) == cycle2
    # exact thirds survive the trip as exact fractions
    doc = json.loads(p.read_text())
    assert doc["distribution"]["weights"] == ["1/3", "1/3", "1/3"]


def test_decimal_weights_round_trip():
    doc = fixture_doc("chain3")
    inst = pc.load_instance(doc)
    assert inst.distribution.weights == (
        Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10),
    )
    emitted = pc.emit_instance(inst)
    assert emitted["distribution"]["weights"] == [0.4, 0.3, 0.2, 0.1]


def test_metadata_preserved():
    doc = fixture_doc("staircase")
    doc["metadata"] = {"note": "two objectives"}
    inst = pc.load_instance(doc)
    assert inst.metadata == {"note": "two objectives"}
    assert pc.emit_instance(inst)["metadata"] == {"note": "two objectives"}


# ---------------------------------------------------------- structural phase

def test_malformed_json_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    with pytest.raises(pc.LoadError) as e:
        pc.load_instance(p)
    assert code_of(e) == "parse.json"


def test_document_shape_errors():
    doc = fixture_doc("chain3")
    with pytest.raises(pc.LoadError) as e:
        pc.build_instance([])
    assert code_of(e) == "parse.shape"
    for key in ("category", "system_size", "valuations", "distribution"):
        with pytest.raises(pc.LoadError) as e:
            pc.build_instance(broken(doc, lambda d, k=key: d.pop(k)))
        assert code_of(e) == "parse.shape"
    with pytest.raises(pc.LoadError) as e:
        pc.build_instance(broken(doc, lambda d: d.update(system_size=-1)))
    assert code_of(e) == "parse.shape"


def test_category_shape_errors():
    doc = fixture_doc("chain3")
    with pytest.raises(pc.LoadError) as e:
        pc.build_instance(broken(doc, lambda d: d["category"].pop("tensor")))
    assert code_of(e) == "category.shape"
    with pytest.raises(pc.LoadError) as e:
        pc.build_instance(broken(doc, lambda d: d["category"].update(hom=[1, 0])))
    assert code_of(e) == "category.shape"
    with pytest.raises(pc.LoadError) as e:
        pc.build_instance(
            broken(doc, lambda d: d["category"]["hom"].append([1, 1, 1, 1]))
        )
    assert code_of(e) == "category.shape"
    with pytest.raises(pc.LoadError) as e:
        pc.build_instance(
            broken(doc, lambda d: d["category"].update(iso_classes=[[0, 1], [1, 2, 3]]))
        )
    assert code_of(e) == "category.shape"


@pytest.mark.parametrize("mutate, code", [
    (lambda d: d["valuations"].__setitem__(0, 3), "valuation.shape"),
    (lambda d: d.update(distribution=[0.5, 0.5]), "distribution.shape"),
    (lambda d: d["category"].update(objects="abc"), "category.shape"),
    (lambda d: d["category"].update(iso_classes=3), "category.shape"),
    (lambda d: d["distribution"]["weights"].__setitem__(0, "abc"), "distribution.shape"),
    (lambda d: d.update(system_size="x"), "parse.shape"),
    (lambda d: d["valuations"][0].update(target=5), "category.shape"),
    (lambda d: d["scale"]["valuations_scaled"][0].__setitem__(5, 7), "scale.shape"),
], ids=["valuation", "distribution", "objects", "iso_classes", "weight",
        "system_size", "target", "scale_row"])
def test_malformed_fields_raise_load_error(mutate, code):
    with pytest.raises(pc.LoadError) as e:
        pc.load_instance(broken(fixture_doc("chain3"), mutate))
    assert code_of(e) == code


@pytest.mark.parametrize("mutate, detail", [
    (lambda c: c.update(objects=0), "category needs at least one object"),
    (lambda c: c.update(unit=4), "unit 4 out of range"),
    (lambda c: c["tensor"][2].__setitem__(1, -1), "tensor[2][1] = -1 out of range"),
], ids=["objects", "unit", "tensor"])
def test_category_ranges_are_shape_errors(mutate, detail):
    with pytest.raises(pc.LoadError) as e:
        pc.load_instance(broken(fixture_doc("chain3"), lambda d: mutate(d["category"])))
    assert (code_of(e), e.value.path, e.value.detail) == ("category.shape", "category", detail)


def test_valuation_shape_and_kind():
    doc = fixture_doc("chain3")
    with pytest.raises(pc.LoadError) as e:
        pc.build_instance(broken(doc, lambda d: d.update(valuations=[])))
    assert code_of(e) == "valuation.shape"
    with pytest.raises(pc.LoadError) as e:
        pc.build_instance(
            broken(doc, lambda d: d["valuations"][0]["map"].update(kind="affine"))
        )
    assert code_of(e) == "valuation.kind"


def test_distribution_errors():
    doc = fixture_doc("chain3")
    with pytest.raises(pc.LoadError) as e:
        pc.build_instance(broken(doc, lambda d: d["distribution"].update(weights=0.4)))
    assert code_of(e) == "distribution.shape"
    with pytest.raises(pc.LoadError) as e:
        pc.load_instance(
            broken(doc, lambda d: d["distribution"].update(weights=[0.5, 0.5]))
        )
    assert code_of(e) == "distribution.shape"
    with pytest.raises(pc.LoadError) as e:
        pc.load_instance(
            broken(doc, lambda d: d["distribution"].update(weights=[0.5, 0.5, 0.1, -0.1]))
        )
    assert code_of(e) == "distribution.positive"
    with pytest.raises(pc.LoadError) as e:
        pc.load_instance(
            broken(doc, lambda d: d["distribution"].update(weights=[0.4, 0.3, 0.2, 0.2]))
        )
    assert code_of(e) == "distribution.sum"


def test_scale_errors():
    doc = fixture_doc("chain3")
    with pytest.raises(pc.LoadError) as e:
        pc.build_instance(broken(doc, lambda d: d["scale"].update(grid_len=0)))
    assert code_of(e) == "scale.shape"
    with pytest.raises(pc.LoadError) as e:
        pc.build_instance(
            broken(doc, lambda d: d["scale"].update(valuations_scaled=[]))
        )
    assert code_of(e) == "scale.shape"
    with pytest.raises(pc.LoadError) as e:
        pc.build_instance(
            broken(doc, lambda d: d["scale"]["valuations_scaled"][0].pop())
        )
    assert code_of(e) == "scale.shape"
    with pytest.raises(pc.LoadError) as e:
        pc.build_instance(
            broken(doc, lambda d: d["scale"]["valuations_scaled"][0][5].pop())
        )
    assert code_of(e) == "scale.shape"
    with pytest.raises(pc.LoadError) as e:
        pc.build_instance(
            broken(doc, lambda d: d["scale"]["valuations_scaled"][0][5].__setitem__(0, 9))
        )
    assert code_of(e) == "scale.range"


def test_scale_transition_law():
    # value 0 -> 2 is not an arrow in the chain3 target, caught in the law phase
    doc = broken(
        fixture_doc("chain3"),
        lambda d: d["scale"]["valuations_scaled"][0][5].__setitem__(
            slice(None), [0, 2, 0]
        ),
    )
    inst, problems = pc.load_instance(doc, strict=False)
    assert any(p.code == "scale.transition" for p in problems)
    with pytest.raises(pc.LoadError) as e:
        pc.load_instance(doc)
    assert code_of(e) == "scale.transition"
    assert e.value.path == "scale.valuations_scaled[0][5]"
    assert e.value.detail == "missing transition arrow 0 -> 2 at scale 0"


# ---------------------------------------------------------------- law phase

def test_law_violations_are_collected_not_raised():
    doc = fixture_doc("chain3")
    doc["category"]["hom"][2][0] = 0  # breaks transitivity (2 -> 1 -> 0)
    inst, problems = pc.load_instance(doc, strict=False)
    assert any(p.code == "rescat.hom.transitivity" for p in problems)
    with pytest.raises(pc.LoadError) as e:
        pc.load_instance(doc)
    assert code_of(e) == problems[0].code


def test_use_closure_repairs_transitivity():
    doc = fixture_doc("chain3")
    doc["category"]["hom"][2][0] = 0
    inst = pc.load_instance(doc, use_closure=True)
    assert inst.cat.hom[2][0]  # closure restored the composite arrow


def test_validate_instance_clean_on_fixtures(all_instances):
    for inst in all_instances.values():
        assert pc.validate_instance(inst) == []


def test_iso_respect_detected():
    # resource objects 1 and 3 are isomorphic; a table objective that
    # separates the systems (0,1) and (0,3) breaks iso respect
    doc = fixture_doc("chain3")
    doc.pop("scale")
    entries = [1] * 16
    entries[3] = 2  # rank of (0,3); rank of (0,1) keeps image 1
    doc["valuations"][0]["map"] = {"kind": "table", "entries": entries}
    inst, problems = pc.load_instance(doc, strict=False)
    codes = {p.code for p in problems}
    assert "valuation.iso_respect" in codes


# ------------------------------------------------------------ derived data

def test_admissible_mass_values(chain3, cycle2, staircase):
    assert chain3.admissible_mass() == pytest.approx(0.84)
    assert chain3.admissible_mass(exact=True) == Fraction(21, 25)
    assert cycle2.admissible_mass(exact=True) == Fraction(2, 3)
    assert staircase.admissible_mass(exact=True) == Fraction(15, 16)


def test_validate_reports_a_target_category_law_by_its_objective():
    doc = fixture_doc("chain3")
    doc["valuations"][0]["target"]["hom"][2][0] = 0  # 2 -> 1 -> 0 without 2 -> 0
    _, problems = pc.load_instance(doc, strict=False)
    assert ("rescat.hom.transitivity", "valuations[0].target") in {
        (p.code, p.path) for p in problems}


def test_scaled_image_requires_scale_section():
    doc = fixture_doc("chain3")
    doc.pop("scale")
    inst = pc.load_instance(doc)
    assert inst.scale is None
    with pytest.raises(pc.LoadError) as e:
        inst.scaled_image(0, (1, 1))
    assert code_of(e) == "scale.missing"


def test_scaled_image_checks_alpha(staircase):
    for alpha in (-1, len(staircase.objectives)):
        with pytest.raises(pc.PreconditionError, match=r"^alpha must be in 0\.\.1$"):
            staircase.scaled_image(alpha, (0, 1))


def test_validate_reports_an_unknown_map_kind(staircase):
    """A map kind the loader would refuse, built in code, is a law-phase record."""
    objectives = (staircase.objectives[0], replace(staircase.objectives[1], kind="affine"))
    problems = pc.validate_instance(replace(staircase, objectives=objectives))
    assert [(p.code, p.path) for p in problems] == [("valuation.kind", "valuations[1].map.kind")]


def test_cap_defers_to_first_enumeration():
    inst = pc.build_instance(fixture_doc("chain3"), cap=4)
    with pytest.raises(pc.CapacityError) as e:
        inst.system.image_tables
    assert e.value.required == 16
    assert e.value.cap == 4


def test_capacity_guard_runs_before_any_table():
    """An oversized system raises CapacityError, not numpy's allocation error."""
    doc = fixture_doc("chain3")
    doc.pop("scale")
    doc["system_size"] = 40
    inst = pc.load_instance(doc)
    with pytest.raises(pc.CapacityError) as e:
        pc.pareto_frontier(inst.system)
    assert str(e.value) == "4^40 systems exceeds cap 1000000"
    assert e.value.required == math.inf  # K^n is not computed past the cap's bit length
    with pytest.raises(pc.CapacityError):
        pc.minorizes(inst.system, (0,) * 40, (1,) * 40)
    with pytest.raises(pc.CapacityError):
        pc.prime_admissibility(inst.system)


def test_huge_system_size_fails_fast_on_scale_rows():
    """The row count is compared with K^n without computing its digits."""
    doc = fixture_doc("chain3")
    doc["system_size"] = 100000
    start = time.perf_counter()
    with pytest.raises(pc.LoadError) as e:
        pc.load_instance(doc)
    assert time.perf_counter() - start < 1.0
    assert code_of(e) == "scale.shape"
    assert e.value.detail == "need 4^100000 rows (one per system)"


@pytest.mark.parametrize("row,code", [([-1, 0, 0], "scale.range"),
                                      ([4, 0, 0], "scale.range"),
                                      ([3, 0, 1], "scale.transition")],
                         ids=["negative", "out-of-range", "no-transition"])
def test_validate_instance_checks_hand_built_scale_rows(staircase, row, code):
    """A hand-built instance gets the same scale-row rule as a loaded one."""
    tables = [t.astype(np.int64) for t in staircase.scale.tables]  # a copy that holds -1
    tables[0][staircase.system.rank((0, 1)), : len(row)] = row
    inst = replace(staircase, scale=replace(staircase.scale, tables=tuple(tables)))
    assert [(p.code, p.path) for p in pc.validate_instance(inst)] == \
        [(code, "scale.valuations_scaled[0][1]")]


def test_fixture_path_unknown_name():
    with pytest.raises(pc.LoadError) as e:
        pc.fixture_path("nonexistent")
    assert code_of(e) == "fixture.unknown"
