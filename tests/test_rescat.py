from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import pareto_cat as pc

from conftest import resource_categories

# the staircase shape: a 4-chain with capped additive tensor
CHAIN4 = pc.ResourceCategory(
    4,
    [[a >= b for b in range(4)] for a in range(4)],
    [[0], [1], [2], [3]],
    0,
    [[min(a + b, 3) for b in range(4)] for a in range(4)],
)


def test_validate_accepts_lawful_category():
    report = pc.validate_category(CHAIN4)
    assert report.ok
    assert report.violations == ()


def test_iso_class_lookup():
    cat = pc.TargetCategory(3, [[1, 0, 0], [0, 1, 1], [0, 1, 1]], [[0], [1, 2]])
    assert cat.iso_class_of == (0, 1, 1)
    assert cat.isomorphic(1, 2)
    assert not cat.isomorphic(0, 1)


def test_bad_partition_rejected():
    with pytest.raises(pc.StructureError):
        pc.TargetCategory(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0], [1]]).iso_class_of
    with pytest.raises(pc.StructureError):
        pc.TargetCategory(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0], [1], [1, 2]]).iso_class_of


def test_validator_reports_broken_transitivity():
    hom = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]  # 0->1->2 but no 0->2
    cat = pc.TargetCategory(3, hom, [[0], [1], [2]])
    report = pc.validate_category(cat)
    assert not report.ok
    assert "rescat.hom.transitivity" in report.codes()
    # the witness names the broken triple
    v = [v for v in report.violations if v.code == "rescat.hom.transitivity"][0]
    assert v.witness == (0, 1, 2)


def test_validator_reports_broken_reflexivity():
    cat = pc.TargetCategory(2, [[0, 0], [0, 1]], [[0], [1]])
    report = pc.validate_category(cat)
    assert "rescat.hom.reflexivity" in report.codes()


def test_validator_reports_iso_without_mutual_hom():
    cat = pc.TargetCategory(2, [[1, 1], [0, 1]], [[0, 1]])
    report = pc.validate_category(cat)
    assert "rescat.iso.mutual_hom" in report.codes()


def test_validator_reports_unit_violation():
    # tensor with a wrong unit row
    cat = pc.ResourceCategory(
        2, [[1, 0], [1, 1]], [[0], [1]], 0, [[1, 1], [1, 1]]
    )
    report = pc.validate_category(cat)
    assert "rescat.tensor.unit" in report.codes()


def test_validator_reports_broken_symmetry():
    cat = pc.ResourceCategory(
        3,
        [[1, 0, 0], [1, 1, 0], [1, 1, 1]],
        [[0], [1], [2]],
        0,
        [[0, 1, 2], [1, 1, 1], [2, 2, 2]],  # 1x2 = 1 but 2x1 = 2
    )
    report = pc.validate_category(cat)
    assert "rescat.tensor.symmetry" in report.codes()


def test_violation_cap_respected():
    hom = [[0] * 6 for _ in range(6)]  # everything broken
    cat = pc.TargetCategory(6, hom, [[i] for i in range(6)])
    report = pc.validate_category(cat, max_violations=5)
    assert len(report.violations) == 5


class CountingRows(tuple):
    """A hom table that counts its row reads."""

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def test_checking_stops_at_the_cap():
    # every law fails at every witness: a full check reads hom thousands of times
    cat = pc.ResourceCategory(8, [[0] * 8] * 8, [[i] for i in range(8)], 0,
                              [[(a + b + 1) % 8 for b in range(8)] for a in range(8)])
    object.__setattr__(cat, "hom", CountingRows(cat.hom))
    cat.hom.reads = 0
    report = pc.validate_category(cat, max_violations=1)
    assert [(v.code, v.witness) for v in report.violations] == [("rescat.hom.reflexivity", (0,))]
    assert cat.hom.reads == 1


@st.composite
def broken_categories(draw):
    """Lawful categories with one to three entries of hom, tensor, unit
    or partition changed, or wholly random ones; targets or resource
    categories, with classes listed in any order."""
    def ids(size):
        return st.integers(0, size - 1)

    if draw(st.booleans()):
        cat = draw(resource_categories(max_size=6))
        size, unit, label = cat.size, cat.unit, list(cat.iso_class_of)
        hom, tensor = [list(r) for r in cat.hom], [list(r) for r in cat.tensor]
        for _ in range(draw(st.integers(1, 3))):
            a, b = draw(ids(size)), draw(ids(size))
            what = draw(st.sampled_from(["hom", "tensor", "unit", "class"]))
            if what == "hom":
                hom[a][b] = not hom[a][b]
            elif what == "tensor":
                tensor[a][b] = draw(ids(size))
            elif what == "unit":
                unit = a
            else:
                label[a] = draw(st.integers(0, size))  # may open a class of its own
    else:
        size = draw(st.integers(1, 6))
        table = st.lists(st.lists(st.booleans(), min_size=size, max_size=size),
                         min_size=size, max_size=size)
        hom = draw(table)
        tensor = [[draw(ids(size)) for _ in range(size)] for _ in range(size)]
        label, unit = [draw(ids(size)) for _ in range(size)], draw(ids(size))
    order = draw(st.permutations(sorted(set(label))))
    cells = [[x for x in range(size) if label[x] == c] for c in order]
    if draw(st.booleans()):
        return pc.TargetCategory(size, hom, cells)
    return pc.ResourceCategory(size, hom, cells, unit, tensor)


def as_target(cat):
    return pc.TargetCategory(cat.size, cat.hom, cat.iso_classes)


@settings(max_examples=150, deadline=None)
@given(st.one_of(resource_categories(max_size=6), resource_categories(max_size=6).map(as_target),
                 broken_categories()))
def test_reports_equal_the_law_by_law_oracle(cat):
    for cap in (0, 1, 5, 50, -1, 10**6):
        report = pc.validate_category(cat, max_violations=cap)
        want = oracles.category_violations(cat, cap)
        assert [(v.code, v.witness, v.message) for v in report.violations] == want
        assert report.ok == (not want)


@settings(max_examples=60, deadline=None)
@given(resource_categories())
def test_level_construction_always_lawful(cat):
    assert pc.validate_category(cat).ok


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data())
def test_close_hom_gives_preorder(size, data):
    rows = [
        [a == b or data.draw(st.booleans()) for b in range(size)]
        for a in range(size)
    ]
    closed = pc.close_hom(rows)
    cat = pc.TargetCategory(size, closed, [[i] for i in range(size)])
    report = pc.validate_category(cat)
    assert "rescat.hom.transitivity" not in report.codes()
    assert "rescat.hom.reflexivity" not in report.codes()


def test_convertible_and_mutual():
    assert pc.convertible(CHAIN4, 3, 1)
    assert not pc.convertible(CHAIN4, 1, 3)
    assert pc.mutually_convertible(CHAIN4, 2, 2)
    assert not pc.mutually_convertible(CHAIN4, 2, 1)


@pytest.mark.parametrize("a, b", [(-1, 3), (9, 0), (0, 9), (3, -1)])
def test_pair_readers_refuse_object_ids_out_of_range(a, b):
    """On chain3 (1 and 3 isomorphic) a negative id would wrap to object
    3, and 9 is past every table: each reader refuses both."""
    cat = pc.load_instance(pc.fixture_path("chain3")).cat
    for read in (pc.convertible, pc.mutually_convertible, pc.TargetCategory.isomorphic):
        with pytest.raises(pc.StructureError, match=rf"^object id out of range: \({a},{b}\)$"):
            read(cat, a, b)


@pytest.mark.parametrize("a, b", [(-1, 0), (9, 0), (0, -1), (0, 9)])
def test_tens_refuses_object_ids_out_of_range(a, b):
    """On chain3 ``tens(-1, 0)`` would read ``tens(3, 0)``, and 9 is
    past the table."""
    cat = pc.load_instance(pc.fixture_path("chain3")).cat
    assert cat.tens(3, 0) == cat.tensor[3][0]
    with pytest.raises(pc.StructureError, match=rf"^object id out of range: \({a},{b}\)$"):
        cat.tens(a, b)


def test_tensor_power_values():
    # 1^k climbs the chain and saturates at 3
    assert [pc.tensor_power(CHAIN4, 1, k) for k in (1, 2, 3, 4, 5)] == [1, 2, 3, 3, 3]
    with pytest.raises(pc.PreconditionError):
        pc.tensor_power(CHAIN4, 1, 0)


@pytest.mark.parametrize("a", [-1, 4])
def test_tensor_power_refuses_object_ids_out_of_range(a):
    with pytest.raises(pc.StructureError, match=rf"^object id out of range: {a}$"):
        pc.tensor_power(CHAIN4, a, 2)


def test_conversion_rate_on_chain():
    # hand-derived on the capped 4-chain: n=3 copies of 1 saturate, after
    # which every m is reachable, so the 16-window maximum is 16/3
    assert pc.conversion_rate(CHAIN4, 1, 1) == Fraction(16, 3)
    # 3 saturates instantly: window maximum 16/1
    assert pc.conversion_rate(CHAIN4, 3, 1) == Fraction(16)
    # nothing converts into the bottom of a 2-chain from its top... the
    # other way: 0^n stays 0, never reaches 1
    two = pc.ResourceCategory(
        2, [[1, 0], [1, 1]], [[0], [1]], 0, [[0, 1], [1, 1]]
    )
    assert pc.conversion_rate(two, 0, 1) is None


def test_conversion_rate_checks_object_ids():
    for a, b in ((-1, 1), (4, 1), (1, -1), (1, 4)):
        with pytest.raises(pc.StructureError, match=rf"^object id out of range: \({a},{b}\)$"):
            pc.conversion_rate(CHAIN4, a, b)


def test_conversion_rate_monotone_in_window():
    r8 = pc.conversion_rate(CHAIN4, 1, 1, n_max=8)
    r16 = pc.conversion_rate(CHAIN4, 1, 1, n_max=16)
    assert r8 <= r16
    with pytest.raises(pc.PreconditionError):
        pc.conversion_rate(CHAIN4, 1, 1, n_max=0)


@st.composite
def random_tables(draw, max_size=6):
    """A hom table and a tensor table of K objects with arbitrary entries:
    the powers' tail and cycle need no category law."""
    k = draw(st.integers(1, max_size))
    hom = [[draw(st.booleans()) for _ in range(k)] for _ in range(k)]
    tensor = [[draw(st.integers(0, k - 1)) for _ in range(k)] for _ in range(k)]
    cat = pc.ResourceCategory(k, hom, [[i] for i in range(k)], 0, tensor)
    return cat, draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))


@settings(max_examples=200, deadline=None)
@given(random_tables(), st.integers(1, 30))
def test_powers_match_the_fold_and_the_pair_scan(table, n_max):
    cat, a, b = table
    assert ([pc.tensor_power(cat, a, n) for n in range(1, n_max + 1)]
            == [oracles.tensor_power_fold(cat.tensor, a, n) for n in range(1, n_max + 1)])
    assert (pc.conversion_rate(cat, a, b, n_max=n_max)
            == oracles.conversion_rate_scan(cat.hom, cat.tensor, a, b, n_max))


def test_powers_of_a_huge_exponent_read_the_cycle():
    # addition mod 3 with only identity arrows: a^n is n*a mod 3, and
    # a^n -> b^m holds exactly when n*a = m*b mod 3 (10**18 = 1 mod 3)
    cat = pc.ResourceCategory(3, [[a == b for b in range(3)] for a in range(3)],
                              [[0], [1], [2]], 0,
                              [[(a + b) % 3 for b in range(3)] for a in range(3)])
    assert [pc.tensor_power(cat, 1, n) for n in (1, 2, 3, 4)] == [1, 2, 0, 1]
    assert pc.tensor_power(cat, 1, 10**18) == 1
    assert pc.tensor_power(cat, 2, 10**18 + 1) == 1
    assert pc.conversion_rate(cat, 1, 1, n_max=10**18) == Fraction(10**18)
    assert pc.conversion_rate(cat, 1, 2, n_max=10**18) == Fraction(10**18 - 2)


@settings(max_examples=40, deadline=None)
@given(resource_categories(), st.data())
def test_conversion_rate_witnessed(cat, data):
    """Any reported rate m/n is witnessed by an actual arrow between
    tensor powers."""
    a = data.draw(st.integers(0, cat.size - 1))
    b = data.draw(st.integers(0, cat.size - 1))
    r = pc.conversion_rate(cat, a, b, n_max=6)
    if r is None:
        for n in range(1, 7):
            for m in range(1, 7):
                assert not cat.hom[pc.tensor_power(cat, a, n)][pc.tensor_power(cat, b, m)]
    else:
        found = any(
            cat.hom[pc.tensor_power(cat, a, n)][pc.tensor_power(cat, b, m)]
            and Fraction(m, n) == r
            for n in range(1, 7)
            for m in range(1, 7)
        )
        assert found
