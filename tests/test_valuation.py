import dataclasses
import functools
import itertools
import math
import json
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pareto_cat as pc
from pareto_cat import valuation
from pareto_cat.valuation import ImprovementChains, frontier_ranks

import oracles
from conftest import (FIXTURES, fixture_doc, level_category, many_objectives_doc,
                      valuation_systems)


# --- frozen oracle values (tests/oracles.py run against the fixtures) ---
CHAIN3_FRONTIER = frozenset({(0, 1), (0, 3), (1, 0), (3, 0)})
STAIRCASE_FRONTIER = frozenset(
    {(0, 1), (0, 2), (0, 3), (1, 0), (1, 3), (2, 0),
     (2, 3), (3, 0), (3, 1), (3, 2), (3, 3)}
)
CHAIN3_MASS_11 = Fraction(8, 25)          # strict improvers of (1,1)
STAIRCASE_MASS_11 = Fraction(1, 4)
STAIRCASE_MASS_22 = Fraction(9, 16)


def test_images_and_admissibility(chain3):
    s = chain3.system
    assert pc.images_of(s, (0, 0)) == (0,)
    assert pc.images_of(s, (1, 3)) == (2,)
    assert not pc.admissible(s, (0, 0))
    assert pc.admissible(s, (0, 1))
    assert sum(s.admissible_flags) == 15


def test_distribution_validation():
    d = pc.ObjectDistribution([0.4, 0.3, 0.2, 0.1])
    d.validate(4)
    assert d.tuple_weight((1, 1)) == pytest.approx(0.09)
    assert d.tuple_weight((0, 3), exact=True) == Fraction(1, 25)
    with pytest.raises(pc.LoadError) as ei:
        pc.ObjectDistribution([0.5, 0.5]).validate(3)
    assert ei.value.code == "distribution.shape"
    with pytest.raises(pc.LoadError) as ei:
        pc.ObjectDistribution([1.0, 0.0]).validate(2)
    assert ei.value.code == "distribution.positive"
    with pytest.raises(pc.LoadError) as ei:
        pc.ObjectDistribution([0.6, 0.6]).validate(2)
    assert ei.value.code == "distribution.sum"


def test_minorizes_directions(staircase):
    s = staircase.system
    # (0,1) improves on (1,1): both images drop or stay, one strictly
    assert pc.minorizes(s, (1, 1), (0, 1), strict=True)
    assert not pc.minorizes(s, (0, 1), (1, 1))
    # plain minorization is reflexive, strict is not
    assert pc.minorizes(s, (1, 1), (1, 1))
    assert not pc.minorizes(s, (1, 1), (1, 1), strict=True)


def test_strict_set_matches_oracle(chain3):
    doc = fixture_doc("chain3")
    got = pc.strict_minorization_set(chain3.system, (1, 1))
    assert got == oracles.brute_strict_improvers(doc, (1, 1))
    assert got == sorted(got)
    with pytest.raises(pc.PreconditionError):
        pc.strict_minorization_set(chain3.system, (0, 0))  # not admissible


def test_minorization_mass_frozen_values(chain3, staircase):
    assert pc.minorization_mass(
        chain3.system, chain3.distribution, (1, 1), exact=True
    ) == CHAIN3_MASS_11
    assert pc.minorization_mass(
        chain3.system, chain3.distribution, (1, 1)
    ) == pytest.approx(float(CHAIN3_MASS_11))
    assert pc.minorization_mass(
        staircase.system, staircase.distribution, (1, 1), exact=True
    ) == STAIRCASE_MASS_11
    assert pc.minorization_mass(
        staircase.system, staircase.distribution, (2, 2), exact=True
    ) == STAIRCASE_MASS_22


def _wide_denominator_chain3():
    """chain3 with weights whose common denominator D has D^2 > 2^63."""
    doc = fixture_doc("chain3")
    ws = [Fraction(1, 2**20), Fraction(1, 3**13), Fraction(1, 2)]
    ws.append(1 - sum(ws))
    doc["distribution"]["weights"] = [f"{w.numerator}/{w.denominator}" for w in ws]
    return doc, pc.load_instance(doc)


def test_exact_mass_beyond_int64_matches_oracle():
    doc, inst = _wide_denominator_chain3()
    phis = [t for t in pc.enumerate_summing_functors(inst.cat, inst.n)
            if pc.admissible(inst.system, t)]
    assert len(phis) == 15
    for phi in phis:
        got = pc.minorization_mass(inst.system, inst.distribution, phi, exact=True)
        assert got == oracles.brute_mass(doc, phi), phi


def test_float_mass_keeps_rank_order_sum():
    doc, inst = _wide_denominator_chain3()
    d = inst.distribution
    for phi in pc.enumerate_summing_functors(inst.cat, inst.n):
        if not pc.admissible(inst.system, phi):
            continue
        want = sum(d.tuple_weight(u) for u in oracles.brute_strict_improvers(doc, phi))
        assert pc.minorization_mass(inst.system, d, phi) == want, phi


def test_mass_zero_iff_frontier(chain3):
    s, d = chain3.system, chain3.distribution
    for t in pc.enumerate_summing_functors(chain3.cat, 2):
        if not pc.admissible(s, t):
            continue
        mass = pc.minorization_mass(s, d, t, exact=True)
        assert (mass == 0) == (t in CHAIN3_FRONTIER)


def test_frontier_matches_oracle_on_fixtures(all_instances):
    expected = {
        "chain3": CHAIN3_FRONTIER,
        "cycle2": frozenset(),
        "staircase": STAIRCASE_FRONTIER,
    }
    for name, inst in all_instances.items():
        f = pc.pareto_frontier(inst.system)
        assert f.member_set == expected[name], name
        assert oracles.brute_frontier(fixture_doc(name)) == expected[name], name


def test_frontier_groups_chain3(chain3):
    f = pc.pareto_frontier(chain3.system)
    reps = [g.representative for g in f.groups]
    assert reps == [(0, 1), (1, 0)]
    assert f.groups[0].members == ((0, 1), (0, 3))
    assert f.groups[1].members == ((1, 0), (3, 0))
    assert f.admissible_count == 15
    assert f.functor_count == 16


def test_frontier_results_compare_by_their_group_ends(staircase):
    """Equal results hash equal; results that differ only in where their
    groups end are not equal."""
    f = pc.pareto_frontier(staircase.system)
    g = pc.pareto_frontier(pc.load_instance(fixture_doc("staircase")).system)
    assert f is not g and f == g and hash(f) == hash(g)
    moved = f.ends.copy()
    moved[0] -= 1
    assert len(f.ends) > 1
    for ends in (moved, f.ends[1:]):
        assert dataclasses.replace(f, ends=ends) != f


def test_chain_route_agrees_on_fixtures(all_instances):
    for name, inst in all_instances.items():
        assert pc.frontier_via_chains(inst.system).member_set == \
            oracles.brute_frontier(fixture_doc(name)), name


def system_doc(system: pc.ValuationSystem) -> dict:
    """The document of ``system`` with uniform weights, as emitted."""
    k = system.cat.size
    return pc.emit_instance(pc.Instance(cat=system.cat, n=system.n, objectives=system.objectives,
                                        distribution=pc.ObjectDistribution([f"1/{k}"] * k)))


@settings(max_examples=60, deadline=None)
@given(valuation_systems())
def test_frontier_three_routes_random(system):
    """Chain route == brute-force oracle == zero-mass route on random systems."""
    f = pc.frontier_via_chains(system)
    assert f.member_set == oracles.brute_frontier(system_doc(system))
    k = system.cat.size
    dist = pc.ObjectDistribution([Fraction(1, k)] * k)
    zero_mass = frozenset(
        t
        for t in pc.enumerate_summing_functors(system.cat, system.n)
        if pc.admissible(system, t)
        and pc.minorization_mass(system, dist, t, exact=True) == 0
    )
    assert f.member_set == zero_mass


@settings(max_examples=40, deadline=None)
@given(valuation_systems(), st.data())
def test_minorizes_is_preorder_on_admissibles(system, data):
    tuples = [
        tuple(data.draw(st.integers(0, system.cat.size - 1)) for _ in range(system.n))
        for _ in range(3)
    ]
    a, b, c = tuples
    assert pc.minorizes(system, a, a)
    if pc.minorizes(system, a, b) and pc.minorizes(system, b, c):
        assert pc.minorizes(system, a, c)
    # strict implies plain and is irreflexive
    if pc.minorizes(system, a, b, strict=True):
        assert pc.minorizes(system, a, b)
    assert not pc.minorizes(system, a, a, strict=True)


@settings(max_examples=40, deadline=None)
@given(valuation_systems())
def test_strict_table_matches_oracle(system):
    """Frontier and strict improvement sets, read off the class table,
    equal the brute-force oracle on the emitted document."""
    doc = system_doc(system)
    assert pc.pareto_frontier(system).member_set == oracles.brute_frontier(doc)
    for phi in pc.enumerate_summing_functors(system.cat, system.n):
        if pc.admissible(system, phi):
            assert pc.strict_minorization_set(system, phi) == \
                oracles.brute_strict_improvers(doc, phi)


@st.composite
def table_objectives(draw):
    """A system of up to 4^3 ranks with one to four table objectives of
    free images into targets of up to six iso classes."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cat, _ = level_category(draw, k)
    objectives = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 6))
        target, _ = level_category(draw, size, max_level=draw(st.integers(0, 5)))
        entries = tuple(draw(st.integers(0, size - 1)) for _ in range(k ** n))
        objectives.append(pc.Objective(target=target, goal=draw(st.integers(0, size - 1)),
                                       kind="table", entries=entries))
    return pc.ValuationSystem(cat=cat, n=n, objectives=tuple(objectives))


def _chain_target(size):
    return pc.TargetCategory(size, [[a >= b for b in range(size)] for a in range(size)],
                             [[a] for a in range(size)])


# 4 ranks: the first objective's 2 classes are numbered by counting, and
# the second's key range, 2 ids x 3 classes, exceeds the 4 ranks
TWO_STEP = pc.ValuationSystem(
    cat=pc.ResourceCategory(2, [[1, 0], [0, 1]], [[0], [1]], 0, [[0, 1], [1, 1]]), n=2,
    objectives=(pc.Objective(target=_chain_target(2), goal=0, kind="table", entries=(0, 1, 1, 0)),
                pc.Objective(target=_chain_target(3), goal=0, kind="table", entries=(2, 0, 1, 2))))


@settings(max_examples=60, deadline=None)
@given(table_objectives())
@example(TWO_STEP)
def test_class_vector_numbering_matches_oracle(system):
    """Ids, first ranks, arrows, strict arrows and the frontier equal a
    numbering by np.unique over the stacked class rows."""
    ids, first, arrows, strict, frontier = oracles.class_vector_numbering(system_doc(system))
    c = system.image_class_vectors
    assert np.array_equal(c.ids, ids)
    assert [np.flatnonzero(c.ids == v)[0] for v in range(len(c.arrows))] == first.tolist()
    assert np.array_equal(c.arrows, arrows)
    assert np.array_equal(c.strict, strict)
    assert np.array_equal(frontier_ranks(system), frontier)


@pytest.mark.parametrize("count", [64, 65])
def test_class_vectors_are_exact_past_64_objectives(tmp_path, count):
    """A product of class counts past 2^64 neither wraps nor merges the
    two systems' vectors."""
    path = tmp_path / "many.json"
    path.write_text(json.dumps(many_objectives_doc(count)))
    inst = pc.load_instance(path)
    s = inst.system
    assert s.image_class_vectors.ids.tolist() == [0, 1]
    assert pc.minorizes(s, (0,), (1,), strict=True)
    assert not pc.minorizes(s, (1,), (0,))
    assert pc.pareto_frontier(s).member_set == {(1,)}
    assert pc.minorization_mass(s, inst.distribution, (0,), exact=True) == Fraction(1, 2)


@st.composite
def many_table_objectives(draw):
    """Up to 4^3 ranks and 1 to 70 table objectives, each into one of up to
    three targets of 1 to 9 objects (some of them isomorphic). Images are
    drawn from a seed and repeat with period ``spread`` over the ranks, so
    the distinct class vectors run from one to every rank, while the
    product of class counts runs far past the rank count."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cat, _ = level_category(draw, k)
    targets = [level_category(draw, draw(st.integers(1, 9)), max_level=draw(st.integers(0, 8)))[0]
               for _ in range(draw(st.integers(1, 3)))]
    count, spread = draw(st.integers(1, 70)), draw(st.integers(1, k ** n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    objectives = []
    for _ in range(count):
        target = targets[rng.integers(len(targets))]
        images = rng.integers(target.size, size=spread)[np.arange(k ** n) % spread]
        objectives.append(pc.Objective(target=target, goal=0, kind="table",
                                       entries=tuple(images.tolist())))
    return pc.ValuationSystem(cat=cat, n=n, objectives=tuple(objectives))


def _raw_images(system):
    """Per objective, the image of every system in lexicographic order,
    from the map's entries or by folding the tensor table."""
    tensor, unit = system.cat.tensor, system.cat.unit
    systems = list(itertools.product(range(system.cat.size), repeat=system.n))
    return [np.array(obj.entries) if obj.kind == "table" else
            np.array([obj.h[oracles.fold_tensor(tensor, unit, t)] for t in systems])
            for obj in system.objectives]


def _check_against_per_objective_numbering(system):
    images = _raw_images(system)
    ids, arrows, strict = oracles.per_objective_class_vectors(
        images, [(obj.target.iso_classes, obj.target.hom) for obj in system.objectives])
    c = system.image_class_vectors
    assert c.ids.dtype == np.min_scalar_type(len(c.arrows) - 1) and ids.dtype == np.intp
    assert np.array_equal(c.ids, ids)
    assert np.array_equal(c.arrows, arrows)
    assert np.array_equal(c.strict, strict)
    for obj, table, classes in zip(system.objectives, images, system.class_tables):
        assert np.array_equal(classes, np.asarray(obj.target.iso_class_of)[table])
        assert classes.dtype == np.min_scalar_type(len(obj.target.iso_classes) - 1)
    for obj, table, image in zip(system.objectives, images, system.image_tables):
        assert np.array_equal(image, table)
        assert image.dtype == np.min_scalar_type(obj.target.size - 1)


# TWO_STEP with a 257-object second target, so that its 2 x 257 class
# vectors are past a byte and take the renumbering route: a renumber after
# objective 1 of 2 by the presence table, then the final one by np.unique
# (2 ids x 257 classes exceed the 4 ranks); and 70 objectives of 2 classes
# over 2 ranks, renumbered at every objective
TWO_STEP_PAST_A_BYTE = dataclasses.replace(TWO_STEP, objectives=(
    TWO_STEP.objectives[0], dataclasses.replace(TWO_STEP.objectives[1], target=_chain_target(257))))
NUMBERING_EXAMPLES = (TWO_STEP_PAST_A_BYTE, pc.load_instance(many_objectives_doc(70)).system)


@pytest.mark.parametrize("name", FIXTURES)
def test_class_vectors_on_fixtures_match_the_per_objective_numbering(all_instances, name):
    _check_against_per_objective_numbering(all_instances[name].system)


@settings(max_examples=60, deadline=None)
@given(many_table_objectives())
@example(TWO_STEP)
@example(NUMBERING_EXAMPLES[0])
@example(NUMBERING_EXAMPLES[1])
def test_class_vectors_match_the_per_objective_numbering(system):
    """One mixed-radix key gives the ids (dtype too), arrows and strict
    arrows of a renumbering after every objective with arrows read off
    first ranks, and the class tables are the images' iso classes."""
    _check_against_per_objective_numbering(system)


def test_numbering_examples_take_both_dense_branches_and_renumber_midway(monkeypatch):
    dense, calls = valuation._dense, []  # per _dense call: the build, and whether it sorted

    def spy(key, size):
        calls.append((build, size > len(key)))
        return dense(key, size)

    monkeypatch.setattr(valuation, "_dense", spy)
    for build, system in enumerate(NUMBERING_EXAMPLES):
        fresh = pc.ValuationSystem(cat=system.cat, n=system.n, objectives=system.objectives)
        fresh.image_class_vectors
    assert {sorted_ for _, sorted_ in calls} == {False, True}
    assert all(sum(b == build for b, _ in calls) > 1 for build in range(len(NUMBERING_EXAMPLES)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_take_equals_plain_indexing(data):
    """The byte route and the gather give ``table[index]``, values and dtype:
    bool and uint8 tables of 1 to 257 entries, uint8, uint16 and intp
    indices, empty ones too."""
    size = data.draw(st.one_of(st.integers(1, 256), st.just(257)))
    dtype = data.draw(st.sampled_from([np.bool_, np.uint8]))
    table = np.array(data.draw(st.lists(st.integers(0, 255), min_size=size, max_size=size)),
                     np.uint8).astype(dtype)
    index_dtype = data.draw(st.sampled_from([np.uint8, np.uint16, np.intp]))
    top = min(size, np.iinfo(index_dtype).max + 1) - 1
    shape = data.draw(st.sampled_from([(0,), (1,), (33,), (3, 5), (0, 4)]))
    index = np.array(data.draw(st.lists(st.integers(0, top), min_size=math.prod(shape),
                                        max_size=math.prod(shape))), index_dtype).reshape(shape)
    got, want = valuation._take(table, index), np.asarray(table)[index]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@functools.lru_cache(maxsize=None)
def _level_target(size: int, classes: int) -> pc.TargetCategory:
    """``size`` objects on ``classes`` levels, lower levels first; an arrow
    a -> b when a's level is at least b's, so each level is an iso class."""
    level = [x * classes // size for x in range(size)]
    return pc.TargetCategory(size, [[level[a] >= level[b] for b in range(size)] for a in range(size)],
                             [[x for x in range(size) if level[x] == c] for c in range(classes)])


@st.composite
def byte_boundary_systems(draw, k, n, radices):
    """K resource objects with a free tensor table and unit (the rank
    tables read no law), systems of size n, and one objective per class
    count in ``radices``, into a target of that many classes and as many
    objects, or 256, or 257; table or composed, with free images."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cat = pc.ResourceCategory(k, np.eye(k, dtype=bool).tolist(), [[x] for x in range(k)],
                              int(rng.integers(k)), rng.integers(k, size=(k, k)).tolist())
    objectives = []
    for m in radices:
        target = _level_target(draw(st.sampled_from([s for s in (m, 256, 257) if s >= m])), m)
        kind = draw(st.sampled_from(["table", "composed"]))
        images = tuple(rng.integers(target.size, size=k ** n if kind == "table" else k).tolist())
        objectives.append(pc.Objective(target=target, goal=draw(st.integers(0, target.size - 1)),
                                       kind=kind, **{"entries" if kind == "table" else "h": images}))
    return pc.ValuationSystem(cat=cat, n=n, objectives=tuple(objectives))


# 16 resource objects make the tensor fold's pair number a * K + v a byte,
# 17 a uint16; n = 0 and K = 1 leave one rank
@pytest.mark.parametrize("k, n", [(1, 0), (1, 3), (16, 0), (16, 2), (17, 2)])
# class-count products of 49, 256 and 257 (a leading class count of one
# multiplies the byte key by 256) and past a byte
@pytest.mark.parametrize("radices", [(7, 7), (256,), (16, 16), (1, 256), (257,), (1, 257), (2, 129)])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_rank_tables_at_the_byte_boundaries_match_brute_force(k, n, radices, data):
    """Image tables, class tables, admissibility and class vectors, in
    values and least dtypes, against images folded one system at a time
    and a numbering by np.unique over the stacked class rows."""
    system = data.draw(byte_boundary_systems(k, n, radices))
    doc = system_doc(system)
    for obj, want, image, classes in zip(system.objectives, _raw_images(system),
                                         system.image_tables, system.class_tables):
        assert image.dtype == np.min_scalar_type(obj.target.size - 1)
        assert np.array_equal(image, want)
        assert classes.dtype == np.min_scalar_type(len(obj.target.iso_classes) - 1)
        assert np.array_equal(classes, np.asarray(obj.target.iso_class_of)[want])
    assert np.array_equal(system.admissible_mask, oracles.admissibility(doc))
    ids, _, arrows, strict, _ = oracles.class_vector_numbering(doc)
    c = system.image_class_vectors
    assert c.ids.dtype == np.min_scalar_type(len(arrows) - 1)
    assert np.array_equal(c.ids, ids)
    assert np.array_equal(c.arrows, arrows) and np.array_equal(c.strict, strict)


def _past_a_byte_system():
    """Four systems whose every rank table takes the gather route: images
    into 257 objects, and class vectors over 257 x 257 class pairs."""
    target = _chain_target(257)
    return pc.ValuationSystem(cat=TWO_STEP.cat, n=2, objectives=(
        pc.Objective(target=target, goal=0, kind="table", entries=(256, 0, 3, 255)),
        pc.Objective(target=target, goal=0, kind="composed", h=(1, 256))))


@pytest.mark.parametrize("route", ["byte", "gather"])
def test_cached_rank_tables_are_read_only(staircase, route):
    """Whichever route built them, the cached rank tables refuse an in-place write."""
    system = (pc.ValuationSystem(cat=staircase.cat, n=staircase.n, objectives=staircase.objectives)
              if route == "byte" else _past_a_byte_system())
    assert (system.image_tables[0].dtype == np.uint8) == (route == "byte")
    tables = (*system.image_tables, *system.class_tables, system.admissible_mask,
              *system.image_class_vectors, system.iso_representatives)
    for table in tables:
        with pytest.raises(ValueError):
            table[...] = 0


def test_class_vectors_take_memory_linear_in_the_ranks():
    """Four objectives of 64 classes each over 2^14 ranks: the product of
    class counts, 2^24, is far past the rank count. Building the class
    vectors allocates at most a few words per rank, never a table over
    the range of the products."""
    k, n = 2, 14
    ranks = np.arange(k ** n)
    target = _chain_target(64)
    system = pc.ValuationSystem(
        cat=TWO_STEP.cat, n=n,
        objectives=tuple(pc.Objective(target=target, goal=0, kind="table",
                                      entries=tuple((ranks * (a + 1) % 8 * 9).tolist()))
                         for a in range(4)))
    system.class_tables
    tracemalloc.start()
    try:
        c = system.image_class_vectors
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(c.arrows) == 8
    assert peak < 16 * 8 * k ** n  # 16 words per rank


def test_prime_admissibility_thread_independent(staircase):
    s1 = pc.ValuationSystem(
        cat=staircase.cat, n=staircase.n, objectives=staircase.objectives, cap=10**6
    )
    s2 = pc.ValuationSystem(
        cat=staircase.cat, n=staircase.n, objectives=staircase.objectives, cap=10**6
    )
    f1 = pc.prime_admissibility(s1, threads=1)
    f2 = pc.prime_admissibility(s2, threads=4)
    assert f1 == f2 == staircase.system.admissible_flags
    with pytest.raises(pc.PreconditionError):
        pc.prime_admissibility(s1, threads=0)


def test_longest_strict_chains(staircase):
    s = staircase.system
    # (1,1) -> (0,1) is strict; (0,1) -> nothing further
    chains = pc.longest_strict_chains(s, [(1, 1), (0, 1), (3, 3)])
    assert chains == [(0, 1)]
    # two draws of one frontier member: no strict link
    chains = pc.longest_strict_chains(s, [(0, 1), (0, 1)])
    assert chains == [(0,), (1,)]


def test_system_readers_refuse_bad_draws(staircase):
    s = staircase.system
    with pytest.raises(pc.PreconditionError, match=r"^system size mismatch: 3 != 2$"):
        s.rank((0, 1, 1))
    with pytest.raises(pc.PreconditionError, match=r"^draw \(0, 0\) is not admissible$"):
        pc.longest_strict_chains(s, [(1, 1), (0, 0)])


def _brute_longest_chains(system, draws):
    """Every longest strictly improving index subsequence, by trying all
    of them."""
    def improving(chain):
        return all(pc.minorizes(system, draws[a], draws[b], strict=True)
                   for a, b in zip(chain, chain[1:]))
    for length in range(len(draws), 0, -1):
        found = [c for c in itertools.combinations(range(len(draws)), length) if improving(c)]
        if found:
            return found
    return []


def _brute_chain_ends(system, draws):
    """Per draw, the longest, then least, improving index subsequence
    ending at it, by trying all of them."""
    better = [[pc.minorizes(system, a, b, strict=True) for b in draws] for a in draws]
    ends = [()] * len(draws)
    for length in range(1, len(draws) + 1):
        for c in itertools.combinations(range(len(draws)), length):
            if len(c) > len(ends[c[-1]]) and all(better[a][b] for a, b in zip(c, c[1:])):
                ends[c[-1]] = c
    return ends


def _check_walk(system, draws):
    chains = ImprovementChains(system)
    ends = _brute_chain_ends(system, draws)
    ids = system.image_class_vectors.ids
    assert chains.all_longest() == [] and chains.count_longest() == 0 and chains.best == ()
    for j, d in enumerate(draws):
        chains.add(d)
        assert chains.least == ends[: j + 1]
        # per class id and per rank: the longest, then least, chain ending
        # at a draw of it
        by_class, by_rank = {}, {}
        for e in range(j + 1):
            r = system.rank(draws[e])
            for table, key in ((by_class, int(ids[r])), (by_rank, r)):
                table.setdefault(key, []).append(e)
        for v, drawn in by_class.items():
            top = max(len(ends[e]) for e in drawn)
            least = min(ends[e] for e in drawn if len(ends[e]) == top)
            assert chains.by_class[v] == (-top, least)
        assert chains.by_class.keys() == by_class.keys()
        for r, drawn in by_rank.items():
            top = max(len(ends[e]) for e in drawn)
            least = min(ends[e] for e in drawn if len(ends[e]) == top)
            assert chains.by_rank[r] == ((-top, least), int(ids[r]))
        assert chains.by_rank.keys() == by_rank.keys()
        listed = chains.all_longest()
        assert listed == _brute_longest_chains(system, draws[: j + 1])
        assert chains.count_longest() == len(listed)
        assert chains.best == min(listed, default=())


@settings(max_examples=60, deadline=None)
@given(valuation_systems(), st.data())
def test_chain_count_and_listing_match_brute_force(system, data):
    digit = st.integers(0, system.cat.size - 1)
    walk = st.lists(st.tuples(*[digit] * system.n), max_size=10)
    _check_walk(system, data.draw(walk))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([(1,), (2,)]), max_size=12))
def test_chain_count_and_listing_on_improvement_cycles(cycle2, draws):
    """cycle2's two admissible objects strictly improve on each other, so
    chains branch at every alternation."""
    _check_walk(cycle2.system, draws)


def test_walk_records_keep_the_least_chain_of_a_later_draw():
    """Two objectives whose improvements cross: the second draw of
    object 4 ends a longest chain lexicographically below the first
    draw's, so its class and rank records must take it."""
    eye = [[int(a == b) for b in range(5)] for a in range(5)]
    levels = {"objects": 4, "hom": [[int(a >= b) for b in range(4)] for a in range(4)],
              "iso_classes": [[0], [1], [2], [3]]}
    doc = {"category": {"objects": 5, "hom": eye, "iso_classes": [[i] for i in range(5)],
                        "unit": 0, "tensor": [[max(a, b) for b in range(5)] for a in range(5)]},
           "system_size": 1,
           "valuations": [{"target": levels, "goal": 0, "map": {"kind": "table", "entries": e}}
                          for e in ([1, 3, 2, 0, 0], [3, 3, 2, 3, 2])],
           "distribution": {"weights": ["1/5"] * 5}}
    system = pc.load_instance(doc).system
    draws = [(0,), (1,), (2,), (4,), (3,), (4,)]
    _check_walk(system, draws)
    chains = ImprovementChains(system)
    for d in draws:
        chains.add(d)
    assert chains.least[3] == (1, 2, 3) and chains.least[5] == (0, 4, 5)
    assert chains.by_class[chains.ids[5]] == (-3, (0, 4, 5))
    assert chains.by_rank[system.rank((4,))] == ((-3, (0, 4, 5)), chains.ids[5])



@pytest.mark.parametrize("name, draws, seed", [
    ("chain3", 200, 1), ("chain3", 2000, 2), ("staircase", 200, 3), ("staircase", 2000, 4),
    ("cycle2", 200, 5), ("cycle2", 2000, 6)])
def test_chain_walk_matches_the_matrix_dp_on_long_walks(all_instances, name, draws, seed):
    """Seeded particle walks far beyond brute-force reach, against the
    draw x draw DP of tests/oracles.py. cycle2's longest chains number
    hundreds of digits, so only its counts are compared."""
    inst = all_instances[name]
    trace = pc.run_particle(inst.system, inst.distribution, draws - 1, seed)
    length, count, mono, strict = oracles.chain_walk(fixture_doc(name), trace.draws)
    chains = ImprovementChains(inst.system)
    for d in trace.draws:
        chains.add(d)
    top = len(chains.best)
    assert [len(c) for c in chains.least] == length.tolist()
    assert chains.count_longest() == sum(count[length == top])
    if name == "cycle2":
        return
    assert trace.chains_monotone == mono[length == top].all()
    listed = chains.all_longest()
    assert len(listed) == chains.count_longest() and listed == sorted(set(listed))
    rows = np.array(listed)
    assert rows.shape[1] == top and strict[rows[:, :-1], rows[:, 1:]].all()


def test_chain_listing_refuses_beyond_cap(cycle2):
    draws = [(1,), (2,)] * 6
    system = cycle2.system
    assert len(pc.longest_strict_chains(system, draws)) == 1
    rng = np.random.default_rng(1)
    draws = [(int(v),) for v in rng.integers(1, 3, 40)]
    chains = ImprovementChains(system)
    for d in draws:
        chains.add(d)
    count, top = chains.count_longest(), len(chains.best)
    small = pc.ValuationSystem(cat=system.cat, n=system.n, objectives=system.objectives,
                               cap=count * top - 1)
    with pytest.raises(pc.CapacityError) as err:
        pc.longest_strict_chains(small, draws)
    assert err.value.required == count * top and err.value.cap == count * top - 1
    assert str(err.value) == (f"listing {count} longest chains of length {top} "
                              f"exceeds cap {count * top - 1}")
    exact = pc.ValuationSystem(cat=system.cat, n=system.n, objectives=system.objectives,
                               cap=count * top)
    assert len(pc.longest_strict_chains(exact, draws)) == count


@pytest.mark.parametrize("name", ["chain3", "cycle2", "staircase"])
def test_frontier_document_matches_groups(all_instances, name):
    f = pc.pareto_frontier(all_instances[name].system)
    assert f.to_dict() == {
        "groups": [{"representative": list(g.representative),
                    "members": [list(m) for m in g.members]} for g in f.groups],
        "admissible_count": f.admissible_count,
        "functor_count": f.functor_count,
        "frontier_count": sum(len(g.members) for g in f.groups),
    }
    assert f.member_set == {m for g in f.groups for m in g.members}


def test_validate_maps_catches_iso_disrespect():
    # 1 and 3 isomorphic in the base but the table splits them
    doc = fixture_doc("chain3")
    doc["valuations"][0]["map"] = {
        "kind": "table",
        "entries": [0] * 16,
    }
    doc["valuations"][0]["map"]["entries"] = [
        1 if r == 1 else 0 for r in range(16)
    ]  # rank 1 = (0,1); its iso-partner (0,3) at rank 3 maps elsewhere
    inst = pc.build_instance(doc)
    problems = inst.system.validate_maps()
    assert any(p.code == "valuation.iso_respect" for p in problems)
    assert [(p.path, p.detail) for p in problems] == [(
        "valuations[0]",
        "systems at ranks 1 and 3 are isomorphic but their images land in "
        "different iso classes",
    )]


def level_system(levels, n: int, entries) -> pc.ValuationSystem:
    """The level category of ``levels`` (0 to the top, equal levels
    isomorphic, the tensor adding levels with a cap) at system size ``n``,
    with one table objective of ``entries`` into the two-object chain."""
    k, top = len(levels), max(levels)
    rep = [levels.index(lv) for lv in range(top + 1)]
    cat = pc.ResourceCategory(
        k, [[levels[a] >= levels[b] for b in range(k)] for a in range(k)],
        [[x for x in range(k) if levels[x] == lv] for lv in range(top + 1)], rep[0],
        [[rep[min(levels[a] + levels[b], top)] for b in range(k)] for a in range(k)])
    obj = pc.Objective(target=_chain_target(2), goal=0, kind="table", entries=tuple(entries))
    return pc.ValuationSystem(cat=cat, n=n, objectives=(obj,))


@st.composite
def iso_systems(draw):
    """Up to 4^3 ranks over a level category whose tensor lands on any
    member of the right iso class, with one or two maps into targets of up
    to four objects: composed, with a free ``h``; or a table that is
    constant on iso classes in the slots before a drawn one and free from
    it on (from the last slot on, it can split only there)."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    cat, _ = level_category(draw, k)
    members = [cat.iso_classes[c] for c in cat.iso_class_of]
    tensor = [[draw(st.sampled_from(members[x])) for x in row] for row in cat.tensor]
    cat = pc.ResourceCategory(k, cat.hom, cat.iso_classes, cat.unit, tensor)
    objectives = []
    for _ in range(draw(st.integers(1, 2))):
        size = draw(st.integers(1, 4))
        target, _ = level_category(draw, size)
        if draw(st.booleans()):
            h = tuple(draw(st.integers(0, size - 1)) for _ in range(k))
            objectives.append(pc.Objective(target=target, goal=0, kind="composed", h=h))
            continue
        free, images, entries = draw(st.integers(0, n)), {}, []
        for t in itertools.product(range(k), repeat=n):
            key = tuple(members[x][0] for x in t[:free]) + t[free:]
            if key not in images:
                images[key] = draw(st.integers(0, size - 1))
            entries.append(images[key])
        objectives.append(pc.Objective(target=target, goal=0, kind="table", entries=tuple(entries)))
    return pc.ValuationSystem(cat=cat, n=n, objectives=tuple(objectives))


@settings(max_examples=150, deadline=None)
@given(iso_systems())
@example(level_system((0, 0, 1), 0, (1,)))  # n = 0: one system, isomorphic only to itself
@example(level_system((0,), 2, (1,)))  # K = 1
@example(level_system((0, 1, 2), 2, [r % 2 for r in range(9)]))  # every class a singleton
@example(level_system((0, 0, 1), 3, [int(r % 3 == 1) for r in range(27)]))  # the last slot splits
def test_iso_respect_check_matches_the_gather_oracle(system):
    """The iso-respect problems of ``validate_maps`` equal the oracle's
    gather through each rank's representative; the representatives are
    built only to report a split."""
    problems = system.validate_maps()
    assert [(p.code, p.path, p.detail) for p in problems] == \
        oracles.iso_respect_problems(system_doc(system))
    assert ("iso_representatives" in vars(system)) == bool(problems)


def test_capacity_guard():
    cat = pc.ResourceCategory(
        2, [[1, 0], [1, 1]], [[0], [1]], 0, [[0, 1], [1, 1]]
    )
    obj = pc.Objective(
        target=pc.TargetCategory(2, [[1, 0], [1, 1]], [[0], [1]]),
        goal=0,
        kind="composed",
        h=(0, 1),
    )
    system = pc.ValuationSystem(cat=cat, n=40, objectives=(obj,), cap=1000)
    with pytest.raises(pc.CapacityError):
        system.image_tables


def test_validate_maps_never_expands_a_huge_system_count(chain3):
    # 4^100000 has 60,206 digits: printing or even computing it is the hang
    obj = chain3.objectives[0]
    table = pc.Objective(target=obj.target, goal=obj.goal, kind="table",
                         entries=tuple(range(4)) * 4)
    system = pc.ValuationSystem(cat=chain3.cat, n=10**5, objectives=(table,))
    start = time.perf_counter()
    problems = system.validate_maps()
    assert time.perf_counter() - start < 1.0
    assert [(p.code, p.path, p.detail) for p in problems] == [
        ("valuation.shape", "valuations[0].map.entries", "table needs 4^100000 entries")]
