import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pareto_cat as pc
import pareto_cat.particle as particle

import oracles
from conftest import fixture_doc, lambda_sequences, level_category

# --- frozen values (tests/oracles.py, exhaustive pattern enumeration) ---
COEFFS_HALF = (0.5, 0.5)
COEFFS_HALF_HALF = (0.25, 0.25, 0.5)
COEFFS_951 = (0.001, 0.225, 0.486, 0.288)     # lambdas (0.9, 0.5, 0.1)
PATTERN_12_PROB = 0.2                          # lambdas (0.5, 0.4, 0.3), chain (1,2), n=2


def test_coefficients_frozen_values():
    assert pc.evolve_coefficients([0.5]) == pytest.approx(COEFFS_HALF)
    assert pc.evolve_coefficients([0.5, 0.5]) == pytest.approx(COEFFS_HALF_HALF)
    assert pc.evolve_coefficients([0.9, 0.5, 0.1]) == pytest.approx(COEFFS_951)


def test_coefficients_degenerate():
    assert pc.evolve_coefficients([]) == (1,)
    assert pc.evolve_coefficients([0.0, 0.0, 0.0]) == pytest.approx((1, 0, 0, 0))
    assert pc.evolve_coefficients([1.0, 1.0]) == pytest.approx((0, 0, 1))


def test_coefficients_out_of_range():
    with pytest.raises(pc.PreconditionError):
        pc.evolve_coefficients([0.5, 1.5])
    with pytest.raises(pc.PreconditionError):
        pc.evolve_coefficients([-0.1])


@settings(max_examples=100, deadline=None)
@given(lambda_sequences(max_len=8))
def test_recursion_matches_exhaustive_enumeration(ls):
    """Closed recursion == pure pattern enumeration (independent oracle)."""
    got = pc.evolve_coefficients(ls)
    want = oracles.exhaustive_coefficients(ls)
    assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(lambda_sequences(max_len=12))
def test_matrix_route_matches_recursion(ls):
    assert pc.evolve_by_matrix(ls) == pytest.approx(pc.evolve_coefficients(ls), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(lambda_sequences(max_len=12))
def test_normalization_float(ls):
    assert sum(pc.evolve_coefficients(ls)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.lists(st.fractions(0, 1), min_size=1, max_size=10),
    st.lists(st.fractions(0, 1, max_denominator=1000), min_size=11, max_size=40),
))
@example([Fraction(1, d) for d in (2, 3, 7, 10, 64, 2**20, 3**13, 1)] * 5)
@example([Fraction(0)] * 20 + [Fraction(999, 1000), Fraction(1)] * 10)
@example([0, Fraction(1, 2)])
def test_normalization_exact(ls):
    c = pc.evolve_coefficients(ls)
    assert all(isinstance(x, Fraction) for x in c)
    assert sum(c) == 1
    m = pc.evolve_by_matrix(ls)
    assert all(isinstance(x, Fraction) for x in m)
    assert sum(m) == 1
    assert c == m


def few_valued(values):
    """Sequences of 0-300 jump probabilities over at most 6 distinct values."""
    return st.lists(values, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=300))


FLOAT_LAMBDAS = few_valued(st.one_of(st.sampled_from([0.0, 1.0, -0.0]), st.floats(0.0, 1.0)))
EXACT_LAMBDAS = few_valued(st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), 0, 1]),
    st.sampled_from([1, 2, 3, 1024, 3**5, 10**6]).flatmap(
        lambda d: st.integers(0, d).map(lambda a: Fraction(a, d)))))


def _descending(ls):
    return sorted(ls, key=float, reverse=True)


@settings(max_examples=60, deadline=None)
@given(FLOAT_LAMBDAS)
@example([0.3, -0.0, 0.7, 0.0, 1.0, 0.3] * 50)
@example([-0.0] * 7)
@example([])
def test_float_coefficients_are_bit_equal_to_quadratic_oracle(ls):
    """Doubles come out bit for bit as the term-by-term loop gives them
    (repr tells -0.0 from 0.0), and ``c_0^0`` stays the int 1."""
    for got, want in ((pc.diagonal_coefficients(ls), oracles.quadratic_diagonal(ls)),
                      (pc.evolve_coefficients(ls), oracles.quadratic_coefficients(ls))):
        assert list(map(repr, got)) == list(map(repr, want))
    down = _descending(ls)
    assert pc.check_estimate(down) == pc.check_estimate(down, oracles.quadratic_diagonal(down))


@settings(max_examples=40, deadline=None)
@given(EXACT_LAMBDAS)
@example([Fraction(1, 3), Fraction(0), Fraction(1023, 1024), Fraction(1),
          Fraction(7, 3**5), Fraction(999999, 10**6)] * 50)
@example([Fraction(1)] * 5)
@example([Fraction(1, 3), 1, 0])
@example([1, Fraction(1, 2), 0, 1])
def test_exact_coefficients_equal_quadratic_oracle(ls):
    """The running sums per distinct numerator give the oracle's values.
    Once one l is a fraction, ints 0 and 1 among them keep the route
    exact: ``c_0^0`` is the int 1 and every other entry a fraction."""
    diag, coeffs = pc.diagonal_coefficients(ls), pc.evolve_coefficients(ls)
    assert diag == oracles.quadratic_diagonal(ls)
    assert coeffs == oracles.quadratic_coefficients(ls)
    if any(isinstance(l, Fraction) for l in ls):
        assert type(diag[0]) is int and all(type(c) is Fraction for c in diag[1:])
        assert all(type(c) is Fraction for c in coeffs)
    down = _descending(ls)
    floats = [float(l) for l in down]
    assert pc.check_estimate(down) == pc.check_estimate(down, oracles.quadratic_diagonal(floats))


@pytest.mark.parametrize("name", ["chain3", "cycle2", "staircase"])
def test_float_and_exact_particle_coefficients_agree(name):
    inst = pc.load_instance(fixture_doc(name))
    fl = pc.run_particle(inst.system, inst.distribution, 60, seed=2)
    ex = pc.run_particle(inst.system, inst.distribution, 60, seed=2, exact=True)
    assert fl.draws == ex.draws
    assert sum(ex.coeffs) == 1
    assert fl.coeffs == pytest.approx([float(c) for c in ex.coeffs], abs=1e-12)
    assert list(map(repr, fl.coeffs)) == list(map(repr, oracles.quadratic_coefficients(
        fl.jump_probs[:-1])))


def test_step_matrix_shape_and_columns():
    s = pc.step_matrix([0.3, 0.6], 1)
    assert len(s) == 3 and all(len(r) == 2 for r in s)
    assert s[0][0] == pytest.approx(0.7)
    assert s[1][1] == pytest.approx(0.4)
    assert s[2][0] == pytest.approx(0.3)
    assert s[2][1] == pytest.approx(0.6)
    for b in range(2):
        assert sum(row[b] for row in s) == pytest.approx(1.0)
    with pytest.raises(pc.PreconditionError):
        pc.step_matrix([0.3], 1)


def test_markov_oracle_matches_exact():
    got = pc.markov_oracle([0.5, 0.5], trials=10**6, seed=0)
    assert pc.tv_distance(got, COEFFS_HALF_HALF) < 0.01


def test_markov_oracle_agrees_with_per_trial_simulation():
    ls = [0.7, 0.2, 0.4]
    a = pc.markov_oracle(ls, trials=200000, seed=3)
    b = oracles.simulate_best_index(ls, 200000, seed=99)
    assert pc.tv_distance(a, b) < 0.02


def test_chain_probability_frozen_value():
    assert pc.chain_probability([0.5, 0.4, 0.3], (1, 2), 2) == pytest.approx(
        PATTERN_12_PROB
    )


def test_chain_probability_edge_cases():
    # never jump
    assert pc.chain_probability([0.5, 0.9], (), 2) == pytest.approx(0.25)
    # single jump at the only step
    assert pc.chain_probability([0.5], (1,), 1) == pytest.approx(0.5)
    with pytest.raises(pc.PreconditionError):
        pc.chain_probability([0.5, 0.5], (2, 1), 2)
    with pytest.raises(pc.PreconditionError):
        pc.chain_probability([0.5], (3,), 1)


@settings(max_examples=60, deadline=None)
@given(lambda_sequences(max_len=6))
def test_chain_probabilities_sum_to_one(ls):
    n = len(ls)
    total = sum(
        pc.chain_probability(ls, pat, n) for pat in oracles.jump_patterns(n)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(lambda_sequences(max_len=5))
def test_chain_probability_matches_stepwise_oracle(ls):
    n = len(ls)
    for pat in oracles.jump_patterns(n):
        assert pc.chain_probability(ls, pat, n) == pytest.approx(
            oracles.pattern_probability(ls, pat, n), abs=1e-12
        )


def test_pattern_frequencies_match_probabilities():
    ls = [0.5, 0.4, 0.3]
    freqs = pc.jump_pattern_frequencies(ls, trials=300000, seed=5)
    assert sum(freqs.values()) == pytest.approx(1.0)
    for pat in oracles.jump_patterns(3):
        want = pc.chain_probability(ls, pat, 3)
        assert freqs.get(pat, 0.0) == pytest.approx(want, abs=0.01)


@settings(max_examples=120, deadline=None)
@given(lambda_sequences(max_len=14, monotone=True))
def test_estimate_bounds_on_monotone_sequences(ls):
    assert pc.check_estimate(ls)


def test_estimate_rejects_non_monotone():
    with pytest.raises(pc.PreconditionError):
        pc.check_estimate([0.2, 0.6])


def test_estimate_frozen_examples():
    assert pc.check_estimate([0.5, 0.5, 0.5])
    assert pc.check_estimate([0.9, 0.5, 0.1])
    assert pc.check_estimate([0.0, 0.0, 0.0])


@pytest.mark.parametrize("diag", [(1, 0.1, 0.9), (1, 0.9, 0.1)], ids=["upper", "lower"])
def test_estimate_refuses_a_diagonal_that_breaks_a_bound(diag):
    """c_2^2 = 0.9 exceeds c_1^1 = 0.1; c_1^1 (1 - l_0) = 0.45 exceeds c_2^2 = 0.1."""
    assert pc.check_estimate([0.5, 0.5]) and not pc.check_estimate([0.5, 0.5], diag)


@pytest.mark.parametrize("call", [
    lambda: pc.step_matrix([0.5, 0.25], -1),
    lambda: pc.step_matrix([0.5, 0.25], 2),
    lambda: pc.chain_probability([0.5, 0.25], [], -1),
    lambda: pc.chain_probability([0.5, 0.25], [], 3),
    lambda: pc.jump_pattern_frequencies([0.5, 0.25], trials=0),
    lambda: pc.jump_pattern_frequencies([0.5, 0.25], trials=-3),
    lambda: pc.markov_oracle([0.5, 0.25], trials=0),
], ids=["step-negative", "step-past-end", "chain-negative-steps", "chain-too-many-steps",
        "patterns-no-trials", "patterns-negative-trials", "oracle-no-trials"])
def test_jump_chain_counts_out_of_range_are_refused(call):
    with pytest.raises(pc.PreconditionError):
        call()


def test_tv_distance():
    assert pc.tv_distance([1, 0], [0, 1]) == pytest.approx(1.0)
    assert pc.tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    with pytest.raises(pc.PreconditionError):
        pc.tv_distance([1, 0], [1, 0, 0])


# ------------------------------------------------------------ run_particle

def test_run_particle_deterministic(chain3):
    a = pc.run_particle(chain3.system, chain3.distribution, 6, seed=42)
    b = pc.run_particle(chain3.system, chain3.distribution, 6, seed=42)
    assert a == b
    assert a.to_dict() == b.to_dict()


def test_run_particle_refuses_a_negative_step_count(chain3):
    with pytest.raises(pc.PreconditionError, match="^number of steps must be >= 0$"):
        pc.run_particle(chain3.system, chain3.distribution, -1, seed=1)


def test_run_particle_draws_are_admissible(chain3):
    tr = pc.run_particle(chain3.system, chain3.distribution, 20, seed=7)
    assert len(tr.draws) == 21
    for d in tr.draws:
        assert pc.admissible(chain3.system, d)
    # chain3 jump probabilities take only the two known values
    assert set(round(l, 10) for l in tr.jump_probs) <= {0.0, 0.32}
    assert len(tr.coeffs) == 21
    assert sum(tr.coeffs) == pytest.approx(1.0, abs=1e-12)


def test_run_particle_exact_mode(cycle2):
    tr = pc.run_particle(cycle2.system, cycle2.distribution, 8, seed=1, exact=True)
    assert all(l == Fraction(1, 3) for l in tr.jump_probs)
    assert sum(tr.coeffs) == 1
    assert isinstance(tr.coeffs[-1], Fraction)
    # constant jump probability p makes the newest entry exactly p
    assert tr.coeffs[-1] == Fraction(1, 3)


def test_run_particle_rough_bound_recorded_not_asserted(chain3):
    # seeds where the first draw is already on the frontier give
    # lambda_0 = 0, making the coarse bound (1-l_0)^n = 1 unattainable;
    # the trace records the failure instead of raising
    for seed in range(12):
        tr = pc.run_particle(chain3.system, chain3.distribution, 4, seed=seed)
        if tr.jump_probs[0] == 0.0:
            assert not tr.rough_bound_ok
            break
    else:
        pytest.skip("no frontier-start seed found in range")


@pytest.fixture(scope="module")
def skewed_cycle2():
    """cycle2 with unequal weights on the two admissible objects, whose
    jump probabilities (1/3 and 1/2) differ, so a chain can rise."""
    doc = fixture_doc("cycle2")
    doc["distribution"]["weights"] = ["1/6", "1/2", "1/3"]
    return pc.load_instance(doc)


def test_chains_monotone_matches_every_longest_chain(skewed_cycle2):
    inst = skewed_cycle2
    seen = set()
    for seed in range(20):
        for draws in (3, 8, 20):
            tr = pc.run_particle(inst.system, inst.distribution, draws, seed=seed)
            expected = all(
                all(tr.jump_probs[b] <= tr.jump_probs[a] + 1e-12 for a, b in zip(c, c[1:]))
                for c in pc.longest_strict_chains(inst.system, tr.draws)
            )
            assert tr.chains_monotone == expected
            seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("exact", [False, True])
def test_jump_probs_are_each_draws_mass(skewed_cycle2, staircase, exact):
    for inst in (skewed_cycle2, staircase):
        tr = pc.run_particle(inst.system, inst.distribution, 30, seed=5, exact=exact)
        assert tr.jump_probs == tuple(
            pc.minorization_mass(inst.system, inst.distribution, d, exact=exact)
            for d in tr.draws)
        assert all(isinstance(l, Fraction if exact else float) for l in tr.jump_probs)


def test_run_particle_is_linear_on_improvement_cycles(cycle2):
    # cycle2's longest chains grow exponentially in the number of draws
    start = time.perf_counter()
    tr = pc.run_particle(cycle2.system, cycle2.distribution, 400, seed=1)
    assert time.perf_counter() - start < 2.0
    assert len(tr.draws) == 401 and tr.chains_monotone


def test_sampling_error_reports_measured_rate():
    """Early draws succeed, then one call runs out of budget: the error
    carries accepted / attempted over the whole run, failed call included."""
    # object 1 alone reaches the goal: half of the draws are admissible
    cat = pc.ResourceCategory(2, [[1, 0], [1, 1]], [[0], [1]], 0, [[0, 1], [1, 1]])
    target = pc.TargetCategory(2, [[1, 0], [0, 1]], [[0], [1]])
    obj = pc.Objective(target=target, goal=1, kind="composed", h=(0, 1))
    system = pc.ValuationSystem(cat=cat, n=1, objectives=(obj,), cap=100)
    dist = pc.ObjectDistribution([0.5, 0.5])
    gen = np.random.default_rng(0)
    counter = [0, 0]
    with pytest.raises(pc.SamplingError) as err:
        for _ in range(200):
            pc.sample_admissible(system, dist, gen, budget=2, _counter=counter)
    assert counter[1] > 0
    assert err.value.acceptance_rate == counter[1] / counter[0]
    with pytest.raises(pc.SamplingError) as err:
        pc.run_particle(system, dist, 200, seed=0, budget=2)
    assert 0 < err.value.acceptance_rate < 1
    with pytest.raises(pc.SamplingError) as err:
        pc.sample_admissible(system, dist, np.random.default_rng(3), budget=0)
    assert err.value.acceptance_rate == 0.0


@st.composite
def sampling_cases(draw):
    """A system whose admissible ranks are a random mask (often sparse or
    empty), random object weights, and a read-ahead block size."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    cat, _ = level_category(draw, k)
    density = draw(st.integers(0, 10))
    mask = tuple(int(draw(st.integers(0, 9)) < density) for _ in range(k ** n))
    target = pc.TargetCategory(2, [[1, 0], [0, 1]], [[0], [1]])
    obj = pc.Objective(target=target, goal=1, kind="table", entries=mask)
    system = pc.ValuationSystem(cat=cat, n=n, objectives=(obj,), cap=10**6)
    raw = draw(st.lists(st.integers(1, 50), min_size=k, max_size=k))
    dist = pc.ObjectDistribution([Fraction(r, sum(raw)) for r in raw])
    return system, dist, draw(st.integers(1, 40))


def half_admissible_case():
    """One slot, two objects, only object 1 admissible, and 40-row blocks."""
    cat = pc.ResourceCategory(2, [[1, 0], [1, 1]], [[0], [1]], 0, [[0, 1], [1, 1]])
    target = pc.TargetCategory(2, [[1, 0], [0, 1]], [[0], [1]])
    obj = pc.Objective(target=target, goal=1, kind="composed", h=(0, 1))
    system = pc.ValuationSystem(cat=cat, n=1, objectives=(obj,), cap=100)
    return system, pc.ObjectDistribution(["1/2", "1/2"]), 40


@given(sampling_cases(), st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(1, 12))
# call 8 runs dry on exactly `budget` rejections, inside a block that holds later admissible draws
@example(case=half_admissible_case(), seed=4, budget=2, calls=12)
@settings(max_examples=150, deadline=None)
def test_read_ahead_sampling_matches_sequential_calls(case, seed, budget, calls):
    """Taking a walk's draws as arrays, in read-ahead blocks, returns the
    same draws, tallies the same attempts and fails the same call, with
    the same measured rate, as taking one draw at a time, up to the
    first failure."""
    system, dist, digits = case

    def outcomes():
        gen, counter, out = np.random.default_rng(seed), [0, 0], []
        for _ in range(calls):
            try:
                out.append(particle.sample_admissible(system, dist, gen, budget, counter))
            except pc.SamplingError as e:
                out.append(("error", e.acceptance_rate))
            out.append(tuple(counter))
        return out, gen

    def array_outcomes():
        # the first `count` calls' draws from a fresh generator, per count;
        # every count past the first call to run dry fails as that call did
        out, failed = [], None
        for count in range(1, calls + 1):
            counter = [0, 0]
            try:
                draws, ranks, ids = particle._admissible_draws(
                    system, dist, np.random.default_rng(seed), count, budget, counter)
            except pc.SamplingError as e:
                failed = failed or [("error", e.acceptance_rate), tuple(counter)]
                assert [("error", e.acceptance_rate), tuple(counter)] == failed
                continue
            assert failed is None
            assert draws[:-1] == out[::2]
            assert ranks == [system.rank(d) for d in draws]
            assert ids == system.image_class_vectors.ids[ranks].tolist()
            out += [draws[-1], tuple(counter)]
        return out + (failed or [])

    saved = particle.READ_AHEAD_DIGITS
    particle.READ_AHEAD_DIGITS = digits
    try:
        arrays = array_outcomes()
        sequential, gen = outcomes()
    finally:
        particle.READ_AHEAD_DIGITS = saved
    assert arrays == sequential[:len(arrays)]
    assert len(arrays) == len(sequential) or "error" in arrays[-2]
    # one draw at a time, the calls took from the generator exactly the draws they tried
    ref = np.random.default_rng(seed)
    if system.n:
        ref.choice(system.cat.size, size=(sequential[-1][0], system.n), p=dist.as_floats)
    assert gen.random() == ref.random()


def test_sampling_error_when_nothing_admissible():
    cat = pc.ResourceCategory(2, [[1, 0], [1, 1]], [[0], [1]], 0, [[0, 1], [1, 1]])
    target = pc.TargetCategory(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0], [1], [2]])
    obj = pc.Objective(target=target, goal=2, kind="composed", h=(0, 1))
    system = pc.ValuationSystem(cat=cat, n=1, objectives=(obj,), cap=100)
    dist = pc.ObjectDistribution([0.5, 0.5])
    with pytest.raises(pc.SamplingError):
        pc.run_particle(system, dist, 2, seed=0, budget=50)


# -------------------------------------------------- induced system / cocone

def _strict_trace(inst, alpha=0):
    """Build a synthetic trace whose draws form a strict improvement
    chain, to feed the mixture construction."""
    system = inst.system
    draws = ((1, 1), (0, 1))  # B -> A on both fixtures that use K=4, n=2
    jump = tuple(
        pc.minorization_mass(system, inst.distribution, d) for d in draws
    )
    return pc.ParticleTrace(
        draws=draws,
        jump_probs=jump,
        coeffs=pc.evolve_coefficients(jump[:-1]),
        seed=0,
        acceptance_rate=1.0,
    )


def test_induced_system_weights_follow_coefficients(staircase):
    tr = _strict_trace(staircase)
    isys = pc.induced_system(staircase.system, tr, alpha=0)
    assert len(isys.objects) == 2
    # weights after one step match the one-step coefficients
    want = pc.evolve_coefficients(tr.jump_probs[:1])
    got = isys.objects[1].weights
    assert got == pytest.approx(want)
    assert isys.images == (2, 1)  # capped sums of (1,1) and (0,1)


def test_induced_system_is_exact_on_exact_jump_probs(staircase):
    lams = (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))
    tr = pc.ParticleTrace(draws=((0, 3), (0, 2), (0, 1)), jump_probs=lams,
                          coeffs=pc.evolve_coefficients(lams[:2]), seed=0,
                          acceptance_rate=1.0)
    isys = pc.induced_system(staircase.system, tr, alpha=0)
    assert len(isys.objects) == 3
    for n, obj in enumerate(isys.objects):
        assert all(type(w) is Fraction for w in obj.weights)
        assert obj.weights == pc.evolve_by_matrix(lams[:n])
    assert isys.objects[2].weights == (Fraction(4, 9), Fraction(4, 15), Fraction(13, 45))
    for step in isys.steps:
        assert all(type(x) is Fraction for row in step.matrix for x in row)
        assert all(type(f[3]) is Fraction for f in step.families)


def test_induced_system_morphisms_validate(staircase):
    tr = _strict_trace(staircase)
    isys = pc.induced_system(staircase.system, tr, alpha=0)
    target = staircase.objectives[0].target
    for k, step in enumerate(isys.steps):
        msgs = step.validate(
            isys.objects[k], isys.objects[k + 1],
            lambda a, b: target.hom[a][b],
        )
        assert msgs == []



def test_negative_seed_is_refused(staircase):
    with pytest.raises(pc.PreconditionError, match="seed must be non-negative, got -1"):
        pc.run_particle(staircase.system, staircase.distribution, 2, seed=-1)


def test_induced_system_requires_strict_chain(staircase):
    bad = pc.ParticleTrace(
        draws=((0, 1), (1, 1)),  # wrong direction
        jump_probs=(0.0, 0.0),
        coeffs=(1.0, 0.0),
        seed=0,
        acceptance_rate=1.0,
    )
    with pytest.raises(pc.PreconditionError):
        pc.induced_system(staircase.system, bad, alpha=0)


def test_induced_system_refuses_a_bad_objective_and_an_isomorphic_link(staircase):
    tr = _strict_trace(staircase)
    for alpha in (-1, len(staircase.objectives)):
        with pytest.raises(pc.PreconditionError, match="objective index"):
            pc.induced_system(staircase.system, tr, alpha=alpha)
    still = replace(tr, draws=(tr.draws[0], tr.draws[0]))  # an arrow, but not a strict one
    with pytest.raises(pc.PreconditionError, match="isomorphic"):
        pc.induced_system(staircase.system, still, alpha=0)


def test_cocone_identity_and_verification(staircase):
    tr = _strict_trace(staircase)
    isys = pc.induced_system(staircase.system, tr, alpha=0)
    target = staircase.objectives[0].target
    # both chain images convert into 1 and into 0
    cocone = pc.induced_cocone(isys, [1, 0, 1], target)
    assert cocone.tip.weights == (Fraction(1, 3),) * 3
    assert pc.verify_cocone(isys, cocone)
    with pytest.raises(pc.PreconditionError):
        pc.induced_cocone(isys, [3], target)  # no arrow 1 -> 3
    with pytest.raises(pc.PreconditionError):
        pc.induced_cocone(isys, [], target)


def test_verify_cocone_refuses_an_incompatible_leg(staircase):
    tr = _strict_trace(staircase)
    isys = pc.induced_system(staircase.system, tr, alpha=0)
    cocone = pc.induced_cocone(isys, [1, 0], staircase.objectives[0].target)
    point = pc.ProbMorphism([[1], [0]], [(0, 0, (isys.images[0], 1), 1)])
    assert not pc.verify_cocone(isys, replace(cocone, legs=(point,) + cocone.legs[1:]))


def test_collapsed_tip_is_point_mass(staircase):
    """A tip made of copies of one terminal image collapses to (1, L)."""
    tr = _strict_trace(staircase)
    isys = pc.induced_system(staircase.system, tr, alpha=0)
    target = staircase.objectives[0].target
    cocone = pc.induced_cocone(isys, [1, 1, 1, 1], target)
    collapsed = pc.canonicalize(cocone.tip, target.iso_class_of)
    assert collapsed.components == ((Fraction(1, 1), 1),)
