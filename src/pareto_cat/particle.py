"""Random search dynamics of a single particle and its induced mixtures.

A particle draws admissible systems i.i.d. from the product measure
conditioned on admissibility. Writing ``jump_probs[k]`` for the mass of
the strict improvement set of the k-th draw, the index of the current
best position evolves as a Markov jump chain: in state ``k`` at step
``t`` it moves to ``t`` with probability ``jump_probs[k]`` and stays
put otherwise. ``coeffs[n][k]`` is the probability that position ``k``
is still the best after ``n`` steps; the closed recursion, its matrix
form and a Monte-Carlo oracle for it all live here, together with the
induced probabilistic objects and cocones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import PreconditionError, SamplingError
from .probcat import ProbMorphism, ProbObject
from .rescat import TargetCategory
from .valuation import (
    ImprovementChains,
    ObjectDistribution,
    ValuationSystem,
    images_of,
    minorization_mass,
)

ESTIMATE_TOL = 1e-12


def _check_probs(lambdas: Sequence) -> list:
    ls = list(lambdas)
    if any(not 0 <= float(l) <= 1 for l in ls):
        raise PreconditionError("jump probabilities must lie in [0, 1]")
    return ls


def _numerators(ls: list) -> tuple:
    """With ``l_k = a_k / q`` over the common denominator q of the
    fractions ``ls``: q, the a_k, and the integers ``N_0..N_n`` with
    ``c_n^n = N_n / q^n``, where ``N_n = sum_k a_k (q - a_k)^(n-1-k) N_k``.

    That sum is kept as one running integer per distinct nonzero a: each
    step multiplies every running sum by its ``q - a`` and adds the newest
    term to its own, so a step costs O(distinct a) big-int operations.
    """
    q = math.lcm(*(l.denominator for l in ls))
    a = [l.numerator * (q // l.denominator) for l in ls]
    sums = dict.fromkeys(filter(None, a), 0)  # per a: sum of a (q - a)^(n-1-k) N_k, k < n, a_k = a
    nums = [1]
    for ak in a:
        for b in sums:
            sums[b] *= q - b
        if ak:
            sums[ak] += ak * nums[-1]
        nums.append(sum(sums.values()))
    return q, a, nums


def _exact(ls: list) -> bool:
    """Whether ``ls`` takes the exact route: every l a fraction or an int
    (the 0s and 1s an exact walk may hold), at least one a fraction."""
    return (all(isinstance(l, (int, Fraction)) for l in ls)
            and any(isinstance(l, Fraction) for l in ls))


def _diagonal(ls: list) -> tuple:
    """:func:`diagonal_coefficients` of an already validated list."""
    if _exact(ls):
        q, _, nums = _numerators(ls)
        return (1,) + tuple(Fraction(num, q ** m) for m, num in enumerate(nums[1:], 1))
    diag = [1]
    for n in range(1, len(ls) + 1):
        acc = 0
        for k in range(n):
            acc += ls[k] * (1 - ls[k]) ** (n - 1 - k) * diag[k]
        diag.append(acc)
    return tuple(diag)


def diagonal_coefficients(lambdas: Sequence) -> tuple:
    """c_k^k for k = 0..n: the probability that the k-th draw becomes the
    best position the moment it happens. ``c_0^0`` is the int 1.

    Exact when the l are fractions (ints 0 and 1 may mix in): every other
    entry is a fraction, in O(n x distinct l) big-int steps (see
    :func:`_numerators`). Otherwise the term-by-term loop in Python
    arithmetic, O(n^2).
    """
    return _diagonal(_check_probs(lambdas))


def evolve_coefficients(lambdas: Sequence) -> tuple:
    """Distribution of the best index after n steps, by the closed
    recursion: stale entries decay geometrically, ``c_k^n = c_k^k
    (1 - l_k)^(n-k)``, the newest entry collects one jump from each
    predecessor.

    Exact as in :func:`diagonal_coefficients`: the stale entries come
    straight from the diagonal's integer numerators as ``N_k (q -
    a_k)^(n-k) / q^n``, with no fraction power or product. Otherwise in
    Python arithmetic, O(n^2).
    """
    return _evolve(_check_probs(lambdas))


def _evolve(ls: list) -> tuple:
    """:func:`evolve_coefficients` of an already validated list."""
    n = len(ls)
    if not _exact(ls):
        diag = _diagonal(ls)
        return tuple(diag[k] * (1 - ls[k]) ** (n - k) for k in range(n)) + (diag[n],)
    q, a, nums = _numerators(ls)
    qn = q ** n
    return tuple(Fraction(nums[k] * (q - a[k]) ** (n - k), qn)
                 for k in range(n)) + (Fraction(nums[n], qn),)


def step_matrix(lambdas: Sequence, n: int, exact: bool = False) -> list:
    """The (n+2) x (n+1) column-stochastic step: diagonal ``1 - l_k``,
    last row ``l_k``. Maps the best-index distribution after n steps to
    the one after n+1. Every entry is a fraction when ``exact`` is set
    or the l take the exact route (:func:`_exact`), else the l as given."""
    ls = _check_probs(lambdas)
    if not 0 <= n < len(ls):
        raise PreconditionError(f"step {n} out of range for {len(ls)} jump probabilities")
    exact = exact or _exact(ls)
    zero = Fraction(0) if exact else 0.0
    rows = [[zero] * (n + 1) for _ in range(n + 2)]
    for k in range(n + 1):
        lk = Fraction(ls[k]) if exact else ls[k]
        rows[k][k] = 1 - lk
        rows[n + 1][k] = lk
    return rows


def _matvec(m, v: list) -> list:
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def _walk(ls: Sequence, steps: int):
    """``(None, c_0)``, then for n < ``steps`` each step matrix ``S_n`` of
    ``ls`` with the distribution ``c_{n+1} = S_n c_n`` it leads to."""
    c = [Fraction(1) if _exact(ls) else 1.0]
    yield None, c
    for n in range(steps):
        s = step_matrix(ls, n)
        c = _matvec(s, c)
        yield s, c


def evolve_by_matrix(lambdas: Sequence) -> tuple:
    """Same distribution as :func:`evolve_coefficients`, produced by
    repeated multiplication with the explicit step matrices."""
    ls = _check_probs(lambdas)
    *_, (_, c) = _walk(ls, len(ls))
    return tuple(c)


def _simulation(lambdas: Sequence, trials: int, seed: Optional[int]) -> tuple:
    """Float jump probabilities and a generator for ``trials`` simulated runs."""
    ls = [float(l) for l in _check_probs(lambdas)]
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    return ls, np.random.default_rng(seed)


def markov_oracle(lambdas: Sequence, trials: int = 10**6,
                  seed: Optional[int] = 0) -> np.ndarray:
    """Empirical best-index distribution from simulating the jump chain.

    Trials are exchangeable, so the per-state counts are advanced with
    one binomial split per occupied state and step; this is identical in
    law to simulating each trial separately and merging by summation.
    """
    ls, gen = _simulation(lambdas, trials, seed)
    n = len(ls)
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[0] = trials
    for t in range(1, n + 1):
        movers = 0
        for k in range(t):
            if counts[k]:
                jump = gen.binomial(counts[k], ls[k])
                counts[k] -= jump
                movers += jump
        counts[t] = movers
    return counts / float(trials)


def jump_pattern_frequencies(lambdas: Sequence, trials: int = 10**6,
                             seed: Optional[int] = 0) -> dict:
    """Empirical frequency of every realized jump-time pattern.

    Keys are strictly increasing tuples of jump times (the accepted-draw
    indices); the same binomial aggregation as :func:`markov_oracle`,
    tracking whole paths instead of final states.
    """
    ls, gen = _simulation(lambdas, trials, seed)
    n = len(ls)
    paths = {(): trials}
    for t in range(1, n + 1):
        nxt: dict = {}
        for pattern, count in sorted(paths.items()):
            state = pattern[-1] if pattern else 0
            jump = gen.binomial(count, ls[state])
            stay = count - jump
            if stay:
                nxt[pattern] = nxt.get(pattern, 0) + stay
            if jump:
                moved = pattern + (t,)
                nxt[moved] = nxt.get(moved, 0) + jump
        paths = nxt
    return {pat: cnt / float(trials) for pat, cnt in paths.items()}


def chain_probability(lambdas: Sequence, chain: Sequence[int], n: int):
    """Probability that the accepted improvements happen exactly at the
    given times within an n-step run.

    The factor structure follows the jump chain: stay factors use the
    probability of the state currently occupied, the jump factor at time
    ``chain[j]`` uses the state occupied just before it. Summing over
    all patterns of {1..n} gives exactly one.
    """
    ls = _check_probs(lambdas)
    times = list(chain)
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise PreconditionError(f"jump times must be strictly increasing: {times}")
    if times and (times[0] < 1 or times[-1] > n):
        raise PreconditionError(f"jump times must lie in 1..{n}")
    if not 0 <= n <= len(ls):
        raise PreconditionError(f"{n} steps out of range for {len(ls)} jump probabilities")
    prob = 1
    state = 0
    for t in times:
        prob *= (1 - ls[state]) ** (t - state - 1) * ls[state]
        state = t
    if state < len(ls):
        prob *= (1 - ls[state]) ** (n - state)
    return prob


def check_estimate(lambdas: Sequence, diag: Optional[Sequence] = None) -> bool:
    """Sandwich bounds for the newest-entry probability under a
    non-increasing jump sequence.

    Verifies ``c_n^n <= c_k^k`` for all k < n and
    ``c_k^k (1-l_0)^(n-k) <= c_n^n`` for 1 <= k < n, with 1e-12 slack.
    The lower bound is not checked at k = 0: there it reads
    ``(1-l_0)^n <= c_n^n``, which already fails at n = 1 for any
    ``l_0 < 1/2`` (``c_1^1 = l_0``), and for the all-zero sequence.
    """
    ls = [float(l) for l in _check_probs(lambdas)]
    if any(b > a for a, b in zip(ls, ls[1:])):
        raise PreconditionError("jump sequence must be monotone non-increasing")
    if diag is None:
        diag = _diagonal(ls)
    diag = [float(d) for d in diag]
    n = len(ls)
    cnn = diag[n]
    for k in range(n):
        if cnn > diag[k] + ESTIMATE_TOL:
            return False
        if k >= 1 and diag[k] * (1 - ls[0]) ** (n - k) > cnn + ESTIMATE_TOL:
            return False
    return True


def tv_distance(p: Sequence[float], q: Sequence[float]) -> float:
    pa, qa = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise PreconditionError("total variation needs equal-length distributions")
    return 0.5 * float(np.abs(pa - qa).sum())


@dataclass(frozen=True)
class ParticleTrace:
    draws: tuple
    jump_probs: tuple
    coeffs: tuple
    seed: int
    acceptance_rate: float
    rough_bound_ok: bool = True
    chains_monotone: bool = True

    def to_dict(self) -> dict:
        return {
            "draws": [list(d) for d in self.draws],
            "jump_probs": [float(l) for l in self.jump_probs],
            "coeffs": [float(c) for c in self.coeffs],
            "seed": self.seed,
            "acceptance_rate": self.acceptance_rate,
            "rough_bound_ok": self.rough_bound_ok,
            "chains_monotone": self.chains_monotone,
        }


READ_AHEAD_DIGITS = 256  # object ids per read-ahead block


def sample_admissible(system: ValuationSystem, dist: ObjectDistribution,
                      gen: np.random.Generator, budget: int = 10**5,
                      _counter: Optional[list] = None) -> tuple:
    """One draw from the product measure conditioned on admissibility,
    by rejection, taking from ``gen`` exactly the draws it tries. Raises
    :class:`SamplingError` with the measured acceptance rate when the
    attempt budget runs out: accepted over attempted draws as tallied in
    ``_counter`` (the failed call's attempts included), else 0.0 for
    this call alone. The one-draw reference for :func:`_admissible_draws`."""
    k, n = system.cat.size, system.n
    counter = [0, 0] if _counter is None else _counter
    for _ in range(budget):
        draw = gen.choice(k, size=n, p=dist.as_floats)
        counter[0] += 1
        if system.admissible_mask[draw @ k ** np.arange(n - 1, -1, -1)]:
            counter[1] += 1
            return tuple(draw.tolist())
    raise SamplingError(f"no admissible draw within {budget} attempts",
                        acceptance_rate=counter[1] / counter[0] if counter[0] else 0.0)


def _admissible_draws(system: ValuationSystem, dist: ObjectDistribution,
                      gen: np.random.Generator, count: int, budget: int,
                      counter: list) -> tuple:
    """The draws of ``count`` :func:`sample_admissible` calls with
    ``counter``, as lists of their tuples, ranks and class ids, with the
    same tallies and the same first failure. One ``choice`` per block of
    ``READ_AHEAD_DIGITS // n`` rows takes ``gen``'s values in order."""
    k, n = system.cat.size, system.n
    rows, place = max(1, READ_AHEAD_DIGITS // max(n, 1)), k ** np.arange(n - 1, -1, -1)
    kept = [np.empty((0, n), np.int64)]
    start = drawn = taken = 0  # where the current call started trying; draws tried; draws kept
    while taken < count and drawn - start < budget:
        block = gen.choice(k, size=(rows, n), p=dist.as_floats)
        hits = np.flatnonzero(system.admissible_mask[block @ place])[:count - taken]
        tries = np.diff(hits, prepend=start - drawn - 1)  # per call, the draws it tried
        hits = hits[np.logical_and.accumulate(tries <= budget)]  # up to a call that ran dry
        kept.append(block[hits])
        start = drawn + int(hits[-1]) + 1 if len(hits) else start
        taken, drawn = taken + len(hits), drawn + rows
    counter[0] += start + (budget if taken < count else 0)
    counter[1] += taken
    if taken < count:
        raise SamplingError(f"no admissible draw within {budget} attempts",
                            acceptance_rate=counter[1] / counter[0] if counter[0] else 0.0)
    kept = np.concatenate(kept)
    ranks = kept @ place
    return (list(map(tuple, kept.tolist())), ranks.tolist(),
            system.image_class_vectors.ids[ranks].tolist())


def run_particle(system: ValuationSystem, dist: ObjectDistribution, n: int,
                 seed: int, budget: int = 10**5, exact: bool = False) -> ParticleTrace:
    """Draw positions 0..n, score each with its strict-improvement mass,
    and evolve the best-index distribution.

    Deterministic and replayable for a fixed seed. The draws are taken
    at once and feed one :class:`ImprovementChains` walk, and every
    answer is read off it; a jump probability depends only on the draw's
    class vector, so it is computed, and checked, once per distinct
    vector. The trace records whether the coarse lower bound ``c_n^n >=
    (1-l_0)^n`` held and whether jump probabilities were non-increasing
    (within ``ESTIMATE_TOL``) along every longest improvement chain, in
    one pass over the walk's (length, class id) buckets: that cost does
    not grow with the number of chains. Neither is asserted here, since
    both can legitimately fail (the former whenever ``l_0 < 1/2``, the
    latter on instances with improvement cycles).
    """
    if n < 0:
        raise PreconditionError("number of steps must be >= 0")
    if seed < 0:
        raise PreconditionError(f"seed must be non-negative, got {seed}")
    gen = np.random.default_rng(np.random.SeedSequence(seed))
    counter = [0, 0]
    chains = ImprovementChains(system)
    for draw, rank, v in zip(*_admissible_draws(system, dist, gen, n + 1, budget, counter)):
        chains._append(draw, rank, v)
    by_class = {v: minorization_mass(system, dist, d, exact=exact)
                for v, d in dict(zip(chains.ids, chains.draws)).items()}
    _check_probs(by_class.values())
    jump_probs = tuple(by_class[v] for v in chains.ids)
    coeffs = _evolve(list(jump_probs[:-1]))
    l0 = float(jump_probs[0])
    rough_ok = float(coeffs[-1]) >= (1 - l0) ** n - ESTIMATE_TOL
    as_float, on = {v: float(l) for v, l in by_class.items()}, system.improved_on
    ok: dict = {}  # per (length, class id): every longest chain ending at its draws non-increasing
    for v, m in zip(chains.ids, map(len, chains.least)):
        ok[m, v] = ok.get((m, v), True) and all(ok[k] and as_float[v] <= as_float[u] + ESTIMATE_TOL
                                                for u in on[v] if (k := (m - 1, u)) in ok)
    mono = all(o for (m, _), o in ok.items() if m == len(chains.best))
    return ParticleTrace(
        draws=tuple(chains.draws),
        jump_probs=jump_probs,
        coeffs=tuple(coeffs),
        seed=seed,
        acceptance_rate=counter[1] / counter[0],
        rough_bound_ok=rough_ok,
        chains_monotone=mono,
    )


@dataclass(frozen=True)
class InducedSystem:
    """The particle dynamics written out in one objective: mixture
    objects over the drawn images, and one stochastic step morphism
    between consecutive mixtures."""

    objects: tuple
    steps: tuple
    images: tuple
    jump_probs: tuple


def induced_system(vsys: ValuationSystem, trace: ParticleTrace, alpha: int) -> InducedSystem:
    """Requires the trace's draws to form a strict improvement chain in
    objective ``alpha``; weights come from the step matrices so that
    stochastic consistency holds by construction. Weights, step entries
    and family weights are all fractions when the jump probabilities
    take the exact route of :func:`step_matrix`, else computed from the
    jump probabilities as given."""
    if not 0 <= alpha < len(vsys.objectives):
        raise PreconditionError(f"objective index {alpha} out of range")
    target = vsys.objectives[alpha].target
    imgs = [images_of(vsys, d)[alpha] for d in trace.draws]
    for k in range(len(imgs) - 1):
        if not target.hom[imgs[k]][imgs[k + 1]]:
            raise PreconditionError(
                f"draws {k} -> {k + 1} are not linked by an improvement arrow in objective {alpha}"
            )
        if target.isomorphic(imgs[k], imgs[k + 1]):
            raise PreconditionError(
                f"draws {k} -> {k + 1} are isomorphic in objective {alpha}; the chain must be strict"
            )
    walk = list(_walk(trace.jump_probs, len(imgs) - 1))
    return InducedSystem(
        objects=tuple(ProbObject(list(zip(c, imgs))) for _, c in walk),
        # a family per nonzero step entry: per source k, its stay, then its jump
        steps=tuple(ProbMorphism(s, [(r, k, (imgs[k], imgs[r]), s[r][k])
                                     for k in range(len(s) - 1) for r in (k, len(s) - 1)
                                     if float(s[r][k]) > 0]) for s, _ in walk[1:]),
        images=tuple(imgs),
        jump_probs=tuple(trace.jump_probs),
    )


@dataclass(frozen=True)
class Cocone:
    tip: ProbObject
    legs: tuple


def induced_cocone(isys: InducedSystem, tips: Sequence[int], target: TargetCategory) -> Cocone:
    """Uniform mixture over candidate tips with uniform-column legs.

    Every chain image must convert into every tip. Leg matrices hold the
    exact fraction 1/M, which is what makes the compatibility identity
    below exact.
    """
    tips = list(tips)
    if not tips:
        raise PreconditionError("a cocone needs at least one tip")
    m = len(tips)
    for img in isys.images:
        for y in tips:
            if not target.hom[img][y]:
                raise PreconditionError(f"missing arrow from chain image {img} to tip {y}")
    u = Fraction(1, m)
    tip_obj = ProbObject([(u, y) for y in tips])
    legs = []
    for n in range(len(isys.objects)):
        matrix = [[u] * (n + 1) for _ in range(m)]
        families = [
            (r, k, (isys.images[k], tips[r]), u)
            for r in range(m)
            for k in range(n + 1)
        ]
        legs.append(ProbMorphism(matrix, families))
    return Cocone(tip=tip_obj, legs=tuple(legs))


def verify_cocone(isys: InducedSystem, cocone: Cocone) -> bool:
    """Exact check of leg compatibility: leg_{n+1} . step_n == leg_n.

    Step matrices are rebuilt in exact rational arithmetic (the float
    jump probabilities embed exactly), so the comparison is equality,
    not tolerance.
    """
    for n, leg in enumerate(cocone.legs[:-1]):
        cols = list(zip(*step_matrix(isys.jump_probs, n, exact=True)))
        product = [_matvec(cols, [Fraction(x) for x in row]) for row in cocone.legs[n + 1].matrix]
        if product != [list(row) for row in leg.matrix]:
            return False
    return True
