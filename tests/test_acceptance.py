"""Release gate: one test per advertised guarantee, at its stated
tolerance and runtime budget. Each test prints a single summary line so
a verbose run reads as a checklist."""

import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import pareto_cat as pc

import oracles
from conftest import fixture_doc

FIXTURES = ["chain3", "cycle2", "staircase"]


def report(num: int, slug: str, detail: str) -> None:
    print(f"criterion {num:02d} {slug}: PASS ({detail})")


# 1 ------------------------------------------------------------------------

def test_criterion_01_recursion_fidelity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        ls = rng.uniform(0.0, 1.0, size=8).tolist()
        emp = pc.markov_oracle(ls, trials=10**6, seed=1000 + i)
        tv = pc.tv_distance(emp, pc.evolve_coefficients(ls))
        worst = max(worst, tv)
        assert tv < 0.01, f"sequence {i}: TV {tv}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"
    report(1, "recursion-fidelity", f"max TV {worst:.5f}, {elapsed:.1f}s")


# 2 ------------------------------------------------------------------------

def test_criterion_02_matrix_recursion_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 33))
        ls = rng.uniform(0.0, 1.0, size=n).tolist()
        a = pc.evolve_by_matrix(ls)
        b = pc.evolve_coefficients(ls)
        diff = max(abs(x - y) for x, y in zip(a, b))
        worst = max(worst, diff)
        assert diff <= 1e-12, f"n={n}: componentwise gap {diff}"
    report(2, "matrix-equivalence", f"1000 sequences, max gap {worst:.2e}")


# 3 ------------------------------------------------------------------------

def test_criterion_03_normalization():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 33))
        ls = rng.uniform(0.0, 1.0, size=n).tolist()
        gap = abs(sum(pc.evolve_coefficients(ls)) - 1.0)
        worst = max(worst, gap)
        assert gap <= 1e-12
    for _ in range(200):
        n = int(rng.integers(1, 17))
        ls = [Fraction(int(rng.integers(0, d + 1)), d)
              for d in rng.integers(1, 24, size=n).tolist()]
        assert sum(pc.evolve_coefficients(ls)) == 1
        assert sum(pc.evolve_by_matrix(ls)) == 1
    report(3, "normalization", f"float gap <= {worst:.2e}, exact sums == 1")


# 4 ------------------------------------------------------------------------

def test_criterion_04_estimate_bounds(cycle2):
    rng = np.random.default_rng(404)
    for i in range(1000):
        n = int(rng.integers(1, 21))
        ls = sorted(rng.uniform(0.0, 1.0, size=n).tolist(), reverse=True)
        assert pc.check_estimate(ls), f"sequence {i} violated a diagonal bound"
    traces = [
        pc.run_particle(cycle2.system, cycle2.distribution, 10, seed=s)
        for s in range(20)
    ]
    assert all(t.rough_bound_ok for t in traces), "coarse lower bound failed"
    report(4, "estimate-bounds",
           "1000 monotone sequences + coarse bound on 20 traces")


# 5 ------------------------------------------------------------------------

def test_criterion_05_frontier_dual_characterization(all_instances):
    t0 = time.perf_counter()
    counts = {}
    for name, inst in sorted(all_instances.items()):
        system = inst.system
        scan = {m for g in pc.pareto_frontier(system).groups for m in g.members}
        brute = oracles.brute_frontier(fixture_doc(name))
        by_mass = {
            tup
            for tup in itertools.product(range(inst.cat.size), repeat=inst.n)
            if pc.admissible(system, tup)
            and pc.minorization_mass(system, inst.distribution, tup, exact=True) == 0
        }
        assert scan == brute == by_mass, f"{name}: routes disagree"
        counts[name] = len(scan)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"runtime {elapsed:.1f}s exceeds 10s"
    report(5, "frontier-dual",
           ", ".join(f"{k}={v}" for k, v in counts.items()) + f", {elapsed:.2f}s")


# 6 ------------------------------------------------------------------------

def _random_partition(rng, k: int) -> list:
    cells: list = []
    for x in range(k):
        if cells and rng.random() < 0.4:
            cells[int(rng.integers(0, len(cells)))].append(x)
        else:
            cells.append([x])
    return cells


def _random_prob_object(rng, k: int, max_components: int = 6) -> pc.ProbObject:
    m = int(rng.integers(1, max_components + 1))
    raw = rng.integers(1, 9, size=m).tolist()
    total = sum(raw)
    payloads = rng.integers(0, k, size=m).tolist()
    return pc.ProbObject([(Fraction(r, total), p) for r, p in zip(raw, payloads)])


def _merged_exact(comps, cls) -> list:
    """Exact normal-form signature: iso class -> summed rational weight."""
    acc: dict = {}
    for w, payload in comps:
        acc[cls[payload]] = acc.get(cls[payload], Fraction(0)) + Fraction(w)
    return sorted(acc.items())


def _iso_variant(rng, p: pc.ProbObject, cells: list) -> pc.ProbObject:
    """Permute components and swap payloads within their iso cells."""
    comps = list(p.components)
    rng.shuffle(comps)
    out = []
    for w, payload in comps:
        cell = next(c for c in cells if payload in c)
        out.append((w, cell[int(rng.integers(0, len(cell)))]))
    return pc.ProbObject(out)


def test_criterion_06_probabilistic_isomorphism():
    rng = np.random.default_rng(606)
    agree_iso = agree_non = 0
    for i in range(500):
        k = int(rng.integers(2, 7))
        cells = _random_partition(rng, k)
        cls = [0] * k
        for ci, cell in enumerate(cells):
            for x in cell:
                cls[x] = ci
        p = _random_prob_object(rng, k)
        if rng.random() < 0.5:
            q = _iso_variant(rng, p, cells)
        else:
            q = _random_prob_object(rng, k)
        canonical = pc.prob_isomorphic(p, q, cls)
        brute = oracles.perm_isomorphic(
            pc.canonicalize(p, cls).components,
            pc.canonicalize(q, cls).components,
            cells,
        )
        by_mass = _merged_exact(p.components, cls) == _merged_exact(q.components, cls)
        assert canonical == brute == by_mass, f"pair {i}: routes disagree"
        if canonical:
            agree_iso += 1
        else:
            agree_non += 1
    assert agree_iso >= 50 and agree_non >= 50, "degenerate sample"
    report(6, "prob-isomorphism",
           f"500 pairs, {agree_iso} isomorphic / {agree_non} not, 3 routes agree")


# 7 ------------------------------------------------------------------------

def test_criterion_07_localization_collapse(staircase, chain3):
    draws = ((1, 1), (0, 1))
    jump = tuple(
        pc.minorization_mass(staircase.system, staircase.distribution, d)
        for d in draws
    )
    trace = pc.ParticleTrace(
        draws=draws, jump_probs=jump,
        coeffs=pc.evolve_coefficients(jump[:-1]), seed=0, acceptance_rate=1.0,
    )
    isys = pc.induced_system(staircase.system, trace, alpha=0)
    target = staircase.objectives[0].target
    terminal = isys.images[-1]
    cocone = pc.induced_cocone(isys, [terminal] * 3, target)
    tip = pc.canonicalize(cocone.tip, target.iso_class_of)
    assert tip.components == ((Fraction(1), terminal),)

    # same collapse with genuinely distinct isomorphic payloads
    t3 = chain3.objectives[0].target  # objects 1 and 3 share an iso class
    mixed = pc.ProbObject([(Fraction(1, 2), 1), (Fraction(1, 2), 3)])
    assert pc.canonicalize(mixed, t3.iso_class_of).components == ((Fraction(1), 1),)
    report(7, "localization-collapse", "tip collapses to a unit point mass")


# 8 ------------------------------------------------------------------------

def _uniform_matrix(m: int, cols: int) -> list:
    u = Fraction(1, m)
    return [[u] * cols for _ in range(m)]


def test_criterion_08_cocone_matrix_identity():
    rng = np.random.default_rng(808)
    trials = [(64, 16)] + [
        (int(rng.integers(1, 65)), int(rng.integers(0, 17))) for _ in range(40)
    ]
    for m, n in trials:
        ls = [Fraction(int(rng.integers(0, d + 1)), d)
              for d in rng.integers(1, 13, size=n + 1).tolist()]
        step = pc.step_matrix(ls, n, exact=True)
        lhs_rows = len(_uniform_matrix(m, n + 2))
        tilde_next = _uniform_matrix(m, n + 2)
        tilde_n = _uniform_matrix(m, n + 1)
        for r in range(lhs_rows):
            for k in range(n + 1):
                acc = sum(tilde_next[r][j] * step[j][k] for j in range(n + 2))
                assert acc == tilde_n[r][k], f"M={m} n={n} entry ({r},{k})"
    report(8, "cocone-identity", f"{len(trials)} exact products incl. M=64 n=16")


# 9 ------------------------------------------------------------------------

def _random_preorder(rng) -> pc.TargetCategory:
    k = int(rng.integers(2, 7))
    hom = [[a == b or bool(rng.random() < 0.35) for b in range(k)] for a in range(k)]
    return pc.TargetCategory(k, pc.close_hom(hom), [[i] for i in range(k)])


def _random_scale(rng, base: pc.TargetCategory, glen: int) -> pc.ScaleObject:
    cur = int(rng.integers(0, base.size))
    vals = [cur]
    while len(vals) < glen:
        succ = [b for b in range(base.size) if base.hom[cur][b]]
        cur = succ[int(rng.integers(0, len(succ)))]
        vals.append(cur)
    return pc.ScaleObject(base, vals)


def test_criterion_09_pseudo_metric_axioms():
    rng = np.random.default_rng(909)
    infinite = 0
    for _ in range(200):
        base = _random_preorder(rng)
        glen = int(rng.integers(1, 9))
        x, y, z = (_random_scale(rng, base, glen) for _ in range(3))
        assert pc.interleaving_distance(x, x) == 0
        dxy = pc.interleaving_distance(x, y)
        assert dxy == pc.interleaving_distance(y, x)
        dyz = pc.interleaving_distance(y, z)
        dxz = pc.interleaving_distance(x, z)
        assert dxz <= dxy + dyz  # holds with infinity absorbing
        if math.inf in (dxy, dyz, dxz):
            infinite += 1
    report(9, "pseudo-metric", f"200 triples, {infinite} with infinite legs")


# 10 -----------------------------------------------------------------------

def test_criterion_10_convergence_check(staircase):
    # the four strict class improvements, each in the objective where the
    # scaled images actually move
    cases = [((1, 1), (0, 1), 0), ((1, 1), (0, 2), 1),
             ((1, 2), (0, 2), 0), ((1, 2), (0, 3), 1)]
    for src, dst, alpha in cases:
        chain = [staircase.scaled_image(alpha, src),
                 staircase.scaled_image(alpha, dst)]
        assert pc.check_convergence(chain, 1), f"{src}->{dst} in objective {alpha}"
        assert not pc.check_convergence(chain, 0), f"{src}->{dst} sharp at eps=1"
    report(10, "convergence-check", "4 strict improvements converge at eps=1")


# 11 -----------------------------------------------------------------------

def test_criterion_11_swarm_precision(all_instances):
    details = []
    for name in FIXTURES:
        inst = all_instances[name]
        cfg = pc.SwarmConfig(particles=8, draws=20, epsilon=1, seed=2026)
        t0 = time.perf_counter()
        rep = pc.run_swarm(inst, cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30, f"{name}: runtime {elapsed:.1f}s exceeds 30s"
        for f in rep.flagged:
            assert pc.certify_neighborhood(inst, f.functor, cfg.epsilon), (
                f"{name}: flag {f.functor} not within eps of the frontier"
            )
        if rep.flagged:
            assert rep.statistics["precision"] == 1.0
        recall = rep.statistics["recall"]
        assert recall is None or 0.0 <= recall <= 1.0
        details.append(
            f"{name}: {len(rep.flagged)} flags, recall={recall}, {elapsed:.1f}s"
        )
    report(11, "swarm-precision", "; ".join(details))


# 12 -----------------------------------------------------------------------

def _cli(args) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "pareto_cat.cli", *args],
        capture_output=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_12_determinism():
    chain3 = str(pc.fixture_path("chain3"))
    staircase = str(pc.fixture_path("staircase"))
    # all available cores, but at least an oversubscribed pool so the
    # comparison stays meaningful on single-core machines
    n_max = str(max(os.cpu_count() or 1, 4))
    particle = ["particle", chain3, "--draws", "8", "--seed", "5"]
    assert _cli(particle) == _cli(particle)
    exact = particle + ["--exact"]
    assert _cli(exact) == _cli(exact)
    swarm = ["swarm", staircase, "--particles", "4", "--draws", "6",
             "--seed", "9", "--epsilon", "1"]
    runs = [
        _cli(swarm + ["--threads", "1"]),
        _cli(swarm + ["--threads", "1"]),
        _cli(swarm + ["--threads", n_max]),
    ]
    assert runs[0] == runs[1] == runs[2]
    frontier = ["frontier", chain3]
    assert _cli(frontier + ["--threads", "1"]) == _cli(frontier + ["--threads", n_max])
    report(12, "determinism",
           f"particle/swarm byte-identical, threads 1 vs {n_max}")
