from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pareto_cat as pc
from pareto_cat.swarm import _ScaleTables

from conftest import fixture_doc, valuation_systems


def small(seed, particles=4, draws=8, epsilon=1):
    return pc.SwarmConfig(particles=particles, draws=draws, epsilon=epsilon, seed=seed)


def frontier_set(system):
    front = pc.pareto_frontier(system)
    return {m for g in front.groups for m in g.members}


def test_config_validation():
    with pytest.raises(pc.PreconditionError):
        pc.SwarmConfig(particles=0, draws=5, epsilon=1, seed=0).validate()
    with pytest.raises(pc.PreconditionError):
        pc.SwarmConfig(particles=2, draws=0, epsilon=1, seed=0).validate()
    with pytest.raises(pc.PreconditionError):
        pc.SwarmConfig(particles=2, draws=5, epsilon=-1, seed=0).validate()



def test_negative_seed_is_refused(staircase):
    with pytest.raises(pc.PreconditionError, match="seed must be non-negative, got -1"):
        pc.run_swarm(staircase, pc.SwarmConfig(particles=1, draws=2, epsilon=1, seed=-1))


def test_swarm_needs_scale():
    doc = fixture_doc("chain3")
    doc.pop("scale")
    inst = pc.load_instance(doc)
    with pytest.raises(pc.PreconditionError):
        pc.run_swarm(inst, small(0))


def test_swarm_deterministic(staircase):
    a = pc.run_swarm(staircase, small(17))
    b = pc.run_swarm(staircase, small(17))
    assert a == b  # statistics excluded from equality
    assert a.to_dict() == b.to_dict()
    c = pc.run_swarm(staircase, small(18))
    assert a.positions != c.positions


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_flags_reach_frontier_on_reversible_instances(chain3, staircase, seed):
    """At eps=1 every strict improvement on these fixtures is reversible
    exactly when it lands on the frontier, so flags are always exact."""
    for inst in (chain3, staircase):
        report = pc.run_swarm(inst, small(seed))
        front = frontier_set(inst.system)
        assert report.flagged, "expected at least one flag"
        for f in report.flagged:
            assert f.functor in front
            assert f.epsilon == 1
        assert report.statistics["precision"] == 1.0


def test_flag_witness_chains_are_improvement_paths(staircase):
    report = pc.run_swarm(staircase, small(23))
    system = staircase.system
    for f in report.flagged:
        assert f.witness[-1] == (f.particle, f.draw_index)
        draws = [report.positions[p][k] for p, k in f.witness]
        for a, b in zip(draws, draws[1:]):
            assert pc.minorizes(system, a, b, strict=True)


def _scale_reversible(inst, x, y, eps):
    """The ScaleObject route: in every objective, x's scaled image converts
    into y's at every scale, reversibly after ``eps`` coarsening steps."""
    for alpha in range(len(inst.objectives)):
        a, b = inst.scaled_image(alpha, x), inst.scaled_image(alpha, y)
        if not all(a.base.hom[a.values[s]][b.values[s]] and pc.epsilon_reversible(a, b, s, eps)
                   for s in range(a.grid_len)):
            return False
    return True


def _check_flag_witnesses(inst, report, eps):
    """A particle flags its draw k exactly when some earlier draw of its
    own is strictly improved on by draw k and reversible into it; the
    witness is the longest, then least, chain ending at such a draw."""
    system = inst.system
    flags = {(f.particle, f.draw_index): f.witness for f in report.flagged}
    for i, drawn in enumerate(report.positions):
        ends = []  # per draw, the longest, then least, chain ending at it
        for k, d in enumerate(drawn):
            below = [a for a in range(k) if pc.minorizes(system, drawn[a], d, strict=True)]
            ends.append(min((ends[a] for a in below), key=lambda c: (-len(c), c), default=())
                        + (k,))
            hits = [ends[a] for a in below if _scale_reversible(inst, drawn[a], d, eps)]
            want = min(hits, key=lambda c: (-len(c), c), default=())
            if want:
                assert flags[(i, k)] == tuple((i, a) for a in want + (k,))
            elif (i, k) in flags:  # flagged from another particle's chain tip
                assert flags[(i, k)][0][0] != i


@pytest.mark.parametrize("eps", [0, 1, 2])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_flag_witness_is_the_longest_then_least_reversible_chain(staircase, seed, eps):
    report = pc.run_swarm(staircase, small(seed, draws=24, epsilon=eps))
    _check_flag_witnesses(staircase, report, eps)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_flag_witnesses_on_three_level_chains(seed):
    """chain3 with every system admissible and one constant scale row:
    every strict improvement is reversible, and witnesses run up to
    three draws long."""
    doc = fixture_doc("chain3")
    doc["valuations"][0]["goal"] = 0
    doc["scale"]["valuations_scaled"] = [[[0, 0, 0]] * 16]
    inst = pc.load_instance(doc)
    report = pc.run_swarm(inst, small(seed, draws=24, epsilon=0))
    assert any(len(f.witness) == 3 for f in report.flagged)
    _check_flag_witnesses(inst, report, 0)


def test_no_flags_when_scaled_conversions_diverge(cycle2):
    """Improvements exist but every scaled image pair diverges at the
    tails, so no reversibility witness can arise at any epsilon."""
    for eps in (0, 1, 2):
        report = pc.run_swarm(
            cycle2,
            pc.SwarmConfig(particles=4, draws=10, epsilon=eps, seed=5),
        )
        assert report.flagged == ()
        assert report.statistics["precision"] is None
        assert report.statistics["recall"] is None  # frontier is empty too
        assert report.statistics["frontier_group_count"] == 0


def test_reported_chains_match_exact_longest_chains(chain3):
    report = pc.run_swarm(chain3, small(9))
    for i in range(4):
        want = tuple(pc.longest_strict_chains(chain3.system, report.positions[i]))
        assert report.chains[i] == want


def test_cross_links_are_strict_improvements(staircase):
    report = pc.run_swarm(staircase, small(31, particles=5))
    system = staircase.system
    for src, tip, dst, k in report.cross_links:
        assert src != dst
        a = report.positions[src][tip]
        b = report.positions[dst][k]
        assert pc.minorizes(system, a, b, strict=True)


def test_statistics_shape(staircase):
    report = pc.run_swarm(staircase, small(2))
    stats = report.statistics
    assert 0 < stats["acceptance_rate"] <= 1
    assert len(stats["acceptance_rate_per_particle"]) == 4
    assert stats["flag_count"] == len(report.flagged)
    assert stats["cross_link_count"] == len(report.cross_links)
    assert sum(stats["chain_length_histogram"].values()) == 4
    assert stats["frontier_group_count"] == len(pc.pareto_frontier(staircase.system).groups)
    assert stats["recall"] is None or 0 <= stats["recall"] <= 1


def test_report_to_dict_is_json_shaped(chain3):
    import json

    report = pc.run_swarm(chain3, small(7, particles=2, draws=4))
    doc = report.to_dict()
    json.dumps(doc)  # raises if anything non-serializable leaks through
    assert doc["config"]["seed"] == 7
    assert len(doc["positions"]) == 2
    assert len(doc["positions"][0]) == 5  # initial draw + 4 rounds


def test_certify_neighborhood_frozen_cases(staircase):
    assert pc.certify_neighborhood(staircase, (1, 1), 1)
    assert not pc.certify_neighborhood(staircase, (1, 1), 0)
    assert pc.certify_neighborhood(staircase, (0, 1), 0)  # frontier member itself


def test_certify_preconditions(staircase, cycle2):
    with pytest.raises(pc.PreconditionError):
        pc.certify_neighborhood(staircase, (0, 0), 1)  # inadmissible
    doc = fixture_doc("chain3")
    doc.pop("scale")
    inst = pc.load_instance(doc)
    with pytest.raises(pc.PreconditionError):
        pc.certify_neighborhood(inst, (1, 1), 1)
    # empty frontier: nothing can certify at any radius
    assert not pc.certify_neighborhood(cycle2, (1,), 3)
    with pytest.raises(pc.PreconditionError, match="epsilon must be non-negative"):
        pc.certify_neighborhood(staircase, (0, 1), -1)


def test_sampling_error_propagates():
    doc = fixture_doc("chain3")
    # goal no system can reach: images live in levels 0..2, goal level
    # requires converting from level 1, which object 0's image cannot
    for v in doc["valuations"]:
        v["goal"] = 2
    doc["distribution"]["weights"] = [0.97, 0.01, 0.01, 0.01]
    inst = pc.load_instance(doc)
    cfg = pc.SwarmConfig(particles=2, draws=3, epsilon=1, seed=0, budget=8)
    with pytest.raises(pc.SamplingError):
        pc.run_swarm(inst, cfg)


@pytest.mark.parametrize("seed", [4, 11])
def test_swarm_raises_the_first_round_and_particle_to_run_dry(seed):
    """Particles run dry at different rounds (seed 4: particle 2 before
    particle 0; seed 11: particles 1 and 2 in one round, before particle
    0). The swarm raises the error that one draw per particle per round,
    in particle order, meets first, with that particle's measured rate."""
    doc = fixture_doc("chain3")
    doc["distribution"]["weights"] = ["7/10", "1/10", "1/10", "1/10"]  # about half admissible
    inst = pc.load_instance(doc)
    cfg = pc.SwarmConfig(particles=3, draws=12, epsilon=1, seed=seed, budget=3)
    gens = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    counters = [[0, 0] for _ in gens]
    dry = {}  # particle -> (round, rate) of its first failure
    for k in range(cfg.draws + 1):
        for i, gen in enumerate(gens):
            if i not in dry:
                try:
                    pc.sample_admissible(inst.system, inst.distribution, gen, cfg.budget,
                                         counters[i])
                except pc.SamplingError as e:
                    dry[i] = (k, e.acceptance_rate)
    first = min(dry, key=lambda i: (dry[i][0], i))
    assert first != 0 and dry[0][0] > dry[first][0]
    assert dry[0][1] != dry[first][1]
    with pytest.raises(pc.SamplingError) as err:
        pc.run_swarm(inst, cfg)
    assert err.value.acceptance_rate == dry[first][1]


def test_chain_listing_guard_on_improvement_cycles(cycle2):
    """cycle2's longest chains multiply with the draws: the report
    refuses to list them beyond the instance's cap, and lists them as
    before below it."""
    cfg = pc.SwarmConfig(particles=1, draws=50, epsilon=0, seed=1)
    with pytest.raises(pc.CapacityError):
        pc.run_swarm(replace(cycle2, cap=1000), cfg)
    cfg = pc.SwarmConfig(particles=1, draws=16, epsilon=0, seed=1)
    chains = pc.run_swarm(cycle2, cfg).chains[0]
    assert len(chains) == 72
    entries = len(chains) * len(chains[0])
    assert pc.run_swarm(replace(cycle2, cap=entries), cfg).chains[0] == chains
    with pytest.raises(pc.CapacityError):
        pc.run_swarm(replace(cycle2, cap=entries - 1), cfg)


@st.composite
def scaled_instances(draw):
    """A random level-category system with a legal scale table per
    objective: each row is a downward walk along the target preorder."""
    system = draw(valuation_systems(max_size=3, max_n=2))
    grid_len = draw(st.integers(1, 4))
    tables = []
    for obj in system.objectives:
        hom = obj.target.hom
        rows = []
        for _ in range(system.functor_count):
            row = [draw(st.integers(0, obj.target.size - 1))]
            while len(row) < grid_len:
                nxt = [b for b in range(obj.target.size) if hom[row[-1]][b]]
                row.append(nxt[draw(st.integers(0, len(nxt) - 1))])
            rows.append(row)
        tables.append(np.array(rows, dtype=np.int64))
    k = system.cat.size
    return pc.Instance(cat=system.cat, n=system.n, objectives=system.objectives,
                       distribution=pc.ObjectDistribution([f"1/{k}"] * k),
                       scale=pc.ScaleData(grid_len=grid_len, tables=tuple(tables)))


@settings(max_examples=60, deadline=None)
@given(scaled_instances(), st.integers(0, 5), st.data())
def test_scale_tables_match_scale_objects(inst, eps, data):
    """Table reversibility and nearness read what the ScaleObject route reads."""
    ranks = np.arange(inst.system.functor_count)
    systems = [tuple(row) for row in inst.system.digits(ranks).tolist()]
    x = data.draw(st.sampled_from(ranks.tolist()))
    tables = _ScaleTables(inst, eps)
    alphas = range(len(inst.objectives))

    def images(m):
        return [(inst.scaled_image(a, systems[x]), inst.scaled_image(a, systems[m]))
                for a in alphas]

    near = tables.near(x, ranks)
    for m in ranks:
        assert tables.reversible(x, m) == _scale_reversible(inst, systems[x], systems[m], eps)
        assert near[m] == all(pc.interleaving_distance(y, z) <= eps for y, z in images(m))


@pytest.mark.parametrize("row", [[-1, 0, 0], [4, 0, 0], [3, 0, 1]],
                         ids=["negative", "out-of-range", "no-transition"])
def test_swarm_rejects_invalid_scale_row(staircase, row):
    """A hand-built instance (no loader) fails on a row ScaleObject rejects."""
    tables = [t.astype(np.int64) for t in staircase.scale.tables]  # a copy that holds -1
    frontier_rank = staircase.system.rank((0, 1))
    tables[0][frontier_rank, : len(row)] = row
    inst = replace(staircase, scale=replace(staircase.scale, tables=tuple(tables)))
    with pytest.raises(pc.StructureError):
        pc.run_swarm(inst, small(1))
    with pytest.raises(pc.StructureError):
        pc.certify_neighborhood(inst, (0, 1), 1)
