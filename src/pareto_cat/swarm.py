"""Multi-particle random search with reversibility-based flagging.

Each particle repeats the single-particle draw process. After every
round a particle checks whether its newest position strictly improves
on any of its earlier ones; each such improvement is tested for
reversibility after ``epsilon`` coarsening steps in every objective,
and positions whose final improvement arrow is reversible get flagged
as near-frontier candidates. Particles that saw no flag this round
select their longest improvement chain and probe the other particles'
current positions from its tip; reversible cross-particle improvements
flag the other particle's position and are recorded as cross links.

Flagging is a heuristic. The report therefore also carries the measured
precision and recall against the exact frontier oracle instead of
assuming either.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import PreconditionError, SamplingError
from .instance import Instance
from .particle import _admissible_draws
from .scale import _ScaleTables
from .valuation import ImprovementChains, admissible, frontier_ranks


@dataclass(frozen=True)
class SwarmConfig:
    particles: int
    draws: int
    epsilon: int
    seed: int
    budget: int = 10**5

    def validate(self) -> None:
        if self.particles < 1:
            raise PreconditionError("need at least one particle")
        if self.draws < 1:
            raise PreconditionError("need at least one draw round")
        if self.epsilon < 0:
            raise PreconditionError(f"epsilon must be non-negative, got {self.epsilon}")
        if self.seed < 0:
            raise PreconditionError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class FlagEntry:
    particle: int
    draw_index: int
    functor: tuple
    witness: tuple  # ((particle, draw_index), ...) ending at the flagged position
    epsilon: int

    def to_dict(self) -> dict:
        return {
            "particle": self.particle,
            "draw_index": self.draw_index,
            "functor": list(self.functor),
            "witness": [list(w) for w in self.witness],
            "epsilon": self.epsilon,
        }


@dataclass(frozen=True)
class SwarmReport:
    config: SwarmConfig
    positions: tuple        # [particle][round] -> functor
    flagged: tuple          # FlagEntry, deduplicated, discovery order
    chains: tuple           # [particle] -> all longest improvement chains
    cross_links: tuple      # (from_particle, tip_index, to_particle, draw_index)
    statistics: dict = field(compare=False)

    def to_dict(self) -> dict:
        return {
            "config": {
                "particles": self.config.particles,
                "draws": self.config.draws,
                "epsilon": self.config.epsilon,
                "seed": self.config.seed,
            },
            "positions": [[list(p) for p in row] for row in self.positions],
            "flagged": [f.to_dict() for f in self.flagged],
            "chains": [[list(c) for c in per] for per in self.chains],
            "cross_links": [list(x) for x in self.cross_links],
            "statistics": self.statistics,
        }


def run_swarm(inst: Instance, config: SwarmConfig) -> SwarmReport:
    """Deterministic for a fixed seed: per-particle RNG substreams are
    spawned up front and every search loop runs in fixed index order.
    Each particle takes all its draws before the rounds run; when some
    run dry, the error raised is the first (round, particle)'s."""
    config.validate()
    tables = _ScaleTables(inst, config.epsilon)
    system = inst.system
    n_rounds = config.draws
    n_particles = config.particles
    streams = np.random.SeedSequence(config.seed).spawn(n_particles)
    counters = [[0, 0] for _ in range(n_particles)]
    walks, dry = [], []
    for i, stream in enumerate(streams):
        try:
            walks.append(list(zip(*_admissible_draws(
                system, inst.distribution, np.random.default_rng(stream), n_rounds + 1,
                config.budget, counters[i]))))
        except SamplingError as e:
            dry.append((counters[i][1], i, e))  # the round that ran dry is the draws kept
    if dry:
        raise min(dry)[2]  # (round, particle) pairs differ, so no error is compared

    strict, improved_on = system.image_class_vectors.strict, system.improved_on
    chains = [ImprovementChains(system) for _ in range(n_particles)]
    drawn = [{} for _ in range(n_particles)]  # per particle: class id -> its ranks drawn

    flags: dict = {}  # (particle, draw_index) -> FlagEntry, first flag kept
    cross_links: list = []

    for k in range(n_rounds + 1):  # round 0 draws the starting positions only
        for i in range(n_particles):
            draw, rank, v = walks[i][k]
            chains[i]._append(draw, rank, v)
            drawn[i].setdefault(v, {})[rank] = None
        if k == 0:
            continue

        flagged_this_round = set()
        for i in range(n_particles):
            # the longest, then least, chain ending at a rank that draw k
            # strictly improves on and that is reversible into it
            rank, by_rank = chains[i].ranks[k], chains[i].by_rank
            _, witness = min((by_rank[src][0] for u in improved_on[chains[i].ids[k]]
                              for src in drawn[i].get(u, ()) if tables.reversible(src, rank)),
                             default=(0, ()))
            if witness:
                witness = tuple((i, idx) for idx in witness + (k,))
                flags.setdefault((i, k), FlagEntry(i, k, chains[i].draws[k], witness, config.epsilon))
                flagged_this_round.add(i)

        for i in range(n_particles):
            if i in flagged_this_round:
                continue
            chain = chains[i].best
            tip = chain[-1]
            tip_id = chains[i].ids[tip]
            for j in range(n_particles):
                if j != i and strict[tip_id, chains[j].ids[k]]:
                    cross_links.append((i, tip, j, k))
                    if tables.reversible(chains[i].ranks[tip], chains[j].ranks[k]):
                        witness = tuple((i, idx) for idx in chain) + ((j, k),)
                        flags.setdefault((j, k), FlagEntry(j, k, chains[j].draws[k], witness,
                                                           config.epsilon))

    final_chains = tuple(tuple(c.all_longest()) for c in chains)
    members = frontier_ranks(system)
    groups = system.iso_representatives[members]
    flag_ranks = [chains[i].ranks[k] for i, k in flags]
    near = {r: tables.near(r, members) for r in dict.fromkeys(flag_ranks)}
    certified = [bool(near[r].any()) for r in flag_ranks]
    reached = np.zeros(len(members), dtype=bool)
    for hit in near.values():
        reached |= hit
    group_count = len(np.unique(groups))
    represented = len(np.unique(groups[reached]))

    hist = dict(Counter(str(len(c.best)) for c in chains))
    attempts = sum(c[0] for c in counters)
    accepted = sum(c[1] for c in counters)
    stats = {
        "acceptance_rate": accepted / attempts,
        "acceptance_rate_per_particle": [c[1] / c[0] for c in counters],
        "chain_length_histogram": hist,
        "flag_count": len(flags),
        "cross_link_count": len(cross_links),
        "frontier_group_count": group_count,
        "precision": (sum(certified) / len(certified)) if certified else None,
        "recall": (represented / group_count) if group_count else None,
    }
    return SwarmReport(
        config=config,
        positions=tuple(tuple(c.draws) for c in chains),
        flagged=tuple(flags.values()),
        chains=final_chains,
        cross_links=tuple(cross_links),
        statistics=stats,
    )


def certify_neighborhood(inst: Instance, values: Sequence[int], eps: int) -> bool:
    """Exact oracle: is some frontier member within interleaving distance
    ``eps`` of ``values`` in every objective?"""
    tables = _ScaleTables(inst, eps)
    values = tuple(values)
    if not admissible(inst.system, values):
        raise PreconditionError(f"system {values} is not admissible")
    near = tables.near(inst.system.rank(values), frontier_ranks(inst.system))
    return bool(near.any())
