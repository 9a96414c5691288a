"""Scale-indexed objects over an integer grid and their interleavings.

A scale object assigns a target-category object to each grid point
``0..grid_len-1``, with a conversion arrow from each value to the next
(coarsening never loses convertibility). Beyond the grid the last value
repeats, so shifting by ``eps`` is total and acts as a monoid. Thin
semantics make every structural question a finite conjunction of hom
lookups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import PreconditionError, StructureError
from .rescat import TargetCategory
from .valuation import _take

INF = math.inf


def first_bad_row(table, hom) -> Optional[tuple]:
    """The scale-row rule on every row of a ``(rows, grid_len)`` table:
    at least one grid point, every value an object of ``hom``'s category,
    and an arrow from each value to the next. Returns ``(kind, row,
    message)`` for the first row out of range, else the first row without
    a transition arrow, else None. A pair number ``a * K + b`` that fits a
    byte (K <= 16) maps to its arrow by ``bytes.translate``: no intp index."""
    t, hom = np.asarray(table), np.asarray(hom, dtype=bool)
    if t.ndim != 2 or t.shape[1] < 1:
        return "shape", 0, "a scale object needs at least one grid point"
    if t.size and not 0 <= t.min() <= t.max() < len(hom):
        row = ((t < 0) | (t >= len(hom))).any(axis=1).argmax()
        return "range", int(row), f"scale values out of range for a {len(hom)}-object category"
    # the pair index a * K + b in a dtype that holds K^2, on contiguous columns: one long loop each
    cols = np.ascontiguousarray(t.T, np.min_scalar_type(len(hom) ** 2 - 1))
    pairs = cols[:-1] * len(hom)  # (grid_len - 1, rows)
    pairs += cols[1:]
    arrows = _take(hom.ravel(), pairs)
    if not arrows.all():
        r, s = np.argwhere(~arrows.T)[0]
        return ("transition", int(r),
                f"missing transition arrow {t[r, s]} -> {t[r, s + 1]} at scale {s}")
    return None


@dataclass(frozen=True)
class ScaleObject:
    base: TargetCategory
    values: tuple

    def __init__(self, base: TargetCategory, values: Sequence[int]):
        vals = tuple(int(v) for v in values)
        bad = first_bad_row([vals], base.hom)
        if bad:
            raise StructureError(bad[2])
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "values", vals)

    @property
    def grid_len(self) -> int:
        return len(self.values)

    def value_at(self, s: int) -> int:
        """Value at scale s, the grid extended by repeating its last entry."""
        if s < 0:
            raise PreconditionError(f"scale {s} is negative")
        return self.values[min(s, len(self.values) - 1)]


def shift(y: ScaleObject, eps: int) -> ScaleObject:
    """Advance by ``eps`` scale steps: s -> value at s + eps.

    shift(y, 0) == y and shift(shift(y, a), b) == shift(y, a + b).
    """
    if eps < 0:
        raise PreconditionError(f"shift must be non-negative, got {eps}")
    return ScaleObject(y.base, tuple(y.value_at(s + eps) for s in range(y.grid_len)))


def _check_pair(y: ScaleObject, z: ScaleObject) -> None:
    if y.base is not z.base and y.base != z.base:
        raise PreconditionError("scale objects live over different target categories")
    if y.grid_len != z.grid_len:
        raise PreconditionError(
            f"grid length mismatch: {y.grid_len} vs {z.grid_len}"
        )


def epsilon_interleaved(y: ScaleObject, z: ScaleObject, eps: int) -> bool:
    """Mutual conversion up to an ``eps`` scale shift at every grid point."""
    if eps < 0:
        raise PreconditionError(f"interleaving shift must be non-negative, got {eps}")
    _check_pair(y, z)
    hom = y.base.hom
    for s in range(y.grid_len):
        if not hom[y.values[s]][z.value_at(s + eps)]:
            return False
        if not hom[z.values[s]][y.value_at(s + eps)]:
            return False
    return True


def interleaving_distance(y: ScaleObject, z: ScaleObject) -> Union[int, float]:
    """Least eps in 0..grid_len-1 with the pair eps-interleaved, else inf.

    Beyond grid_len-1 the interleaving condition is constant (both sides
    have gone flat), so the finite scan is exhaustive. Infinity is
    absorbing under the triangle inequality.
    """
    for eps in range(y.grid_len):
        if epsilon_interleaved(y, z, eps):
            return eps
    return INF


def epsilon_reversible(y: ScaleObject, z: ScaleObject, s: int, eps: int) -> bool:
    """Can the conversion y(s) -> z(s) be undone after ``eps`` coarsening
    steps? Requires the conversion to exist at scale ``s``."""
    if eps < 0:
        raise PreconditionError(f"shift must be non-negative, got {eps}")
    _check_pair(y, z)
    if not y.base.hom[y.value_at(s)][z.value_at(s)]:
        raise PreconditionError(f"no conversion at scale {s} to reverse")
    return y.base.hom[z.value_at(s)][y.value_at(s + eps)]


def check_convergence(chain: Sequence[ScaleObject], eps: int, n0: int = 0) -> bool:
    """Reversing arrows force convergence to the chain's last element.

    The chain must be strictly improving at every scale (arrow at each
    grid point, endpoints not isomorphic everywhere). Returns True when
    both hold from ``n0`` on: the hypothesis (each improvement can be
    reversed after ``eps`` coarsening steps) and the conclusion (each
    chain element is within interleaving distance ``eps`` of the last).
    """
    chain = list(chain)
    if not chain:
        raise PreconditionError("empty chain")
    if not 0 <= n0 < len(chain):
        raise PreconditionError(f"start index {n0} out of range")
    if eps < 0:
        raise PreconditionError(f"shift must be non-negative, got {eps}")
    for k, (y, z) in enumerate(zip(chain, chain[1:])):
        _check_pair(y, z)
        for s in range(y.grid_len):
            if not y.base.hom[y.values[s]][z.values[s]]:
                raise PreconditionError(
                    f"chain link {k} -> {k + 1} breaks at scale {s}: no arrow"
                )
        if all(map(y.base.isomorphic, y.values, z.values)):
            raise PreconditionError(
                f"chain link {k} -> {k + 1} is not strict: isomorphic at every scale"
            )
    tail = chain[n0:]
    return (all(epsilon_reversible(y, z, s, eps)
                for y, z in zip(tail, tail[1:]) for s in range(y.grid_len))
            and all(interleaving_distance(y, chain[-1]) <= eps for y in tail))


class _ScaleTables:
    """The instance's scale tables read by rank, for one shift ``eps``.

    Per objective, the ``(systems, grid_len)`` table of object ids, in
    whatever integer dtype the instance holds it, its target's hom
    matrix, and the one shift row ``min(s + eps, grid_len - 1)``. Every
    row is checked once, as :class:`ScaleObject` checks one, so a
    hand-built instance fails with the same :class:`StructureError`, and
    so does a hom that is not transitive, which :meth:`near` needs.
    """

    def __init__(self, inst: "Instance", eps: int):
        if inst.scale is None:
            raise PreconditionError("this query needs the instance's scale section")
        if eps < 0:
            raise PreconditionError(f"epsilon must be non-negative, got {eps}")
        self.objectives = []
        for alpha, (table, obj) in enumerate(zip(inst.scale.tables, inst.objectives)):
            hom = np.asarray(obj.target.hom, dtype=bool)
            if bad := first_bad_row(table, hom):
                raise StructureError(bad[2])
            # pairs with a two-step path but no arrow (float32 counts exactly to 2^24 objects)
            if len(gaps := np.argwhere((hom.astype(np.float32) @ hom > 0) > hom)):
                raise StructureError("the target hom of objective %d is not transitive: %d -> %d "
                                     "is a two-step path without an arrow" % (alpha, *gaps[0]))
            t = np.asarray(table)  # indexes only: a narrow table stays narrow
            top = t.shape[1] - 1
            self.objectives.append((t, hom, np.minimum(np.arange(top + 1) + min(eps, top), top)))
        self.memo: dict = {}  # (src, dst) rank pair -> reversible(src, dst)

    def reversible(self, src: int, dst: int) -> bool:
        """All objectives: the scaled conversion src -> dst exists at every
        scale and can be reversed after ``eps`` coarsening steps.

        A missing scaled conversion counts as not reversible rather than
        an error: the flag test is advisory and simply fails."""
        key = (src, dst)
        if key not in self.memo:
            self.memo[key] = all(
                hom[t[src], t[dst]].all() and hom[t[dst], t[src][shift]].all()
                for t, hom, shift in self.objectives)
        return self.memo[key]

    def near(self, rank: int, members: np.ndarray) -> np.ndarray:
        """Per member rank: within interleaving distance ``eps`` of ``rank`` in
        every objective, read at the one shift: ``y(s) -> z(s + e)`` composes with
        the grid step ``z(s + e) -> z(s + e + 1)`` in a transitive hom, and past
        the grid's end both read one value, so e- implies (e + 1)-interleaved."""
        out = np.ones(len(members), dtype=bool)
        for t, hom, shift in self.objectives:
            y, z = t[rank], t[members]
            out &= (hom[y, z[:, shift]] & hom[z, y[shift]]).all(axis=1)
        return out
