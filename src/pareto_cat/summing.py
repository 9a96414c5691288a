"""Assignments of resources to the elements of a finite index set.

A system over ``S = {0..n-1}`` is determined by the object assigned to
each singleton; the value on a subset is the tensor of its members'
values. Systems are represented as plain length-n tuples of object ids,
and the whole space of systems is the n-fold product of the object set,
enumerated lexicographically.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence, Union

from .errors import CapacityError, PreconditionError, StructureError
from .rescat import ResourceCategory

DEFAULT_CAP = 10**6


def evaluate(cat: ResourceCategory, values: Sequence[int], subset: Iterable[int]) -> int:
    """Tensor of ``values[i]`` over ``i in subset``; the unit on the empty set.

    Elements are folded in ascending index order. Any other order lands
    in the same iso class (the tensor is symmetric and associative up to
    iso), which is all thin semantics can distinguish.
    """
    idx = sorted(set(subset))
    if idx and (idx[0] < 0 or idx[-1] >= len(values)):
        raise PreconditionError(f"subset {idx} out of range for a system of size {len(values)}")
    out = cat.unit
    for i in idx:
        v = values[i]
        if not 0 <= v < cat.size:
            raise StructureError(f"object id {v} out of range")
        out = cat.tensor[out][v]
    return out


def count_functors(k: int, n: int) -> int:
    return k**n


def count_within(k: int, n: int, limit: int) -> Union[int, float]:
    """K^n, or infinity where K^n is known to exceed ``limit`` without
    computing it: with K >= 2, more than ``limit.bit_length()`` slots
    give K^n > limit. A huge system size therefore costs no big-int
    arithmetic."""
    if k > 1 and n > limit.bit_length():
        return math.inf
    return k**n


def check_capacity(k: int, n: int, cap: int) -> None:
    """Raise :class:`CapacityError` when the K^n systems exceed ``cap``.

    The message names K^n as a power, never its digits; ``required`` is
    K^n, or infinity as in :func:`count_within`.
    """
    required = count_within(k, n, cap)
    if required > cap:
        raise CapacityError(f"{k}^{n} systems exceeds cap {cap}", required=required, cap=cap)


def enumerate_summing_functors(
    cat: ResourceCategory, n: int, cap: int = DEFAULT_CAP
) -> Iterator[tuple]:
    """All K^n systems as tuples, lexicographic, each exactly once.

    Raises :class:`CapacityError` up front when K^n exceeds ``cap``.
    """
    if n < 0:
        raise PreconditionError(f"system size must be >= 0, got {n}")
    check_capacity(cat.size, n, cap)
    return itertools.product(range(cat.size), repeat=n)


def functors_isomorphic(cat, a: Sequence[int], b: Sequence[int]) -> bool:
    """Componentwise isomorphism; the product category's iso relation."""
    if len(a) != len(b):
        raise PreconditionError(f"system size mismatch: {len(a)} vs {len(b)}")
    return all(map(cat.isomorphic, a, b))


def tuple_rank(k: int, values: Sequence[int]) -> int:
    """Lexicographic index of a tuple within the K^n enumeration."""
    r = 0
    for v in values:
        if not 0 <= v < k:
            raise StructureError(f"object id {v} out of range")
        r = r * k + v
    return r


def tuple_unrank(k: int, n: int, rank: int) -> tuple:
    if not 0 <= rank < k**n:
        raise PreconditionError(f"rank {rank} out of range for {k}^{n}")
    out = []
    for _ in range(n):
        out.append(rank % k)
        rank //= k
    return tuple(reversed(out))
