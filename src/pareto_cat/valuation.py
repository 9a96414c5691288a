"""Multi-objective valuations, admissibility and the upper frontier.

Each objective sends a system (length-n tuple of resource ids) to an
object of a target preorder, either through a lookup table indexed by
the system's lexicographic rank or by applying an object map to the
tensor evaluation of the full index set. A system is admissible when
every objective's image converts into that objective's goal. ``psi``
improves on ``phi`` when every objective has an arrow from the image of
``phi`` to the image of ``psi``; the frontier collects admissible
systems that no admissible system strictly improves on.

Every route reads one table layer on :class:`ValuationSystem`: numpy
arrays indexed by a system's lexicographic rank, plus one arrow matrix
between the distinct image-class vectors.
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import CapacityError, LoadError, PreconditionError
from .rescat import ResourceCategory, TargetCategory
from .summing import DEFAULT_CAP, check_capacity, count_functors, count_within, tuple_rank


@contextmanager
def gc_paused():
    """Pause the cyclic collector for the block (or, as a decorator, the
    call), then restore its prior state, on or off, also on an exception.

    Parsing a large instance or building a large result document allocates
    hundreds of thousands of lists, none of them garbage. Each allocation
    burst triggers collections that walk every one of them, which costs as
    much as the parsing itself. While the collector is paused, reference
    counting still frees everything that is not part of a reference cycle;
    cycles wait for the next collection after the pause.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@dataclass(frozen=True)
class Objective:
    """One valuation: a target preorder, a goal object, and the map itself.

    ``kind`` is ``"table"`` (``entries[rank]`` per system, K^n entries in
    lexicographic order) or ``"composed"`` (``h[c]`` per resource object,
    applied to the tensor evaluation of the whole index set).
    """

    target: TargetCategory
    goal: int
    kind: str
    entries: Optional[tuple] = None
    h: Optional[tuple] = None

    @cached_property
    def array(self) -> np.ndarray:  # the map's entries or h, converted once
        return np.asarray(self.entries if self.kind == "table" else self.h)

    @classmethod
    def from_entries(cls, target: TargetCategory, goal: int, entries: np.ndarray) -> "Objective":
        """A table objective from an integer array of its entries, copied
        as the int64 ``array``."""
        array = entries.astype(np.int64)
        obj = cls(target=target, goal=goal, kind="table", entries=tuple(memoryview(array)))
        obj.__dict__["array"] = array  # so never converted from the tuple
        return obj


@dataclass(frozen=True)
class ObjectDistribution:
    """Strictly positive weights on resource objects, summing to one.

    Weights are kept as exact fractions (a string weight is ``"p/q"`` or a
    decimal without an exponent); ``as_floats`` is the double view used on
    the fast paths. Induces the product measure on systems.
    """

    weights: tuple

    def __init__(self, weights: Sequence[Union[Fraction, float, int, str]]):
        ws = []
        for w in weights:
            try:  # the exponent of "1e999999999" would build a billion-digit integer
                if isinstance(w, str) and "e" in w.lower():
                    raise ValueError(w)
                ws.append(w if isinstance(w, Fraction) else Fraction(str(w)))
            except (ValueError, ZeroDivisionError):
                raise LoadError("distribution.shape", "distribution.weights",
                                f"weight {w!r} is not a number or \"p/q\"") from None
        object.__setattr__(self, "weights", tuple(ws))

    def validate(self, k: int, tol: float = 1e-12) -> None:
        if len(self.weights) != k:
            raise LoadError("distribution.shape", "distribution.weights",
                            f"expected {k} weights, got {len(self.weights)}")
        if any(w <= 0 for w in self.weights):
            raise LoadError("distribution.positive", "distribution.weights",
                            "all weights must be strictly positive")
        total = sum(self.weights)
        total = float(total) if total < 1e308 else math.inf  # float() overflows past ~1.8e308
        if abs(total - 1.0) > tol:
            raise LoadError("distribution.sum", "distribution.weights",
                            f"weights sum to {total!r}, not 1")

    @cached_property
    def as_floats(self) -> np.ndarray:
        arr = np.array([float(w) for w in self.weights], dtype=float)
        arr.setflags(write=False)
        return arr

    @cached_property
    def _integer_weights(self) -> tuple:  # each weight times D, and the common denominator D
        denom = math.lcm(*(w.denominator for w in self.weights))
        return np.array([int(w * denom) for w in self.weights], dtype=object), denom

    def mass(self, systems: np.ndarray, exact: bool = False):
        """Product-measure mass of the systems given as rows of object ids.

        Doubles add each row's left-to-right product in row order with
        Python's ``sum``, so the bits match a per-system loop. Exact mass
        sums integer numerators over the common denominator D^n as Python
        ints (D^n overflows int64) and returns a fraction.
        """
        weights, denom = self._integer_weights if exact else (self.as_floats, None)
        products = np.ones(len(systems), dtype=weights.dtype)
        for column in systems.T:  # a column at a time, never a (rows, n) array of weights
            products = products * weights[column]
        total = sum(products.tolist())
        return Fraction(total, denom ** systems.shape[1]) if exact else float(total)

    def tuple_weight(self, values: Sequence[int], exact: bool = False):
        """Product-measure weight of one system."""
        return self.mass(np.array([values], dtype=np.intp), exact)


def _take(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[index]`` for a 1-d ``table`` and an in-range ``index``: a uint8 index
    into at most 256 one-byte values through ``bytes.translate`` on the table's
    bytes padded to 256 (no intp copy; the result is read-only), else a gather."""
    if index.dtype == np.uint8 and table.itemsize == 1 and len(table) <= 256:
        return np.frombuffer(index.tobytes().translate(table.tobytes().ljust(256, b"\0")),
                             table.dtype).reshape(index.shape)
    return table[index]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _present(key: np.ndarray, size: int) -> np.ndarray:
    """Per value 0..size-1, whether ``key`` holds it: a uint8 key by a search of
    its bytes for each value (no intp copy), any other key by a presence table."""
    if key.dtype == np.uint8 and size <= 256:
        data = key.tobytes()
        return np.array([bytes((v,)) in data for v in range(size)], dtype=bool)
    present = np.zeros(size, dtype=bool)
    present[key] = True
    return present


def _dense(key: np.ndarray, size: int) -> tuple:
    """``key``'s distinct values (all below ``size``), ascending, and ``key``
    renumbered by them: by :func:`_present` over 0..size-1 when that is no
    longer than ``key`` or 256, in ``key``'s dtype, else as ``np.unique`` does."""
    if size > max(len(key), 256):
        return np.unique(key, return_inverse=True)
    present = _present(key, size)
    return np.flatnonzero(present), _take((np.cumsum(present) - 1).astype(key.dtype, copy=False), key)


class ClassVectors(NamedTuple):
    """A system's image-class vector is the tuple of target iso classes of
    its images. ``ids[rank]`` numbers the distinct vectors 0..V-1, in the
    least unsigned dtype that holds V - 1, and ``arrows[u, v]`` holds when
    every objective has an arrow from vector u's images to vector v's:
    improvement only reads iso classes. ``strict`` is ``arrows`` off the
    diagonal: strict improvement. All three are read-only."""

    ids: np.ndarray
    arrows: np.ndarray
    strict: np.ndarray


@dataclass(frozen=True)
class ValuationSystem:
    """A resource category, a system size, and one or more objectives."""

    cat: ResourceCategory
    n: int
    objectives: tuple
    cap: int = DEFAULT_CAP

    @property
    def functor_count(self) -> int:
        return count_functors(self.cat.size, self.n)

    def _guard(self) -> None:
        check_capacity(self.cat.size, self.n, self.cap)

    def _fold(self, init: int, step, dtype=np.intp) -> np.ndarray:
        """Per rank, the left fold ``acc = step(acc, digit)`` over the
        system's digits from ``init``, by iterated gather in rank order, in ``dtype``."""
        self._guard()
        acc = np.array([init], dtype)
        objects = np.arange(self.cat.size, dtype=dtype)[None, :]
        for _ in range(self.n):
            acc = step(acc[:, None], objects).ravel()
        return acc

    def digits(self, ranks) -> np.ndarray:
        """The systems at the given ranks, one row of n object ids each, in the
        least unsigned dtype that holds an object id, written a column at a time."""
        k, ranks = self.cat.size, np.asarray(ranks)
        rows = np.empty((len(ranks), self.n), np.min_scalar_type(k - 1))
        for j in reversed(range(self.n)):
            ranks, rows[:, j] = np.divmod(ranks, k)
        return rows

    @cached_property
    def image_tables(self) -> tuple:
        """Per objective, the image object of every rank, in the least unsigned
        dtype that holds a target object. The tensor fold reads the pair
        number ``acc * K + v``, a byte when K <= 16, through the flat tensor."""
        k = self.cat.size
        pair = np.min_scalar_type(k * k - 1)
        tensor = np.asarray(self.cat.tensor, pair).ravel()
        evaluation = self._fold(self.cat.unit, lambda acc, v: _take(tensor, acc * k + v), pair)
        images = [(o.kind == "table", o.array.astype(np.min_scalar_type(o.target.size - 1)))
                  for o in self.objectives]
        return tuple(_read_only(a if table else _take(a, evaluation)) for table, a in images)

    @cached_property
    def admissible_mask(self) -> np.ndarray:
        """Per rank, whether every objective's image converts into its goal."""
        return _read_only(reduce(np.logical_and, (
            _take(np.asarray(obj.target.hom)[:, obj.goal], table)
            for obj, table in zip(self.objectives, self.image_tables))))

    @cached_property
    def admissible_flags(self) -> tuple:
        return tuple(memoryview(self.admissible_mask))

    @cached_property
    def class_tables(self) -> tuple:
        """Per objective, every rank's image class, in the least unsigned dtype."""
        return tuple(_read_only(_take(np.asarray(
            o.target.iso_class_of, np.min_scalar_type(len(o.target.iso_classes) - 1)), table))
                     for o, table in zip(self.objectives, self.image_tables))

    @cached_property
    def image_class_vectors(self) -> ClassVectors:
        """Class-vector ids of every rank, in lexicographic order of the
        vectors, and the arrows between vectors, read off each class's least
        object. The key ``key * m + class`` (m classes) per objective stays a
        byte when the product of class counts is at most 256, its present values
        found by a bytes search; else it is made dense only when the next radix
        would take it past the rank count."""
        radices, renumbered = [len(obj.target.iso_classes) for obj in self.objectives], {}
        byte = math.prod(radices) <= 256  # then the key stays a byte and is never renumbered
        key, size = self.class_tables[0].astype(np.uint8 if byte else np.intp), radices[0]
        for a in range(1, len(radices)):
            if not byte and size * radices[a] > len(key):
                renumbered[a], key = _dense(key, size)
                size = len(renumbered[a])
            key *= radices[a] % 256 if byte else radices[a]  # 256 only after radices of 1: key 0
            key += self.class_tables[a]
            size *= radices[a]
        present, ids = _dense(key, size)
        ids = ids.astype(np.min_scalar_type(len(present) - 1), copy=False)
        arrows = np.ones((len(present), len(present)), dtype=bool)
        for a, obj in reversed(list(enumerate(self.objectives))):  # decode, last objective first
            present, classes = np.divmod(present, radices[a])
            least = np.array([c[0] for c in obj.target.iso_classes])[classes]
            arrows &= np.asarray(obj.target.hom)[least][:, least]
            present = renumbered[a][present] if a in renumbered else present
        return ClassVectors(*map(_read_only, (ids, arrows, arrows & ~np.identity(len(arrows), bool))))

    @cached_property
    def improved_on(self) -> tuple:
        """Per class-vector id v, the ids that v strictly improves on, ascending."""
        return tuple(np.flatnonzero(col).tolist() for col in self.image_class_vectors.strict.T)

    @property
    def _least(self) -> np.ndarray:  # per resource object, the least of its iso class
        return np.array([self.cat.iso_classes[c][0] for c in self.cat.iso_class_of])

    @cached_property
    def iso_representatives(self) -> np.ndarray:
        """Per rank, the rank of the least system isomorphic to it: every
        object replaced by the least member of its iso class, in the least
        unsigned dtype that holds a rank."""
        k, least = self.cat.size, self._least
        return _read_only(self._fold(0, lambda acc, v: acc * k + least[v]).astype(
            np.min_scalar_type(self.functor_count - 1)))

    def rank(self, values: Sequence[int]) -> int:
        if len(values) != self.n:
            raise PreconditionError(f"system size mismatch: {len(values)} != {self.n}")
        return tuple_rank(self.cat.size, values)

    def validate_maps(self) -> list:
        """Structural and iso-respect checks for the objectives.

        Returns LoadError records (not raised) so a loader can batch them.
        The iso-respect check reads every rank's image class, so it runs only
        when the other checks pass and K^n is within the cap. It reads slices
        of the class tables as K^n cubes, and builds :attr:`iso_representatives`
        only to report a split.
        """
        problems = []
        k, n = self.cat.size, self.n
        for i, obj in enumerate(self.objectives):
            path = f"valuations[{i}]"
            if obj.kind not in ("table", "composed"):
                problems.append(LoadError("valuation.kind", path + ".map.kind",
                                          f"unknown kind {obj.kind!r}"))
                continue
            table = obj.kind == "table"
            field, values = (".map.entries", obj.entries) if table else (".map.h", obj.h)
            # a table's length is compared with K^n without expanding a huge K^n
            want = count_within(k, n, len(values or ())) if table else k
            if values is None or len(values) != want:
                problems.append(LoadError("valuation.shape", path + field,
                                          f"table needs {k}^{n} entries" if table
                                          else f"composed map needs {k} entries"))
                continue
            values = obj.array
            bad = values[(values < 0) | (values >= obj.target.size)]
            if bad.size:
                problems.append(LoadError("valuation.range", path + field,
                                          f"image id {bad[0]} out of range" if table
                                          else "image id out of range"))
                continue
            if not 0 <= obj.goal < obj.target.size:
                problems.append(LoadError("valuation.range", path + ".goal",
                                          f"goal {obj.goal} out of range"))
        if problems or count_within(k, n, self.cap) > self.cap:
            return problems
        # Isomorphic systems need isomorphic images: no image class may move as one slot's
        # object becomes the least of its iso class, as such steps reach the least system.
        least = self._least
        moved = np.flatnonzero(least != np.arange(k))  # none when every class is a singleton
        for i, classes in enumerate(self.class_tables if moved.size else ()):
            cube = classes.reshape((k,) * n)
            if not all(np.array_equal(cube.take(moved, axis=j), cube.take(least[moved], axis=j))
                       for j in range(n)):
                reps = self.iso_representatives  # the first rank of an iso group
                r = np.flatnonzero(classes != classes[reps])[0]
                problems.append(LoadError(
                    "valuation.iso_respect", f"valuations[{i}]",
                    f"systems at ranks {reps[r]} and {r} are isomorphic but their "
                    f"images land in different iso classes",
                ))
        return problems


def images_of(system: ValuationSystem, values: Sequence[int]) -> tuple:
    r = system.rank(values)
    return tuple(int(table[r]) for table in system.image_tables)


def admissible(system: ValuationSystem, values: Sequence[int]) -> bool:
    """True when every objective's image converts into its goal."""
    return bool(system.admissible_mask[system.rank(values)])


def prime_admissibility(system: ValuationSystem, threads: int = 1) -> tuple:
    """Build (and cache on the system) the admissibility table. ``threads``
    splits nothing: the table is one vectorised pass."""
    if threads < 1:
        raise PreconditionError("threads must be at least 1")
    return system.admissible_flags


def minorizes(system: ValuationSystem, phi: Sequence[int], psi: Sequence[int],
              strict: bool = False) -> bool:
    """Does ``psi`` improve on ``phi``: an arrow image(phi) -> image(psi)
    in every objective; strictly when some objective's images are not
    isomorphic."""
    c = system.image_class_vectors
    u, v = c.ids[system.rank(phi)], c.ids[system.rank(psi)]
    return bool((c.strict if strict else c.arrows)[u, v])


def _admissible_ranks(system: ValuationSystem, keep: np.ndarray) -> np.ndarray:
    """Ascending ranks of the admissible systems whose image-class vector
    id the bool mask ``keep`` marks."""
    return np.flatnonzero(system.admissible_mask & _take(keep, system.image_class_vectors.ids))


def _improving_ranks(system: ValuationSystem, phi: Sequence[int]) -> np.ndarray:
    """Ascending ranks of the admissible systems strictly improving on
    admissible ``phi``."""
    rp = system.rank(phi)
    if not system.admissible_mask[rp]:
        raise PreconditionError(f"system {tuple(phi)} is not admissible")
    c = system.image_class_vectors
    return _admissible_ranks(system, c.strict[c.ids[rp]])


def strict_minorization_set(system: ValuationSystem, phi: Sequence[int]) -> list:
    """All admissible systems strictly improving on admissible ``phi``.

    Returned in lexicographic order. The admissibility of ``phi`` itself
    is a precondition: the improvement relation used by the frontier is
    only read on admissible systems.
    """
    return list(map(tuple, system.digits(_improving_ranks(system, phi)).tolist()))


def minorization_mass(system: ValuationSystem, dist: ObjectDistribution,
                      phi: Sequence[int], exact: bool = False):
    """Product-measure mass of the strict improvement set of ``phi``.

    Zero exactly when ``phi`` lies on the frontier, since all object
    weights are strictly positive. Doubles by default; exact fractions
    on request.
    """
    return dist.mass(system.digits(_improving_ranks(system, phi)), exact=exact)


_CHUNK_ROWS = 1 << 12  # frontier rows read at a time by FrontierResult.members


@dataclass(frozen=True)
class FrontierGroup:
    representative: tuple
    members: tuple


@dataclass(frozen=True)
class FrontierResult:
    """The frontier's members as rows of object ids, group by group:
    ``spans`` gives each group's ``(start, end)`` rows, and a group's
    first row is its representative."""

    rows: np.ndarray
    ends: np.ndarray  # intp: where each group's rows end
    admissible_count: int
    functor_count: int

    @property
    def spans(self) -> list:
        ends = self.ends.tolist()
        return list(zip([0] + ends, ends))

    @cached_property
    def groups(self) -> tuple:
        members = list(map(tuple, self.rows.tolist()))
        return tuple(FrontierGroup(members[a], tuple(members[a:b])) for a, b in self.spans)

    @property
    def member_set(self) -> frozenset:
        return frozenset(map(tuple, self.rows.tolist()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, FrontierResult) and np.array_equal(self.ends, other.ends)
                and np.array_equal(self.rows, other.rows)
                and self.admissible_count == other.admissible_count
                and self.functor_count == other.functor_count)

    def __hash__(self) -> int:
        return hash((len(self.ends), self.admissible_count, self.functor_count))

    @gc_paused()
    def to_dict(self) -> dict:
        rows = self.rows.tolist()
        return {
            "groups": [{"representative": list(rows[a]), "members": rows[a:b]}
                       for a, b in self.spans],
            "admissible_count": self.admissible_count,
            "functor_count": self.functor_count,
            "frontier_count": len(rows),
        }

    def members(self):
        """Each member as ``(group index, row tuple)``, ``_CHUNK_ROWS`` rows at a time."""
        for start in range(0, len(self.rows), _CHUNK_ROWS):
            rows = self.rows[start:start + _CHUNK_ROWS]
            groups = np.searchsorted(self.ends, np.arange(start, start + len(rows)), side="right")
            yield from zip(groups.tolist(), map(tuple, rows.tolist()))

    def json_pieces(self):
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\\n"`` in
        pieces, from :meth:`members`: the text and the document are never whole."""
        n = self.rows.shape[1]  # a member's format; the representative is one level up
        member = "[" + ",".join(["\n          %d"] * n) + "\n        ]" if n else "[]"
        yield ('{\n  "admissible_count": %d,\n  "frontier_count": %d,\n  "functor_count": %d,'
               '\n  "groups": [' % (self.admissible_count, len(self.rows), self.functor_count))
        close = ""  # the last group's close, yielded with the next group's opening
        for _, group in groupby(self.members(), itemgetter(0)):
            first = member % next(group)[1]
            yield close + '\n    {\n      "members": [\n        ' + first
            for _, values in group:
                yield ",\n        " + member % values
            close = '\n      ],\n      "representative": ' + first.replace("\n  ", "\n") + "\n    },"
        yield close[:-1] + "\n  ]\n}\n" if close else "]\n}\n"


def frontier_ranks(system: ValuationSystem) -> np.ndarray:
    """Ascending ranks of the admissible systems with an empty strict
    improvement set: their class vector is present among the admissible
    systems and has no strict arrow to a present one."""
    c = system.image_class_vectors
    present = _present(c.ids[system.admissible_mask], len(c.arrows))
    return _admissible_ranks(system, present & ~c.strict[:, present].any(axis=1))


def pareto_frontier(system: ValuationSystem) -> FrontierResult:
    """Admissible systems with an empty strict improvement set.

    Works on distinct image-class vectors (improvement only reads iso
    classes of images), then expands back to member systems grouped by
    componentwise iso class: the lexicographically least member
    represents its group, and groups are sorted by representative.
    """
    ranks = frontier_ranks(system)
    keys = system.iso_representatives[ranks]
    # the keys are ranks: a table over them, no longer than the rank tables, groups them unsorted
    counts = np.cumsum(_present(keys, system.functor_count))
    group, leader = counts[keys] - 1, np.full(counts[-1], len(ranks))
    del counts, keys
    np.minimum.at(leader, group, np.arange(len(ranks)))  # each group's first member
    order = np.argsort(leader[group], kind="stable")
    return FrontierResult(
        rows=system.digits(ranks[order]),
        ends=np.cumsum(np.bincount(group)[np.argsort(leader)]),
        admissible_count=int(np.count_nonzero(system.admissible_mask)),
        functor_count=system.functor_count,
    )


# Terminal in the strict-improvement digraph is an empty strict improvement
# set on the class table; ``tests/oracles.py`` is the independent route.
frontier_via_chains = pareto_frontier


class ImprovementChains:
    """The longest-chain DP over a growing sequence of draws.

    A chain is an increasing tuple of draw indices, each draw strictly
    improving on the one before; its order is ``(-len(chain), chain)``,
    smallest for the longest, then least, chain. ``least[j]`` is the
    least of the longest chains ending at draw j; ``best`` is the least
    of all of them. Strict improvement reads only class-vector ids, so
    the DP keeps one record per id v drawn instead of a history:
    ``by_class[v]`` is the least order of a chain ending at a draw of
    class v, and a draw of class v reads the records of the ids in
    ``system.improved_on[v]`` alone. Reversibility reads only ranks:
    ``by_rank[r] = (order, v)`` holds the least order of a chain ending
    at a draw of rank r, and r's class id.
    """

    def __init__(self, system: ValuationSystem):
        self.system = system
        self.draws: list = []
        self.ranks: list = []   # rank per draw
        self.ids: list = []     # class-vector id per draw
        self.least: list = []
        self.best: tuple = ()
        self.by_class: dict = {}
        self.by_rank: dict = {}

    def add(self, draw: Sequence[int]) -> None:
        """Append ``draw``, reading the records of the classes it improves on."""
        rank = self.system.rank(draw)
        self._append(draw, rank, int(self.system.image_class_vectors.ids[rank]))

    def _append(self, draw: tuple, rank: int, v: int) -> None:
        """:meth:`add` of a draw whose rank and class id ``v`` are known."""
        by_class, j = self.by_class, len(self.draws)
        minus, prefix = min(filter(None, map(by_class.get, self.system.improved_on[v])),
                            default=(0, ()))
        least = prefix + (j,)
        order = (minus - 1, least)
        by_class[v] = min(by_class.get(v, order), order)
        self.by_rank[rank] = min(self.by_rank.get(rank, (order, v)), (order, v))
        if order < (-len(self.best), self.best):
            self.best = least
        self.least.append(least)
        self.draws.append(draw)
        self.ranks.append(rank)
        self.ids.append(v)

    def count_longest(self) -> int:
        """How many longest chains there are, listing none: draw by draw,
        per (length, class id), the chains ending at its draws so far."""
        counts, on = {}, self.system.improved_on
        for v, n in zip(self.ids, map(len, self.least)):
            below = sum([counts.get((n - 1, u), 0) for u in on[v]])
            counts[n, v] = counts.get((n, v), 0) + (below or 1)
        return sum(m for (n, _), m in counts.items() if n == len(self.best))

    def all_longest(self) -> list:
        """Every longest chain, in ascending order.

        Raises :class:`CapacityError` before listing any when the chains
        hold more draw indices than the system's cap. A longest chain's
        k-th member is a draw whose longest chains are k long. So from the
        top length down, a draw's list of chain suffixes prefixes it to the
        lists of the later draws, one longer, that improve on it, in draw
        order: every list is ascending, with no sort, and every suffix
        completes, so no level holds more suffixes than the count.
        """
        top, cap = len(self.best), self.system.cap
        count = self.count_longest()
        if count * top > cap:
            shown = count if count <= cap else f"more than {cap}"  # may run to thousands of digits
            raise CapacityError(f"listing {shown} longest chains of length {top} exceeds cap {cap}",
                                required=count * top, cap=cap)
        ids, on = self.ids, self.system.improved_on
        at: dict = {}  # length -> the draws whose longest chains are that long, ascending
        for j, least in enumerate(self.least):
            at.setdefault(len(least), []).append(j)
        suffixes = {j: [(j,)] for j in at.get(top, ())}
        for n in reversed(range(1, top)):
            above: dict = {}  # class id -> the draws one longer that improve on it, ascending
            for j in filter(suffixes.get, at[n + 1]):
                for u in on[ids[j]]:
                    above.setdefault(u, []).append(j)
            longer, suffixes = suffixes, {}
            for i in at[n]:
                js, head = above.get(ids[i], []), (i,)
                suffixes[i] = [head + c for j in js[bisect_left(js, i):] for c in longer[j]]
        return [c for i in at.get(1, ()) for c in suffixes[i]]


def longest_strict_chains(system: ValuationSystem, draws: Sequence[Sequence[int]]) -> list:
    """All maximal-length strictly improving index subsequences.

    ``draws[i]`` must all be admissible. Consecutive chain members are
    related by strict improvement (later draw improves on the earlier).
    Returns every longest chain as a tuple of indices, sorted.
    """
    chains = ImprovementChains(system)
    for d in map(tuple, draws):
        if not admissible(system, d):
            raise PreconditionError(f"draw {d} is not admissible")
        chains.add(d)
    return chains.all_longest()
