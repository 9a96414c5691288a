"""Finite symmetric monoidal preorders used as resource models.

Objects are ids ``0..K-1``. Convertibility is a boolean hom table (thin
semantics: at most the existence of an arrow matters), isomorphism is an
explicit partition of the objects, and the monoidal product is a total
``K x K`` table. All laws involving the tensor are required up to
isomorphism only, and are checked by :func:`validate_category` rather
than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, product
from typing import Optional, Sequence

from .errors import PreconditionError, StructureError


def _check_ids(cat: TargetCategory, a: int, b: int) -> None:
    if not (0 <= a < cat.size and 0 <= b < cat.size):
        raise StructureError(f"object id out of range: ({a},{b})")


@dataclass(frozen=True)
class TargetCategory:
    """Objects, convertibility and isomorphism only (no tensor).

    Used as the codomain of valuations, where combining objects is never
    needed.
    """

    size: int
    hom: tuple = field(repr=False)
    iso_classes: tuple = field(repr=False)

    def __init__(self, size: int, hom, iso_classes):
        object.__setattr__(self, "size", int(size))
        object.__setattr__(self, "hom", tuple(tuple(map(bool, row)) for row in hom))
        object.__setattr__(
            self, "iso_classes", tuple(tuple(sorted(int(x) for x in c)) for c in iso_classes)
        )

    @cached_property
    def iso_class_of(self) -> tuple:
        """Map object id -> index of its iso class (partition cell)."""
        out = [-1] * self.size
        for ci, cell in enumerate(self.iso_classes):
            if not cell:
                raise StructureError(f"iso_classes has an empty cell at index {ci}")
            for x in cell:
                if not 0 <= x < self.size or out[x] != -1:
                    raise StructureError(f"iso_classes is not a partition of 0..{self.size - 1}")
                out[x] = ci
        if any(v == -1 for v in out):
            raise StructureError(f"iso_classes does not cover 0..{self.size - 1}")
        return tuple(out)

    def isomorphic(self, a: int, b: int) -> bool:
        _check_ids(self, a, b)
        return self.iso_class_of[a] == self.iso_class_of[b]


@dataclass(frozen=True)
class ResourceCategory(TargetCategory):
    """A target category plus unit object and total tensor table."""

    unit: int = 0
    tensor: tuple = field(default=(), repr=False)

    def __init__(self, size: int, hom, iso_classes, unit: int, tensor):
        TargetCategory.__init__(self, size, hom, iso_classes)
        object.__setattr__(self, "unit", int(unit))
        object.__setattr__(self, "tensor", tuple(tuple(map(int, row)) for row in tensor))

    def tens(self, a: int, b: int) -> int:
        _check_ids(self, a, b)
        return self.tensor[a][b]


@dataclass(frozen=True)
class Violation:
    code: str
    witness: tuple
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple

    def codes(self) -> set:
        return {v.code for v in self.violations}


# message template per law code, filled from the witness
_MESSAGES = {
    "rescat.hom.reflexivity": "hom({0},{0}) is false",
    "rescat.hom.transitivity": "hom({0},{1}) and hom({1},{2}) but not hom({0},{2})",
    "rescat.iso.mutual_hom": "isomorphic pair ({0},{1}) lacks a hom arrow",
    "rescat.hom.iso_respect": "hom({0},{1}) != hom({2},{3}) on isomorphic arguments",
    "rescat.tensor.iso_respect": "tensor lands in different iso classes on isomorphic arguments",
    "rescat.tensor.unit": "unit law fails at {0}",
    "rescat.tensor.symmetry": "{0}x{1} not symmetric up to iso",
    "rescat.tensor.associativity": "associativity fails up to iso at ({0},{1},{2})",
    "rescat.tensor.functoriality": "tensor of two arrows is not an arrow",
}


def _check_shape(cat: TargetCategory) -> None:
    k = cat.size
    if k < 1:
        raise StructureError("category needs at least one object")
    if len(cat.hom) != k or any(len(row) != k for row in cat.hom):
        raise StructureError(f"hom table must be {k}x{k}")
    cat.iso_class_of  # raises StructureError if not a partition
    if isinstance(cat, ResourceCategory):
        if not 0 <= cat.unit < k:
            raise StructureError(f"unit {cat.unit} out of range")
        if len(cat.tensor) != k or any(len(row) != k for row in cat.tensor):
            raise StructureError(f"tensor table must be {k}x{k}")
        for a, b in product(range(k), range(k)):
            if not 0 <= cat.tensor[a][b] < k:
                raise StructureError(f"tensor[{a}][{b}] = {cat.tensor[a][b]} out of range")


def validate_category(cat: TargetCategory, max_violations: int = 50) -> ValidationReport:
    """Check the category laws and report violations with witnesses.

    Shape problems raise :class:`StructureError`; law failures are
    returned. Witnesses come in law order (the codes below; unit and
    symmetry interleave by their first argument) and row-major within a
    law, and checking stops at the cap ``max_violations``. Codes are stable:
    ``rescat.hom.reflexivity``, ``rescat.hom.transitivity``,
    ``rescat.iso.mutual_hom``, ``rescat.hom.iso_respect``, and for
    resource categories additionally ``rescat.tensor.iso_respect``,
    ``rescat.tensor.unit``, ``rescat.tensor.symmetry``,
    ``rescat.tensor.associativity``, ``rescat.tensor.functoriality``.
    An iso-respect witness ``(a0, b0, a, b)`` compares ``(a, b)`` with
    ``(a0, b0)``, the least members of their iso classes.
    """
    _check_shape(cat)
    k = range(cat.size)
    hom, cls = cat.hom, cat.iso_class_of
    least = [cat.iso_classes[c][0] for c in cls]
    streams = [
        (("rescat.hom.reflexivity", (a,)) for a in k if not hom[a][a]),
        (("rescat.hom.transitivity", (a, b, c))
         for a in k for b in k if hom[a][b] for c in k if hom[b][c] and not hom[a][c]),
        (("rescat.iso.mutual_hom", (a, b)) for cell in cat.iso_classes
         for a in cell for b in cell if not (hom[a][b] and hom[b][a])),
        (("rescat.hom.iso_respect", (least[a], least[b], a, b))
         for a, b in product(k, k) if hom[a][b] != hom[least[a]][least[b]]),
    ]
    if isinstance(cat, ResourceCategory):
        tens, u = cat.tensor, cat.unit

        def unit_and_symmetry():
            for a in k:
                if cls[tens[a][u]] != cls[a] or cls[tens[u][a]] != cls[a]:
                    yield "rescat.tensor.unit", (a,)
                yield from (("rescat.tensor.symmetry", (a, b))
                            for b in k if cls[tens[a][b]] != cls[tens[b][a]])

        streams += [
            (("rescat.tensor.iso_respect", (least[a], least[b], a, b))
             for a, b in product(k, k) if cls[tens[a][b]] != cls[tens[least[a]][least[b]]]),
            unit_and_symmetry(),
            (("rescat.tensor.associativity", (a, b, c)) for a, b, c in product(k, k, k)
             if cls[tens[tens[a][b]][c]] != cls[tens[a][tens[b][c]]]),
            (("rescat.tensor.functoriality", (a, b, a2, b2))
             for a, b in product(k, k) if hom[a][b]
             for a2, b2 in product(k, k) if hom[a2][b2] and not hom[tens[a][a2]][tens[b][b2]]),
        ]
    found = islice(chain.from_iterable(streams), max(max_violations, 0))
    out = tuple(Violation(code, w, _MESSAGES[code].format(*w)) for code, w in found)
    return ValidationReport(ok=not out, violations=out)


def close_hom(hom: Sequence[Sequence[bool]]) -> tuple:
    """Reflexive-transitive closure of a hom table (Warshall)."""
    m = [[bool(x) or a == c for c, x in enumerate(row)] for a, row in enumerate(hom)]
    for b, row_b in enumerate(m):
        for a, row_a in enumerate(m):
            if row_a[b]:
                m[a] = [x or y for x, y in zip(row_a, row_b)]
    return tuple(map(tuple, m))


def convertible(cat: TargetCategory, a: int, b: int) -> bool:
    """True when a morphism a -> b exists (a can be converted into b)."""
    _check_ids(cat, a, b)
    return cat.hom[a][b]


def _powers(cat: ResourceCategory, a: int) -> tuple:
    """The powers ``a``, ``a (x) a``, ... (folded left to right) up to
    the first repeat, and the index that the repeat returns to: from
    there on the powers cycle, so there are at most K distinct ones."""
    pows, seen = [a], {a: 0}
    while (x := cat.tens(pows[-1], a)) not in seen:
        seen[x] = len(pows)
        pows.append(x)
    return pows, seen[x]


def tensor_power(cat: ResourceCategory, a: int, n: int) -> int:
    """n-fold tensor of ``a`` with itself, folded left to right; n >= 1.
    Read off the cycle of :func:`_powers`: the cost does not grow with n."""
    if n < 1:
        raise PreconditionError(f"tensor power needs n >= 1, got {n}")
    if not 0 <= a < cat.size:
        raise StructureError(f"object id out of range: {a}")
    pows, start = _powers(cat, a)
    period = len(pows) - start
    return pows[n - 1 if n <= len(pows) else start + (n - 1 - start) % period]


def conversion_rate(
    cat: ResourceCategory, a: int, b: int, n_max: int = 16
) -> Optional[Fraction]:
    """Best ratio m/n with n copies of ``a`` convertible into m of ``b``.

    The maximum over all 1 <= m, n <= n_max with ``a^n -> b^m`` as an
    exact fraction, or None when no pair of powers is convertible. Each
    distinct power of ``a`` is taken at its least exponent and each of
    ``b`` at its greatest exponent <= n_max (by the period of the powers'
    cycle), so the cost does not grow with ``n_max``. The true rate is a
    supremum; this is its bounded-window approximation and is monotone
    in ``n_max``. An object id out of range raises
    :class:`StructureError`, ``n_max < 1`` :class:`PreconditionError`.
    """
    _check_ids(cat, a, b)
    if n_max < 1:
        raise PreconditionError(f"n_max must be >= 1, got {n_max}")
    pow_a, _ = _powers(cat, a)
    pow_b, start = _powers(cat, b)
    period = len(pow_b) - start
    last = {dst: m + (n_max - m) // period * period if m > start else m
            for m, dst in enumerate(pow_b[:n_max], 1)}
    return max((Fraction(last[dst], n) for n, src in enumerate(pow_a[:n_max], 1)
                for dst in last if cat.hom[src][dst]), default=None)


def mutually_convertible(cat: TargetCategory, a: int, b: int) -> bool:
    return convertible(cat, a, b) and convertible(cat, b, a)
