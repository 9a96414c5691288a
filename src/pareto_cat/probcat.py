"""Formal convex combinations of objects and stochastic morphism bundles.

A probabilistic object is a finite weighted family of ordinary objects
(weights strictly positive, summing to one). A probabilistic morphism
between two such families is a column-stochastic matrix together with,
for every matrix entry, a bundle of witnessed arrows whose probabilities
sum to that entry. Isomorphism-aware normalization merges components
that share an iso class; two probabilistic objects are isomorphic
exactly when their normal forms match componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import StructureError

WEIGHT_TOL = 1e-9        # component weights compared up to this
STOCHASTIC_TOL = 1e-12   # column sums / pushforwards compared up to this


def _as_fn(mapping) -> Callable:
    return mapping if callable(mapping) else lambda x: mapping[x]


@dataclass(frozen=True)
class ProbObject:
    """Weighted components ``(weight, payload)``; payloads are usually
    object ids but may be any hashable tag (e.g. a functor)."""

    components: tuple

    def __init__(self, components: Sequence[tuple]):
        comps = tuple((w, payload) for w, payload in components)
        if not comps:
            raise StructureError("a probabilistic object needs at least one component")
        if any(w <= 0 for w, _ in comps):
            raise StructureError("zero or negative component weights are not allowed")
        total = sum(w for w, _ in comps)
        if abs(float(total) - 1.0) > STOCHASTIC_TOL:
            raise StructureError(f"component weights sum to {float(total)!r}, not 1")
        object.__setattr__(self, "components", comps)

    @property
    def weights(self) -> tuple:
        return tuple(w for w, _ in self.components)

    @property
    def payloads(self) -> tuple:
        return tuple(p for _, p in self.components)

    def __len__(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class ProbMorphism:
    """Column-stochastic matrix plus witnessed arrow bundles.

    ``matrix[a][b]`` is the probability of landing on target component
    ``a`` coming from source component ``b``. ``families`` holds entries
    ``(a, b, tag, weight)`` where ``tag = (src_obj, dst_obj)`` witnesses
    an arrow and the weights over each ``(a, b)`` cell sum to the matrix
    entry.
    """

    matrix: tuple
    families: tuple

    def __init__(self, matrix, families):
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in matrix))
        object.__setattr__(self, "families", tuple(tuple(f) for f in families))

    def validate(self, source: ProbObject, target: ProbObject,
                 hom_nonempty: Callable[[object, object], bool]) -> list:
        """Return a list of human-readable defects (empty when sound)."""
        bad: list[str] = []
        rows, cols = len(target), len(source)
        if len(self.matrix) != rows or any(len(r) != cols for r in self.matrix):
            return [f"matrix must be {rows}x{cols}"]
        for b in range(cols):
            col = sum(self.matrix[a][b] for a in range(rows))
            if abs(float(col) - 1.0) > STOCHASTIC_TOL:
                bad.append(f"column {b} sums to {float(col)!r}")
        for a in range(rows):
            push = sum(self.matrix[a][b] * source.weights[b] for b in range(cols))
            if abs(float(push) - float(target.weights[a])) > STOCHASTIC_TOL:
                bad.append(f"pushforward weight of target component {a} is {float(push)!r}")
        cell_sums: dict = {}
        for a, b, tag, w in self.families:
            if not (0 <= a < rows and 0 <= b < cols):
                bad.append(f"family entry ({a},{b}) out of range")
                continue
            if not hom_nonempty(tag[0], tag[1]):
                bad.append(f"tag {tag} names an empty hom set")
            cell_sums[(a, b)] = cell_sums.get((a, b), 0) + w
        for (a, b), s in cell_sums.items():
            if abs(float(s) - float(self.matrix[a][b])) > STOCHASTIC_TOL:
                bad.append(f"families at ({a},{b}) sum to {float(s)!r} != matrix entry")
        for a in range(rows):
            for b in range(cols):
                if float(self.matrix[a][b]) > 0 and (a, b) not in cell_sums:
                    bad.append(f"positive entry ({a},{b}) has no witnessing family")
        return bad


def canonicalize(p: ProbObject, iso_class) -> ProbObject:
    """Normal form: merge components sharing an iso class (weights added,
    least payload represents the cell), sorted by (iso class, weight)."""
    cls = _as_fn(iso_class)
    merged: dict = {}
    for w, payload in p.components:
        key = cls(payload)
        if key in merged:
            w0, p0 = merged[key]
            merged[key] = (w0 + w, min(p0, payload))
        else:
            merged[key] = (w, payload)
    comps = [(w, payload) for _, (w, payload) in merged.items()]
    comps.sort(key=lambda c: (cls(c[1]), float(c[0]), c[1]))
    return ProbObject(comps)


def prob_isomorphic(p: ProbObject, q: ProbObject, iso_class) -> bool:
    """Componentwise match of normal forms: same iso classes in order,
    weights equal within ``WEIGHT_TOL``.

    Accepts raw or already-canonical objects; both are normalized first,
    so formally different presentations of the same mixture agree.
    """
    cls = _as_fn(iso_class)
    cp, cq = canonicalize(p, cls), canonicalize(q, cls)
    if len(cp) != len(cq):
        return False
    for (wa, pa), (wb, pb) in zip(cp.components, cq.components):
        if cls(pa) != cls(pb):
            return False
        if abs(float(wa) - float(wb)) > WEIGHT_TOL:
            return False
    return True


def lift_functor(h, p: ProbObject) -> ProbObject:
    """Apply an object map componentwise; weights pass through untouched."""
    fn = _as_fn(h)
    return ProbObject([(w, fn(payload)) for w, payload in p.components])


def lift_morphism(h, m: ProbMorphism) -> ProbMorphism:
    """Apply an object map to the endpoints of every witness tag."""
    fn = _as_fn(h)
    return ProbMorphism(
        m.matrix,
        [(a, b, (fn(tag[0]), fn(tag[1])), w) for a, b, tag, w in m.families],
    )


def apply_prob_functor(pf: ProbObject, px: ProbObject) -> ProbObject:
    """Evaluate a mixture of functors on a mixture of objects.

    Component ``(i, a)`` carries weight ``weight_i * weight_a`` and
    payload ``F_i(X_a)``; pairs are ordered lexicographically in
    ``(i, a)``.
    """
    comps = []
    for wf, f in pf.components:
        fn = _as_fn(f)
        for wx, x in px.components:
            comps.append((wf * wx, fn(x)))
    return ProbObject(comps)
