"""Independent reference for checking benchmark outputs.

Computes, with numpy and straight from the instance document, what the
package must answer: the admissible systems, their image class vectors,
the strict improvement relation between class vectors, the frontier and
the exact strict-improvement mass (lambda) of every admissible system.
It shares no code with the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def _class_of(size: int, iso_classes) -> np.ndarray:
    out = np.empty(size, dtype=np.int64)
    for ci, cell in enumerate(iso_classes):
        out[list(cell)] = ci
    return out


class Oracle:
    def __init__(self, doc: dict):
        cat = doc["category"]
        k, n = int(cat["objects"]), int(doc["system_size"])
        self.k, self.n, self.size = k, n, k**n
        ranks = np.arange(self.size, dtype=np.int64)
        digits = np.empty((self.size, n), dtype=np.int64)
        for j in range(n):
            digits[:, j] = ranks // k ** (n - 1 - j) % k
        tensor = np.array(cat["tensor"], dtype=np.int64)
        self.object_class = _class_of(k, cat["iso_classes"])

        admissible = np.ones(self.size, dtype=bool)
        images, homs, classes = [], [], []
        for v in doc["valuations"]:
            target, m = v["target"], v["map"]
            hom = np.array(target["hom"], dtype=bool)
            if m["kind"] == "table":
                img = np.array(m["entries"], dtype=np.int64)
            else:
                acc = np.full(self.size, int(cat["unit"]), dtype=np.int64)
                for j in range(n):
                    acc = tensor[acc, digits[:, j]]
                img = np.array(m["h"], dtype=np.int64)[acc]
            admissible &= hom[img, int(v["goal"])]
            images.append(img)
            homs.append(hom)
            classes.append(_class_of(int(target["objects"]), target["iso_classes"])[img])
        self.admissible = admissible

        adm = np.flatnonzero(admissible)
        vectors = np.stack(classes, axis=1)[adm]
        _, first, inverse = np.unique(vectors, axis=0, return_index=True, return_inverse=True)
        inverse = inverse.reshape(-1)
        # improves[u, v]: vector v strictly improves on vector u
        improves = np.ones((len(first), len(first)), dtype=bool)
        for img, hom in zip(images, homs):
            reps = img[adm[first]]
            improves &= hom[np.ix_(reps, reps)]
        np.fill_diagonal(improves, False)
        self.class_vectors = len(first)
        self.vector_of = np.full(self.size, -1, dtype=np.int64)
        self.vector_of[adm] = inverse
        self.improves = improves
        on_frontier = ~improves.any(axis=1)
        self.frontier = np.zeros(self.size, dtype=bool)
        self.frontier[adm] = on_frontier[inverse]

        weights = [Fraction(str(w)) for w in doc["distribution"]["weights"]]
        common = math.lcm(*(w.denominator for w in weights))
        self.denominator = common**n
        numerators = np.array([int(w * common) for w in weights], dtype=np.int64)
        if self.denominator >= 2**62:
            raise ValueError("weights too fine for exact int64 masses")
        system_mass = np.prod(numerators[digits], axis=1)
        self.vector_mass = np.zeros(len(first), dtype=np.int64)
        np.add.at(self.vector_mass, inverse, system_mass[adm])

    def rank(self, values) -> int:
        r = 0
        for v in values:
            r = r * self.k + int(v)
        return r

    def values(self, rank: int) -> tuple:
        out = []
        for _ in range(self.n):
            rank, v = divmod(rank, self.k)
            out.append(v)
        return tuple(reversed(out))

    def signature(self, values) -> tuple:
        return tuple(int(self.object_class[v]) for v in values)

    def improving_mass(self, values) -> Fraction:
        """Exact product-measure mass of the strict improvement set."""
        u = self.vector_of[self.rank(values)]
        return Fraction(int(self.vector_mass[self.improves[u]].sum()), self.denominator)

    def frontier_ranks(self) -> np.ndarray:
        return np.flatnonzero(self.frontier)
