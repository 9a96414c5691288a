"""Independent reference implementations used to freeze expected values.

Everything here recomputes results from raw instance data (hom/tensor
tables, weights) without going through the package's own data
structures or algorithms, so a bug in the package cannot hide in the
expected values. Deliberately brute force; only run at desk scale.
"""

import math
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, permutations, product, repeat

import numpy as np


def fold_tensor(tensor, unit, values):
    """Tensor evaluation of a whole tuple, smallest index first."""
    acc = unit
    for v in values:
        acc = tensor[acc][v]
    return acc


def image_of(doc, alpha, values):
    """Objective image straight from the instance document."""
    v = doc["valuations"][alpha]
    m = v["map"]
    if m["kind"] == "table":
        k = doc["category"]["objects"]
        rank = 0
        for x in values:
            rank = rank * k + x
        return m["entries"][rank]
    cat = doc["category"]
    return m["h"][fold_tensor(cat["tensor"], cat["unit"], values)]


def class_of(iso_classes, obj):
    for i, cls in enumerate(iso_classes):
        if obj in cls:
            return i
    raise ValueError(f"object {obj} in no class")


def brute_frontier(doc):
    """Frontier membership from first principles: admissible tuples no
    admissible tuple strictly improves on. Returns a frozenset."""
    k = doc["category"]["objects"]
    n = doc["system_size"]
    vals = doc["valuations"]
    tuples = list(product(range(k), repeat=n))

    def admissible(t):
        return all(
            v["target"]["hom"][image_of(doc, a, t)][v["goal"]]
            for a, v in enumerate(vals)
        )

    adm = [t for t in tuples if admissible(t)]
    return frozenset(
        t for t in adm if not any(strictly_improves(doc, t, u) for u in adm if u != t)
    )


def strictly_improves(doc, t, u):
    """Whether u strictly improves on t: an arrow from t's image to u's
    in every objective, a non-iso one in some."""
    some_noniso = False
    for a, v in enumerate(doc["valuations"]):
        x, y = image_of(doc, a, t), image_of(doc, a, u)
        if not v["target"]["hom"][x][y]:
            return False
        if class_of(v["target"]["iso_classes"], x) != class_of(
            v["target"]["iso_classes"], y
        ):
            some_noniso = True
    return some_noniso


def brute_strict_improvers(doc, phi):
    """Admissible tuples strictly improving on phi, lexicographic order."""
    k = doc["category"]["objects"]
    n = doc["system_size"]
    vals = doc["valuations"]

    def admissible(t):
        return all(
            v["target"]["hom"][image_of(doc, a, t)][v["goal"]]
            for a, v in enumerate(vals)
        )

    return [u for u in product(range(k), repeat=n)
            if admissible(u) and strictly_improves(doc, phi, u)]


def brute_mass(doc, phi):
    """Exact product-measure mass of the strict improvement set."""
    weights = [Fraction(str(w)) for w in doc["distribution"]["weights"]]
    total = Fraction(0)
    for u in brute_strict_improvers(doc, phi):
        w = Fraction(1)
        for x in u:
            w *= weights[x]
        total += w
    return total


def class_vector_numbering(doc):
    """Image-class vectors numbered by ``np.unique`` over the stacked
    per-objective class rows, with no packed integer key. Returns, per
    rank, its vector's id (ids in lexicographic order of the vectors);
    per id, its first rank; the arrow and strict-arrow matrices between
    vectors, read off those first ranks' images; and the ascending ranks
    of the admissible systems no admissible system strictly improves on."""
    k, n = doc["category"]["objects"], doc["system_size"]
    tuples = list(product(range(k), repeat=n))
    vals = doc["valuations"]
    images = [[image_of(doc, a, t) for t in tuples] for a in range(len(vals))]
    rows = np.array([[class_of(v["target"]["iso_classes"], x) for x in im]
                     for v, im in zip(vals, images)])
    _, first, ids = np.unique(rows.T, axis=0, return_index=True, return_inverse=True)
    ids = ids.reshape(-1)
    arrows = np.array([[all(v["target"]["hom"][im[f]][im[g]] for v, im in zip(vals, images))
                        for g in first] for f in first], dtype=bool)
    strict = arrows & ~np.eye(len(first), dtype=bool)
    adm = [all(v["target"]["hom"][im[r]][v["goal"]] for v, im in zip(vals, images))
           for r in range(len(tuples))]
    frontier = [r for r in range(len(tuples)) if adm[r] and not any(
        adm[q] and strict[ids[r], ids[q]] for q in range(len(tuples)))]
    return ids, first, arrows, strict, np.array(frontier, dtype=int)


def _dense_per_objective(key, size):
    """``key``'s values (all below ``size``) renumbered 0.. in ascending
    order, and how many distinct values there are."""
    if size > len(key):
        values, ids = np.unique(key, return_inverse=True)
        return ids, len(values)
    present = np.zeros(size, dtype=bool)
    present[key] = True
    return (np.cumsum(present) - 1)[key], int(np.count_nonzero(present))


def per_objective_class_vectors(image_tables, targets):
    """Image-class vectors numbered one objective at a time: per rank,
    ``id * m + class`` renumbered densely after every objective, and the
    arrows read off the images of the first rank with each vector.
    ``targets`` holds each objective's ``(iso_classes, hom)`` as nested
    lists. Returns the ids, the arrows and the strict arrows."""
    ids, count = np.zeros(len(image_tables[0]), dtype=np.intp), 1
    for table, (iso_classes, _) in zip(image_tables, targets):
        class_of_object = np.zeros(sum(map(len, iso_classes)), dtype=np.intp)
        for c, members in enumerate(iso_classes):
            class_of_object[list(members)] = c
        ids *= len(iso_classes)
        ids += class_of_object[table]
        ids, count = _dense_per_objective(ids, count * len(iso_classes))
    first = np.full(count, len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    arrows = np.ones((count, count), dtype=bool)
    for table, (_, hom) in zip(image_tables, targets):
        images = table[first]
        arrows &= np.asarray(hom, dtype=bool)[images][:, images]
    return ids, arrows, arrows & ~np.eye(count, dtype=bool)


def iso_respect_problems(doc):
    """``(code, path, message)`` per objective whose images split an iso
    class of systems, at the first rank whose image class differs from its
    representative's: the system with every object replaced by the least
    of its iso class. Gathers each rank's class through the rank of its
    representative, system by system."""
    cat, n = doc["category"], doc["system_size"]
    k, classes_of = cat["objects"], cat["iso_classes"]
    least = [min(classes_of[class_of(classes_of, x)]) for x in range(k)]
    systems = list(product(range(k), repeat=n))
    reps = [reduce(lambda rank, x: rank * k + least[x], t, 0) for t in systems]
    out = []
    for a, v in enumerate(doc["valuations"]):
        classes = [class_of(v["target"]["iso_classes"], image_of(doc, a, t)) for t in systems]
        split = [r for r, rep in enumerate(reps) if classes[r] != classes[rep]]
        if split:
            out.append(("valuation.iso_respect", f"valuations[{a}]",
                        f"systems at ranks {reps[split[0]]} and {split[0]} are isomorphic but "
                        "their images land in different iso classes"))
    return out


def scale_first_bad_row(table, hom):
    """``(kind, row, message)`` of the first row of a scale table out of
    range for ``hom``'s objects, else of the first row missing a
    transition arrow (at its least scale), else None; row by row."""
    k = len(hom)
    for r, row in enumerate(table):
        if any(not 0 <= v < k for v in row):
            return "range", r, f"scale values out of range for a {k}-object category"
    for r, row in enumerate(table):
        for s in range(len(row) - 1):
            if not hom[row[s]][row[s + 1]]:
                return ("transition", r,
                        f"missing transition arrow {row[s]} -> {row[s + 1]} at scale {s}")
    return None


def chain_walk(doc, draws, tol=1e-12):
    """Per draw of a walk: the length of the longest strictly improving
    chain of draws ending at it, how many chains that long end there
    (Python ints), and whether strict-improvement masses are
    non-increasing (within ``tol``) along every one of them; last, the
    full draw x draw strict-improvement matrix the DP runs over."""
    distinct = sorted(set(draws))
    rel = np.array([[strictly_improves(doc, t, u) for u in distinct] for t in distinct])
    at = np.array([distinct.index(d) for d in draws])
    strict = np.triu(rel[at[:, None], at[None, :]], k=1)  # [i, j]: draw j improves on draw i
    mass = np.array([float(brute_mass(doc, t)) for t in distinct])[at]
    length = np.zeros(len(draws), dtype=int)
    count = np.zeros(len(draws), dtype=object)
    mono = np.ones(len(draws), dtype=bool)
    for j in range(len(draws)):
        below = np.flatnonzero(strict[:j, j])
        top = length[below].max(initial=0)
        pred = below[length[below] == top]
        length[j] = top + 1
        count[j] = count[pred].sum() if top else 1
        mono[j] = np.all(mono[pred] & (mass[j] <= mass[pred] + tol))
    return length, count, mono, strict


def jump_patterns(n):
    """All strictly increasing sequences over 1..n, including empty."""
    out = []
    for r in range(n + 1):
        out.extend(combinations(range(1, n + 1), r))
    return out


def pattern_probability(lambdas, pattern, n):
    """Probability of a jump pattern under the one-step dynamics,
    multiplied out step by step (no closed formula)."""
    p = 1.0
    state = 0
    jumps = set(pattern)
    for step in range(1, n + 1):
        lam = float(lambdas[state])
        if step in jumps:
            p *= lam
            state = step
        else:
            p *= 1.0 - lam
    return p


def exhaustive_coefficients(lambdas):
    """Best-index distribution by summing over every jump pattern.

    Independent of both the closed recursion and the matrix evolution:
    pure enumeration, feasible for n <= 12.
    """
    n = len(lambdas)
    coeffs = [0.0] * (n + 1)
    for pat in jump_patterns(n):
        last = pat[-1] if pat else 0
        coeffs[last] += pattern_probability(lambdas, pat, n)
    return coeffs


def quadratic_diagonal(lambdas):
    """c_k^k by the closed recursion with every term summed afresh, in
    O(n^2) steps. Fractions: integer numerators over the common
    denominator q (``l_k = a_k / q``), each step rescaling every earlier
    term ``a_k (q - a_k)^(n-1-k) N_k``. Anything else: the loop
    ``acc += l_k * (1 - l_k) ** (n-1-k) * c_k^k`` in Python arithmetic,
    which on doubles fixes every bit of the result."""
    ls = list(lambdas)
    diag = [1]
    if ls and all(isinstance(l, Fraction) for l in ls):
        q = math.lcm(*(l.denominator for l in ls))
        a = [l.numerator * (q // l.denominator) for l in ls]
        terms = []
        numerator = 1
        for n in range(1, len(ls) + 1):
            terms = [t * (q - a[k]) for k, t in enumerate(terms)]
            terms.append(a[n - 1] * numerator)
            numerator = sum(terms)
            diag.append(Fraction(numerator, q ** n))
        return tuple(diag)
    for n in range(1, len(ls) + 1):
        acc = 0
        for k in range(n):
            acc += ls[k] * (1 - ls[k]) ** (n - 1 - k) * diag[k]
        diag.append(acc)
    return tuple(diag)


def quadratic_coefficients(lambdas):
    """Best-index distribution after n steps from
    :func:`quadratic_diagonal`: ``c_k^k (1 - l_k)^(n-k)`` for k < n, then
    ``c_n^n``."""
    ls = list(lambdas)
    n = len(ls)
    diag = quadratic_diagonal(ls)
    out = [diag[k] * (1 - ls[k]) ** (n - k) for k in range(n)]
    out.append(diag[n])
    return tuple(out)


def simulate_best_index(lambdas, trials, seed):
    """Per-trial Monte Carlo of the jump process (one uniform per step)."""
    gen = np.random.default_rng(seed)
    n = len(lambdas)
    counts = np.zeros(n + 1, dtype=np.int64)
    lam = np.asarray([float(x) for x in lambdas])
    u = gen.random((trials, n))
    state = np.zeros(trials, dtype=np.int64)
    for step in range(1, n + 1):
        jump = u[:, step - 1] < lam[state]
        state = np.where(jump, step, state)
    for s in state:
        counts[s] += 1
    return counts / trials


def simulate_patterns(lambdas, trials, seed):
    """Empirical jump-pattern frequencies, per-trial simulation."""
    gen = np.random.default_rng(seed)
    n = len(lambdas)
    freq = {}
    lam = [float(x) for x in lambdas]
    for _ in range(trials):
        state = 0
        pat = []
        for step in range(1, n + 1):
            if gen.random() < lam[state]:
                pat.append(step)
                state = step
        key = tuple(pat)
        freq[key] = freq.get(key, 0) + 1
    return {k: v / trials for k, v in freq.items()}


def perm_isomorphic(comps_p, comps_q, iso_classes, tol=1e-9):
    """Permutation brute force on (weight, payload) component lists."""
    if len(comps_p) != len(comps_q):
        return False
    idx = list(range(len(comps_q)))
    for sigma in permutations(idx):
        if all(
            abs(float(comps_p[i][0]) - float(comps_q[sigma[i]][0])) <= tol
            and class_of(iso_classes, comps_p[i][1])
            == class_of(iso_classes, comps_q[sigma[i]][1])
            for i in range(len(comps_p))
        ):
            return True
    return False


def merged_class_weights(comps, iso_classes, tol=1e-9):
    """Sorted (iso class, merged weight) list: the normal-form signature."""
    acc = {}
    for w, payload in comps:
        c = class_of(iso_classes, payload)
        acc[c] = acc.get(c, 0.0) + float(w)
    return sorted(acc.items())


if __name__ == "__main__":
    import json
    from pathlib import Path

    here = Path(__file__).resolve().parent.parent / "src" / "pareto_cat" / "fixtures"
    for name in ("chain3", "cycle2", "staircase"):
        doc = json.loads((here / f"{name}.json").read_text())
        fr = sorted(brute_frontier(doc))
        print(f"{name}: frontier={fr}")
    doc = json.loads((here / "chain3.json").read_text())
    print("chain3 mass (1,1):", brute_mass(doc, (1, 1)))
    print("chain3 mass (0,1):", brute_mass(doc, (0, 1)))
    doc = json.loads((here / "staircase.json").read_text())
    print("staircase mass (1,1):", brute_mass(doc, (1, 1)))
    print("staircase mass (2,2):", brute_mass(doc, (2, 2)))
    print("coeffs (0.5,):", exhaustive_coefficients([0.5]))
    print("coeffs (0.5,0.5):", exhaustive_coefficients([0.5, 0.5]))
    print("coeffs (0.9,0.5,0.1):", exhaustive_coefficients([0.9, 0.5, 0.1]))
    print("pattern (1,2) of (0.5,0.4,0.3) n=2:",
          pattern_probability([0.5, 0.4, 0.3], (1, 2), 2))
    print("mc (0.5,0.5):", simulate_best_index([0.5, 0.5], 200000, 1))


def category_violations(cat, max_violations=50):
    """``validate_category``'s report as (code, witness, message) triples,
    read off the law statements: one brute-force product per law, in the
    documented law order, then cut at the cap. An iso-respect witness
    pairs ``(a, b)`` with the first pair, row-major, whose objects lie in
    the same classes."""
    k = range(cat.size)
    hom = cat.hom
    cls = {x: c for c, cell in enumerate(cat.iso_classes) for x in cell}
    first = {(a, b): next((x, y) for x, y in product(k, k)
                          if (cls[x], cls[y]) == (cls[a], cls[b]))
             for a, b in product(k, k)}

    out = [("rescat.hom.reflexivity", (a,), f"hom({a},{a}) is false")
           for a in k if not hom[a][a]]
    out += [("rescat.hom.transitivity", (a, b, c),
             f"hom({a},{b}) and hom({b},{c}) but not hom({a},{c})")
            for a, b, c in product(k, k, k) if hom[a][b] and hom[b][c] and not hom[a][c]]
    out += [("rescat.iso.mutual_hom", (a, b), f"isomorphic pair ({a},{b}) lacks a hom arrow")
            for cell in cat.iso_classes for a, b in product(cell, cell)
            if not (hom[a][b] and hom[b][a])]
    out += [("rescat.hom.iso_respect", (a0, b0, a, b),
             f"hom({a0},{b0}) != hom({a},{b}) on isomorphic arguments")
            for (a, b), (a0, b0) in first.items() if hom[a][b] != hom[a0][b0]]
    if hasattr(cat, "tensor"):
        t, u = cat.tensor, cat.unit
        out += [("rescat.tensor.iso_respect", (a0, b0, a, b),
                 "tensor lands in different iso classes on isomorphic arguments")
                for (a, b), (a0, b0) in first.items() if cls[t[a][b]] != cls[t[a0][b0]]]
        unit = [("rescat.tensor.unit", (a,), f"unit law fails at {a}")
                for a in k if cls[t[a][u]] != cls[a] or cls[t[u][a]] != cls[a]]
        symmetry = [("rescat.tensor.symmetry", (a, b), f"{a}x{b} not symmetric up to iso")
                    for a, b in product(k, k) if cls[t[a][b]] != cls[t[b][a]]]
        # the two laws interleave by the first argument, unit first
        out += sorted(unit + symmetry, key=lambda v: v[1][0])
        out += [("rescat.tensor.associativity", (a, b, c),
                 f"associativity fails up to iso at ({a},{b},{c})")
                for a, b, c in product(k, k, k) if cls[t[t[a][b]][c]] != cls[t[a][t[b][c]]]]
        out += [("rescat.tensor.functoriality", (a, b, a2, b2),
                 "tensor of two arrows is not an arrow")
                for a, b, a2, b2 in product(k, k, k, k)
                if hom[a][b] and hom[a2][b2] and not hom[t[a][a2]][t[b][b2]]]
    return out[:max(max_violations, 0)]


def tensor_power_fold(tensor, a, n):
    """``a`` tensored with itself n times, one fold step per copy."""
    return reduce(lambda x, y: tensor[x][y], repeat(a, n - 1), a)


def conversion_rate_scan(hom, tensor, a, b, n_max):
    """The best m/n over every pair 1 <= m, n <= n_max with a^n -> b^m,
    from the first n_max powers of each object; None when no pair
    converts."""
    pow_a, pow_b = (list(accumulate(repeat(x, n_max), lambda x, y: tensor[x][y]))
                    for x in (a, b))
    return max((Fraction(m, n) for n, src in enumerate(pow_a, 1)
                for m, dst in enumerate(pow_b, 1) if hom[src][dst]), default=None)
