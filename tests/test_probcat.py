from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pareto_cat as pc

import oracles
from conftest import prob_objects

# base category for most tests: 5 objects, classes {0}, {1,3}, {2,4}
ISO = [[0], [1, 3], [2, 4]]
CLS = (0, 1, 2, 1, 2)  # object id -> class index


def test_prob_object_validation():
    pc.ProbObject([(0.5, 0), (0.5, 1)])
    with pytest.raises(pc.StructureError):
        pc.ProbObject([])
    with pytest.raises(pc.StructureError):
        pc.ProbObject([(0.0, 0), (1.0, 1)])
    with pytest.raises(pc.StructureError):
        pc.ProbObject([(0.5, 0), (0.6, 1)])  # sums past 1
    with pytest.raises(pc.StructureError):
        pc.ProbObject([(-0.2, 0), (1.2, 1)])


def test_canonicalize_merges_iso_components():
    p = pc.ProbObject([(0.25, 3), (0.25, 1), (0.5, 2)])
    c = pc.canonicalize(p, CLS)
    # class-1 cells merge onto the least payload, sorted by class
    assert c.components == ((0.5, 1), (0.5, 2))


def test_canonicalize_idempotent_and_weight_preserving():
    p = pc.ProbObject([(0.2, 4), (0.3, 2), (0.1, 0), (0.4, 3)])
    c1 = pc.canonicalize(p, CLS)
    c2 = pc.canonicalize(c1, CLS)
    assert c1.components == c2.components
    assert sum(w for w, _ in c1.components) == pytest.approx(1.0)


def test_constant_mixture_collapses_to_point():
    p = pc.ProbObject([(Fraction(1, 3), 1), (Fraction(1, 3), 3), (Fraction(1, 3), 1)])
    c = pc.canonicalize(p, CLS)
    assert c.components == ((Fraction(1, 1), 1),)


def test_prob_isomorphic_examples():
    p = pc.ProbObject([(0.5, 1), (0.5, 2)])
    q = pc.ProbObject([(0.5, 4), (0.5, 3)])  # same classes, swapped payloads
    assert pc.prob_isomorphic(p, q, CLS)
    r = pc.ProbObject([(0.25, 1), (0.25, 1), (0.5, 2)])  # split cell
    assert pc.prob_isomorphic(p, r, CLS)
    s = pc.ProbObject([(0.6, 1), (0.4, 2)])
    assert not pc.prob_isomorphic(p, s, CLS)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_three_way_isomorphism_agreement(data):
    p = data.draw(prob_objects(ISO))
    if data.draw(st.booleans()):
        # derive q from p: shuffle, split a cell, swap payloads in-class
        comps = list(p.components)
        if len(comps) < 6 and data.draw(st.booleans()):
            w, x = comps[0]
            comps = [(w / 2, x), (w - w / 2, x)] + comps[1:]
        comps = [
            (w, ISO[CLS[x]][data.draw(st.integers(0, len(ISO[CLS[x]]) - 1))])
            for w, x in comps
        ]
        perm = data.draw(st.permutations(range(len(comps))))
        q = pc.ProbObject([comps[i] for i in perm])
    else:
        q = data.draw(prob_objects(ISO))
    route_a = pc.prob_isomorphic(p, q, CLS)
    ca, cb = pc.canonicalize(p, CLS), pc.canonicalize(q, CLS)
    mp = oracles.merged_class_weights(p.components, ISO)
    mq = oracles.merged_class_weights(q.components, ISO)
    route_b = len(mp) == len(mq) and all(
        kp == kq and abs(wp - wq) <= 1e-9
        for (kp, wp), (kq, wq) in zip(mp, mq)
    )
    route_c = oracles.perm_isomorphic(ca.components, cb.components, ISO)
    assert route_a == route_c
    assert route_a == route_b


def test_prob_isomorphic_is_equivalence():
    objs = [
        pc.ProbObject([(0.5, 1), (0.5, 2)]),
        pc.ProbObject([(0.5, 3), (0.5, 4)]),
        pc.ProbObject([(0.25, 1), (0.25, 3), (0.5, 2)]),
    ]
    for a in objs:
        assert pc.prob_isomorphic(a, a, CLS)
        for b in objs:
            assert pc.prob_isomorphic(a, b, CLS) == pc.prob_isomorphic(b, a, CLS)
    assert pc.prob_isomorphic(objs[0], objs[1], CLS)
    assert pc.prob_isomorphic(objs[1], objs[2], CLS)
    assert pc.prob_isomorphic(objs[0], objs[2], CLS)


def test_morphism_validation_catches_bad_columns():
    src = pc.ProbObject([(0.5, 1), (0.5, 2)])
    dst = pc.ProbObject([(1.0, 1)])
    good = pc.ProbMorphism(
        [[1.0, 1.0]],
        [(0, 0, (1, 1), 1.0), (0, 1, (2, 1), 1.0)],
    )
    hom = [[a == b or (a in (1, 2, 3, 4) and b in (1, 2, 3, 4)) for b in range(5)] for a in range(5)]
    assert good.validate(src, dst, lambda a, b: hom[a][b]) == []
    bad = pc.ProbMorphism([[0.5, 1.0]], [(0, 0, (1, 1), 0.5), (0, 1, (2, 1), 1.0)])
    msgs = bad.validate(src, dst, lambda a, b: hom[a][b])
    assert any("column" in m for m in msgs)


def test_morphism_validation_catches_family_mismatch():
    src = pc.ProbObject([(1.0, 1)])
    dst = pc.ProbObject([(1.0, 2)])
    hom = lambda a, b: True
    m = pc.ProbMorphism([[1.0]], [(0, 0, (1, 2), 0.4)])  # families sum 0.4 != 1.0
    msgs = m.validate(src, dst, hom)
    assert any("famil" in m_ for m_ in msgs)


def test_morphism_validation_catches_shape_range_and_unwitnessed_entries():
    src = pc.ProbObject([(0.5, 1), (0.5, 2)])
    dst = pc.ProbObject([(1.0, 1)])
    hom = lambda a, b: True
    assert pc.ProbMorphism([[1.0]], []).validate(src, dst, hom) == ["matrix must be 1x2"]
    m = pc.ProbMorphism([[1.0, 1.0]], [(0, 0, (1, 1), 1.0), (1, 1, (2, 1), 1.0)])
    msgs = m.validate(src, dst, hom)
    assert "family entry (1,1) out of range" in msgs
    assert "positive entry (0,1) has no witnessing family" in msgs


def test_morphism_validation_flags_empty_hom():
    src = pc.ProbObject([(1.0, 0)])
    dst = pc.ProbObject([(1.0, 1)])
    m = pc.ProbMorphism([[1.0]], [(0, 0, (0, 1), 1.0)])
    msgs = m.validate(src, dst, lambda a, b: a == b)
    assert any("no arrow" in x or "hom" in x for x in msgs)


def test_lift_functor_and_commutation():
    h = [0, 2, 1, 2, 1]  # object map into the same base
    p = pc.ProbObject([(0.5, 1), (0.25, 3), (0.25, 2)])
    lifted = pc.lift_functor(lambda x: h[x], p)
    assert lifted.components == ((0.5, 2), (0.25, 2), (0.25, 1))
    # lift then canonicalize == canonicalize then lift, up to iso
    a = pc.canonicalize(lifted, CLS)
    b = pc.lift_functor(lambda x: h[x], pc.canonicalize(p, CLS))
    assert pc.prob_isomorphic(a, b, CLS)


def test_lift_morphism_validates_between_lifted_endpoints():
    below = lambda a, b: a <= b  # the chains 0 <= 1 <= ... as preorders
    src = pc.ProbObject([(0.5, 0), (0.5, 2)])
    dst = pc.ProbObject([(0.25, 1), (0.75, 3)])
    m = pc.ProbMorphism([[0.5, 0.0], [0.5, 1.0]],
                        [(0, 0, (0, 1), 0.5), (1, 0, (0, 3), 0.5), (1, 1, (2, 3), 1.0)])
    assert m.validate(src, dst, below) == []
    h = [0, 0, 1, 1, 2]  # monotone onto a 3-chain
    lifted = pc.lift_morphism(h, m)
    assert [f[2] for f in lifted.families] == [(0, 0), (0, 1), (1, 1)]
    assert lifted.validate(pc.lift_functor(h, src), pc.lift_functor(h, dst), below) == []
    # a map that reverses an arrow is no functor: its lift names an empty hom
    flip = [1, 0, 1, 1, 2]
    msgs = pc.lift_morphism(flip, m).validate(pc.lift_functor(flip, src),
                                              pc.lift_functor(flip, dst), below)
    assert msgs == ["tag (1, 0) names an empty hom set"]


def test_apply_prob_functor_weights():
    # mixture of two object maps applied to a mixture of objects
    f1, f2 = (1, 1), (2, 1)  # index-as-mapping
    pf = pc.ProbObject([(0.4, f1), (0.6, f2)])
    px = pc.ProbObject([(0.5, 0), (0.5, 1)])
    out = pc.apply_prob_functor(pf, px)
    assert out.components == ((0.2, 1), (0.2, 1), (0.3, 2), (0.3, 1))
    assert sum(w for w, _ in out.components) == pytest.approx(1.0)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_canonicalize_exact_weights_stay_exact(data):
    p = data.draw(prob_objects(ISO))
    c = pc.canonicalize(p, CLS)
    assert all(isinstance(w, Fraction) for w, _ in c.components)
    assert sum(w for w, _ in c.components) == 1
