"""Tests for P^3 geometry: Plucker/Klein coordinates, involutions, and the
three-tetrahedra construction."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from desmic_kit.matrices import matrix_rank, rref
from desmic_kit.projgeom import (COORD_FACES, COORD_VERTICES, LineP3,
                                 OPPOSITE_EDGE_PAIRS, PLUCKER_RING,
                                 ProjPlane, ProjPoint, alpha_plane, beta_plane,
                                 desmic_from_point, edge_involution,
                                 eval_plucker_form, harmonic_homology,
                                 klein_change_rows, klein_from_plucker,
                                 mat_apply, normalize, plucker_from_points)
from desmic_kit.scalars import F4, QI, I, Mod, W, lift, sqrt_minus_one


def P(*c):
    return ProjPoint(c)


def H(*c):
    return ProjPlane(c)


# ------------------------------------------------------------------ lines --

def test_plucker_coordinate_edge():
    l = plucker_from_points(P(1, 0, 0, 0), P(0, 1, 0, 0))
    assert l.normalized() == (Fraction(1), 0, 0, 0, 0, 0)


def test_plucker_dependent_points_rejected():
    with pytest.raises(ValueError):
        plucker_from_points(P(1, 2, 3, 4), P(2, 4, 6, 8))


def test_plucker_independent_of_spanning_pair():
    l1 = plucker_from_points(P(1, -1, 0, 0), P(0, 0, 1, -1))
    l2 = plucker_from_points(P(1, -1, 1, -1), P(2, -2, -1, 1))
    assert l1 == l2


coords = st.integers(-4, 4)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[coords] * 4), st.tuples(*[coords] * 4))
def test_plucker_relation_always(a, b):
    try:
        l = plucker_from_points(ProjPoint(a), ProjPoint(b))
    except ValueError:
        return
    p12, p13, p14, p23, p24, p34 = l.plucker
    assert p12 * p34 - p13 * p24 + p14 * p23 == 0


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[coords] * 4), st.tuples(*[coords] * 4))
def test_klein_image_on_sum_of_squares_quadric(a, b):
    try:
        l = plucker_from_points(ProjPoint(a), ProjPoint(b))
    except ValueError:
        return
    k = klein_from_plucker(l)
    s = QI(0)
    for c in k.coords:
        s = s + c * c
    assert s == QI(0)


def test_normalize_keys_a_lifted_fraction_like_the_lifted_int():
    one = Mod(1, 13)
    key = normalize(tuple(lift(one, c) for c in (Fraction(2), 0, 0, 0, 0, 0)))
    int_key = normalize(tuple(lift(one, c) for c in (1, 0, 0, 0, 0, 0)))
    assert key == int_key
    assert hash(key) == hash(int_key)
    assert len({key, int_key}) == 1


def test_normalize_rejects_the_zero_vector():
    for zero in (0, Mod(0, 13)):
        with pytest.raises(ValueError, match="zero coordinate vector"):
            normalize((zero,) * 6)


@pytest.mark.parametrize("one,i",
                         [(QI(1), I), (Mod(1, 13), sqrt_minus_one(13))],
                         ids=["Qi", "F13"])
def test_klein_from_plucker_applies_the_klein_change(one, i):
    """klein_from_plucker is the point K * plucker, K = klein_change_rows(i),
    and by default takes field_i of the Plucker field, here i itself."""
    rng = random.Random(repr(one))
    rows = klein_change_rows(i)
    lines = 0
    while lines < 20:
        p, q = (ProjPoint([one * rng.randint(-4, 4) for _ in range(4)])
                for _ in range(2))
        try:
            line = LineP3(p, q)
        except ValueError:
            continue
        lines += 1
        want = tuple(sum((a * x for a, x in zip(row, line.plucker)), one * 0)
                     for row in rows)
        for k in (klein_from_plucker(line, i), klein_from_plucker(line)):
            assert isinstance(k, ProjPoint)
            assert k.coords == want
            assert k == ProjPoint(want)


def test_klein_from_plucker_needs_a_square_root_of_minus_one():
    o, z = F4(1), F4(0)
    line = LineP3(ProjPoint([o, z, z, z]), ProjPoint([z, W, z, z]))
    with pytest.raises(ValueError, match="square root of -1"):
        klein_from_plucker(line)


def test_line_from_planes():
    l = LineP3.from_planes(H(1, 1, 0, 0), H(0, 0, 1, 1))
    # both spanning points lie in both planes
    for pt in (l.p, l.q):
        assert H(1, 1, 0, 0).contains(pt)
        assert H(0, 0, 1, 1).contains(pt)


# ------------------------------------------------------------- involutions --

def test_harmonic_homology_coordinate_case():
    m = harmonic_homology(H(1, 0, 0, 0), P(1, 0, 0, 0))
    assert m == [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_harmonic_homology_center_on_axis_rejected():
    with pytest.raises(ValueError):
        harmonic_homology(H(1, 0, 0, 0), P(0, 1, 0, 0))


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[coords] * 4), st.tuples(*[coords] * 4))
def test_harmonic_homology_involutive(ac, cc):
    if not any(ac) or not any(cc):
        return
    if sum(a * c for a, c in zip(ac, cc)) == 0:
        return
    m = harmonic_homology(ProjPlane(ac), ProjPoint(cc))
    sq = [[sum(m[i][k] * m[k][j] for k in range(4)) for j in range(4)]
          for i in range(4)]
    lam = sq[0][0]
    assert lam != 0
    assert sq == [[lam if i == j else 0 for j in range(4)] for i in range(4)]
    # axis fixed pointwise, center fixed
    assert mat_apply(m, ProjPoint(cc)) == ProjPoint(cc)


def test_edge_involution_matrix():
    m = edge_involution((0, 1), (2, 3))
    assert [m[i][i] for i in range(4)] == [1, 1, -1, -1]
    with pytest.raises(ValueError):
        edge_involution((0, 1), (1, 2))


def test_edge_involution_fixes_both_edges():
    m = edge_involution((0, 2), (1, 3))
    for pt in (P(0, 1, 0, 5), P(0, 3, 0, -2), P(1, 0, 4, 0)):
        assert mat_apply(m, pt) == pt


def test_edge_involutions_generate_second_tetrahedron():
    imgs = {mat_apply(edge_involution(e1, e2), P(1, 1, 1, 1))
            for e1, e2 in OPPOSITE_EDGE_PAIRS}
    assert imgs == {P(1, -1, -1, 1), P(1, -1, 1, -1), P(1, 1, -1, -1)}


def test_harmonic_homologies_generate_third_tetrahedron():
    imgs = {mat_apply(harmonic_homology(COORD_FACES[i], COORD_VERTICES[i]),
                      P(1, 1, 1, 1)) for i in range(4)}
    assert imgs == {P(-1, 1, 1, 1), P(1, -1, 1, 1), P(1, 1, -1, 1),
                    P(1, 1, 1, -1)}


# ------------------------------------------------------ desmic construction --

def test_desmic_from_point_symmetric():
    t1, t2, verdict = desmic_from_point(P(1, 1, 1, 1))
    assert set(t1) == {P(1, 1, 1, 1), P(1, -1, -1, 1), P(1, -1, 1, -1),
                       P(1, 1, -1, -1)}
    assert set(t2) == {P(-1, 1, 1, 1), P(1, -1, 1, 1), P(1, 1, -1, 1),
                       P(1, 1, 1, -1)}
    assert verdict["dependent"]
    s, t = verdict["coefficients"]
    q0, q1, q2 = verdict["quartics"]
    assert q0.scale(Fraction(-16)) == q1.scale(s) + q2.scale(t)


def test_desmic_from_point_general():
    _, _, verdict = desmic_from_point(P(1, 2, 3, 5))
    assert verdict["dependent"]


def test_desmic_from_point_on_face_rejected():
    with pytest.raises(ValueError):
        desmic_from_point(P(1, 1, 1, 0))


# --------------------------------------------------------- alpha/beta data --

SING_12 = [P(0, 0, 0, 1), P(0, 0, 1, 0), P(0, 1, 0, 0), P(1, 0, 0, 0),
           P(1, 1, 1, 1), P(1, 1, -1, -1), P(1, -1, 1, -1), P(1, -1, -1, 1),
           P(1, 1, 1, -1), P(1, 1, -1, 1), P(1, -1, 1, 1), P(-1, 1, 1, 1)]

# the 12 tetrahedra faces of the standard pencil
FACES_12 = [H(1, -1, 0, 0), H(1, 1, 0, 0), H(0, 0, 1, -1), H(0, 0, 1, 1),
            H(1, 0, 0, -1), H(1, 0, 0, 1), H(0, 1, -1, 0), H(0, 1, 1, 0),
            H(1, 0, -1, 0), H(1, 0, 1, 0), H(0, 1, 0, -1), H(0, 1, 0, 1)]

V = [None] + [[1 if j == i else 0 for j in range(6)] for i in range(1, 7)]


def lin6(*pairs):
    """Coefficient vector from (index, coeff) pairs, indices 1..6."""
    v = [0] * 6
    for i, c in pairs:
        v[i - 1] = c
    return v


ALPHA_PRINTED = [
    [lin6((1, 1)), lin6((2, 1)), lin6((4, 1))],
    [lin6((1, 1)), lin6((3, 1)), lin6((5, 1))],
    [lin6((2, 1)), lin6((3, 1)), lin6((6, 1))],
    [lin6((4, 1)), lin6((5, 1)), lin6((6, 1))],
] + [
    [lin6((1, 1), (2, s2), (4, s4)),
     lin6((1, e), (3, s3), (5, 1)),
     lin6((2, e), (3, t3), (6, 1))]
    for (s2, s4, s3, t3) in [(1, 1, 1, -1), (1, -1, -1, 1),
                             (-1, 1, -1, -1), (-1, -1, 1, 1)]
    for e in (1, -1)
]

BETA_PRINTED = [
    [lin6((1, 1)), lin6((2, 1), (4, s)), lin6((3, 1), (5, s))]
    for s in (1, -1)
] + [
    [lin6((2, 1)), lin6((1, 1), (4, s)), lin6((3, 1), (6, -s))]
    for s in (1, -1)
] + [
    [lin6((3, 1)), lin6((1, 1), (5, s)), lin6((2, 1), (6, s))]
    for s in (1, -1)
] + [
    [lin6((4, 1)), lin6((1, 1), (2, s)), lin6((5, 1), (6, s))]
    for s in (1, -1)
] + [
    [lin6((5, 1)), lin6((1, 1), (3, s)), lin6((4, 1), (6, -s))]
    for s in (1, -1)
] + [
    [lin6((6, 1)), lin6((2, 1), (3, s)), lin6((4, 1), (5, s))]
    for s in (1, -1)
]


def subspace_key(vectors):
    """Canonical key of the row span of integer/rational vectors."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    r, _ = rref(rows)
    return tuple(tuple(row) for row in r if any(row))


def forms_key(forms):
    ring = forms[0].ring
    exps = [g.monomials()[0] for g in ring.gens()]
    return subspace_key([[f.coeffs.get(e, Fraction(0)) for e in exps]
                         for f in forms])


def test_alpha_planes_match_printed_list():
    got = {forms_key(alpha_plane(p)) for p in SING_12}
    expected = {subspace_key(t) for t in ALPHA_PRINTED}
    assert len(expected) == 12
    assert got == expected


def test_beta_planes_match_printed_list():
    got = {forms_key(beta_plane(h)) for h in FACES_12}
    expected = {subspace_key(t) for t in BETA_PRINTED}
    assert len(expected) == 12
    assert got == expected


def test_alpha_plane_annihilates_lines_through_point():
    p = P(1, 2, 3, 5)
    forms = alpha_plane(p)
    for other in (P(1, 0, 0, 0), P(0, 1, 0, 0), P(3, 1, 4, 1)):
        l = plucker_from_points(p, other)
        assert all(eval_plucker_form(f, l) == 0 for f in forms)


def test_beta_plane_annihilates_lines_in_plane():
    h = H(1, 2, 3, 5)
    forms = beta_plane(h)
    pts = [P(2, -1, 0, 0), P(3, 0, -1, 0), P(5, 0, 0, -1)]
    for a in range(3):
        for b in range(a + 1, 3):
            l = plucker_from_points(pts[a], pts[b])
            assert all(eval_plucker_form(f, l) == 0 for f in forms)


def test_alpha_plane_vertex_example():
    forms = alpha_plane(P(1, 0, 0, 0))
    assert forms_key(forms) == subspace_key([lin6((4, 1)), lin6((5, 1)),
                                             lin6((6, 1))])


# ------------------------------------------------- 16 lines, Klein images --

def lines_16():
    """The 16 base-locus lines: V(x+-y, x+-w), V(x+-y, y+-z),
    V(z+-w, x+-w), V(z+-w, y+-z)."""
    first = {"xy": lambda s: (1, s, 0, 0), "zw": lambda s: (0, 0, 1, s)}
    second = {"xw": lambda s: (1, 0, 0, s), "yz": lambda s: (0, 1, s, 0)}
    out = []
    for f in first.values():
        for g in second.values():
            for s1 in (1, -1):
                for s2 in (1, -1):
                    out.append(LineP3.from_planes(ProjPlane(f(s1)),
                                                  ProjPlane(g(s2))))
    return out


def test_sixteen_lines_distinct():
    ls = lines_16()
    assert len(set(ls)) == 16


def test_klein_images_of_16_lines():
    """The Klein images are the 16 points [e1,e2,e3,f1,f2,f3] with
    e_i^2=-1, f_i^2=1 and e1e2e3 + i f1f2f3 = 0 (up to scale)."""
    seen = set()
    for l in lines_16():
        k = klein_from_plucker(l)
        c = [x if isinstance(x, QI) else QI(x) for x in k.coords]
        assert c[0] ** 2 == c[1] ** 2 == c[2] ** 2
        assert c[3] ** 2 == c[4] ** 2 == c[5] ** 2
        assert c[0] ** 2 == -c[3] ** 2
        assert c[0] * c[1] * c[2] + I * c[3] * c[4] * c[5] == QI(0)
        seen.add(k)
    assert len(seen) == 16
