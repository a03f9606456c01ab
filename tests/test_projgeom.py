"""Tests for P^3 geometry: Plucker/Klein coordinates, involutions, and the
three-tetrahedra construction.  The Klein image of a line, the involutions,
the three tetrahedra and the alpha/beta planes are paper claims that only
these tests check, so their code is here."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from desmic_kit.matrices import matrix_rank, nullspace, rref, solve_linear
from desmic_kit.poly import PolyRing
from desmic_kit.projgeom import LineP3, normalize
from desmic_kit.scalars import (F4, QI, I, Mod, W, char_of, field_i, lift,
                                one_like, sqrt_minus_one)
from claims import klein_change_rows, mat_apply
from oracles import evaluate


def P(*c):
    """A point, or a plane by its covector: the coordinates lifted into the
    rationals."""
    return tuple(lift(Fraction(1), x) for x in c)


H = P


def on_plane(h, pt):
    return not sum(a * x for a, x in zip(h, pt))


# ------------------------------------------------------------------ lines --

def test_plucker_coordinate_edge():
    l = LineP3(P(1, 0, 0, 0), P(0, 1, 0, 0))
    assert normalize(l.plucker) == (Fraction(1), 0, 0, 0, 0, 0)


def test_plucker_dependent_points_rejected():
    with pytest.raises(ValueError):
        LineP3(P(1, 2, 3, 4), P(2, 4, 6, 8))


def test_plucker_independent_of_spanning_pair():
    l1 = LineP3(P(1, -1, 0, 0), P(0, 0, 1, -1))
    l2 = LineP3(P(1, -1, 1, -1), P(2, -2, -1, 1))
    assert normalize(l1.plucker) == normalize(l2.plucker)


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "pickle-0": lambda x: pickle.loads(pickle.dumps(x, 0)),
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_line_survives_copy_and_pickle(how):
    """A line comes back with the same spanning points, Plucker key and
    repr, over Q, Q(i), F_13 and F_4, and stays immutable."""
    trip = ROUND_TRIPS[how]
    o, z = F4(1), F4(0)
    lines = [LineP3((1, 0, 0, 0), (0, 1, 0, 0)),
             LineP3((3, 1, 4, 1), (Fraction(5, 2), 9, 2, 6)),
             LineP3((I, 1, 0, 2), (0, QI(1, -1), 1, 0)),
             LineP3([Mod(c, 13) for c in (1, 2, 3, 4)],
                    [Mod(c, 13) for c in (0, 1, 5, 7)]),
             LineP3([o, z, z, z], [z, W, z, o])]
    for line in lines:
        back = trip(line)
        assert type(back) is LineP3
        assert (back.p, back.q) == (line.p, line.q)
        assert normalize(back.plucker) == normalize(line.plucker)
        assert repr(back) == repr(line)
        with pytest.raises(AttributeError):
            back.p = line.q


def klein_from_plucker(line, i=None):
    """The Klein point K * plucker of a line, K = klein_change_rows(i).

    The ambient field must contain i; by default i is field_i of the
    Plucker field, so rational coordinates go to the Gaussian rationals
    and prime fields need p = 1 mod 4."""
    if i is None:
        i = field_i(one_like(line.plucker[0]))
    return mat_apply(klein_change_rows(i), line.plucker)


coords = st.integers(-4, 4)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[coords] * 4), st.tuples(*[coords] * 4))
def test_plucker_relation_always(a, b):
    try:
        l = LineP3(a, b)
    except ValueError:
        return
    p12, p13, p14, p23, p24, p34 = l.plucker
    assert p12 * p34 - p13 * p24 + p14 * p23 == 0


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[coords] * 4), st.tuples(*[coords] * 4))
def test_klein_image_on_sum_of_squares_quadric(a, b):
    try:
        l = LineP3(a, b)
    except ValueError:
        return
    k = klein_from_plucker(l)
    s = QI(0)
    for c in k:
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
        p, q = ([one * rng.randint(-4, 4) for _ in range(4)]
                for _ in range(2))
        try:
            line = LineP3(p, q)
        except ValueError:
            continue
        lines += 1
        want = tuple(sum((a * x for a, x in zip(row, line.plucker)), one * 0)
                     for row in rows)
        for k in (klein_from_plucker(line, i), klein_from_plucker(line)):
            assert k == want


def test_klein_from_plucker_needs_a_square_root_of_minus_one():
    o, z = F4(1), F4(0)
    line = LineP3([o, z, z, z], [z, W, z, z])
    with pytest.raises(ValueError, match="square root of -1"):
        klein_from_plucker(line)


def test_line_from_planes():
    l = LineP3.from_planes(H(1, 1, 0, 0), H(0, 0, 1, 1))
    # both spanning points lie in both planes
    for pt in (l.p, l.q):
        assert on_plane(H(1, 1, 0, 0), pt)
        assert on_plane(H(0, 0, 1, 1), pt)


# ------------------------------------------------------------- involutions --

def harmonic_homology(a, c):
    """Matrix of the harmonic homology with axis plane a (a covector) and
    center c.

    Involutive up to scalar; fixes the axis pointwise and the center.
    Requires characteristic != 2 and the center off the axis.
    """
    if char_of(next(c for c in a if c)) == 2:
        raise ValueError("harmonic homology undefined in characteristic 2")
    s = sum((ai * ci for ai, ci in zip(a, c)), a[0] * 0)
    if not s:
        raise ValueError("center lies on the axis")
    n = len(a)
    return [[(s if i == j else s * 0) - 2 * c[i] * a[j] for j in range(n)]
            for i in range(n)]


def edge_involution(edge1, edge2):
    """Involution fixing two opposite coordinate edges of V(xyzw) pointwise.

    Edges are given as the pairs of coordinate indices that vanish on them,
    e.g. (0,1) is the edge x=y=0.  Returns a diagonal sign matrix.
    """
    s1, s2 = set(edge1), set(edge2)
    if len(s1) != 2 or len(s2) != 2 or (s1 | s2) != {0, 1, 2, 3} or (s1 & s2):
        raise ValueError("not a pair of opposite coordinate edges")
    diag = [Fraction(1) if i in s1 else Fraction(-1) for i in range(4)]
    return [[diag[i] if i == j else Fraction(0) for j in range(4)]
            for i in range(4)]


OPPOSITE_EDGE_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))

COORD_VERTICES = tuple(P(*[1 if i == j else 0 for j in range(4)])
                       for i in range(4))
COORD_FACES = COORD_VERTICES


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
    m = harmonic_homology(H(*ac), P(*cc))
    sq = [[sum(m[i][k] * m[k][j] for k in range(4)) for j in range(4)]
          for i in range(4)]
    lam = sq[0][0]
    assert lam != 0
    assert sq == [[lam if i == j else 0 for j in range(4)] for i in range(4)]
    # axis fixed pointwise, center fixed
    assert normalize(mat_apply(m, P(*cc))) == normalize(P(*cc))


def test_edge_involution_matrix():
    m = edge_involution((0, 1), (2, 3))
    assert [m[i][i] for i in range(4)] == [1, 1, -1, -1]
    with pytest.raises(ValueError):
        edge_involution((0, 1), (1, 2))


def test_edge_involution_fixes_both_edges():
    m = edge_involution((0, 2), (1, 3))
    for pt in (P(0, 1, 0, 5), P(0, 3, 0, -2), P(1, 0, 4, 0)):
        assert normalize(mat_apply(m, pt)) == normalize(pt)


def test_edge_involutions_generate_second_tetrahedron():
    imgs = {normalize(mat_apply(edge_involution(e1, e2), P(1, 1, 1, 1)))
            for e1, e2 in OPPOSITE_EDGE_PAIRS}
    assert imgs == {normalize(P(1, -1, -1, 1)), normalize(P(1, -1, 1, -1)),
                    normalize(P(1, 1, -1, -1))}


def test_harmonic_homologies_generate_third_tetrahedron():
    imgs = {normalize(mat_apply(harmonic_homology(COORD_FACES[i],
                                                  COORD_VERTICES[i]),
                                P(1, 1, 1, 1))) for i in range(4)}
    assert imgs == {normalize(P(-1, 1, 1, 1)), normalize(P(1, -1, 1, 1)),
                    normalize(P(1, 1, -1, 1)), normalize(P(1, 1, 1, -1))}


# ------------------------------------------------------ desmic construction --

def linear_form(ring, coeffs):
    """The linear form sum c_k x_k in the generators x_k of the ring."""
    return sum((x.scale(ring.one * c) for x, c in zip(ring.gens(), coeffs)
                if c), ring.zero())


def desmic_from_point(p):
    """From a point P off the coordinate tetrahedron, build the second and
    third tetrahedra (via the three edge involutions and the four harmonic
    homologies) and test whether xyzw, the face product of T', and the face
    product of T'' span a pencil (rank 2).

    Returns (t1_vertices, t2_vertices, verdict) where verdict is a dict with
    the three product quartics, the dependence flag, and -- when dependent --
    coefficients (s, t) with -16*xyzw = s*prod' + t*prod''.
    """
    if any(not c for c in p):
        raise ValueError("point lies on a face of the coordinate tetrahedron")
    t1 = [p] + [mat_apply(edge_involution(e1, e2), p)
                for e1, e2 in OPPOSITE_EDGE_PAIRS]
    t2 = [mat_apply(harmonic_homology(COORD_FACES[i], COORD_VERTICES[i]), p)
          for i in range(4)]

    ring = PolyRing(["x", "y", "z", "w"], one_like(p[0]))
    xs = ring.gens()

    def face_product(vertices):
        """The product of the four face planes, each scaled so that its
        first nonzero coefficient is 1."""
        prod = ring.const(1)
        for skip in range(4):
            face = nullspace([list(v) for k, v in enumerate(vertices)
                              if k != skip], ring.one)
            if len(face) != 1:
                raise ValueError("points do not span a plane")
            prod = prod * linear_form(ring, normalize(face[0]))
        return prod

    q0 = xs[0] * xs[1] * xs[2] * xs[3]
    q1 = face_product(t1)
    q2 = face_product(t2)

    monos = sorted(set(q0.coeffs) | set(q1.coeffs) | set(q2.coeffs))
    one = ring.one
    rows = [[q.coeffs.get(m, one * 0) for m in monos] for q in (q0, q1, q2)]
    dependent = matrix_rank(rows) <= 2
    result = {"quartics": (q0, q1, q2), "dependent": dependent}
    if dependent:
        cols = [[q1.coeffs.get(m, one * 0), q2.coeffs.get(m, one * 0)]
                for m in monos]
        rhs = [one * (-16) * q0.coeffs.get(m, one * 0) for m in monos]
        sol = solve_linear(cols, rhs, one)
        if sol is not None:
            result["coefficients"] = tuple(sol)
    return t1, t2, result


def test_desmic_from_point_symmetric():
    t1, t2, verdict = desmic_from_point(P(1, 1, 1, 1))
    assert {normalize(v) for v in t1} == {
        normalize(P(*c)) for c in ((1, 1, 1, 1), (1, -1, -1, 1),
                                   (1, -1, 1, -1), (1, 1, -1, -1))}
    assert {normalize(v) for v in t2} == {
        normalize(P(*c)) for c in ((-1, 1, 1, 1), (1, -1, 1, 1),
                                   (1, 1, -1, 1), (1, 1, 1, -1))}
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

PLUCKER_RING = PolyRing(["x1", "x2", "x3", "x4", "x5", "x6"])


def alpha_plane(p):
    """Three independent linear Plucker forms cutting the plane of lines
    through p.  For p=[a,b,c,d] the classical forms are

    -c*p12 + b*p13 - a*p23,  d*p13 - c*p14 + a*p34,  d*p12 - b*p14 + a*p24;

    for special positions (e.g. coordinate vertices) some of these collapse,
    so the fourth incidence form d*p23 - c*p24 + b*p34 completes the set.
    """
    a, b, c, d = p
    z = a * 0
    return independent_triple([[-c, b, z, -a, z, z], [z, d, -c, z, z, a],
                               [d, z, -b, z, a, z], [z, z, z, d, -c, b]])


def beta_plane(h):
    """Three independent linear Plucker forms cutting the plane of lines
    contained in the plane h.

    Derived from the exact incidence condition P.u = 0 where P is the
    antisymmetric Plucker matrix of the line and u the plane covector; the
    first three independent rows are returned.
    """
    a, b, c, d = h
    z = a * 0
    return independent_triple([[b, c, d, z, z, z], [-a, z, z, c, d, z],
                               [z, -a, z, -b, z, d], [z, z, -a, z, -b, -c]])


def independent_triple(rows):
    """The linear Plucker forms of the first three linearly independent
    coefficient rows, in order."""
    chosen = []
    for r in rows:
        if matrix_rank(chosen + [r]) > len(chosen):
            chosen.append(r)
        if len(chosen) == 3:
            return tuple(linear_form(PLUCKER_RING, r) for r in chosen)
    raise ValueError("degenerate input")


def vanishes_on(form, line):
    """Whether a linear Plucker form vanishes at the line."""
    return not evaluate(form, dict(zip(PLUCKER_RING.varnames, line.plucker)))


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
        l = LineP3(p, other)
        assert all(vanishes_on(f, l) for f in forms)


def test_beta_plane_annihilates_lines_in_plane():
    h = H(1, 2, 3, 5)
    forms = beta_plane(h)
    pts = [P(2, -1, 0, 0), P(3, 0, -1, 0), P(5, 0, 0, -1)]
    for a in range(3):
        for b in range(a + 1, 3):
            l = LineP3(pts[a], pts[b])
            assert all(vanishes_on(f, l) for f in forms)


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
                    out.append(LineP3.from_planes(f(s1), g(s2)))
    return out


def test_sixteen_lines_distinct():
    ls = lines_16()
    assert len({normalize(l.plucker) for l in ls}) == 16


def test_klein_images_of_16_lines():
    """The Klein images are the 16 points [e1,e2,e3,f1,f2,f3] with
    e_i^2=-1, f_i^2=1 and e1e2e3 + i f1f2f3 = 0 (up to scale)."""
    seen = set()
    for l in lines_16():
        k = klein_from_plucker(l)
        c = [x if isinstance(x, QI) else QI(x) for x in k]
        assert c[0] ** 2 == c[1] ** 2 == c[2] ** 2
        assert c[3] ** 2 == c[4] ** 2 == c[5] ** 2
        assert c[0] ** 2 == -c[3] ** 2
        assert c[0] * c[1] * c[2] + I * c[3] * c[4] * c[5] == QI(0)
        seen.add(normalize(k))
    assert len(seen) == 16
