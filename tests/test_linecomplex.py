"""Tests for the cubic line complex: equations, nodes, planes, symmetries,
scans, the projected quartic threefold, and the Segre identification."""

import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import desmic_kit.cli as cli
import desmic_kit.cremona as cr
import desmic_kit.linecomplex as lc
import desmic_kit.symmetry as sy
from desmic_kit.forms import Form, hasse_at, node_check, polar_matrix
from desmic_kit.lattices import solve_linear
from desmic_kit.matrices import det_poly_matrix, matrix_rank, nullspace
from desmic_kit.poly import PolyRing, proportional_polys
from desmic_kit.projgeom import (PLUCKER_INDEX, LineP3, _orbit,
                                normalize)
from desmic_kit.scalars import I, Mod, QI, lift, one_like, sqrt_minus_one
from desmic_kit.scan import run_scan
from desmic_kit.surfaces import desmic_lines_16
from claims import (klein_change_rows, klein_plane_labels, mat_apply,
                    perm_compose, perm_from_cycles)
from oracles import (associated_cubic_node_lift, dense_contains_point,
                     evaluate, localize_split, monomial_elements_by_exponents,
                     orbit_sizes_by_elements, pairwise_closed,
                     tangent_gram_rank)


def coord_point(j):
    return tuple(1 if k == j else 0 for k in range(4))


def lifted(one, pt):
    return tuple(lift(one, c) for c in pt)


# -- nets and the Montesano condition ---------------------------------------
#
# The line complex is the complex of lines that lie on some quadric of a net
# (Montesano); the verifier takes its equations from the printed Plucker and
# Klein forms, and these tests tie the two descriptions together.

P3_RING = PolyRing(["x", "y", "z", "w"])
SPANNING_RING = PolyRing(["a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4"])


def desmic_nets():
    """The standard net t1*(xy+zw) + t2*(xz+yw) + t3*(xw+yz), and the
    three nets attached to the desmic pencil."""
    x, y, z, w = P3_RING.gens()
    return {"standard": (x * y + z * w, x * z + y * w, x * w + y * z),
            "n1": ((x - y) * (z + w), (x - z) * (y + w), (x - w) * (y + z)),
            "n2": ((x - y) * (z - w), (x - z) * (y - w), (x + w) * (y + z)),
            "n3": (x * x - y * y, x * x - z * z, x * x - w * w)}


def montesano_matrix(net, a, b):
    """3x3 matrix whose determinant detects lines on quadrics of the net:
    the values of the three quadrics at a, at b, and the polar values
    Q(a+b) - Q(a) - Q(b).  Scalar points give constants of the net's ring,
    points with polynomial coordinates give polynomials of their ring."""
    names = net[0].ring.varnames

    def val(q, pt):
        return q.subst(dict(zip(names, pt)))

    ab = [ai + bi for ai, bi in zip(a, b)]
    row_a = [val(q, a) for q in net]
    row_b = [val(q, b) for q in net]
    row_c = [val(q, ab) - ra - rb for q, ra, rb in zip(net, row_a, row_b)]
    return [row_a, row_b, row_c]


def montesano_condition(net, line):
    """True iff the line lies on some quadric of the net (det of the 3x3
    restriction matrix vanishes).  Raises on a degenerate net."""
    if len(net) != 3:
        raise ValueError("net must consist of three quadrics")
    monos = sorted(set(m for q in net for m in q.coeffs))
    zero = net[0].ring.one * 0
    if matrix_rank([[q.coeffs.get(m, zero) for m in monos]
                    for q in net]) != 3:
        raise ValueError("degenerate net")
    one = one_like(net[0].ring.one)
    a = [lift(one, c) for c in line.p]
    b = [lift(one, c) for c in line.q]
    return not det_poly_matrix(montesano_matrix(net, a, b))


def complex_cubic_from_net(net):
    """Equation of the line complex of the net, as a polynomial in the eight
    coordinates a1..a4, b1..b4 of a spanning pair of points: the Montesano
    determinant of the parametric line (a1 u + b1 v, ..., a4 u + b4 v)."""
    gens = SPANNING_RING.gens()
    return det_poly_matrix(montesano_matrix(net, gens[:4], gens[4:]))


def plucker_forms_in_ab():
    """The six Plucker coordinates as polynomials in a1..a4, b1..b4."""
    gens = SPANNING_RING.gens()
    a, b = gens[:4], gens[4:]
    return [a[i] * b[j] - a[j] * b[i] for i, j in PLUCKER_INDEX]


def test_montesano_determinant_gives_the_plucker_cubic():
    det = complex_cubic_from_net(desmic_nets()["standard"])
    ci = lc.CompleteIntersection35.plucker()
    cubic_ab = ci.cubic.poly.subst(
        dict(zip(lc.PLUCKER_NAMES, plucker_forms_in_ab())), SPANNING_RING)
    ok, lam = proportional_polys(det, cubic_ab)
    assert ok and lam


def test_three_desmic_nets_cut_the_same_complex():
    """The three nets attached to the desmic pencil cut out the cubic
    complex of the standard net: equal equations up to a nonzero scalar,
    as polynomials in the spanning-pair coordinates."""
    cubics = {name: complex_cubic_from_net(net)
              for name, net in desmic_nets().items()}
    base = cubics.pop("standard")
    assert set(cubics) == {"n1", "n2", "n3"}
    for name, cubic in cubics.items():
        ok, lam = proportional_polys(cubic, base)
        assert ok and lam, name


def test_montesano_matrix_rows_for_the_standard_net():
    # rows are the printed symmetric functions of the spanning points
    a = [Fraction(v) for v in (2, 3, 5, 7)]
    b = [Fraction(v) for v in (1, 4, 6, 9)]
    m = montesano_matrix(desmic_nets()["standard"], a, b)
    assert m[0] == [a[0] * a[1] + a[2] * a[3], a[0] * a[2] + a[1] * a[3],
                    a[0] * a[3] + a[1] * a[2]]
    assert m[1] == [b[0] * b[1] + b[2] * b[3], b[0] * b[2] + b[1] * b[3],
                    b[0] * b[3] + b[1] * b[2]]
    assert m[2][0] == (a[0] * b[1] + a[1] * b[0] + a[2] * b[3] + a[3] * b[2])
    assert m[2][1] == (a[0] * b[2] + a[1] * b[3] + a[2] * b[0] + a[3] * b[1])
    assert m[2][2] == (a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0])


def test_montesano_tetrahedron_edges_and_base_lines():
    net = desmic_nets()["standard"]
    verts = [coord_point(j) for j in range(4)]
    for a in range(4):
        for b in range(a + 1, 4):
            assert montesano_condition(net, LineP3(verts[a], verts[b]))
    for line in desmic_lines_16():
        assert montesano_condition(net, line)


def test_montesano_random_line_is_outside():
    net = desmic_nets()["standard"]
    line = LineP3([3, 1, 4, 1], [5, 9, 2, 6])
    assert not montesano_condition(net, line)


def test_montesano_rejects_degenerate_net():
    x, y, z, w = P3_RING.gens()
    net = (x * y, x * y + x * y, z * w)
    line = LineP3(coord_point(0), coord_point(1))
    with pytest.raises(ValueError):
        montesano_condition(net, line)


# -- coordinate systems ------------------------------------------------------

def test_klein_change_matches_both_equations():
    """Substituting the Klein linear forms into the Klein equations gives
    the Plucker equations up to nonzero scalars."""
    ci_p = lc.CompleteIntersection35.plucker(QI(1))
    ci_k = lc.CompleteIntersection35.klein(i=I, one=QI(1))
    gens = ci_p.ring.gens()
    mapping = {name: sum((g.scale(c) for g, c in zip(gens, row) if c),
                         ci_p.ring.zero())
               for name, row in zip(lc.KLEIN_NAMES, klein_change_rows(I))}
    ok_q, lam_q = proportional_polys(
        ci_k.quadric.poly.subst(mapping, ci_p.ring), ci_p.quadric.poly)
    ok_c, lam_c = proportional_polys(
        ci_k.cubic.poly.subst(mapping, ci_p.ring), ci_p.cubic.poly)
    assert ok_q and ok_c
    assert lam_q == QI(4)
    assert lam_c


def test_node_lists_correspond_under_the_coordinate_change():
    """The coordinate change maps the 34 Plucker nodes bijectively onto
    the 34 Klein nodes (up to scale)."""
    rows = klein_change_rows(I)
    imgs = {normalize(mat_apply(rows, pt))
            for pt in lc.PLUCKER_NODES_18 + lc.PLUCKER_NODES_16}
    target = {normalize(tuple(lift(Fraction(1), c) for c in p))
              for p in lc.klein_nodes_18() + lc.klein_nodes_16()}
    assert imgs == target and len(imgs) == 34


# -- node inventory -----------------------------------------------------------

def test_node_inventory_plucker_rationals():
    lifts1, lifts2 = lc.verify_node_inventory(
        lc.CompleteIntersection35.plucker(Fraction(1)))
    assert len(lifts1) == 18 and len(lifts2) == 16
    listed = lc.PLUCKER_NODES_18 + lc.PLUCKER_NODES_16
    assert [l[1:] for l in lifts1 + lifts2] \
        == [normalize(lifted(Fraction(1), p)) for p in listed]


def test_node_inventory_klein_gaussian():
    ci = lc.CompleteIntersection35.klein()
    lifts1, lifts2 = lc.verify_node_inventory(ci)
    assert len(lifts1) == 18 and len(lifts2) == 16
    # every lift carries the lambda of a rank-4 restricted quadratic form
    for l in lifts1 + lifts2:
        assert localize_node_report(ci, l[1:]) == (True, 1, -l[0], 4)


def test_node_inventory_prime_fields():
    for p in (13, 17):
        ci = lc.CompleteIntersection35.klein(i=sqrt_minus_one(p),
                                             one=Mod(1, p))
        lifts1, lifts2 = lc.verify_node_inventory(ci)
        assert len(lifts1) == 18 and len(lifts2) == 16
        assert len({normalize(l) for l in lifts1 + lifts2}) == 34


def test_first_points_of_each_family_are_nodes():
    ci = lc.CompleteIntersection35.plucker()
    assert lc.node_lift(ci, (1, 0, 0, 0, 0, 0)) is not None
    assert lc.node_lift(ci, (1, 1, 1, 0, 0, 0)) is not None


def test_off_list_point_fails_the_node_test():
    ci = lc.CompleteIntersection35.plucker()
    # a smooth point of the complex: both equations vanish, Jacobian rank 2
    pt = (0, 1, 0, 0, 0, 1)
    assert localize_node_report(ci, pt)[:3] == (True, 2, None)
    assert lc.node_lift(ci, pt) is None


def test_associated_cubic_is_x0_quadric_plus_cubic():
    ci = lc.CompleteIntersection35.klein()
    f = ci.associated_cubic()
    assert f is ci.associated_cubic()
    assert f.ring.varnames == ("x0",) + lc.KLEIN_NAMES
    x0 = f.ring.var("x0")
    shift = {v: f.ring.var(v) for v in lc.KLEIN_NAMES}
    assert f.poly == x0 * ci.quadric.poly.subst(shift, f.ring) \
        + ci.cubic.poly.subst(shift, f.ring)


def localize_node_report(ci, pt):
    """Oracle: the node test as it was before the Hessian form, as the
    tuple (on both, Jacobian rank, lambda, restricted rank).  It expands
    both equations in the affine chart at the point by substitution
    (`localize_split`) and polarizes the quadratic part of
    cubic - lambda*quadric on the tangent space of the quadric.  Values and
    gradients come from evaluating the equations and their partials;
    lambda is None unless both vanish and the Jacobian has rank 1."""
    one = ci.one
    pt = normalize(lifted(one, pt))
    at = dict(zip(ci.quadric.coord_vars, pt))
    on2 = not evaluate(ci.quadric.poly, at)
    on3 = not evaluate(ci.cubic.poly, at)
    g2, g3 = ([evaluate(g, at) for g in f.partials()]
              for f in (ci.quadric, ci.cubic))
    jrank = matrix_rank([g2, g3])
    if not (on2 and on3) or jrank != 1:
        return on2 and on3, jrank, None, 0
    j = next(k for k, v in enumerate(g2) if v)
    lam = g3[j] / g2[j]
    assert all(b == lam * a for a, b in zip(g2, g3))
    split2, names, _ = localize_split(ci.quadric, pt)
    split3, names3, _ = localize_split(ci.cubic, pt)
    assert names == names3
    n = len(names)
    zero = one * 0

    def coeff(split, le):
        p = split.get(le)
        return zero if p is None else p.coeffs.get(p.ring.zero_exp, zero)

    lin = [zero] * n
    q2 = {}
    for le in set(split2) | set(split3):
        c = coeff(split3, le) - lam * coeff(split2, le)
        d = sum(le)
        assert d >= 2 or not c
        if d == 2 and c:
            q2[le] = c
        if d == 1:
            lin[le.index(1)] = coeff(split2, le)
    assert any(lin), "quadric not smooth at the point"
    tangent = nullspace([lin], one)

    def qval(v):
        total = zero
        for le, c in q2.items():
            t = c
            for vi, ei in zip(v, le):
                for _ in range(ei):
                    t = t * vi
            total = total + t
        return total

    m = len(tangent)
    gram = [[zero] * m for _ in range(m)]
    for a in range(m):
        gram[a][a] = qval(tangent[a]) + qval(tangent[a])
        for b in range(a + 1, m):
            vab = [x + y for x, y in zip(tangent[a], tangent[b])]
            gram[a][b] = gram[b][a] = \
                qval(vab) - qval(tangent[a]) - qval(tangent[b])
    return True, 1, lam, matrix_rank(gram)


def assert_node_reports_agree(ci, pts):
    """node_lift returns (-lambda, p) exactly at the oracle's nodes, with
    the oracle's lambda and the normalized point; and it returns what the
    route through forms.node_check on the associated cubic returns."""
    for pt in pts:
        on_both, jrank, lam, rrank = localize_node_report(ci, pt)
        node = on_both and jrank == 1 and rrank == 4
        want = (-lam,) + normalize(lifted(ci.one, pt)) if node else None
        got = lc.node_lift(ci, pt)
        assert got == want, pt
        assert got == associated_cubic_node_lift(ci, pt), pt


def plucker_quadric_points(one, rng, count):
    """Points of x1*x6 - x2*x5 + x3*x4 = 0, x6 solved from x1..x5."""
    pts = []
    while len(pts) < count:
        x = [one * rng.randint(-5, 5) for _ in range(5)]
        if x[0]:
            pts.append(tuple(x) + ((x[1] * x[4] - x[2] * x[3]) / x[0],))
    return pts


def klein_image(i, pt):
    rows = klein_change_rows(i)
    return tuple(sum((r * c for r, c in zip(row, pt)), i * 0)
                 for row in rows)


def off_list_points(ci, one, i, rng):
    """Smooth points, points off the complex and points of the quadric."""
    quad = plucker_quadric_points(one, rng, 12)
    rand = [tuple(one * rng.randint(-4, 4) for _ in range(6))
            for _ in range(8)]
    rand = [p for p in rand if any(p)]
    smooth = [(0, 1, 0, 0, 0, 1)]
    for plane in lc.plucker_plane_list(one)[3:6]:
        s, t = rng.randint(-3, 3), rng.randint(1, 3)
        smooth.append(tuple(a * s + b * t + c
                            for a, b, c in zip(*plane.basis)))
    if ci.coords == "plucker":
        return smooth + quad + rand
    return [klein_image(i, lifted(one, p)) for p in smooth + quad] \
        + rand


def _node_cases():
    yield pytest.param(Fraction(1), None, False, id="plucker-Q")
    yield pytest.param(QI(1), None, False, id="plucker-Qi")
    yield pytest.param(QI(1), I, False, id="klein-Qi")
    for p in (13, 17, 29):
        yield pytest.param(Mod(1, p), sqrt_minus_one(p), False,
                           id="klein-F%d" % p)
        yield pytest.param(Mod(1, p), sqrt_minus_one(p), True,
                           id="klein-unit-F%d" % p)


@pytest.mark.parametrize("one,i,unit", _node_cases())
def test_node_report_agrees_with_localized_polarization(one, i, unit):
    rng = random.Random(repr(one) + repr(unit))
    if i is None:
        ci = lc.CompleteIntersection35.plucker(one)
        pts = [lifted(one, p)
               for p in lc.PLUCKER_NODES_18 + lc.PLUCKER_NODES_16]
    else:
        ci = lc.CompleteIntersection35.klein(i=i, one=one,
                                             unit_variant=unit)
        pts = lc.klein_nodes_18(i) + lc.klein_nodes_16(i)
        if isinstance(one, Mod):
            _, scanned = lc.scan_singular_points(one.p, unit_variant=unit)
            pts += [lifted(one, p) for p in scanned]
    assert unit or all(lc.node_lift(ci, p) is not None for p in pts)
    assert_node_reports_agree(ci, pts + off_list_points(ci, one, i, rng))


def singular_complete_intersection(one, rng):
    """A complete intersection singular at a random point: the Plucker
    quadric, and a cubic lam*x1*Q + x1*(random quadratic form in x2..x6) +
    (random cubic terms in x2..x6), both moved by a random invertible
    change of coordinates.  At e1 the cubic vanishes and its gradient is
    lam times the quadric's, so the Hessian of the random form decides the
    restricted rank, which ranges over 0..4."""
    ring = PolyRing(list(lc.PLUCKER_NAMES), one)
    x = ring.gens()
    quad = x[0] * x[5] - x[1] * x[4] + x[2] * x[3]
    lam = one * rng.randint(-2, 2)
    cubic = (x[0] * quad).scale(lam) + x[1] * x[2] * x[3]
    for a in range(1, 6):
        for b in range(a, 6):
            if rng.random() < 0.3:
                cubic = cubic + (x[0] * x[a] * x[b]).scale(
                    one * rng.randint(-3, 3))
            if rng.random() < 0.2:
                cubic = cubic + (x[a] * x[b] * x[rng.randrange(1, 6)]).scale(
                    one * rng.randint(-3, 3))
    while True:
        move = [[one * rng.randint(-2, 2) for _ in range(6)]
                for _ in range(6)]
        if matrix_rank(move) == 6:
            break
    mapping = {name: sum((g.scale(c) for g, c in zip(x, row)), ring.zero())
               for name, row in zip(lc.PLUCKER_NAMES, move)}
    forms = [lc.Form(f.subst(mapping, ring)) for f in (quad, cubic)]
    if forms[1].degree != 3:
        return None, None
    point = solve_linear(move, [one] + [one * 0] * 5, one)
    return lc.CompleteIntersection35(forms[0], forms[1], "plucker"), point


def test_complete_intersection_rejects_a_form_with_parameters():
    """The node test reads the parameter-free Hasse coefficients only, so a
    form in a ring with a parameter t is refused, as either equation."""
    x1, x2, x3, x4, x5, x6, t = PolyRing(list(lc.PLUCKER_NAMES) + ["t"],
                                         QI(1)).gens()
    quadric = lc.Form(x1 * x6 - x2 * x5 + x3 * x4, lc.PLUCKER_NAMES)
    cubic = lc.Form(x1 * x2 * x3 + t * x4 * x5 * x6, lc.PLUCKER_NAMES)
    plain = lc.CompleteIntersection35.plucker()
    with pytest.raises(ValueError, match="has parameters"):
        lc.CompleteIntersection35(quadric, plain.cubic, "plucker")
    with pytest.raises(ValueError, match="has parameters"):
        lc.CompleteIntersection35(plain.quadric, cubic, "plucker")


@pytest.mark.parametrize("one", [Fraction(1), Mod(1, 13), Mod(1, 3),
                                 Mod(1, 2)], ids=["Q", "F13", "F3", "F2"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_node_report_agrees_at_singular_points_of_random_intersections(
        one, seed):
    ci, point = singular_complete_intersection(one, random.Random(seed))
    if ci is None:
        return
    assert localize_node_report(ci, point)[:2] == (True, 1)
    assert_node_reports_agree(ci, [point])


# the seeds below reach every restricted rank over each field: 0..4, and
# 0, 2, 4 in characteristic 2, where the polar form is alternating
RANK_SEEDS = 70


@pytest.mark.parametrize("one", [Fraction(1), Mod(1, 2), Mod(1, 3),
                                 Mod(1, 13)], ids=["Q", "F2", "F3", "F13"])
def test_node_reports_agree_at_every_restricted_rank(one):
    ranks = set()
    for seed in range(RANK_SEEDS):
        ci, point = singular_complete_intersection(one, random.Random(seed))
        if ci is None:
            continue
        ranks.add(localize_node_report(ci, point)[3])
        assert_node_reports_agree(ci, [point])
    assert ranks == ({0, 2, 4} if isinstance(one, Mod) and one.p == 2
                     else {0, 1, 2, 3, 4})


def test_node_inventory_makes_two_expansions_per_point(monkeypatch):
    """Per printed point one degree-2 hasse_at of each equation, and no
    node_check on the associated cubic: 68 expansions per coordinate
    system, 136 per run of complex.nodes-34."""
    import desmic_kit.forms as forms
    real = forms.hasse_at
    calls = []

    def counted(f, p, degree):
        calls.append(degree)
        return real(f, p, degree)

    def refused(*args):
        raise AssertionError("node_check called")

    for module in (forms, lc):
        monkeypatch.setattr(module, "hasse_at", counted)
        monkeypatch.setattr(module, "node_check", refused, raising=False)
    for ci in (lc.CompleteIntersection35.plucker(),
               lc.CompleteIntersection35.klein(),
               lc.CompleteIntersection35.klein(i=sqrt_minus_one(13),
                                               one=Mod(1, 13))):
        del calls[:]
        lifts1, lifts2 = lc.verify_node_inventory(ci)
        assert (len(lifts1), len(lifts2)) == (18, 16)
        assert calls == [2] * 68
    del calls[:]
    assert cli.check_complex_nodes()[0] == "pass"
    assert len(calls) == 136


def test_restrict_multiplies_no_polynomials(monkeypatch):
    """restrict expands each term into one exponent dict: the plane
    inventory runs without MultiPoly.subst or MultiPoly.__mul__."""
    from desmic_kit.poly import MultiPoly
    ci = lc.CompleteIntersection35.plucker()

    def refused(*args):
        raise AssertionError("polynomial product or substitution")

    monkeypatch.setattr(MultiPoly, "subst", refused)
    monkeypatch.setattr(MultiPoly, "__mul__", refused)
    per_plane, _, _ = lc.verify_plane_inventory(ci)
    assert per_plane == [(3, 4)] * 24


@pytest.mark.parametrize("one", [Fraction(1), Mod(1, 2), Mod(1, 3),
                                 Mod(1, 13)], ids=["Q", "F2", "F3", "F13"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_bordered_rank_is_the_rank_on_the_kernel(one, seed):
    """The bordered matrix [[H, l^t], [l, 0]], the polar matrix of the
    associated cubic's quadratic part at a lifted node (see node_lift), has
    rank 2 more than H on ker l, for a random symmetric H of random rank
    (alternating in characteristic 2) and a random covector l != 0."""
    rng = random.Random(seed)
    zero = one * 0
    n = rng.randint(1, 6)
    density = rng.choice((0, 0.3, 0.6, 1))
    h = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i != j or one + one) and rng.random() < density:
                h[i][j] = h[j][i] = lift(one, rng.randint(-3, 3))
    lin = [lift(one, rng.randint(-2, 2)) if rng.random() < 0.5 else zero
           for _ in range(n)]
    lin[rng.randrange(n)] = one
    bordered = [row + [l] for row, l in zip(h, lin)] + [lin + [zero]]
    assert matrix_rank(bordered) - 2 == tangent_gram_rank(h, lin, one)


def assert_polar_matrix_is_bordered(ci, pt):
    """In the chart at the pivot of p, with v = x0 + lambda first, the
    polar matrix of the associated cubic's quadratic part at (-lambda, p) is
    the bordered matrix [[H, l^t], [l, 0]] with its border moved first: H is
    the polar matrix of the quadratic part of cubic - lambda*quadric in the
    chart, and l the quadric's gradient there."""
    one = ci.one
    zero = one * 0
    pt = normalize(lifted(one, pt))
    lam = localize_node_report(ci, pt)[2]
    k = next(j for j, c in enumerate(pt) if c)
    t2, t3 = ({e: d[()] for e, d in hasse_at(f, pt, 2).items()}
              for f in (ci.quadric, ci.cubic))
    lin = [t2.get(tuple(int(m == j) for m in range(6)), zero)
           for j in range(6) if j != k]
    q = {e[:k] + e[k + 1:]: t3.get(e, zero) - lam * t2.get(e, zero)
         for e in set(t2) | set(t3) if sum(e) == 2 and not e[k]}
    h = polar_matrix(q, 5, one)
    expansion = hasse_at(ci.associated_cubic(), (-lam,) + pt, 2)
    assert all(sum(e) == 2 for e in expansion)  # singular at the lift
    chart = {e[:k + 1] + e[k + 2:]: d[()] for e, d in expansion.items()
             if not e[k + 1]}
    assert polar_matrix(chart, 6, one) \
        == [[zero] + lin] + [[l] + row for l, row in zip(lin, h)], pt


@pytest.mark.parametrize("one,i", [
    (Fraction(1), None), (QI(1), I), (Mod(1, 13), sqrt_minus_one(13))],
    ids=["plucker-Q", "klein-Qi", "klein-F13"])
def test_polar_matrix_at_a_listed_lift_is_the_bordered_matrix(one, i):
    if i is None:
        ci = lc.CompleteIntersection35.plucker(one)
    else:
        ci = lc.CompleteIntersection35.klein(i=i, one=one)
    for pts in lc._listed_nodes(ci):
        for pt in pts:
            assert_polar_matrix_is_bordered(ci, pt)


@pytest.mark.parametrize("one", [Fraction(1), Mod(1, 2), Mod(1, 3),
                                 Mod(1, 13)], ids=["Q", "F2", "F3", "F13"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_polar_matrix_at_a_random_lift_is_the_bordered_matrix(one, seed):
    ci, point = singular_complete_intersection(one, random.Random(seed))
    if ci is not None:
        assert_polar_matrix_is_bordered(ci, point)


# -- plane inventory ----------------------------------------------------------

def test_plane_inventory_plucker():
    per_plane, per_node1, per_node2 = lc.verify_plane_inventory(
        lc.CompleteIntersection35.plucker())
    assert per_plane == [(3, 4)] * 24
    assert per_node1 == [4] * 18 and per_node2 == [6] * 16


def test_plane_inventory_klein():
    per_plane, per_node1, per_node2 = lc.verify_plane_inventory(
        lc.CompleteIntersection35.klein())
    assert per_node1 == [4] * 18 and per_node2 == [6] * 16
    # each plane holds 3+4 = 7 singular points
    assert per_plane == [(3, 4)] * 24


PLANE_FIELDS = {"Q": (Fraction(1), None), "Qi": (QI(1), I),
                "F13": (Mod(1, 13), sqrt_minus_one(13))}


@pytest.mark.parametrize("case", ["plucker-Q", "plucker-Qi", "klein-Qi",
                                  "klein-F13"])
def test_sparse_plane_incidence_matches_the_dense_product(case):
    coords, field = case.split("-")
    one, i = PLANE_FIELDS[field]
    if coords == "plucker":
        ci = lc.CompleteIntersection35.plucker(one)
        planes = lc.plucker_plane_list(one)
    else:
        ci = lc.CompleteIntersection35.klein(i=i, one=one)
        planes = lc.klein_plane_list(i)
    pts1, pts2 = lc._listed_nodes(ci)
    rng = random.Random(case)
    # a random point of each plane, and random points of P^5
    on_planes = []
    for pl in planes:
        coeffs = [one * rng.randint(1, 3) for _ in pl.basis]
        on_planes.append(tuple(
            sum((c * b[j] for c, b in zip(coeffs, pl.basis)), one * 0)
            for j in range(6)))
    rand = [tuple(one * rng.randint(-3, 3) for _ in range(6))
            for _ in range(60)]
    pts = pts1 + pts2 + on_planes + [p for p in rand if any(p)]
    sparse = [[pl.contains_point(p) for p in pts] for pl in planes]
    assert sparse == [[dense_contains_point(pl, p) for p in pts]
                      for pl in planes]
    # 7 nodes on each plane, and each plane's random point on it
    assert [row[:34].count(True) for row in sparse] == [7] * 24
    assert all(row[34 + k] for k, row in enumerate(sparse))
    off_every_plane = [k for k in range(58, len(pts))
                       if not any(row[k] for row in sparse)]
    assert len(off_every_plane) >= 40


def test_klein_planes_biject_with_the_printed_labels():
    labels = klein_plane_labels()
    assert len(labels) == 24
    assert sorted(lab for kind, lab in labels) == sorted(
        lc.ALPHA_LABELS + lc.BETA_LABELS)


def test_incidence_coset_example():
    """The point (i,0,0,0,0,1) in Klein coordinates lies in exactly four
    planes; their permutation labels form a single coset of the subgroup
    generated by (12) and (34) (left or right depending on the composition
    convention)."""
    pt = (I, QI(0), QI(0), QI(0), QI(0), QI(1))
    hit = [lab for pl, lab in zip(lc.klein_plane_list(), klein_plane_labels())
           if pl.contains_point(pt)]
    assert sorted(lab for _, lab in hit) == ["(13)", "(132)", "(143)",
                                             "(1432)"]
    perms = {perm_from_cycles(lab) for _, lab in hit}
    h1 = {perm_from_cycles(s) for s in ("1", "(12)", "(34)", "(12)(34)")}
    g = next(iter(perms))
    assert perms in ({perm_compose(g, h) for h in h1},
                     {perm_compose(h, g) for h in h1})


# -- symmetry group -----------------------------------------------------------

def test_monomial_symmetry_group():
    rep = sy.monomial_symmetry_group()
    assert rep.order == 1152
    assert rep.node_orbit_sizes == [16, 18]
    assert rep.plane_orbit_count == 1
    assert sy.G0 in rep.elements
    assert rep.closed


def test_orbit_leaving_the_keys_raises():
    with pytest.raises(ValueError, match="orbit of 1 leaves"):
        sy._orbit_sizes([1], [0, 1], lambda g, k: k + g)


def test_orbit_of_a_finite_group_raises_outside_the_keys():
    # Z/3 acting on itself leaves the keys {0, 1} at 2
    with pytest.raises(ValueError, match="orbit of 0 leaves"):
        sy._orbit_sizes([0, 1], [1], lambda g, k: (k + g) % 3)


def test_orbit_searches_along_every_generator():
    calls = []

    def add(g, x):
        calls.append(g)
        return (x + g) % 12

    # 4 and 6 generate the even residues mod 12; either alone does not
    assert _orbit(0, [4, 6], add) == {0, 2, 4, 6, 8, 10}
    assert len(calls) == 6 * 2


@pytest.fixture(scope="module")
def symmetry_group():
    return sy.monomial_symmetry_group().elements


def _closure_test_sets(group):
    """S, its order-576 subgroup preserving the two coordinate blocks, S
    minus one element, and that subgroup plus one element of S."""
    blocks = {el for el in group if set(el[0][:3]) == {0, 1, 2}}
    last = max(group)
    swap = min(group - blocks)
    return {"S": group, "blocks": blocks, "S-1": group - {last},
            "blocks+1": blocks | {swap}}


@pytest.mark.parametrize("name,closed", [("S", True), ("blocks", True),
                                         ("S-1", False),
                                         ("blocks+1", False)])
def test_generator_closure_agrees_with_pairwise_oracle(symmetry_group, name,
                                                       closed):
    """The closure test group == elements holds exactly when the set is
    pairwise closed and holds the block swap G0: blocks is closed but
    lacks G0."""
    elements = _closure_test_sets(symmetry_group)[name]
    group = _orbit(sy.ONE, sy.GENERATORS, sy._compose_elements)
    assert pairwise_closed(elements, sy._compose_elements) is closed
    assert (group == elements) is (closed and sy.G0 in elements)


def test_no_three_generators_generate_the_fourth():
    orders = []
    for k, gen in enumerate(sy.GENERATORS):
        rest = sy.GENERATORS[:k] + sy.GENERATORS[k + 1:]
        subgroup = _orbit(sy.ONE, rest, sy._compose_elements)
        assert gen not in subgroup
        orders.append(len(subgroup))
    assert orders == [288, 128, 72, 24]


@pytest.mark.parametrize("k", range(4))
def test_dropping_a_generator_fails_the_group_check(monkeypatch, k):
    monkeypatch.setattr(sy, "GENERATORS",
                        sy.GENERATORS[:k] + sy.GENERATORS[k + 1:])
    assert not sy.monomial_symmetry_group().closed
    status, details = cli.check_symmetry()
    assert status == "fail"
    assert details.startswith("monomial symmetry group does not close at "
                              "order 1152 ")


def test_block_swap_with_even_flips_is_refused(monkeypatch):
    # the block swap keeps the quadric, but the cubic needs odd flips
    bad = ((3, 4, 5, 0, 1, 2), (0,) * 6)
    monkeypatch.setattr(sy, "GENERATORS", sy.GENERATORS[:3] + (bad,))
    with pytest.raises(ValueError, match=re.escape(
            "monomial element %s does not preserve the cubic" % (bad,))):
        sy.monomial_symmetry_group()


def test_signed_permutations_agree_with_exponent_filter_oracle(
        symmetry_group):
    oracle = monomial_elements_by_exponents()
    # every survivor of the filter is a signed permutation: i^2 = -1
    assert all(e % 2 == 0 for _, exps in oracle for e in exps)
    signs = {(pi, tuple(e // 2 for e in exps)) for pi, exps in oracle}
    assert signs == symmetry_group
    # the parity condition with one bit flipped keeps the order 1152 and
    # takes the other half of the sign choices: the comparison sees it
    mutant = {(pi, flips[:5] + (1 - flips[5],))
              for pi, flips in symmetry_group}
    assert len(mutant) == len(signs) == 1152
    assert not mutant & signs


def test_orbit_sizes_agree_with_every_element_oracle(symmetry_group):
    node_keys = [normalize(p)
                 for p in lc.klein_nodes_18() + lc.klein_nodes_16()]
    plane_keys = [lc._span_key(pl.basis) for pl in lc.klein_plane_list()]
    for keys, action in ((node_keys, sy._apply_point),
                         (plane_keys, sy._apply_plane)):
        assert sorted(sy._orbit_sizes(keys, sy.GENERATORS, action)) == \
            orbit_sizes_by_elements(keys, symmetry_group, action)


def test_invariance_is_checked_on_the_generators_only(monkeypatch):
    calls = []
    check = sy._element_preserves
    monkeypatch.setattr(sy, "_element_preserves",
                        lambda el, form: calls.append(el) or check(el, form))
    sy.monomial_symmetry_group()
    # both equations on each of the 4 generators, not on all 1152 elements
    assert calls == [g for g in sy.GENERATORS for _ in range(2)]


# -- scans over prime fields --------------------------------------------------

def brute_force_scan(p, c):
    """Reference enumeration of the singular points over P^5(F_p), O(p^4):
    leading coordinate 1, earlier ones 0, the middle ones lexicographic and
    the last one solved from the quadric."""
    roots = [[] for _ in range(p)]
    for z in range(p):
        roots[z * z % p].append(z)
    found = []
    for lead in range(5):
        prefix = (0,) * lead + (1,)
        for mid in product(range(p), repeat=4 - lead):
            base = 1 + sum(m * m for m in mid)
            for last in roots[-base % p]:
                z = prefix + mid + (last,)
                if (z[0] * z[1] * z[2] + c * z[3] * z[4] * z[5]) % p:
                    continue
                g = (z[1] * z[2], z[0] * z[2], z[0] * z[1],
                     c * z[4] * z[5], c * z[3] * z[5], c * z[3] * z[4])
                if all((z[a] * g[b] - z[b] * g[a]) % p == 0
                       for a in range(6) for b in range(a + 1, 6)):
                    found.append(z)
    return found


def _oracle_cases():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        yield pytest.param(p, 1, id="p%d-1" % p)
        yield pytest.param(p, p - 1, id="p%d-minus1" % p)
        if p % 4 == 1:
            yield pytest.param(p, sqrt_minus_one(p).v, id="p%d-sqrt-1" % p)


@pytest.mark.parametrize("p,c", _oracle_cases())
def test_scan_agrees_with_brute_force(p, c):
    assert run_scan(p, c) == brute_force_scan(p, c)


def test_scan_counts_34_and_18():
    for p in (13, 17, 10009):
        count, pts = lc.scan_singular_points(p)
        assert count == 34 and len(set(pts)) == 34
        count_u, pts_u = lc.scan_singular_points(p, unit_variant=True)
        assert count_u == 18 and len(set(pts_u)) == 18


def test_scan_finds_exactly_the_printed_points_mod_13():
    p = 13
    i = sqrt_minus_one(p)
    printed = {tuple(c.v for c in normalize(pt))
               for pt in lc.klein_nodes_18(i) + lc.klein_nodes_16(i)}
    _, pts = lc.scan_singular_points(p)
    assert set(pts) == printed


def test_scan_count_stable_at_29():
    count, _ = lc.scan_singular_points(29)
    assert count == 34


# -- projection and rationality ----------------------------------------------

def test_projected_quartic_identities_nodes_and_lines():
    for lhs, rhs in cr.projection_identity_parts():
        assert lhs == rhs
    form = Form(cr.projected_quartic())
    assert len(cr.PROJECTED_NODES_17) == 17
    assert all(node_check(form, p) for p in cr.PROJECTED_NODES_17)
    assert all(cr.line_singular_on(form, covs)
               for covs in cr.SINGULAR_LINES_4)


def test_rationality_planes(monkeypatch):
    cr.verify_rationality_planes()
    # x1 = x2 = 0 leaves the term x3*x4^2*x5 of the quartic
    monkeypatch.setattr(cr, "RATIONALITY_PLANES", [
        ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))] + cr.RATIONALITY_PLANES[1:])
    with pytest.raises(ValueError, match="rationality plane 0 is not on "
                       "the quartic threefold"):
        cr.verify_rationality_planes()


# -- the 35-nodal cubic -------------------------------------------------------

def test_segre_change_of_variables():
    out = cr.segre_isomorphism_check()
    assert out["lambda"] == QI(24)
    assert out["nodes_mod_p"] == 35


def test_segre_counts_only_lifts_that_pass_node_check(monkeypatch):
    """The 35 nodes are counted by node_check on the cubic itself: a lift
    that it rejects drops the count, and a lift at which the cubic is not
    singular raises."""
    one = Mod(1, cr.SEGRE_PRIME)
    i = sqrt_minus_one(cr.SEGRE_PRIME)
    ci = lc.CompleteIntersection35.klein(i=i, one=one)
    first = lc.node_lift(ci, lc.klein_nodes_18(i)[0])
    real = cr.node_check
    monkeypatch.setattr(cr, "node_check",
                        lambda f, p: p != first and real(f, p))
    assert cr.segre_isomorphism_check()["nodes_mod_p"] == 34
    monkeypatch.setattr(cr, "node_check", real)

    inventory = lc.verify_node_inventory

    def moved(ci):
        lifts1, lifts2 = inventory(ci)
        return [(lifts1[0][0] + 1,) + lifts1[0][1:]] + lifts1[1:], lifts2

    monkeypatch.setattr(cr, "verify_node_inventory", moved)
    with pytest.raises(ValueError, match="is not singular on the form"):
        cr.segre_isomorphism_check()
