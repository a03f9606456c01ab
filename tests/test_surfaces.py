"""Tests for hypersurface singularity analysis and the quartic models.  The
Cremona quadric through the residual conics and the printed
characteristic-2 Cremona quartic are paper claims that only these tests
check, so their code is here."""

import random
from fractions import Fraction
from itertools import product

import pytest

from desmic_kit.forms import (_chart, hasse_at, node_check, polar_matrix,
                              restrict)
from desmic_kit.matrices import det_poly_matrix
from desmic_kit.poly import MultiPoly, PolyRing
from desmic_kit.projgeom import LineP3, normalize
from desmic_kit.scalars import F4, F4_ELEMENTS, Mod, QI, W, lift
from desmic_kit.surfaces import (
    DESMIC_SINGULAR_12, Form,
    KUMMER2_SIX_POINTS,
    contains_line, cremona_char2_specialized, cremona_cubic_q, cubic_ring,
    desmic_identity_parts, desmic_lines_16,
    desmic_members, desmic_pencil_symbolic, eight_squares_parts,
    kummer_char2_points,
    kummer_char2_quartic,
    local_series,
    rdp_an_type, singular_at, steinerian_equation,
    steinerian_identity_parts, verify_char2_cremona_singular_points)
from desmic_kit.cremona import PROJECTED_NODES_17, projected_quartic
from desmic_kit import surfaces
from claims import (DESMIC_VERTICES_12, mat_apply,
                    projected_24_points_quartic_rank,
                    quartic_rank_of_projection)
from oracles import evaluate, localize_split


# ------------------------------------------------------------- identities --

def test_desmic_tetrahedra_identity():
    lhs, rhs = desmic_identity_parts()
    assert lhs == rhs


def test_eight_squares_identity():
    lhs, rhs = eight_squares_parts()
    assert lhs == rhs


def test_steinerian_identity_char0():
    lhs, rhs = steinerian_identity_parts(0)
    assert lhs == rhs


def test_steinerian_identity_char2():
    lhs, rhs = steinerian_identity_parts(2)
    assert lhs == rhs


# ------------------------------------------------- basic singularity tools --

def test_singular_at_cone():
    ring = PolyRing(["x", "y", "z", "w"])
    x, y, z, w = ring.gens()
    f = Form(x * x + y * y - z * z)

    def value(p):
        return evaluate(f.poly, dict(zip(f.coord_vars, p)))

    assert value((0, 0, 0, 1)) == 0 and singular_at(f, (0, 0, 0, 1))
    assert value((1, 0, 1, 0)) == 0 and not singular_at(f, (1, 0, 1, 0))
    assert value((1, 1, 1, 1)) != 0 and not singular_at(f, (1, 1, 1, 1))


def test_node_check_true_and_false():
    ring = PolyRing(["x", "y", "z", "w"])
    x, y, z, w = ring.gens()
    cone = Form(x * x + y * y + z * z)          # node at (0,0,0,1)
    assert node_check(cone, (0, 0, 0, 1))
    a2 = Form(x * x * w + y * y * w + z ** 3)   # worse-than-node at same point
    assert not node_check(a2, (0, 0, 0, 1))
    with pytest.raises(ValueError):
        node_check(cone, (1, 0, 0, 1))          # smooth point


def test_node_check_char2_formal():
    # x^2 + yz = 0 has an ordinary node at (0,0,0,1) in characteristic 2:
    # the tangent cone x^2 + yz is a smooth quadric there.
    ring = PolyRing(["x", "y", "z", "w"], Mod(1, 2))
    x, y, z, w = ring.gens()
    assert node_check(Form(x * x + y * z), (0, 0, 0, 1))
    # (x+y)^2 = x^2 + y^2 is a double plane: not a node.
    assert not node_check(Form(x * x + y * y), (0, 0, 0, 1))


# ------------------------------------------------ Taylor expansion at p --

def random_form(one, degree, rng):
    """A random nonzero form of the given degree in x, y, z, w."""
    ring = PolyRing(["x", "y", "z", "w"], one)
    while True:
        coeffs = {e: lift(one, rng.randint(-5, 5))
                  for e in product(range(degree + 1), repeat=4)
                  if sum(e) == degree and rng.random() < 0.5}
        f = MultiPoly(ring, coeffs)
        if f:
            return Form(f)


def random_points(one, rng, count):
    """Points with zero coordinates and, over fields larger than F_2, a
    first nonzero coordinate that is not 1."""
    pts = [(0, 0, 0, 1), (0, 1, 0, 0)]
    while len(pts) < count:
        p = tuple(lift(one, rng.choice([0, 0, 1, -1, 2, -3, 5]))
                  for _ in range(4))
        if any(p):
            pts.append(p)
    return pts


def chart_cases(name):
    """(form, points) pairs of one family of inputs."""
    rng = random.Random(name)
    if name == "desmic-pencil":
        return [(desmic_pencil_at(1, 2),
                 DESMIC_SINGULAR_12 + DESMIC_VERTICES_12
                 + [(2, 0, -3, 5), (0, 3, 1, 0), (-1, 2, 2, 7)])]
    if name == "projected-17":
        return [(Form(projected_quartic()),
                 PROJECTED_NODES_17 + [(0, 2, -1, 0, 3)])]
    if name == "cremona-char2":
        return [(cremona_char2_specialized(0, 0, 1, 1),
                 [(0, 0, 0, 1), (W, 1, 0, 1), (0, W * W, 1, W)]),
                (cremona_char2_specialized(1, W, 1, W * W),
                 [(1, 1, W, 0), (0, 0, 1, W)])]
    if name == "kummer-char2":
        return [(kummer_char2_quartic(alpha)[0],
                 KUMMER2_SIX_POINTS + kummer_char2_points())
                for alpha in (F4(1), W)]
    one = {"random-Q": QI(1), "random-F13": Mod(1, 13),
           "random-F3": Mod(1, 3), "random-F2": Mod(1, 2)}[name]
    return [(random_form(one, degree, rng), random_points(one, rng, 6))
            for degree in (2, 3, 4, 4, 5)]


CHART_CASES = ["desmic-pencil", "projected-17", "cremona-char2",
               "kummer-char2", "random-Q", "random-F13", "random-F3",
               "random-F2"]


@pytest.mark.parametrize("name", CHART_CASES)
def test_taylor_chart_agrees_with_substitution_oracle(name):
    for f, pts in chart_cases(name):
        one = f.ring.one
        for p in pts:
            full, _, const_ring = localize_split(f, p)
            point = normalize([lift(one, c) for c in p])
            for degree in range(f.degree + 1):
                chart = _chart(point, hasse_at(f, point, degree))
                assert {e: const_ring.const(c) for e, c in chart.items()} == {
                    e: c for e, c in full.items() if sum(e) <= degree}, \
                    (name, p, degree)
            # the expansion at p itself: value and gradient of f at p
            p = [lift(one, c) for c in p]
            at = dict(zip(f.coord_vars, p))
            n = len(f.coord_vars)
            coeffs = hasse_at(f, p, 1)
            want = {(0,) * n: evaluate(f.poly, at)}
            for k, v in enumerate(f.coord_vars):
                want[tuple(int(m == k) for m in range(n))] = \
                    evaluate(f.poly.diff(v), at)
            assert {e: coeffs.get(e, one * 0) for e in want} == want, (name, p)


# ----------------------------------------------- restriction to a subspace --

RESTRICT_FIELDS = {
    "Q": (QI(1),
          lambda rng: QI(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))),
    "Qi": (QI(1), lambda rng: QI(Fraction(rng.randint(-3, 3),
                                          rng.randint(1, 2)),
                                 rng.randint(-2, 2))),
    "F13": (Mod(1, 13), lambda rng: Mod(rng.randrange(13), 13)),
    "F4": (F4(1), lambda rng: rng.choice(F4_ELEMENTS)),
}


@pytest.mark.parametrize("name", sorted(RESTRICT_FIELDS) + ["desmic-pencil"])
def test_restrict_agrees_with_evaluation(name):
    """restrict(f, V) at random s equals f at sum s_k*v_k, with random
    values for the parameters of f, over seeded random forms and vectors
    whose entries are field elements or plain ints."""
    rng = random.Random(name)
    if name == "desmic-pencil":
        one, draw = RESTRICT_FIELDS["Q"]
        forms = [desmic_pencil_symbolic()]
    else:
        one, draw = RESTRICT_FIELDS[name]
        forms = [random_form(one, degree, rng) for degree in (1, 2, 3, 4)]
    for f in forms:
        params = [v for v in f.ring.varnames if v not in f.coord_vars]
        for count in (1, 2, 3):
            vectors = [[rng.choice((draw(rng), rng.randint(-3, 3)))
                        for _ in f.coord_vars] for _ in range(count)]
            g = restrict(f, vectors)
            names = ["s%d" % k for k in range(count)]
            assert g.ring.varnames == tuple(params + names)
            for _ in range(4):
                s = [draw(rng) for _ in range(count)]
                at = {v: draw(rng) for v in params}
                point = [sum((sk * vec[j] for sk, vec in zip(s, vectors)),
                             one * 0) for j in range(len(f.coord_vars))]
                want = evaluate(f.poly, dict(at, **dict(zip(f.coord_vars,
                                                            point))))
                assert evaluate(g, dict(at, **dict(zip(names, s)))) \
                    == want, (name, vectors, s)


# --------------------------------------------------------------- A_n types --

def an_series(n, one=QI(1)):
    """uv + t^(n+1) in disguise after a linear change of coordinates."""
    ring = PolyRing(["u", "v", "t"], one)
    u, v, t = ring.gens()
    return u * v + t ** (n + 1)


def test_rdp_an_plain():
    for n in (2, 3, 4, 5):
        assert rdp_an_type(an_series(n)) == "A%d" % n


def test_rdp_a1_smooth_cone():
    ring = PolyRing(["u", "v", "t"])
    u, v, t = ring.gens()
    assert rdp_an_type(u * v + t * t + u ** 3) == "A1"


def test_rdp_an_after_coordinate_mixing():
    # (u+t)(v-t) + t^4 + higher mixing
    ring = PolyRing(["u", "v", "t"])
    u, v, t = ring.gens()
    f = (u + t) * (v - t) + t * t + t ** 4 + u * t ** 3
    # quadratic part: uv + ut - vt - t^2 + t^2 = uv + ut - vt, of rank 3,
    # so the tangent cone is a smooth conic: A_1
    assert rdp_an_type(f) == "A1"


# two units c of each field for the absorption family below
ABSORPTION_UNITS = [(QI(1), QI(1)), (QI(1), QI(Fraction(-2, 3))),
                    (Mod(1, 13), Mod(1, 13)), (Mod(1, 13), Mod(5, 13)),
                    (F4(1), F4(1)), (F4(1), W)]


def test_rdp_absorption():
    """f = uv + u t^a + v t^b + c t^n is (u + t^b)(v + t^a) + c t^n - t^(a+b),
    so absorbing the cross terms leaves c t^n - t^(a+b) cut at degree 8.
    Its order k gives A_(k-1); a zero residual, or k - 1 > 6, gives an
    inconclusive verdict."""
    for one, c in ABSORPTION_UNITS:
        u, v, t = PolyRing(["u", "v", "t"], one).gens()
        for a, b, n in product(range(2, 7), range(2, 7), range(3, 10)):
            residual = {n: c}
            residual[a + b] = residual.get(a + b, one * 0) - one
            orders = [k for k, x in residual.items() if x and k <= 8]
            if orders and min(orders) - 1 <= 6:
                want = "A%d" % (min(orders) - 1)
            else:
                want = "inconclusive"
            f = u * v + u * t ** a + v * t ** b + t ** n * c
            assert rdp_an_type(f) == want, (one, c, a, b, n)


def test_rdp_not_a_type():
    ring = PolyRing(["u", "v", "t"])
    u, v, t = ring.gens()
    # rank-1 quadratic part
    assert rdp_an_type(u * u + t ** 3) == "not-A"
    # no quadratic part
    assert rdp_an_type(u ** 3 + v ** 3 + t ** 3) == "not-A"


def test_rdp_char2_irreducible_conic_over_f4():
    # y^2 + yz + z^2 + x^4: irreducible tangent cone over F_2, splits over F_4
    ring = PolyRing(["x", "y", "z"], F4(1))
    x, y, z = ring.gens()
    f = y * y + y * z + z * z + x ** 4
    assert rdp_an_type(f) == "A3"


def test_rdp_rejects_linear_part():
    ring = PolyRing(["u", "v", "t"])
    u, v, t = ring.gens()
    with pytest.raises(ValueError):
        rdp_an_type(u + v * t)


# ---------------------------------------------------------- desmic pencil --

def test_desmic_twelve_singular_points_symbolic():
    for f in desmic_members(desmic_pencil_symbolic()):
        for p in DESMIC_SINGULAR_12:
            assert singular_at(f, p), p


def test_desmic_twelve_nodes_symbolic():
    members = desmic_members(desmic_pencil_symbolic())
    for p in DESMIC_SINGULAR_12:
        assert any(node_check(f, p) for f in members), p


def test_desmic_vertices_not_on_generic_member():
    f = desmic_pencil_symbolic()
    # f(s*p) = s^4 f(p), a nonzero polynomial in a, b and s
    for p in DESMIC_VERTICES_12:
        assert not restrict(f, [p]).is_zero(), p


def test_desmic_sixteen_lines_in_base_locus():
    lines = desmic_lines_16()
    assert len(set(pkey(l.plucker) for l in lines)) == 16
    f = desmic_pencil_symbolic()
    for l in lines:
        assert contains_line(f, l), l.plucker


def pkey(pl):
    lead = next(c for c in pl if c)
    return tuple(c / lead for c in pl)


def test_desmic_lines_closed_under_coordinate_symmetries():
    lines = set(pkey(l.plucker) for l in desmic_lines_16())

    def apply(m):
        out = set()
        for l in desmic_lines_16():
            line = LineP3(mat_apply(m, l.p), mat_apply(m, l.q))
            out.add(pkey(line.plucker))
        return out

    swap_xy = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    cycle = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
    flip_x = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    for m in (swap_xy, cycle, flip_x):
        assert apply(m) == lines


def desmic_pencil_at(a, b):
    """The member of the desmic pencil at rational (a, b), c = -a-b: the
    symbolic pencil with a and b substituted."""
    ring = PolyRing(["x", "y", "z", "w"])
    mapping = dict(zip(ring.varnames, ring.gens()), a=QI(a), b=QI(b))
    return Form(desmic_pencil_symbolic().poly.subst(mapping, ring))


def test_desmic_specialized_member_nodes():
    f = desmic_pencil_at(1, 2)  # c = -3
    for p in DESMIC_SINGULAR_12:
        assert node_check(f, p)


def polar_determinant(f, p):
    """det of the polar matrix of the tangent cone of f at p, a polynomial
    in the parameters, with the chart taken by the substitution oracle."""
    local, _, params = localize_split(f, p)
    q2 = {e: c for e, c in local.items() if sum(e) == 2}
    return det_poly_matrix(polar_matrix(q2, len(f.coord_vars) - 1,
                                        params.const(1)))


# the members a = b, b = -2a and a = -2b, where two of a, b, c are equal
DEGENERATE_MEMBERS = ((1, 1), (1, -2), (-2, 1))


def test_generic_node_verdict_agrees_with_specialized_members():
    """The witness rule of surfaces.GENERIC_WITNESSES against the symbolic
    oracle.  At each of the 12 nodes the polar determinant of the tangent
    cone over Q(i)[a, b] is a nonzero binary cubic, the premise of the
    rule, and it vanishes at the three degenerate members; the rule's
    verdict, a node on one of the four witness members, holds exactly
    where the determinant is nonzero, and at seeded random (a, b) the
    numeric node_check of the member does too."""
    f = desmic_pencil_symbolic()
    members = desmic_members(f)
    rng = random.Random(17)
    samples = list(DEGENERATE_MEMBERS) + [
        (rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(12)]
    samples = [(a, b) for a, b in samples if (a, b) != (0, 0)]
    checked = set()
    for p in DESMIC_SINGULAR_12:
        det = polar_determinant(f, p)
        assert not det.is_zero(), p
        assert {sum(e) for e in det.coeffs} == {3}, (p, det)
        for a, b in DEGENERATE_MEMBERS:
            assert not evaluate(det, {"a": QI(a), "b": QI(b)}), (p, a, b)
        assert any(node_check(m, p) for m in members) \
            == (not det.is_zero()), p
        for a, b in samples:
            nonzero = bool(evaluate(det, {"a": QI(a), "b": QI(b)}))
            assert node_check(desmic_pencil_at(a, b), p) == nonzero, (p, a, b)
            checked.add(nonzero)
    assert checked == {True, False}


@pytest.mark.parametrize("one", [QI(1), Mod(1, 2), Mod(1, 3), F4(1)],
                         ids=["Q", "F2", "F3", "F4"])
def test_taylor_expansion_refuses_a_form_with_parameters(one):
    """A form with parameters has no numeric local test: hasse_table, and
    so hasse_at, singular_at, node_check and local_series, raise in every
    characteristic."""
    ring = PolyRing(["a", "x", "y", "z", "w"], one)
    a, x, y, z, w = ring.gens()
    f = Form(a * x * y * w * w + z ** 4, ("x", "y", "z", "w"))
    for call in (lambda: f.hasse_table(2),
                 lambda: hasse_at(f, [one * 0] * 3 + [one], 2),
                 lambda: singular_at(f, (0, 0, 0, 1)),
                 lambda: node_check(f, (0, 0, 0, 1)),
                 lambda: local_series(f, (0, 0, 0, 1))):
        with pytest.raises(ValueError, match=r"Form\(.*\) has parameters; "
                           "its Taylor expansion needs a numeric form"):
            call()


@pytest.mark.parametrize("one", [Fraction(1), QI(1)], ids=["Q", "Qi"])
def test_binary_quadratic_over_an_infinite_field_is_rejected(one):
    """A quadratic a s^2 + b s t + c t^2 with a*c != 0 is factored by a root
    search, which needs F_4 or a prime field; with a or c zero it factors
    over any field."""
    with pytest.raises(ValueError, match="not enumerable"):
        surfaces._factor_binary_quadratic(one, one * 0, -one, one)
    assert surfaces._factor_binary_quadratic(one * 0, one, one, one) == (
        (one * 0, one), (one, one))


# --------------------------------------------------- tangent-plane pencils --

def proportional(p, q):
    """Polynomial equality up to one nonzero scalar."""
    if set(p.coeffs) != set(q.coeffs):
        return False
    k = None
    for e, c in p.coeffs.items():
        ratio = c / q.coeffs[e]
        if k is None:
            k = ratio
        elif ratio != k:
            return False
    return True


def test_residual_conic_tangency_condition():
    from desmic_kit.surfaces import residual_conic_tangency
    condition, conic, big = residual_conic_tangency(desmic_pencil_symbolic())
    # with c = -a-b the condition for the pencil u(x+y) + v(x+w) through
    # V(x+y, x+w) is u(b-c) + v(a-c) = 0, i.e. (a+2b)u + (2a+b)v = 0
    uab = condition.ring
    a, b, u, v = uab.gens()
    assert proportional(condition, (a + 2 * b) * u + (2 * a + b) * v)
    # residual conic is an honest quadratic in the plane coordinates (s,t,r)
    si, ti, ri = (big.varnames.index(n) for n in ("s", "t", "r"))
    degs = {e[si] + e[ti] + e[ri] for e in conic.coeffs}
    assert degs == {2}


def test_tangent_plane_matches_gradient_oracle():
    # independent check of the tangency condition: along V(x+y, x+w) the
    # gradient of the member at (a,b) = (1,2) is a constant covector, and the
    # plane pencil value u(x+y) + v(x+w) matching it is (u,v) = (4,-5),
    # the root of (a+2b)u + (2a+b)v = 5u + 4v
    f = desmic_pencil_at(1, 2)
    grads = []
    for (s, t) in ((1, 2), (2, 1), (1, 3)):
        vals = {"x": QI(s), "y": QI(-s), "z": QI(t), "w": QI(-s)}
        grads.append([evaluate(f.poly.diff(n), vals)
                      for n in ("x", "y", "z", "w")])
    for g in grads:
        lead = next(c for c in g if c)
        assert [c / lead for c in g] == [1, -4, 0, 5]
    # covector of u(x+y) + v(x+w) at (u,v) = (4,-5): (u+v, u, 0, v)
    u, v = QI(4), QI(-5)
    cov = [u + v, u, QI(0), v]
    lead = cov[0]
    assert [c / lead for c in cov] == [1, -4, 0, 5]


def test_residual_conic_meets_line_in_two_points():
    from desmic_kit.surfaces import residual_conic_tangency
    _, conic, big = residual_conic_tangency(desmic_pencil_symbolic())
    # restrict to the line r = 0 and specialize (a,b) = (1,2): the binary
    # quadratic in (s,t) must have two distinct roots
    ring2 = PolyRing(["s", "t"])
    s, t = ring2.gens()
    mapping = {"a": ring2.const(1), "b": ring2.const(2),
               "s": s, "t": t, "r": ring2.zero()}
    q = conic.subst(mapping, ring2)
    A, B, C = (q.coeffs.get(e, 0) for e in ((2, 0), (1, 1), (0, 2)))
    assert B * B - 4 * A * C != 0


# --------------------------------------------------- Cremona cubic/quartic --

def cremona_quadric(q, al, be, ga):
    """The quadric q + a*yz + b*xz + c*xy - (ab*z + ac*y + bc*x)*w + abc*w^2
    through the three residual conics (a, b, c = al, be, ga, polynomials of
    q's ring)."""
    x, y, z, w = (q.ring.var(n) for n in ("x", "y", "z", "w"))
    return (q + al * y * z + be * x * z + ga * x * y
            - (al * be * z + al * ga * y + be * ga * x) * w
            + al * be * ga * w * w)


def cremona_quartic_char2():
    """The characteristic-2 Cremona quartic as printed,
    F = bcdw^4 + bcw^2xy + bdw^2xz + cdw^2yz + (bx+cy+dz)xyz
        + (aw^2 + bwx + cwy + dwz + x^2 + y^2 + z^2)^2
    over F_2[a,b,c,d], coordinates (x,y,z,w)."""
    ring = cubic_ring(Mod(1, 2))
    a, b, c, d, x, y, z, w = ring.gens()
    F = (b * c * d * w ** 4 + b * c * w ** 2 * x * y + b * d * w ** 2 * x * z
         + c * d * w ** 2 * y * z + (b * x + c * y + d * z) * x * y * z
         + (a * w ** 2 + b * w * x + c * w * y + d * w * z
            + x ** 2 + y ** 2 + z ** 2) ** 2)
    return Form(F, coord_vars=("x", "y", "z", "w"))


def test_cremona_quadric_contains_residual_conics():
    ring = PolyRing(["a", "b", "c", "d", "al", "be", "ga",
                     "x", "y", "z", "w"])
    gens = dict(zip(ring.varnames, ring.gens()))
    q = ((gens["a"] * gens["w"] + gens["b"] * gens["x"]
          + gens["c"] * gens["y"] + gens["d"] * gens["z"]) * gens["w"]
         + gens["x"] ** 2 + gens["y"] ** 2 + gens["z"] ** 2)
    Qd = cremona_quadric(q, gens["al"], gens["be"], gens["ga"])
    # modulo x - al*w the quadric reduces to q + al*yz (the conic's equation)
    diff = Qd - (q + gens["al"] * gens["y"] * gens["z"])
    diff.divexact(gens["x"] - gens["al"] * gens["w"])  # must divide exactly
    diff2 = Qd - (q + gens["be"] * gens["x"] * gens["z"])
    diff2.divexact(gens["y"] - gens["be"] * gens["w"])
    diff3 = Qd - (q + gens["ga"] * gens["x"] * gens["y"])
    diff3.divexact(gens["z"] - gens["ga"] * gens["w"])


def test_steinerian_matches_quartic_expansion():
    # G coincides with the printed quartic discriminant expansion:
    # -(bw+2x)(cw+2y)(dw+2z)w - (bw+2x)(cw+2y)xy - (bw+2x)(dw+2z)xz
    # - (cw+2y)(dw+2z)yz + (2aw+bx+cy+dz)xyz
    # + (aw^2+bwx+cwy+dwz+x^2+y^2+z^2)^2
    ring = PolyRing(["a", "b", "c", "d", "x", "y", "z", "w"])
    a, b, c, d, x, y, z, w = ring.gens()
    q = cremona_cubic_q(ring)
    G = steinerian_equation(q)
    two = ring.const(2)
    B, C, D = b * w + two * x, c * w + two * y, d * w + two * z
    printed = (-B * C * D * w - B * C * x * y - B * D * x * z - C * D * y * z
               + (two * a * w + b * x + c * y + d * z) * x * y * z
               + (a * w ** 2 + b * w * x + c * w * y + d * w * z
                  + x ** 2 + y ** 2 + z ** 2) ** 2)
    assert G == printed


def test_char2_quartic_is_steinerian_mod_2():
    # reducing the characteristic-0 Steinerian mod 2 gives the char-2 quartic
    lhs, _ = steinerian_identity_parts(2)
    ring2 = cremona_quartic_char2().ring
    q2 = cremona_cubic_q(ring2)
    G2 = steinerian_equation(q2)
    assert cremona_quartic_char2().poly == G2


def test_char2_quartic_partials():
    # F'_x = (cy+dz)(yz+bw^2), F'_y = (bx+dz)(xz+cw^2),
    # F'_z = (bx+cy)(xy+dw^2), F'_w = 0
    F = cremona_quartic_char2()
    ring = F.ring
    a, b, c, d, x, y, z, w = ring.gens()
    assert F.poly.diff("x") == (c * y + d * z) * (y * z + b * w ** 2)
    assert F.poly.diff("y") == (b * x + d * z) * (x * z + c * w ** 2)
    assert F.poly.diff("z") == (b * x + c * y) * (x * y + d * w ** 2)
    assert F.poly.diff("w").is_zero()


def test_char2_cremona_singular_points_symbolic():
    verify_char2_cremona_singular_points()


def test_char2_cremona_specialized_a3():
    # at (a,b,c,d) = (0,0,1,1) the extra singular point specializes to
    # (0,0,0,1) and is a rational double point of type A_3
    F = cremona_char2_specialized(0, 0, 1, 1)
    assert singular_at(F, (0, 0, 0, 1))
    s = local_series(F, (0, 0, 0, 1))
    assert rdp_an_type(s) == "A3"


# ------------------------------------------------ characteristic-2 Kummer --

def test_kummer_char2_quartic_report():
    form, lines, verdicts = kummer_char2_quartic()
    assert len(lines) == 4
    assert len(set(l.plucker for l in lines)) == 4
    for l in lines:
        assert contains_line(form, l)
    assert verdicts == ["A3"] * 6


def test_kummer_char2_verdict_is_none_at_a_smooth_point(monkeypatch):
    # (1, 1, 1, 0) is off the surface
    monkeypatch.setattr(surfaces, "KUMMER2_SIX_POINTS",
                        [(1, 1, 1, 0), (1, 1, 0, 0)])
    assert kummer_char2_quartic()[2] == [None, "A3"]


def test_kummer_char2_incidence_6_2_4_3():
    # each of the six points lies on exactly 2 of the 4 lines; each line
    # carries exactly 3 of the 6 points
    from desmic_kit.surfaces import kummer_char2_points
    _, lines, _ = kummer_char2_quartic()
    pts = kummer_char2_points()
    counts_pt = [sum(1 for l in lines if l.contains(p)) for p in pts]
    counts_ln = [sum(1 for p in pts if l.contains(p)) for l in lines]
    assert counts_pt == [2] * 6
    assert counts_ln == [3] * 4


def test_kummer_char2_rejects_zero_alpha():
    with pytest.raises(ValueError):
        kummer_char2_quartic(F4(0))


# ------------------------------------------------------- projection rank --

def test_projected_24_points_give_a_quartic():
    assert projected_24_points_quartic_rank((1, 2, 3, 7)) <= 14


def test_random_24_points_rank_full():
    rng = random.Random(7)
    pts = [tuple(QI(rng.randint(1, 50)) for _ in range(4))
           for _ in range(24)]
    center = tuple(QI(c) for c in (1, 2, 3, 7))
    assert quartic_rank_of_projection(pts, center) == 15


def test_projection_center_on_line_rejected():
    with pytest.raises(ValueError):
        # midpoint trick: center on the line joining two of the nodes
        projected_24_points_quartic_rank((1, 1, 1, -1))
