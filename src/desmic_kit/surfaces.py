"""Hypersurface singularity analysis and concrete quartic/cubic models:
the desmic pencil, Cremona's quartic (characteristic 0 and 2), the
characteristic-2 Kummer quartic, and the Steinerian identities.  Form,
taylor and polar_matrix, which linecomplex shares, live in forms.
"""

from fractions import Fraction

from .forms import Form, polar_matrix, taylor
from .matrices import det_poly_matrix, nullspace
from .poly import MultiPoly, PolyRing, coeff_in, prem
from .projgeom import LineP3
from .scalars import F4_ELEMENTS, F4, Mod, lift, one_like


class SingularPointReport:
    """Per-point singularity data for a Form."""

    def __init__(self, point, on_hypersurface, jacobian_rank, is_singular,
                 node=None, an_type=None, details=""):
        self.point = point
        self.on_hypersurface = on_hypersurface
        self.jacobian_rank = jacobian_rank
        self.is_singular = is_singular
        self.node = node
        self.an_type = an_type
        self.details = details

    def __repr__(self):
        return ("SingularPointReport(point=%r, singular=%r, node=%r, an=%r)"
                % (self.point, self.is_singular, self.node, self.an_type))


def singular_at(f, p):
    """Value and gradient of f at p, read from its degree-1 Taylor
    expansion; a partial that vanishes identically (as x^2 does in
    characteristic 2) contributes nothing."""
    point = list(p)
    coeffs = taylor(f, point, 1)
    on = (0,) * len(point) not in coeffs
    jac_rank = 1 if any(sum(e) == 1 for e in coeffs) else 0
    return SingularPointReport(point, on, jac_rank,
                               is_singular=on and jac_rank == 0)


def _chart(f, p, degree):
    """Taylor coefficients of f in the affine chart at p, up to `degree`.

    The chart fixes the pivot x_k = 1 (k the first nonzero coordinate of
    p) and puts x_i = p_i/p_k + u_i elsewhere, so of the expansion at the
    normalized point only the terms with e[k] = 0 remain; their exponent
    tuples are returned with slot k dropped."""
    point = [lift(f.ring.one, c) for c in p]
    k = next(i for i, c in enumerate(point) if c)
    point = [c / point[k] for c in point]
    return {e[:k] + e[k + 1:]: c for e, c in taylor(f, point, degree).items()
            if not e[k]}


def quadratic_part_smooth(q2_coeffs, nvars, one):
    """Geometric smoothness of the projective quadric defined by a quadratic
    form in `nvars` variables over an exact field (char-2 robust).

    q2_coeffs: dict exponent-tuple -> field element.  The test: let N be the
    kernel of the polar matrix (the common kernel of the formal partials);
    the quadric is smooth iff N = 0, or dim N = 1 with q2 nonvanishing on
    the kernel line.
    """
    if not q2_coeffs:
        return False
    ker = nullspace(polar_matrix(q2_coeffs, nvars, one), one)
    if not ker:
        return True
    if len(ker) >= 2:
        return False
    w = ker[0]
    val = one * 0
    for e, c in q2_coeffs.items():
        t = c
        for wi, ei in zip(w, e):
            for _ in range(ei):
                t = t * wi
        val = val + t
    return bool(val)


def node_check(f, p):
    """True iff p is an ordinary node of V(f): the degree-2 part of f in an
    affine chart at p defines a smooth quadric (Jacobian criterion on the
    tangent cone; valid in characteristic 2).

    With parameters the verdict is generic, over the rational function
    field in the parameters, and needs odd characteristic: there the
    quadric is smooth iff the determinant of its polar matrix, computed in
    the parameter ring by exact Bareiss division, is not zero."""
    if not singular_at(f, p).is_singular:
        raise ValueError("point %r is not singular on the form" % (p,))
    q2 = {e: c for e, c in _chart(f, p, 2).items() if sum(e) == 2}
    n = len(f.coord_vars) - 1
    if f.ring.nvars() > len(f.coord_vars):
        if f.char == 2:
            raise ValueError("%r has parameters in characteristic 2, where "
                             "the generic node test does not apply" % (f,))
        if not q2:
            return False
        chart_one = next(iter(q2.values())).ring.const(1)
        return not det_poly_matrix(polar_matrix(q2, n, chart_one)).is_zero()
    q2 = {e: c.constant_coeff() for e, c in q2.items()}
    return quadratic_part_smooth(q2, n, f.ring.one)


# local equations are cut at total degree TRUNC, and A_n is named up to
# n = MAX_AN; past either bound rdp_an_type answers inconclusive
TRUNC = 8
MAX_AN = 6


def local_series(f, p):
    """Local equation of f in an affine chart centered at p, cut at total
    degree TRUNC (numeric, parameter-free forms only)."""
    if f.ring.nvars() > len(f.coord_vars):
        raise ValueError("local_series requires a parameter-free form")
    ring = PolyRing(["u%d" % i for i in range(len(f.coord_vars) - 1)],
                    f.ring.one)
    coeffs = {e: c.constant_coeff() for e, c in _chart(f, p, TRUNC).items()}
    return MultiPoly(ring, coeffs)


# --------------------------------------------------------------- A_n types --

class AnVerdict:
    def __init__(self, kind, n=None):
        self.kind = kind  # "A" | "inconclusive" | "not-A"
        self.n = n

    def __eq__(self, other):
        if isinstance(other, str):
            return self.kind == "A" and ("A%d" % self.n) == other
        return (isinstance(other, AnVerdict) and self.kind == other.kind
                and self.n == other.n)

    def __repr__(self):
        if self.kind == "A":
            return "A%d" % self.n
        return self.kind


def _factor_binary_quadratic(a, b, c, one):
    """Factor a*s^2 + b*s*t + c*t^2 into two linear forms ((a1,b1),(a2,b2))
    over the field of `one`, or None if irreducible over that field.  With
    a*c != 0 a root is searched for, so the field must be F_4 or a prime
    field; any other field raises ValueError."""
    zero = one * 0
    if not a and not c:
        if not b:
            return None
        return ((one, zero), (zero, b))
    if not a:
        # t*(b*s + c*t)
        return ((zero, one), (b, c))
    if not c:
        return ((one, zero), (a, b))
    if isinstance(one, F4):
        elems = F4_ELEMENTS
    elif isinstance(one, Mod):
        elems = [Mod(v, one.p) for v in range(one.p)]
    else:
        raise ValueError("cannot factor a binary quadratic over the field of "
                         "%r, which is not enumerable" % (one,))
    for r in elems:
        if a * r * r + b * r + c == zero:
            # a(s - r t)(s - r2 t); find the cofactor by division
            # a s^2 + b s t + c t^2 = (s - r t)(a s + (b + a r) t)
            return ((one, -r), (a, b + a * r))
    return None


def rdp_an_type(series):
    """A_n detection for a 3-variable local equation (a MultiPoly) with zero
    constant and linear parts.  Iteratively absorbs terms divisible by the
    two branches of the rank-2 quadratic part, keeping total degree
    <= TRUNC, until the residual is a pure power t^(n+1); returns A_n, A_1
    for a smooth tangent-cone conic, or inconclusive past TRUNC or MAX_AN."""
    ring = series.ring
    if len(ring.varnames) != 3:
        raise ValueError("expected a 3-variable local equation")
    one = ring.one
    if series.coeffs.get(ring.zero_exp):
        raise ValueError("nonzero constant term")
    for e in series.coeffs:
        if sum(e) == 1:
            raise ValueError("nonzero linear part")
    q2 = {e: c for e, c in series.coeffs.items() if sum(e) == 2}
    if not q2:
        return AnVerdict("not-A")
    if quadratic_part_smooth(q2, 3, one):
        return AnVerdict("A", 1)
    # find the singular point of the tangent-cone conic
    zero = one * 0
    polar = polar_matrix(q2, 3, one)
    ker = nullspace(polar, one)
    if len(ker) != 1:
        return AnVerdict("not-A")
    P = ker[0]
    # complete P to a basis with the two coordinate vectors e_i, e_j
    piv = next(i for i, c in enumerate(P) if c)
    i, j = [k for k in range(3) if k != piv]
    e1 = [one if k == i else zero for k in range(3)]
    e2v = [one if k == j else zero for k in range(3)]
    # binary quadratic B(s,t) = q2(s*e_i + t*e_j): the coefficients of
    # u_i^2 and u_j^2, and the polar value at (e_i, e_j)
    aa = q2.get(tuple(2 * (k == i) for k in range(3)), zero)
    cc = q2.get(tuple(2 * (k == j) for k in range(3)), zero)
    bb = polar[i][j]
    fac = _factor_binary_quadratic(aa, bb, cc, one)
    if fac is None:
        return AnVerdict("not-A")
    (a1, b1), (a2, b2) = fac
    # new coordinates: u = a1*s + b1*t, v = a2*s + b2*t, tt = coordinate of P
    # invert: (s,t) in terms of (u,v)
    det = a1 * b2 - a2 * b1
    inv = [[b2 / det, -b1 / det], [-a2 / det, a1 / det]]
    # original variable vector = s*e1 + t*e2 + r*P; express via (u, v, tt),
    # reusing the three ring variables as the new (u, v, t) coordinates
    names = ring.varnames
    subs_map = {}
    for k in range(3):
        cu = e1[k] * inv[0][0] + e2v[k] * inv[1][0]
        cv = e1[k] * inv[0][1] + e2v[k] * inv[1][1]
        expr = (ring.var(names[0]).scale(cu) + ring.var(names[1]).scale(cv)
                + ring.var(names[2]).scale(P[k]))
        subs_map[names[k]] = expr
    g = series.subst(subs_map)
    # now quadratic part of g is u*v (first variable * second variable)
    uv_exp = (1, 1, 0)
    quad = sorted(e for e in g.coeffs if sum(e) == 2)
    if quad != [uv_exp]:
        raise ValueError("normalization leaves the quadratic terms %s, not "
                         "u*v alone" % (quad,))
    g = g.scale(one / g.coeffs[uv_exp])
    uv = ring.var(names[0]) * ring.var(names[1])
    while True:
        a_part, b_part, c_part = {}, {}, {}
        for e, c in g.coeffs.items():
            if e == uv_exp:
                continue
            if e[0] >= 1:
                a_part[(e[0] - 1, e[1], e[2])] = c
            elif e[1] >= 1:
                b_part[(e[0], e[1] - 1, e[2])] = c
            else:
                c_part[e] = c
        if not a_part and not b_part:
            break
        # (u + B)(v + A) = uv + uA + vB + AB absorbs the cross terms
        g = uv + MultiPoly(ring, c_part) - (MultiPoly(ring, a_part)
                                            * MultiPoly(ring, b_part))
        g = MultiPoly(ring, {e: c for e, c in g.coeffs.items()
                             if sum(e) <= TRUNC})
    if not c_part:
        return AnVerdict("inconclusive")
    n = min(sum(e) for e in c_part) - 1
    if n > MAX_AN:
        return AnVerdict("inconclusive")
    return AnVerdict("A", n)


# ---------------------------------------------------------- identity tools --

def verify_identity(lhs, rhs):
    """Exact polynomial equality (same ring required)."""
    if isinstance(lhs, Form):
        lhs = lhs.poly
    if isinstance(rhs, Form):
        rhs = rhs.poly
    if lhs.ring != rhs.ring:
        raise ValueError("ring mismatch")
    return lhs == rhs


def contains_line(f, line):
    """True iff f vanishes identically on the line (the restriction to the
    parametrization is the zero polynomial; parameters, if any, stay
    symbolic)."""
    pr = [v for v in f.ring.varnames if v not in f.coord_vars]
    ring2 = PolyRing(pr + ["s", "t"], f.ring.one)
    s, t = ring2.var("s"), ring2.var("t")
    mapping = {v: ring2.var(v) for v in pr}
    one = f.ring.one
    for v, a, b in zip(f.coord_vars, line.p, line.q):
        mapping[v] = s.scale(lift(one, a)) + t.scale(lift(one, b))
    return f.poly.subst(mapping, ring2).is_zero()


# ----------------------------------------------------------- desmic pencil --

DESMIC_SINGULAR_12 = [
    (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0),
    (1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1),
    (1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1), (-1, 1, 1, 1),
]

def desmic_lines_16():
    """The 16 base-locus lines V(x+-y,x+-w), V(x+-y,y+-z), V(z+-w,x+-w),
    V(z+-w,y+-z) of the standard desmic pencil."""
    first = [lambda s: (1, s, 0, 0), lambda s: (0, 0, 1, s)]
    second = [lambda s: (1, 0, 0, s), lambda s: (0, 1, s, 0)]
    out = []
    for f in first:
        for g in second:
            for s1 in (1, -1):
                for s2 in (1, -1):
                    out.append(LineP3.from_planes(f(s1), g(s2)))
    return out


def desmic_pencil_symbolic():
    """The pencil a(x^2-y^2)(z^2-w^2)+b(x^2-w^2)(y^2-z^2)+c(x^2-z^2)(w^2-y^2)
    with c = -a-b, as a Form over Q[a,b] with coordinates (x,y,z,w)."""
    ring = PolyRing(["a", "b", "x", "y", "z", "w"])
    a, b, x, y, z, w = ring.gens()
    c = -a - b
    f = (a * (x ** 2 - y ** 2) * (z ** 2 - w ** 2)
         + b * (x ** 2 - w ** 2) * (y ** 2 - z ** 2)
         + c * (x ** 2 - z ** 2) * (w ** 2 - y ** 2))
    return Form(f, coord_vars=("x", "y", "z", "w"))


def residual_conic_tangency(f=None, line=None, pencil=None):
    """Tangent plane pencil for a base-locus line of the desmic pencil.

    For a line l contained in V(f) (f may carry pencil parameters), the
    planes through l form a pencil V(u*h1 + v*h2); this finds the linear
    condition on (u, v) for the plane to be tangent to V(f) along l, and the
    residual conic cut out at the tangent plane.

    Defaults: f the symbolic desmic pencil, l = V(x+y, x+w) with its pencil
    of planes written as u(x+y) + v(x+w).  Returns (condition, conic,
    conic_ring): condition lives in k[params, u, v] and is linear in (u, v);
    the conic is a quadratic in plane coordinates (s, t, r) with the line at
    r = 0."""
    if f is None:
        f = desmic_pencil_symbolic()
    if line is None:
        line = LineP3.from_planes((1, 1, 0, 0), (1, 0, 0, 1))
        if pencil is None:
            pencil = ((1, 1, 0, 0), (1, 0, 0, 1))
    if not contains_line(f, line):
        raise ValueError("line is not on the hypersurface")
    P1, P2 = list(line.p), list(line.q)
    if pencil is None:
        h1, h2 = nullspace([P1, P2], Fraction(1))
    else:
        h1 = [Fraction(c) for c in pencil[0]]
        h2 = [Fraction(c) for c in pencil[1]]
        for h in (h1, h2):
            if sum(h[k] * P1[k] for k in range(4)) or \
               sum(h[k] * P2[k] for k in range(4)):
                raise ValueError("pencil plane does not contain the line")

    def dot(h, x):
        return sum(h[k] * x[k] for k in range(4))

    # third spanning point of the plane V(u*h1 + v*h2): P3 = v*A - u*B with
    # A in V(h2), B in V(h1), scaled so h1(A) = h2(B).
    A = next(x for x in nullspace([h2], Fraction(1)) if dot(h1, x))
    B = next(x for x in nullspace([h1], Fraction(1)) if dot(h2, x))
    sc = dot(h1, A) / dot(h2, B)
    B = [sc * c for c in B]

    pr = [v for v in f.ring.varnames if v not in f.coord_vars]
    ring = PolyRing(pr + ["u", "v", "s", "t", "r"], f.ring.one)
    u, v, s, t, r = (ring.var(n) for n in ("u", "v", "s", "t", "r"))
    mapping = {n: ring.var(n) for n in pr}
    for k, name in enumerate(f.coord_vars):
        mapping[name] = (s.scale(f.ring.one * P1[k])
                         + t.scale(f.ring.one * P2[k])
                         + (r * v).scale(f.ring.one * A[k])
                         - (r * u).scale(f.ring.one * B[k]))
    fbig = f.poly.subst(mapping, ring)
    f0 = coeff_in(fbig, "r", 0)
    f1 = coeff_in(fbig, "r", 1)
    if not f0.is_zero():
        raise ValueError("the form does not vanish on the line %r" % (line,))
    # f1 is a cubic in (s,t) with coefficients linear in (u,v): tangency iff
    # all vanish; extract the single common linear condition.
    si, ti = ring.varnames.index("s"), ring.varnames.index("t")
    buckets = {}
    for e, cval in f1.coeffs.items():
        key = (e[si], e[ti])
        e2 = list(e)
        e2[si] = e2[ti] = 0
        buckets.setdefault(key, {})[tuple(e2)] = cval
    ab = PolyRing(pr, f.ring.one)
    pidx = [ring.varnames.index(n) for n in pr]
    ui, vi = ring.varnames.index("u"), ring.varnames.index("v")
    lin_pairs = []
    for key, d in buckets.items():
        Ac, Bc = {}, {}
        for e, cv in d.items():
            pe = tuple(e[i] for i in pidx)
            if e[ui] == 1 and e[vi] == 0:
                Ac[pe] = cv
            elif e[ui] == 0 and e[vi] == 1:
                Bc[pe] = cv
            else:
                raise ValueError("tangency coefficient not linear in (u,v)")
        pA, pB = MultiPoly(ab, Ac), MultiPoly(ab, Bc)
        if pA.is_zero() and pB.is_zero():
            continue
        lin_pairs.append((pA, pB))
    A0, B0 = lin_pairs[0]
    for A1, B1 in lin_pairs[1:]:
        if A0 * B1 != A1 * B0:
            raise ValueError("no single linear tangency condition")
    uab = PolyRing(pr + ["u", "v"], f.ring.one)

    def into(p, target, extra):
        return MultiPoly(target, {tuple(e) + extra: cv
                                  for e, cv in p.coeffs.items()})

    condition = (into(A0, uab, (0, 0)) * uab.var("u")
                 + into(B0, uab, (0, 0)) * uab.var("v"))
    # residual conic at the tangent plane (u,v) = (B0, -A0)
    big = PolyRing(pr + ["s", "t", "r"], f.ring.one)
    sub2 = {n: big.var(n) for n in pr + ["s", "t", "r"]}
    sub2["u"] = into(B0, big, (0, 0, 0))
    sub2["v"] = -into(A0, big, (0, 0, 0))
    fsub = fbig.subst(sub2, big)
    conic = fsub.divexact(big.var("r") ** 2)
    return condition, conic, big


# --------------------------------------------------------- Cremona quartic --

def cubic_ring(one=Fraction(1)):
    return PolyRing(["a", "b", "c", "d", "x", "y", "z", "w"], one)


def cremona_cubic_q(ring=None):
    """q = (a*w + b*x + c*y + d*z)*w + x^2 + y^2 + z^2."""
    if ring is None:
        ring = cubic_ring()
    a, b, c, d, x, y, z, w = ring.gens()
    return (a * w + b * x + c * y + d * z) * w + x * x + y * y + z * z


def steinerian_equation(q):
    """Humbert's Steinerian equation
    G = q^2 - q_y q_z yz - q_x q_z xz - q_x q_y xy - q_x q_y q_z w + xyz q_w."""
    ring = q.ring
    x, y, z, w = (ring.var(n) for n in ("x", "y", "z", "w"))
    qx, qy, qz, qw = (q.diff(n) for n in ("x", "y", "z", "w"))
    return (q * q - qy * qz * y * z - qx * qz * x * z - qx * qy * x * y
            - qx * qy * qz * w + x * y * z * qw)


def steinerian_identity_parts(char=0):
    """(lhs, rhs) for the identity f^2 - f_x f_y f_z = G w^2 with symbolic
    a, b, c, d, in characteristic 0 or 2."""
    one = Fraction(1) if char == 0 else Mod(1, 2)
    ring = cubic_ring(one)
    w = ring.var("w")
    q = cremona_cubic_q(ring)
    f = q * w + ring.var("x") * ring.var("y") * ring.var("z")
    fx, fy, fz = (f.diff(n) for n in ("x", "y", "z"))
    G = steinerian_equation(q)
    lhs = f * f - fx * fy * fz
    rhs = G * w * w
    return lhs, rhs


def desmic_identity_parts():
    """(lhs, rhs) for -16xyzw + prod(T' faces) + prod(T'' faces) = 0."""
    ring = PolyRing(["x", "y", "z", "w"])
    x, y, z, w = ring.gens()
    t1 = ((x - y - z + w) * (x - y + z - w) * (x + y - z - w)
          * (x + y + z + w))
    t2 = ((-x + y + z + w) * (x - y + z + w) * (x + y - z + w)
          * (x + y + z - w))
    lhs = (x * y * z * w).scale(Fraction(-16)) + t1 + t2
    return lhs, ring.zero()


def eight_squares_parts():
    """(lhs, rhs) for 8(x^2+y^2+z^2+w^2) = sum of the eight squares."""
    ring = PolyRing(["x", "y", "z", "w"])
    x, y, z, w = ring.gens()
    lhs = (x * x + y * y + z * z + w * w).scale(Fraction(8))
    signs = [(-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1),
             (-1, -1, 1), (-1, 1, -1), (1, -1, -1), (1, 1, 1)]
    rhs = ring.zero()
    for sy, sz, sw in signs:
        l = x + y.scale(Fraction(sy)) + z.scale(Fraction(sz)) \
            + w.scale(Fraction(sw))
        rhs = rhs + l * l
    return lhs, rhs


# ------------------------------------------------ characteristic-2 Cremona --

def char2_cremona_singular_points():
    """Verify the 12 parametric singular points (three families of four) and
    the extra point P_0 of the characteristic-2 Cremona quartic, working in
    F_2(a,b,c,d)[z_i] modulo the printed quartic relation (via pseudo-
    remainder membership tests).  Returns a list of 13 reports."""
    base = PolyRing(["a", "b", "c", "d", "x", "y", "z", "w", "Z"], Mod(1, 2))
    a, b, c, d, x, y, z, w, Z = base.gens()
    F = (b * c * d * w ** 4 + b * c * w ** 2 * x * y + b * d * w ** 2 * x * z
         + c * d * w ** 2 * y * z + (b * x + c * y + d * z) * x * y * z
         + (a * w ** 2 + b * w * x + c * w * y + d * w * z
            + x ** 2 + y ** 2 + z ** 2) ** 2)
    partials = {n: F.diff(n) for n in ("x", "y", "z", "w")}
    if not partials["w"].is_zero():  # F_w' = 0 identically in char 2
        raise ValueError("F_w = %r is not identically zero" % (partials["w"],))

    families = [
        # (point coords in (x,y,z,w) as polys in params and Z, relation in Z)
        ((d * Z ** 2, b ** 2, b * Z ** 2, b * Z),
         b ** 2 * d * Z ** 3 + b ** 2 * Z ** 4 + d ** 2 * Z ** 4
         + a * b ** 2 * Z ** 2 + b ** 3 * c * Z + b ** 4),
        # the second family is the (x<->y, b<->c)-image of the first; note
        # the square on the second coordinate
        ((c ** 2, d * Z ** 2, c * Z ** 2, c * Z),
         c ** 2 * d * Z ** 3 + c ** 2 * Z ** 4 + d ** 2 * Z ** 4
         + a * c ** 2 * Z ** 2 + b * c ** 3 * Z + c ** 4),
        ((c, b, Z ** 2, Z),
         d * Z ** 3 + Z ** 4 + a * Z ** 2 + b * c * Z + b ** 2 + c ** 2),
        # P_0 with z0^4*(b^3c^3d^3+b^4c^4+b^4d^4+c^4d^4) = b^5c^5d+a^2b^4c^4
        ((c * d * Z, b * d * Z, b * c * Z, b * c),
         Z ** 4 * (b ** 3 * c ** 3 * d ** 3 + b ** 4 * c ** 4
                   + b ** 4 * d ** 4 + c ** 4 * d ** 4)
         + b ** 5 * c ** 5 * d + a ** 2 * b ** 4 * c ** 4),
    ]
    reports = []
    for fam_idx, (coords, rel) in enumerate(families):
        mapping = {"a": a, "b": b, "c": c, "d": d, "Z": Z,
                   "x": coords[0], "y": coords[1], "z": coords[2],
                   "w": coords[3]}
        ok = True
        for g in [F] + [partials[n] for n in ("x", "y", "z")]:
            val = g.subst(mapping, base)
            if not prem(val, rel, "Z").is_zero():
                ok = False
        count = 1 if fam_idx == 3 else 4
        for _ in range(count):
            reports.append(SingularPointReport(
                point=coords, on_hypersurface=ok, jacobian_rank=0 if ok else 1,
                is_singular=ok,
                details="family %d (symbolic, modulo degree-4 relation)"
                        % (fam_idx + 1)))
    return reports


def cremona_char2_specialized(a_val, b_val, c_val, d_val, one=None):
    """The char-2 Cremona quartic at specialized parameters over the field of
    `one` (default F_4, so that tangent-cone factorizations exist)."""
    if one is None:
        one = F4(1)
    ring = PolyRing(["x", "y", "z", "w"], one)
    x, y, z, w = ring.gens()

    a, b, c, d = (lift(one, v) for v in (a_val, b_val, c_val, d_val))
    F = ((w ** 4).scale(b * c * d) + (w ** 2 * x * y).scale(b * c)
         + (w ** 2 * x * z).scale(b * d) + (w ** 2 * y * z).scale(c * d)
         + (x.scale(b) + y.scale(c) + z.scale(d)) * x * y * z
         + ((w ** 2).scale(a) + (w * x).scale(b) + (w * y).scale(c)
            + (w * z).scale(d) + x ** 2 + y ** 2 + z ** 2) ** 2)
    return Form(F)


# ----------------------------------------------- characteristic-2 Kummer --

KUMMER2_SIX_POINTS = [
    (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
    (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1),
]


def kummer_char2_quartic(alpha=None):
    """F_alpha = xyzw + alpha*(x+y+z+w)^4 in characteristic 2 (alpha != 0).

    Returns (form, lines, reports): the four lines of V(xyzw) in the plane
    V(x+y+z+w), and the six singular points with their A_n verdicts."""
    if alpha is None:
        alpha = F4(1)
    if not alpha:
        raise ValueError("alpha must be nonzero")
    one = one_like(alpha)
    zero = one * 0
    ring = PolyRing(["x", "y", "z", "w"], one)
    x, y, z, w = ring.gens()
    F = x * y * z * w + ((x + y + z + w) ** 4).scale(alpha)
    form = Form(F)
    lines = []
    for i in range(4):
        h1 = [zero] * 4
        h1[i] = one
        h2 = [one] * 4
        h2[i] = zero
        lines.append(LineP3.from_planes(h1, h2))
    reports = []
    for pt in KUMMER2_SIX_POINTS:
        rep = singular_at(form, pt)
        if rep.is_singular:
            series = local_series(form, pt)
            rep.an_type = rdp_an_type(series)
            rep.node = rep.an_type == AnVerdict("A", 1)
        reports.append(rep)
    return form, lines, reports


def kummer_char2_points(one=None):
    """The six singular points as coordinate tuples over the char-2 field
    of `one`."""
    if one is None:
        one = F4(1)
    return [tuple(lift(one, c) for c in p) for p in KUMMER2_SIX_POINTS]
