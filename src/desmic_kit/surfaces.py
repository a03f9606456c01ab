"""Hypersurface singularity analysis and concrete quartic/cubic models:
the desmic pencil, Cremona's quartic (characteristic 0 and 2), the
characteristic-2 Kummer quartic, and the Steinerian identities.  Every
local test reads one forms.hasse_at expansion at the point: the
singularity test (singular_at) and the A_n detection here, the node test
(node_check) in forms, which linecomplex and cremona share.
"""

from fractions import Fraction

from .forms import (Form, _chart, hasse_at, polar_matrix,
                    quadratic_part_smooth, restrict)
from .matrices import nullspace
from .poly import MultiPoly, PolyRing, coeff_in, prem
from .projgeom import LineP3, normalize
from .scalars import F4_ELEMENTS, F4, Mod, lift, one_like


def singular_at(f, p):
    """True iff p is a singular point of V(f): its degree-1 Hasse expansion
    is empty, so the value and the gradient vanish there (a partial that
    vanishes identically, as that of x^2 does in characteristic 2, is zero
    at every point)."""
    return not hasse_at(f, [lift(f.ring.one, c) for c in p], 1)


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
    point = normalize([lift(f.ring.one, c) for c in p])
    chart = _chart(point, hasse_at(f, point, TRUNC))
    return MultiPoly(ring, {e: d[()] for e, d in chart.items()})


# --------------------------------------------------------------- A_n types --

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
    <= TRUNC, until the residual is a pure power t^(n+1).  Returns the
    string "A<n>" ("A1" for a smooth tangent-cone conic), "inconclusive"
    past TRUNC or MAX_AN, or "not-A"."""
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
        return "not-A"
    if quadratic_part_smooth(q2, 3, one):
        return "A1"
    # find the singular point of the tangent-cone conic
    zero = one * 0
    polar = polar_matrix(q2, 3, one)
    ker = nullspace(polar, one)
    if len(ker) != 1:
        return "not-A"
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
        return "not-A"
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
        return "inconclusive"
    n = min(sum(e) for e in c_part) - 1
    if n > MAX_AN:
        return "inconclusive"
    return "A%d" % n


# ---------------------------------------------------------- identity tools --

def contains_line(f, line):
    """True iff f vanishes identically on the line (parameters, if any,
    stay symbolic)."""
    return restrict(f, (line.p, line.q)).is_zero()


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


# the base-locus line V(x+y, x+w), cut out by the covectors of x+y and x+w,
# which also span its pencil of planes u(x+y) + v(x+w)
TANGENCY_PLANES = ((1, 1, 0, 0), (1, 0, 0, 1))


def residual_conic_tangency(f):
    """Tangent plane pencil for the base-locus line V(x+y, x+w) of the
    desmic pencil.

    The line lies on V(f) (f may carry pencil parameters), and the planes
    through it form the pencil V(u(x+y) + v(x+w)); this finds the linear
    condition on (u, v) for the plane to be tangent to V(f) along the line,
    and the residual conic cut out at the tangent plane.  Returns
    (condition, conic, conic_ring): condition lives in k[params, u, v] and
    is linear in (u, v); the conic is a quadratic in plane coordinates
    (s, t, r) with the line at r = 0."""
    h1, h2 = ([Fraction(c) for c in h] for h in TANGENCY_PLANES)
    line = LineP3.from_planes(h1, h2)

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
        mapping[name] = (s.scale(f.ring.one * line.p[k])
                         + t.scale(f.ring.one * line.q[k])
                         + (r * v).scale(f.ring.one * A[k])
                         - (r * u).scale(f.ring.one * B[k]))
    fbig = f.poly.subst(mapping, ring)
    if coeff_in(fbig, "r", 0):
        raise ValueError("the form does not vanish on the line %r" % (line,))
    # the r^1 coefficient is u*fu + v*fv with fu, fv forms in (s, t) over
    # the parameters, and the plane (u, v) is tangent along the line iff it
    # vanishes.  That is one linear condition cu*u + cv*v iff
    # fu*cv == fv*cu, for cu and cv the coefficients of fu and fv at one
    # monomial s^i*t^j.
    f1 = coeff_in(fbig, "r", 1)
    if not f1:
        raise ValueError("the form is singular along the line %r" % (line,))
    si, ti = ring.varnames.index("s"), ring.varnames.index("t")
    e = next(iter(f1.coeffs))
    fu, fv = coeff_in(f1, "u", 1), coeff_in(f1, "v", 1)
    cu, cv = (coeff_in(coeff_in(g, "s", e[si]), "t", e[ti])
              for g in (fu, fv))
    if fu * cv != fv * cu:
        raise ValueError("no single linear tangency condition")
    uab = PolyRing(pr + ["u", "v"], f.ring.one)
    condition = (cu * u + cv * v).subst(
        {n: uab.var(n) for n in uab.varnames}, uab)
    # residual conic at the tangent plane (u, v) = (cv, -cu)
    big = PolyRing(pr + ["s", "t", "r"], f.ring.one)
    sub2 = {n: big.var(n) for n in big.varnames}
    sub2["u"], sub2["v"] = cv.subst(sub2, big), -cu.subst(sub2, big)
    conic = fbig.subst(sub2, big).divexact(big.var("r") ** 2)
    return condition, conic, big


# --------------------------------------------------------- Cremona quartic --

def cubic_ring(one=Fraction(1)):
    return PolyRing(["a", "b", "c", "d", "x", "y", "z", "w"], one)


def cremona_cubic_q(ring):
    """q = (a*w + b*x + c*y + d*z)*w + x^2 + y^2 + z^2 in the cubic_ring."""
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

def _cremona_char2(a, b, c, d, x, y, z, w):
    """The printed characteristic-2 Cremona quartic in x, y, z, w with
    parameters a, b, c, d: ring generators, or constants of the ring."""
    return (b * c * d * w ** 4 + b * c * w ** 2 * x * y
            + b * d * w ** 2 * x * z + c * d * w ** 2 * y * z
            + (b * x + c * y + d * z) * x * y * z
            + (a * w ** 2 + b * w * x + c * w * y + d * w * z
               + x ** 2 + y ** 2 + z ** 2) ** 2)


def verify_char2_cremona_singular_points():
    """Verify the 12 parametric singular points (three families of four) and
    the extra point P_0 of the characteristic-2 Cremona quartic, working in
    F_2(a,b,c,d)[z_i] modulo the printed quartic relation (via pseudo-
    remainder membership tests).  Raises ValueError naming the first
    family, numbered from 1 with P_0 as family 4, at which the quartic or
    one of its partials does not vanish."""
    base = PolyRing(["a", "b", "c", "d", "x", "y", "z", "w", "Z"], Mod(1, 2))
    a, b, c, d, x, y, z, w, Z = base.gens()
    F = _cremona_char2(a, b, c, d, x, y, z, w)
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
    for k, (coords, rel) in enumerate(families, 1):
        mapping = {"a": a, "b": b, "c": c, "d": d, "Z": Z,
                   "x": coords[0], "y": coords[1], "z": coords[2],
                   "w": coords[3]}
        if not all(prem(g.subst(mapping, base), rel, "Z").is_zero()
                   for g in [F] + [partials[n] for n in ("x", "y", "z")]):
            raise ValueError("the points of family %d are not singular on "
                             "the characteristic-2 Cremona quartic" % k)


def cremona_char2_specialized(a_val, b_val, c_val, d_val, one=None):
    """The char-2 Cremona quartic at specialized parameters over the field of
    `one` (default F_4, so that tangent-cone factorizations exist)."""
    if one is None:
        one = F4(1)
    ring = PolyRing(["x", "y", "z", "w"], one)
    params = (ring.const(v) for v in (a_val, b_val, c_val, d_val))
    return Form(_cremona_char2(*params, *ring.gens()))


# ----------------------------------------------- characteristic-2 Kummer --

KUMMER2_SIX_POINTS = [
    (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
    (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1),
]


def kummer_char2_quartic(alpha=None):
    """F_alpha = xyzw + alpha*(x+y+z+w)^4 in characteristic 2 (alpha != 0).

    Returns (form, lines, verdicts): the four lines of V(xyzw) in the plane
    V(x+y+z+w), and for each of the six printed points its rdp_an_type
    verdict, or None where the point is not singular."""
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
    verdicts = [rdp_an_type(local_series(form, pt))
                if singular_at(form, pt) else None
                for pt in KUMMER2_SIX_POINTS]
    return form, lines, verdicts


def kummer_char2_points(one=None):
    """The six singular points as coordinate tuples over the char-2 field
    of `one`."""
    if one is None:
        one = F4(1)
    return [tuple(lift(one, c) for c in p) for p in KUMMER2_SIX_POINTS]
