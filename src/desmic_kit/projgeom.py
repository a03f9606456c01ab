"""Projective geometry of P^3: points, planes, lines with Plucker and Klein
coordinates, harmonic homologies, edge involutions, and the three-tetrahedra
construction from a general point.

Plucker convention: (p12, p13, p14, p23, p24, p34), satisfying
p12*p34 - p13*p24 + p14*p23 = 0.

A point of any projective space is a ProjPoint; normalize() gives its key,
and klein_change_rows() the linear change from Plucker to Klein
coordinates of P^5.
"""

from fractions import Fraction

from .matrices import matrix_rank, nullspace, solve_linear
from .poly import PolyRing
from .scalars import char_of, field_i, lift, one_like


def normalize(coords):
    """The projective key of a coordinate vector: every entry divided by
    the first nonzero one.  The entries must be field elements already
    (see scalars.lift); a zero vector raises ValueError."""
    lead = next((c for c in coords if c), None)
    if lead is None:
        raise ValueError("zero coordinate vector")
    return tuple(c / lead for c in coords)


class ProjPoint:
    """Point of projective space of any dimension; equality up to scale.
    Int and Fraction coordinates are lifted into the rationals."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(lift(Fraction(1), c) for c in coords)
        if not any(coords):
            raise ValueError("all coordinates zero")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def normalized(self):
        return normalize(self.coords)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.normalized() == other.normalized()

    def __hash__(self):
        return hash(self.normalized())

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __repr__(self):
        return "ProjPoint(%r)" % (list(self.coords),)


class ProjPlane:
    """Hyperplane of P^3 given by its coefficient covector."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(lift(Fraction(1), c) for c in coeffs)
        if not any(coeffs):
            raise ValueError("all coefficients zero")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def contains(self, p):
        s = None
        for a, x in zip(self.coeffs, p.coords):
            t = a * x
            s = t if s is None else s + t
        return not s

    def normalized(self):
        return normalize(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, ProjPlane) and self.normalized() == other.normalized()

    def __hash__(self):
        return hash(self.normalized())

    def __repr__(self):
        return "ProjPlane(%r)" % (list(self.coeffs),)


PLUCKER_INDEX = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class LineP3:
    """Line in P^3 with cached Plucker coordinates (p12,p13,p14,p23,p24,p34)."""

    __slots__ = ("p", "q", "plucker")

    def __init__(self, p, q):
        pc, qc = p.coords, q.coords
        pl = tuple(pc[i] * qc[j] - pc[j] * qc[i] for i, j in PLUCKER_INDEX)
        if not any(pl):
            raise ValueError("dependent spanning points")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "plucker", pl)
        p12, p13, p14, p23, p24, p34 = pl
        rel = p12 * p34 - p13 * p24 + p14 * p23
        if rel:
            raise ValueError("Plucker coordinates %r violate the Plucker "
                             "relation: %r" % (pl, rel))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @classmethod
    def from_planes(cls, h1, h2):
        """The intersection line of two distinct planes."""
        ker = nullspace([list(h1.coeffs), list(h2.coeffs)],
                        one_like(h1.coeffs[0]))
        if len(ker) != 2:
            raise ValueError("planes do not meet in a line")
        return cls(ProjPoint(ker[0]), ProjPoint(ker[1]))

    def normalized(self):
        return normalize(self.plucker)

    def __eq__(self, other):
        return isinstance(other, LineP3) and self.normalized() == other.normalized()

    def __hash__(self):
        return hash(self.normalized())

    def contains(self, pt):
        return matrix_rank([list(self.p.coords), list(self.q.coords),
                            list(pt.coords)]) == 2

    def __repr__(self):
        return "LineP3(%r)" % (list(self.plucker),)


def plucker_from_points(p, q):
    """Line through two independent points."""
    return LineP3(p, q)


def klein_change_rows(i):
    """Matrix K with (Klein coords) = K * (Plucker coords):

    (x1,x2,x3,y1,y2,y3) =
      (p12+p34, -p13+p24, p14+p23, i(p34-p12), i(p24+p13), i(p23-p14))."""
    o = one_like(i)
    z = o * 0
    return [
        [o, z, z, z, z, o],
        [z, -o, z, z, o, z],
        [z, z, o, o, z, z],
        [-i, z, z, z, z, i],
        [z, i, z, z, i, z],
        [z, z, -i, i, z, z],
    ]


def klein_from_plucker(line, i=None):
    """The Klein point K * plucker of a line, K = klein_change_rows(i).

    The ambient field must contain i; by default i is field_i of the
    Plucker field, so rational coordinates go to the Gaussian rationals
    and prime fields need p = 1 mod 4."""
    if i is None:
        i = field_i(one_like(line.plucker[0]))
    return mat_apply(klein_change_rows(i), ProjPoint(line.plucker))


def harmonic_homology(axis, center):
    """Matrix of the harmonic homology with the given axis plane and center.

    Involutive up to scalar; fixes the axis pointwise and the center.
    Requires characteristic != 2 and the center off the axis.
    """
    a, c = axis.coeffs, center.coords
    if char_of(next(c for c in a if c)) == 2:
        raise ValueError("harmonic homology undefined in characteristic 2")
    s = sum((ai * ci for ai, ci in zip(a, c)), a[0] * 0)
    if not s:
        raise ValueError("center lies on the axis")
    n = len(a)
    m = [[(s if i == j else s * 0) - 2 * c[i] * a[j] for j in range(n)]
         for i in range(n)]
    return m


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


def mat_apply(m, point):
    """The point m * point."""
    return ProjPoint([sum(a * x for a, x in zip(row, point.coords))
                      for row in m])


OPPOSITE_EDGE_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))

COORD_VERTICES = tuple(ProjPoint([1 if i == j else 0 for j in range(4)])
                       for i in range(4))
COORD_FACES = tuple(ProjPlane([1 if i == j else 0 for j in range(4)])
                    for i in range(4))


def plane_through(points):
    """The plane spanned by three independent points of P^3."""
    rows = [list(p.coords) for p in points]
    ker = nullspace(rows, one_like(next(c for r in rows for c in r if c)))
    if len(ker) != 1:
        raise ValueError("points do not span a plane")
    return ProjPlane(ker[0])


def _canonical_form(coeffs, ring):
    """Linear form with the given coefficients, scaled so its first nonzero
    coefficient is 1."""
    lead = next(c for c in coeffs if c)
    xs = ring.gens()
    out = ring.zero()
    for c, x in zip(coeffs, xs):
        out = out + x.scale(ring.one * (c / lead))
    return out


def desmic_from_point(p):
    """From a point P off the coordinate tetrahedron, build the second and
    third tetrahedra (via the three edge involutions and the four harmonic
    homologies) and test whether xyzw, the face product of T', and the face
    product of T'' span a pencil (rank 2).

    Returns (t1_vertices, t2_vertices, verdict) where verdict is a dict with
    the three product quartics, the dependence flag, and -- when dependent --
    coefficients (s, t) with -16*xyzw = s*prod' + t*prod''.
    """
    if any(not c for c in p.coords):
        raise ValueError("point lies on a face of the coordinate tetrahedron")
    t1 = [p] + [mat_apply(edge_involution(e1, e2), p)
                for e1, e2 in OPPOSITE_EDGE_PAIRS]
    t2 = [mat_apply(harmonic_homology(COORD_FACES[i], COORD_VERTICES[i]), p)
          for i in range(4)]

    ring = PolyRing(["x", "y", "z", "w"], one_like(p.coords[0]))
    xs = ring.gens()

    def face_product(vertices):
        prod = ring.const(1)
        for skip in range(4):
            pts = [v for k, v in enumerate(vertices) if k != skip]
            pl = plane_through(pts)
            prod = prod * _canonical_form(pl.coeffs, ring)
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


PLUCKER_RING = PolyRing(["x1", "x2", "x3", "x4", "x5", "x6"])


def alpha_plane(p, ring=None):
    """Three independent linear Plucker forms cutting the plane of lines
    through p.  For p=[a,b,c,d] the classical forms are

    -c*p12 + b*p13 - a*p23,  d*p13 - c*p14 + a*p34,  d*p12 - b*p14 + a*p24;

    for special positions (e.g. coordinate vertices) some of these collapse,
    so the fourth incidence form d*p23 - c*p24 + b*p34 completes the set.
    """
    if ring is None:
        ring = PLUCKER_RING
    a, b, c, d = p.coords
    x1, x2, x3, x4, x5, x6 = ring.gens()
    o = ring.one

    def lin(coeff_map):
        out = ring.zero()
        for var, coef in coeff_map:
            out = out + var.scale(o * coef)
        return out

    rows = [
        lin([(x1, -c), (x2, b), (x4, -a)]),
        lin([(x2, d), (x3, -c), (x6, a)]),
        lin([(x1, d), (x3, -b), (x5, a)]),
        lin([(x4, d), (x5, -c), (x6, b)]),
    ]
    return _independent_triple(rows, ring)


def beta_plane(h, ring=None):
    """Three independent linear Plucker forms cutting the plane of lines
    contained in the plane h.

    Derived from the exact incidence condition P.u = 0 where P is the
    antisymmetric Plucker matrix of the line and u the plane covector; the
    first three independent rows are returned.
    """
    if ring is None:
        ring = PLUCKER_RING
    a, b, c, d = h.coeffs
    x1, x2, x3, x4, x5, x6 = ring.gens()
    o = ring.one

    def lin(pairs):
        out = ring.zero()
        for var, coef in pairs:
            out = out + var.scale(o * coef)
        return out

    rows = [
        lin([(x1, b), (x2, c), (x3, d)]),
        lin([(x1, -a), (x4, c), (x5, d)]),
        lin([(x2, -a), (x4, -b), (x6, d)]),
        lin([(x3, -a), (x5, -b), (x6, -c)]),
    ]
    return _independent_triple(rows, ring)


def _independent_triple(rows, ring):
    """First three linearly independent forms from the list, in order."""
    o = ring.one
    exps = [g.monomials()[0] for g in ring.gens()]
    chosen, vecs = [], []
    for r in rows:
        if r.is_zero():
            continue
        v = [r.coeffs.get(e, o * 0) for e in exps]
        if matrix_rank(vecs + [v]) > len(chosen):
            chosen.append(r)
            vecs.append(v)
        if len(chosen) == 3:
            break
    if len(chosen) != 3:
        raise ValueError("degenerate input")
    return tuple(chosen)


def eval_plucker_form(form, line):
    """Evaluate a linear form in (x1..x6) at the line's Plucker coordinates."""
    pl = line.plucker
    names = form.ring.varnames
    return form.evaluate(dict(zip(names, pl)))
