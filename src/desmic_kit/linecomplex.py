"""The cubic complex of lines attached to a net of quadrics in P^3.

The complex is a complete intersection of the Grassmannian quadric with a
cubic hypersurface in P^5.  Two coordinate systems are supported: Plucker
coordinates (x1..x6) = (p12,p13,p14,p23,p24,p34), and Klein coordinates
(x1,x2,x3,y1,y2,y3) in which the pair of equations becomes

    x1^2+x2^2+x3^2+y1^2+y2^2+y3^2 = 0,   x1*x2*x3 + i*y1*y2*y3 = 0.

The module verifies the 34 singular points (all ordinary nodes, each
tested as the node (-lambda, p) of the associated cubic x0*quadric + cubic
in P^6, whose quadratic part there node_lift writes down from one Taylor
expansion of each equation) and the 24 planes with their incidence
configuration (24_{3+4}, 18_4+16_6), and scans for singular points over
prime fields.
The monomial symmetry group of order 1152 is in symmetry; the projected
quartic threefold in P^4 with 17 nodes and 4 singular lines and the
identification of the associated cubic with the Segre cubic are in
cremona.
"""

from itertools import permutations, product

from .forms import (Form, cut_out, hasse_at, quadratic_part_smooth,
                    restrict)
from .matrices import rref
from .poly import PolyRing
from .projgeom import normalize
from .scalars import I, QI, field_i, lift, one_like, sqrt_minus_one


# ---------------------------------------------------------------------------
# the complete intersection in P^5
# ---------------------------------------------------------------------------

PLUCKER_NAMES = ("x1", "x2", "x3", "x4", "x5", "x6")
KLEIN_NAMES = ("x1", "x2", "x3", "y1", "y2", "y3")


class CompleteIntersection35:
    """Quadric and cubic forms cutting the complex out of P^5."""

    def __init__(self, quadric, cubic, coords, i=None):
        if (quadric.degree, cubic.degree) != (2, 3):
            raise ValueError("forms of degrees %d and %d, not 2 and 3"
                             % (quadric.degree, cubic.degree))
        if len(quadric.coord_vars) != 6:
            raise ValueError("quadric in %d coordinates, not 6"
                             % len(quadric.coord_vars))
        for f in (quadric, cubic):
            if set(f.coord_vars) != set(f.ring.varnames):
                raise ValueError("%r has parameters; the node test needs "
                                 "numeric forms" % (f,))
        self.quadric = quadric
        self.cubic = cubic
        self.coords = coords
        self.i = i
        self.ring = quadric.ring
        self.one = quadric.ring.one
        self._associated = None

    @classmethod
    def plucker(cls, one=QI(1)):
        """x1*x6 - x2*x5 + x3*x4 = 0 and
        -x1*x2*x4 + x1*x3*x5 - x2*x3*x6 + x4*x5*x6 = 0
        in coordinates (x1..x6) = (p12,p13,p14,p23,p24,p34)."""
        ring = PolyRing(list(PLUCKER_NAMES), one)
        x1, x2, x3, x4, x5, x6 = ring.gens()
        q = x1 * x6 - x2 * x5 + x3 * x4
        c = -(x1 * x2 * x4) + x1 * x3 * x5 - x2 * x3 * x6 + x4 * x5 * x6
        return cls(Form(q), Form(c), "plucker")

    @classmethod
    def klein(cls, i=None, one=None, unit_variant=False):
        """Sum of the six squares, and x1*x2*x3 + i*y1*y2*y3 (or with
        coefficient 1 when unit_variant is set)."""
        if i is None:
            i = I if one is None else field_i(one)
        if one is None:
            one = one_like(i)
        ring = PolyRing(list(KLEIN_NAMES), one)
        gens = ring.gens()
        q = ring.zero()
        for g in gens:
            q = q + g * g
        coeff = one if unit_variant else i
        c = gens[0] * gens[1] * gens[2] + (gens[3] * gens[4] * gens[5]).scale(coeff)
        return cls(Form(q), Form(c), "klein", i=i)

    def associated_cubic(self):
        """x0*quadric + cubic in P^6, with x0 put before the six
        coordinates, built on first use and kept: the cubic whose
        associated variety, from the cone point (1, 0, ..., 0), is the
        complex.  node_lift tests its nodes without building it; cremona
        counts them on it with forms.node_check."""
        if self._associated is None:
            ring = PolyRing(["x0"] + list(self.quadric.coord_vars), self.one)
            gens = ring.gens()
            q, c = (f.poly.subst(dict(zip(f.coord_vars, gens[1:])), ring)
                    for f in (self.quadric, self.cubic))
            self._associated = Form(gens[0] * q + c)
        return self._associated


# ---------------------------------------------------------------------------
# the 34 singular points
# ---------------------------------------------------------------------------

PLUCKER_NODES_18 = [
    (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1),
    (1, 1, 0, 0, 1, 1), (1, 1, 0, 0, -1, -1), (1, -1, 0, 0, 1, -1),
    (1, -1, 0, 0, -1, 1),
    (1, 0, 1, 1, 0, -1), (1, 0, 1, -1, 0, 1), (1, 0, -1, 1, 0, 1),
    (1, 0, -1, -1, 0, -1),
    (0, 1, 1, 1, 1, 0), (0, 1, 1, -1, -1, 0), (0, 1, -1, 1, -1, 0),
    (0, 1, -1, -1, 1, 0),
]

PLUCKER_NODES_16 = [
    (1, 1, 1, 0, 0, 0), (1, 1, -1, 0, 0, 0), (1, -1, 1, 0, 0, 0),
    (1, -1, -1, 0, 0, 0),
    (1, 0, 0, 1, 1, 0), (1, 0, 0, 1, -1, 0), (1, 0, 0, -1, 1, 0),
    (1, 0, 0, -1, -1, 0),
    (0, 1, 0, 1, 0, 1), (0, 1, 0, 1, 0, -1), (0, 1, 0, -1, 0, 1),
    (0, 1, 0, -1, 0, -1),
    (0, 0, 1, 0, 1, 1), (0, 0, 1, 0, 1, -1), (0, 0, 1, 0, -1, 1),
    (0, 0, 1, 0, -1, -1),
]


def klein_nodes_18(i=None):
    """The 18 singular points in Klein coordinates."""
    if i is None:
        i = I
    o = one_like(i)
    z = o * 0
    m = -i
    return [
        (o, z, z, m, z, z), (z, o, z, z, m, z), (z, z, o, z, z, m),
        (z, z, o, z, z, i), (z, o, z, z, i, z), (o, z, z, i, z, z),
        (o, z, z, z, i, z), (z, o, z, i, z, z), (z, o, z, m, z, z),
        (o, z, z, z, m, z), (z, z, o, m, z, z), (o, z, z, z, z, m),
        (o, z, z, z, z, i), (z, z, o, i, z, z), (z, z, o, z, i, z),
        (z, o, z, z, z, i), (z, o, z, z, z, m), (z, z, o, z, m, z),
    ]


def klein_nodes_16(i=None):
    """The 16 singular points [e1*i, e2*i, e3*i, s1, s2, s3] with the sign
    constraint e1*e2*e3 = s1*s2*s3, normalized so the first coordinate is i."""
    if i is None:
        i = I
    o = one_like(i)
    pts = []
    for e2, e3, s1, s2 in product((1, -1), repeat=4):
        s3 = e2 * e3 * s1 * s2
        pts.append((i, i * (o * e2), i * (o * e3),
                    o * s1, o * s2, o * s3))
    return pts


def node_lift(ci, pt):
    """The lift (-lambda, p) of the point p of the complex to its
    associated cubic F = x0*quadric + cubic when p is an ordinary node of
    the complex; None when p is singular on the complex but no node, or
    not singular.  Raises ValueError when the quadric is singular at p.

    One degree-2 forms.hasse_at expansion of each equation at the
    normalized point gives its value, its gradient and its quadratic part.
    p is singular iff both equations vanish and the cubic's gradient is
    lambda times the quadric's; then F is singular at (-lambda, p), and p
    is a node of the complex iff (-lambda, p) is one of F (what
    forms.node_check decides on F).  For, in the chart at p's pivot
    with local coordinates u and v = x0 + lambda, the quadratic part of F
    is q(u) + v*l(u), where q is that of cubic - lambda*quadric with polar
    matrix H, and l is the quadric's gradient.  That form is written down
    here, with v last, and tested by forms.quadratic_part_smooth.  Its
    polar matrix [[H, l^t], [l, 0]] has the rank of H on the tangent space
    ker l plus 2 (in a basis of ker l and one w with l(w) = 1, the two unit
    entries of the border clear row and column w), so in even dimension,
    where a quadric is smooth iff its polar form is nondegenerate in every
    characteristic, the two quadrics are smooth together."""
    one = ci.one
    pt = normalize([lift(one, c) for c in pt])
    n = len(pt)
    t2, t3 = ({e: d[()] for e, d in hasse_at(f, pt, 2).items()}
              for f in (ci.quadric, ci.cubic))
    origin = (0,) * n
    if origin in t2 or origin in t3:
        return None
    zero = one * 0
    units = [origin[:k] + (1,) + origin[k + 1:] for k in range(n)]
    g2 = [t2.get(e, zero) for e in units]
    if not any(g2):
        raise ValueError("quadric not smooth at %r" % (pt,))
    j = next(k for k, c in enumerate(g2) if c)
    lam = t3.get(units[j], zero) / g2[j]
    if any(t3.get(e, zero) != lam * b for e, b in zip(units, g2)):
        return None
    # the chart at the pivot k drops slot k; v = x0 + lambda goes last,
    # since with the border first matrix_rank's elimination fills in
    k = next(m for m, c in enumerate(pt) if c)
    q2 = {}
    for e, c in t3.items():
        if sum(e) == 2 and not e[k]:
            q2[e[:k] + e[k + 1:] + (0,)] = c
    for e, c in t2.items():
        if sum(e) == 2 and not e[k]:
            key = e[:k] + e[k + 1:] + (0,)
            q2[key] = q2[key] - lam * c if key in q2 else -lam * c
    for m, c in enumerate(g2):
        if c and m != k:
            key = units[m][:k] + units[m][k + 1:] + (1,)
            q2[key] = c
    q2 = {e: c for e, c in q2.items() if c}
    lifted = (-lam,) + pt
    return lifted if quadratic_part_smooth(q2, n, one) else None


def _listed_nodes(ci):
    """The printed 18 and 16 singular points in the coordinates of `ci`,
    over its field."""
    if ci.coords == "plucker":
        return ([tuple(lift(ci.one, c) for c in p) for p in PLUCKER_NODES_18],
                [tuple(lift(ci.one, c) for c in p) for p in PLUCKER_NODES_16])
    return klein_nodes_18(ci.i), klein_nodes_16(ci.i)


def verify_node_inventory(ci):
    """The lifts (node_lift) of the printed 18 and 16 singular points in the
    coordinate system of `ci`, as two lists; raises ValueError if a point
    fails the node test."""
    lifts = []
    for pts in _listed_nodes(ci):
        family = []
        for p in pts:
            lifted = node_lift(ci, p)
            if lifted is None:
                raise ValueError("printed point fails the node test: %r"
                                 % (p,))
            family.append(lifted)
        lifts.append(family)
    return tuple(lifts)


# ---------------------------------------------------------------------------
# the 24 planes and the incidence configuration
# ---------------------------------------------------------------------------

ALPHA_PLANES = [
    ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)),
    ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
    ((0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1)),
    ((0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)),
    ((1, 1, 0, 1, 0, 0), (1, 0, 1, 0, 1, 0), (0, 1, -1, 0, 0, 1)),
    ((1, 1, 0, 1, 0, 0), (-1, 0, 1, 0, 1, 0), (0, -1, -1, 0, 0, 1)),
    ((1, 1, 0, -1, 0, 0), (1, 0, -1, 0, 1, 0), (0, 1, 1, 0, 0, 1)),
    ((1, 1, 0, -1, 0, 0), (-1, 0, -1, 0, 1, 0), (0, -1, 1, 0, 0, 1)),
    ((1, -1, 0, 1, 0, 0), (1, 0, -1, 0, 1, 0), (0, 1, -1, 0, 0, 1)),
    ((1, -1, 0, 1, 0, 0), (-1, 0, -1, 0, 1, 0), (0, -1, -1, 0, 0, 1)),
    ((1, -1, 0, -1, 0, 0), (1, 0, 1, 0, 1, 0), (0, 1, 1, 0, 0, 1)),
    ((1, -1, 0, -1, 0, 0), (-1, 0, 1, 0, 1, 0), (0, -1, 1, 0, 0, 1)),
]

BETA_PLANES = [
    ((1, 0, 0, 0, 0, 0), (0, 1, 0, 1, 0, 0), (0, 0, 1, 0, 1, 0)),
    ((1, 0, 0, 0, 0, 0), (0, 1, 0, -1, 0, 0), (0, 0, 1, 0, -1, 0)),
    ((0, 1, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, -1)),
    ((0, 1, 0, 0, 0, 0), (1, 0, 0, -1, 0, 0), (0, 0, 1, 0, 0, 1)),
    ((0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1)),
    ((0, 0, 1, 0, 0, 0), (1, 0, 0, 0, -1, 0), (0, 1, 0, 0, 0, -1)),
    ((0, 0, 0, 1, 0, 0), (1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1)),
    ((0, 0, 0, 1, 0, 0), (1, -1, 0, 0, 0, 0), (0, 0, 0, 0, 1, -1)),
    ((0, 0, 0, 0, 1, 0), (1, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, -1)),
    ((0, 0, 0, 0, 1, 0), (1, 0, -1, 0, 0, 0), (0, 0, 0, 1, 0, 1)),
    ((0, 0, 0, 0, 0, 1), (0, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 0)),
    ((0, 0, 0, 0, 0, 1), (0, 1, -1, 0, 0, 0), (0, 0, 0, 1, -1, 0)),
]

ALPHA_LABELS = ["(12)(34)", "(13)(24)", "(14)(23)", "1", "(142)", "(132)",
                "(123)", "(124)", "(143)", "(243)", "(234)", "(134)"]
BETA_LABELS = ["(1342)", "(1243)", "(1432)", "(1234)", "(1423)", "(1324)",
               "(12)", "(34)", "(24)", "(13)", "(23)", "(14)"]


class PlaneInP5:
    """Plane in P^5 cut by three independent linear forms (covectors)."""

    def __init__(self, covectors, one, label=None):
        self.covectors = [tuple(lift(one, c) for c in cv) for cv in covectors]
        self.one = one
        self.label = label
        self.basis = cut_out(self.covectors, one, 2, "plane")
        # the nonzero entries (position, value) of each covector
        self.support = [[(k, c) for k, c in enumerate(cv) if c]
                        for cv in self.covectors]

    def contains_point(self, pt):
        """Whether every covector vanishes at pt.  Only the products of two
        nonzero entries are summed: most entries of both are zero."""
        for row in self.support:
            terms = [c * pt[k] for k, c in row if pt[k]]
            if terms and sum(terms[1:], terms[0]):
                return False
        return True


def _span_key(rows):
    """The span of the rows, as the rows of its reduced echelon form: the
    key of a plane of P^5 by its covectors or by a basis."""
    r, _ = rref([list(v) for v in rows])
    return tuple(tuple(row) for row in r)


def klein_plane_list(i=None):
    """The 24 planes V(x_k - eps_k*i*y_{sigma(k)}), eps1*eps2*eps3 = 1,
    enumerated over sigma in S3 (lexicographic) and the four sign vectors."""
    if i is None:
        i = I
    one = one_like(i)
    zero = one * 0
    planes = []
    for sigma in permutations((1, 2, 3)):
        for eps in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
            covs = []
            for k in (1, 2, 3):
                cv = [zero] * 6
                cv[k - 1] = one
                cv[2 + sigma[k - 1]] = -(i * (one * eps[k - 1]))
                covs.append(tuple(cv))
            planes.append(PlaneInP5(covs, one,
                                    label=("sigma", sigma, "eps", eps)))
    return planes


def plucker_plane_list(one=QI(1)):
    """The printed alpha and beta planes with their permutation labels."""
    planes = []
    for covs, lab in zip(ALPHA_PLANES, ALPHA_LABELS):
        planes.append(PlaneInP5(covs, one, label=("alpha", lab)))
    for covs, lab in zip(BETA_PLANES, BETA_LABELS):
        planes.append(PlaneInP5(covs, one, label=("beta", lab)))
    return planes


def plane_contained(ci, plane):
    """Whether both equations vanish identically on the plane."""
    return (restrict(ci.quadric, plane.basis).is_zero()
            and restrict(ci.cubic, plane.basis).is_zero())


def verify_plane_inventory(ci):
    """The incidences of the 24 planes with the printed 18 + 16 nodes, for
    the configuration (24_{3+4}, 18_4 + 16_6): per plane its (first family,
    second family) node counts, and per node of each family its plane
    count.  Raises ValueError on a plane that the complex does not
    contain."""
    if ci.coords == "plucker":
        planes = plucker_plane_list(ci.one)
    else:
        planes = klein_plane_list(ci.i)
    pts1, pts2 = _listed_nodes(ci)
    for pl in planes:
        if not plane_contained(ci, pl):
            raise ValueError("plane not contained in the complex: %r"
                             % (pl.label,))
    per_plane = []
    n1 = [0] * len(pts1)
    n2 = [0] * len(pts2)
    for pl in planes:
        c1 = c2 = 0
        for k, pt in enumerate(pts1):
            if pl.contains_point(pt):
                c1 += 1
                n1[k] += 1
        for k, pt in enumerate(pts2):
            if pl.contains_point(pt):
                c2 += 1
                n2[k] += 1
        per_plane.append((c1, c2))
    return per_plane, n1, n2


# ---------------------------------------------------------------------------
# scanning over prime fields
# ---------------------------------------------------------------------------

def scan_singular_points(p, unit_variant=False):
    """Every point of P^5(F_p) where both Klein equations vanish and the
    Jacobian has rank <= 1, solved exactly from the Lagrange condition
    (see scan.py).  The cubic coefficient is a square root of -1 mod p, or
    1 when unit_variant is set.

    Evidence-only: the scan certifies the count over F_p, not over the
    rationals.  Returns (count, sorted point list as int tuples)."""
    from .scan import run_scan
    if p % 4 != 1:
        raise ValueError("prime must be 1 mod 4")
    c = 1 if unit_variant else sqrt_minus_one(p).v
    pts = run_scan(p, c)
    return len(pts), pts
