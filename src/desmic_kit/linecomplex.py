"""The cubic complex of lines attached to a net of quadrics in P^3.

The complex is a complete intersection of the Grassmannian quadric with a
cubic hypersurface in P^5.  Two coordinate systems are supported: Plucker
coordinates (x1..x6) = (p12,p13,p14,p23,p24,p34), and Klein coordinates
(x1,x2,x3,y1,y2,y3) in which the pair of equations becomes

    x1^2+x2^2+x3^2+y1^2+y2^2+y3^2 = 0,   x1*x2*x3 + i*y1*y2*y3 = 0.

The module verifies the 34 singular points (all ordinary nodes) and the 24
planes with their incidence configuration (24_{3+4}, 18_4+16_6), and scans
for singular points over prime fields.  The monomial symmetry group of
order 1152 is in symmetry; the projected quartic threefold in P^4 with 17
nodes and 4 singular lines and the identification with the associated
variety of a 35-nodal cubic in P^6 are in cremona.
"""

from itertools import permutations, product

from .forms import Form, cut_out, hasse_at, polar_matrix, restrict
from .matrices import matrix_rank, rref
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
        self.char = quadric.char
        self.i = i
        self.ring = quadric.ring
        self.one = quadric.ring.one

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


class NodeReport:
    """Per-point data for the complete-intersection node test."""

    def __init__(self, point, on_both, jacobian_rank, tangent_lambda,
                 restricted_rank):
        self.point = point
        self.on_both = on_both
        self.jacobian_rank = jacobian_rank
        self.tangent_lambda = tangent_lambda
        self.restricted_rank = restricted_rank

    @property
    def is_node(self):
        return self.on_both and self.jacobian_rank == 1 \
            and self.restricted_rank == 4

    def __repr__(self):
        return ("NodeReport(point=%r, node=%r)" % (self.point, self.is_node))


def ci_node_report(ci, pt):
    """Ordinary-node test at a point of the complete intersection: both
    equations vanish, the 2x6 Jacobian has rank exactly 1, and the quadratic
    part of cubic - lambda*quadric restricted to the tangent space of the
    quadric has rank 4.

    Value, gradient and quadratic part of each equation are the
    parameter-free entries of one degree-2 forms.hasse_at expansion at the
    normalized point, read from the form's Hasse table (the forms have no
    parameters; see __init__).  In the affine chart with the pivot (the
    leading nonzero coordinate) set to 1, the quadratic part q of
    cubic - lambda*quadric lives on the other five coordinates,
    with polar matrix H, and the tangent space of the quadric is T = ker l
    for its gradient l there.  The rank of H on T is that of the bordered
    matrix [[H, l^t], [l, 0]] minus 2.  This holds for any bilinear H and
    any covector l != 0, in every characteristic: in a basis of ker l plus
    one vector v with l(v) = 1 the border is (0, ..., 0, 1), and row and
    column operations with its two unit entries clear row and column v of
    H, leaving H on ker l and a 2x2 block [[0, 1], [1, 0]] of rank 2.

    Rank 4 is the criterion of quadratic_part_smooth for q on T, in every
    characteristic: in an even number of variables a quadric is smooth
    exactly when its polar form is nondegenerate.  In characteristic 2 the
    polar form is alternating, so its kernel on the 4-dimensional T has even
    dimension and the one-dimensional kernel that quadratic_part_smooth
    admits cannot occur; otherwise q(w) is half the polar value at (w, w),
    which vanishes on the kernel."""
    one = ci.one
    zero = one * 0
    pt = normalize([lift(one, c) for c in pt])
    n = len(pt)
    t2 = {e: d[()] for e, d in hasse_at(ci.quadric, pt, 2).items()}
    t3 = {e: d[()] for e, d in hasse_at(ci.cubic, pt, 2).items()}
    on2 = (0,) * n not in t2
    on3 = (0,) * n not in t3
    units = [tuple(int(k == m) for m in range(n)) for k in range(n)]
    g2 = [t2.get(e, zero) for e in units]
    g3 = [t3.get(e, zero) for e in units]
    jrank = matrix_rank([g2, g3])
    if not (on2 and on3) or jrank != 1:
        return NodeReport(pt, on2 and on3, jrank, None, 0)
    # the pivot is 1 in the chart; the other five coordinates are local
    pivot = next(k for k, c in enumerate(pt) if c)
    lin = g2[:pivot] + g2[pivot + 1:]
    if not any(lin):
        raise ValueError("quadric not smooth at %r" % (pt,))
    # rank 1 with g2 != 0: the cubic's gradient is lam times the quadric's
    j = next(k for k, v in enumerate(g2) if v)
    lam = g3[j] / g2[j]
    q = {e[:pivot] + e[pivot + 1:]: t3.get(e, zero) - lam * t2.get(e, zero)
         for e in set(t2) | set(t3) if sum(e) == 2 and not e[pivot]}
    h = polar_matrix(q, n - 1, one)
    bordered = [row + [l] for row, l in zip(h, lin)] + [lin + [zero]]
    return NodeReport(pt, True, 1, lam, matrix_rank(bordered) - 2)


def _listed_nodes(ci):
    """The printed 18 and 16 singular points in the coordinates of `ci`,
    over its field."""
    if ci.coords == "plucker":
        return ([tuple(lift(ci.one, c) for c in p) for p in PLUCKER_NODES_18],
                [tuple(lift(ci.one, c) for c in p) for p in PLUCKER_NODES_16])
    return klein_nodes_18(ci.i), klein_nodes_16(ci.i)


def verify_node_inventory(ci):
    """The node reports of the printed 18 and 16 singular points in the
    coordinate system of `ci`, as two lists; raises ValueError if a point
    fails the node test."""
    pts1, pts2 = _listed_nodes(ci)
    reps1 = [ci_node_report(ci, p) for p in pts1]
    reps2 = [ci_node_report(ci, p) for p in pts2]
    for r in reps1 + reps2:
        if not r.is_node:
            raise ValueError("printed point fails the node test: %r" % (r,))
    return reps1, reps2


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
