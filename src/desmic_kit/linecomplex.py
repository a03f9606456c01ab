"""The cubic complex of lines attached to a net of quadrics in P^3.

The complex is a complete intersection of the Grassmannian quadric with a
cubic hypersurface in P^5.  Two coordinate systems are supported: Plucker
coordinates (x1..x6) = (p12,p13,p14,p23,p24,p34), and Klein coordinates
(x1,x2,x3,y1,y2,y3) in which the pair of equations becomes

    x1^2+x2^2+x3^2+y1^2+y2^2+y3^2 = 0,   x1*x2*x3 + i*y1*y2*y3 = 0.

The module verifies the 34 singular points (all ordinary nodes), the 24
planes and their incidence configuration (24_{3+4}, 18_4+16_6), the monomial
symmetry group of order 1152, the projected quartic threefold in P^4 with 17
nodes and 4 singular lines, and the identification with the associated
variety of a 35-nodal cubic in P^6.
"""

from itertools import permutations, product

from .forms import Form, cut_out, polar_matrix, restrict, taylor
from .matrices import matrix_rank, nullspace, rref
from .poly import PolyRing, proportional_polys
from .projgeom import _orbit, normalize
from .scalars import I, Mod, QI, field_i, lift, one_like, sqrt_minus_one


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

    Value, gradient and quadratic part of each equation come from one
    degree-2 Taylor expansion at the normalized point.  In the affine chart
    with the pivot (the leading nonzero coordinate) set to 1, the quadratic
    part q of cubic - lambda*quadric lives on the other five coordinates,
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
    t2 = taylor(ci.quadric, pt, 2)
    t3 = taylor(ci.cubic, pt, 2)

    def coeff(t, e):
        c = t.get(e)
        return zero if c is None else c.constant_coeff()

    on2 = (0,) * n not in t2
    on3 = (0,) * n not in t3
    units = [tuple(int(k == m) for m in range(n)) for k in range(n)]
    g2 = [coeff(t2, e) for e in units]
    g3 = [coeff(t3, e) for e in units]
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
    q = {e[:pivot] + e[pivot + 1:]: coeff(t3, e) - lam * coeff(t2, e)
         for e in set(t2) | set(t3) if sum(e) == 2 and not e[pivot]}
    h = polar_matrix(q, n - 1, one)
    bordered = [row + [l] for row, l in zip(h, lin)] + [lin + [zero]]
    return NodeReport(pt, True, 1, lam, matrix_rank(bordered) - 2)


class NodeInventory:
    """The 34 singular points, partitioned 18 + 16, with node reports."""

    def __init__(self, sing1, sing2, reports1, reports2):
        if (len(sing1), len(sing2)) != (18, 16):
            raise ValueError("%d + %d singular points, not 18 + 16"
                             % (len(sing1), len(sing2)))
        self.sing1 = sing1
        self.sing2 = sing2
        self.reports1 = reports1
        self.reports2 = reports2

    @property
    def all_nodes(self):
        return all(r.is_node for r in self.reports1 + self.reports2)


def _listed_nodes(ci):
    """The printed 18 and 16 singular points in the coordinates of `ci`,
    over its field."""
    if ci.coords == "plucker":
        return ([tuple(lift(ci.one, c) for c in p) for p in PLUCKER_NODES_18],
                [tuple(lift(ci.one, c) for c in p) for p in PLUCKER_NODES_16])
    return klein_nodes_18(ci.i), klein_nodes_16(ci.i)


def verify_node_inventory(ci):
    """Check the full printed list of 34 singular points in the coordinate
    system of `ci`; raises if any point fails a check."""
    pts1, pts2 = _listed_nodes(ci)
    reps1 = [ci_node_report(ci, p) for p in pts1]
    reps2 = [ci_node_report(ci, p) for p in pts2]
    for r in reps1 + reps2:
        if not r.is_node:
            raise ValueError("printed point fails the node test: %r" % (r,))
    return NodeInventory(pts1, pts2, reps1, reps2)


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
        self.basis = cut_out(covectors, one, 2, "plane")
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


class PlaneInventory:
    """24 planes with their node counts: per plane (first family, second
    family), and per node of each family."""

    def __init__(self, planes, per_plane, per_node1, per_node2):
        self.planes = planes
        self.per_plane = per_plane
        self.per_node1 = per_node1
        self.per_node2 = per_node2

    @property
    def configuration_ok(self):
        return (all(c == (3, 4) for c in self.per_plane)
                and all(c == 4 for c in self.per_node1)
                and all(c == 6 for c in self.per_node2))


def verify_plane_inventory(ci):
    """Containment of all 24 planes plus the incidence counts of the
    configuration (24_{3+4}, 18_4 + 16_6)."""
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
    n1 = [0] * 18
    n2 = [0] * 16
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
    return PlaneInventory(planes, per_plane, n1, n2)


# ---------------------------------------------------------------------------
# the monomial symmetry group
# ---------------------------------------------------------------------------

class SymmetryReport:
    def __init__(self, order, node_orbit_sizes, plane_orbit_count,
                 has_block_swap, closed, elements):
        self.order = order
        self.node_orbit_sizes = node_orbit_sizes
        self.plane_orbit_count = plane_orbit_count
        self.has_block_swap = has_block_swap
        self.closed = closed
        self.elements = elements


def _canonical_element(pi, exps):
    base = exps[0]
    return (pi, tuple((e - base) % 4 for e in exps))


def _compose_elements(g, h):
    """Matrix product M_g * M_h acting on points as p -> M p with
    (M p)_j = i^{e_j} p_{pi(j)}."""
    pig, eg = g
    pih, eh = h
    pi = tuple(pih[pig[j]] for j in range(6))
    exps = tuple((eg[j] + eh[pig[j]]) % 4 for j in range(6))
    return _canonical_element(pi, exps)


def _apply_element(el, coords):
    pi, exps = el
    out = []
    for j in range(6):
        c = coords[pi[j]]
        for _ in range(exps[j] % 4):
            c = c * I
        out.append(c)
    return tuple(out)


def _element_preserves(el, form):
    """Full symbolic check: form composed with the monomial matrix is a
    nonzero scalar multiple of form."""
    ring = form.ring
    gens = ring.gens()
    pi, exps = el
    unit = [QI(1), I, QI(-1), -I]
    mapping = {name: gens[pi[j]].scale(unit[exps[j] % 4])
               for j, name in enumerate(ring.varnames)}
    ok, _ = proportional_polys(form.poly.subst(mapping, ring), form.poly)
    return ok


def _generators(elements):
    """(gens, group): walking sorted(elements), an element becomes a
    generator when the earlier ones do not span it, and group is what gens
    span.  So elements is closed exactly when group == elements (Sims 1970)."""
    one = _canonical_element(tuple(range(6)), (0,) * 6)
    gens, group = [], {one}
    for el in sorted(elements):
        if el not in group:
            gens.append(el)
            group = _orbit(one, gens, _compose_elements)
    return gens, group


def monomial_symmetry_group():
    """The monomial 6x6 matrices with nonzero entries i^e_k in
    {1, i, -1, -i} that preserve both Klein equations up to scalar.

    The loop walks the 720 permutations and, for each one that maps the
    block {1,2,3} to itself or to {4,5,6}, the 4^6 exponent tuples; it
    keeps the tuples that meet the necessary conditions below.  Any other
    permutation sends x1*x2*x3 to a monomial outside the support of the
    cubic with a unit coefficient, so no sign choice can work.  The
    exponents must (1) share one parity, since the quadric's six squares
    pick up the factors i^(2*e_k) = (-1)^e_k, which must agree; and
    (2) satisfy e1 + e2 + e3 - e4 - e5 - e6 = shift (mod 4), with shift 0
    when the blocks stay and 2 when they swap, since the cubic's terms
    x1*x2*x3 and i*y1*y2*y3 must pick up one common factor.  The
    survivors are checked along a generating set that spans them: each
    generator gets a full symbolic verification (invariance up to scalar
    is multiplicative), and one that fails raises ValueError.  Reports
    projective order, node orbit sizes, and the number of plane orbits; a
    closure beyond 1152 is a failure.
    """
    elements = set()
    for pi in permutations(range(6)):
        img = frozenset(pi[k] for k in (0, 1, 2))
        if img == frozenset((0, 1, 2)):
            shift = 0
        elif img == frozenset((3, 4, 5)):
            shift = 2
        else:
            continue
        for exps in product(range(4), repeat=6):
            par = exps[0] % 2
            if any(e % 2 != par for e in exps):
                continue
            if (exps[0] + exps[1] + exps[2]
                    - exps[3] - exps[4] - exps[5] - shift) % 4:
                continue
            elements.add(_canonical_element(pi, exps))
    gens, group = _generators(elements)

    ci = CompleteIntersection35.klein()
    for el in gens:
        for name, form in (("quadric", ci.quadric), ("cubic", ci.cubic)):
            if not _element_preserves(el, form):
                raise ValueError("monomial element %s does not preserve "
                                 "the %s" % (el, name))

    g0 = _canonical_element((3, 4, 5, 0, 1, 2), (2, 2, 2, 0, 0, 0))
    has_g0 = g0 in elements

    node_keys = [normalize(p) for p in klein_nodes_18() + klein_nodes_16()]
    orbit_sizes = _orbit_sizes(node_keys, gens, _apply_point)

    plane_keys = [_span_key(pl.basis) for pl in klein_plane_list()]
    plane_orbits = len(_orbit_sizes(plane_keys, gens, _apply_plane))

    return SymmetryReport(len(elements), sorted(orbit_sizes),
                          plane_orbits, has_g0, group == elements, elements)


def _apply_point(el, key):
    return normalize(_apply_element(el, key))


def _apply_plane(el, key):
    return _span_key(_apply_element(el, b) for b in key)


def _orbit_sizes(keys, gens, action):
    """Sizes of the orbits that the group generated by gens makes on keys,
    in the order of their first key; see _orbit."""
    keyset, seen, sizes = set(keys), set(), []
    for seed in keys:
        if seed not in seen:
            orbit = _orbit(seed, gens, action, keyset)
            seen |= orbit
            sizes.append(len(orbit))
    return sizes


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


# ---------------------------------------------------------------------------
# projection to a quartic threefold in P^4
# ---------------------------------------------------------------------------

X_RING = PolyRing(["x1", "x2", "x3", "x4", "x5"])

PROJECTED_NODES_17 = [
    (1, 0, 0, 0, 0), (1, 0, 0, 1, 1), (1, 0, 0, -1, 1), (1, 1, 0, 0, 1),
    (1, -1, 0, 0, 1), (1, 0, 0, 1, -1), (1, 0, 0, -1, -1), (1, 1, 0, 0, -1),
    (1, -1, 0, 0, -1), (1, 0, 1, 1, 0), (1, 0, 1, -1, 0), (1, 1, 1, 0, 0),
    (1, -1, 1, 0, 0), (1, 0, -1, 1, 0), (1, 0, -1, -1, 0), (1, 1, -1, 0, 0),
    (1, -1, -1, 0, 0),
]

SINGULAR_LINES_4 = [
    ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 0)),
    ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1)),
    ((1, 0, 0, 0, 0), (0, 1, 0, -1, 0), (0, 0, 1, 0, -1)),
    ((1, 0, 0, 0, 0), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1)),
]


def projected_quartic():
    """The quartic threefold obtained by eliminating x6 from the cubic along
    the Grassmannian quadric."""
    x1, x2, x3, x4, x5 = X_RING.gens()
    return (x1 * x1 * x2 * x4 - x1 * x1 * x3 * x5 + x2 * x2 * x3 * x5
            - x2 * x3 * x3 * x4 + x3 * x4 * x4 * x5 - x2 * x4 * x5 * x5)


def _line_on_and_singular(form, covectors):
    basis = cut_out(covectors, form.ring.one, 1, "line")
    if not restrict(form, basis).is_zero():
        return False
    return all(restrict(Form(g, form.coord_vars), basis).is_zero()
               for g in form.partials())


def project_to_quartic_threefold():
    """Eliminate x6 and verify: the rewriting identity, the elimination
    identity x1*cubic + X = (x4x5 - x2x3)*quadric, the 17 printed nodes, and
    the four printed singular lines."""
    from .surfaces import node_check
    ci = CompleteIntersection35.plucker()
    x1p, x2p, x3p, x4p, x5p, x6p = ci.ring.gens()
    X = projected_quartic()
    x1, x2, x3, x4, x5 = X_RING.gens()
    rewrite = (x1 * x1 * (x2 * x4 - x3 * x5)
               + (x2 * x3 - x4 * x5) * (x2 * x5 - x3 * x4))
    rewrite_ok = X == rewrite

    mapping = {n: ci.ring.var(n) for n in X_RING.varnames}
    x_in6 = X.subst(mapping, ci.ring)
    elim_ok = (x1p * ci.cubic.poly + x_in6
               == (x4p * x5p - x2p * x3p) * ci.quadric.poly)

    form = Form(X)
    node_flags = [node_check(form, pt) for pt in PROJECTED_NODES_17]
    line_flags = [_line_on_and_singular(form, covs)
                  for covs in SINGULAR_LINES_4]
    return {
        "rewrite_identity": rewrite_ok,
        "elimination_identity": elim_ok,
        "nodes_ok": all(node_flags),
        "node_flags": node_flags,
        "singular_lines_ok": all(line_flags),
    }


RATIONALITY_PLANES = [
    ((0, 1, 0, 0, 0), (0, 0, 1, 0, 0)),
    ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
    ((1, -1, 0, 1, 0), (1, 0, -1, 0, 1)),
]

RATIONALITY_INTERSECTIONS = {
    (0, 1): (1, 0, 0, 0, 0),
    (1, 2): (1, 1, 1, 0, 0),
    (2, 0): (1, 0, 0, -1, -1),
}


def rationality_planes_check():
    """The three planes used in the rationality argument lie on the quartic
    threefold and meet pairwise in the printed points."""
    X = Form(projected_quartic())
    one = X.ring.one
    for covs in RATIONALITY_PLANES:
        if not restrict(X, cut_out(covs, one, 2, "plane")).is_zero():
            return False
    for (a, b), printed in RATIONALITY_INTERSECTIONS.items():
        rows = [[lift(one, c) for c in cv]
                for cv in RATIONALITY_PLANES[a] + RATIONALITY_PLANES[b]]
        ker = nullspace(rows, one)
        if len(ker) != 1:
            return False
        if normalize(ker[0]) != normalize([lift(one, c) for c in printed]):
            return False
    return True


# ---------------------------------------------------------------------------
# the 35-nodal cubic in P^6
# ---------------------------------------------------------------------------

def cubic_sevenfold(one=None, i=None):
    """x0*(x1^2+...+x6^2) + x1*x2*x3 + i*x4*x5*x6, the cubic in P^6 whose
    associated variety at [1,0,...,0] is the Klein-form complex: x0 times
    its quadric plus its cubic, shifted into x1..x6."""
    ci = CompleteIntersection35.klein(i=i, one=one)
    ring = PolyRing(["x0", "x1", "x2", "x3", "x4", "x5", "x6"], ci.one)
    shift = dict(zip(KLEIN_NAMES, ring.gens()[1:]))
    return Form(ring.var("x0") * ci.quadric.poly.subst(shift, ring)
                + ci.cubic.poly.subst(shift, ring))


def segre_t_forms(ring):
    """The eight printed linear forms identifying the cubic with the Segre
    cubic in P^6."""
    x0, x1, x2, x3, x4, x5, x6 = ring.gens()
    i = field_i(ring.one)
    two_x0 = x0.scale(lift(ring.one, 2))
    t0 = two_x0 + x1 - x2 - x3
    t1 = two_x0 - x1 + x2 - x3
    t2 = two_x0 - x1 - x2 + x3
    t3 = two_x0 + x1 + x2 + x3
    t4 = -two_x0 - (x4 + x5 + x6).scale(i)
    t5 = -two_x0 + (x4 + x5 - x6).scale(i)
    t6 = -two_x0 + (x4 - x5 + x6).scale(i)
    t7 = -two_x0 + (-x4 + x5 + x6).scale(i)
    return [t0, t1, t2, t3, t4, t5, t6, t7]


def segre_isomorphism_check(scan_prime=13):
    """The printed linear change takes the cubic to the Segre cubic: the sum
    of the eight forms is zero and the sum of their cubes is one nonzero
    scalar multiple of the cubic.  Also verifies, over F_p, that the 35
    candidate singular points (34 lifted from the complex plus the cone
    point) are distinct ordinary nodes of the cubic."""
    from .surfaces import node_check
    f = cubic_sevenfold()
    ring = f.ring
    ts = segre_t_forms(ring)
    total = ring.zero()
    cubes = ring.zero()
    for t in ts:
        total = total + t
        cubes = cubes + t * t * t
    sum_zero = total.is_zero()
    ok, lam = proportional_polys(cubes, f.poly)
    if not (sum_zero and ok and lam):
        raise ValueError("printed change of variables fails")

    p = scan_prime
    one = Mod(1, p)
    ip = sqrt_minus_one(p)
    ci = CompleteIntersection35.klein(i=ip, one=one)
    inv = verify_node_inventory(ci)
    fp = cubic_sevenfold(one=one, i=ip)
    seen = set()
    for rep in inv.reports1 + inv.reports2:
        cand = (-rep.tangent_lambda,) + tuple(rep.point)
        if not node_check(fp, cand):
            raise ValueError("lifted point is not a node: %r" % (cand,))
        seen.add(normalize(cand))
    cone = (one,) + (one * 0,) * 6
    if not node_check(fp, cone):
        raise ValueError("cone point is not a node")
    seen.add(normalize(cone))
    return {"sum_zero": sum_zero, "lambda": lam, "nodes_mod_p": len(seen)}
