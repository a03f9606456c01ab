"""The cubic line complex beyond its nodes and planes: the projection
from a node to a quartic threefold in P^4 with 17 nodes and 4 singular
lines, the three planes of its rationality argument, and the 35-nodal cubic
in P^6 whose associated variety is the complex
(CompleteIntersection35.associated_cubic), with the printed change of
variables to the Segre cubic.  Its 35 nodes are the 34 lifts that the node
test of linecomplex returns and the cone point, each counted only when
forms.node_check passes on the cubic there.  Of the CLI suites, only
cremona reads this module.  The projected quartic, its printed nodes,
lines and planes are data here: the checks test the nodes with
forms.node_check and the lines with line_singular_on, and the verifiers
(verify_rationality_planes, segre_isomorphism_check) raise ValueError
naming the claim that fails.
"""

from .forms import Form, cut_out, node_check, restrict
from .linecomplex import CompleteIntersection35, verify_node_inventory
from .matrices import nullspace
from .poly import PolyRing, proportional_polys
from .projgeom import normalize
from .scalars import Mod, field_i, lift, sqrt_minus_one


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


def line_singular_on(form, covectors):
    """True iff the line cut out by the covectors lies on V(form) and every
    partial of the form vanishes along it.  Raises ValueError unless the
    covectors cut out a line."""
    basis = cut_out(covectors, form.ring.one, 1, "line")
    return all(restrict(Form(g, form.coord_vars), basis).is_zero()
               for g in [form.poly] + form.partials())


def projection_identity_parts():
    """(lhs, rhs) of the rewriting identity
    X = x1^2 (x2x4 - x3x5) + (x2x3 - x4x5)(x2x5 - x3x4) and of the
    elimination identity x1*cubic + X = (x4x5 - x2x3)*quadric in P^5."""
    ci = CompleteIntersection35.plucker()
    x1p, x2p, x3p, x4p, x5p, x6p = ci.ring.gens()
    X = projected_quartic()
    x1, x2, x3, x4, x5 = X_RING.gens()
    rewrite = (x1 * x1 * (x2 * x4 - x3 * x5)
               + (x2 * x3 - x4 * x5) * (x2 * x5 - x3 * x4))
    x_in6 = X.subst({n: ci.ring.var(n) for n in X_RING.varnames}, ci.ring)
    return ((X, rewrite),
            (x1p * ci.cubic.poly + x_in6,
             (x4p * x5p - x2p * x3p) * ci.quadric.poly))


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


def verify_rationality_planes():
    """The three planes used in the rationality argument lie on the quartic
    threefold and meet pairwise in the printed points.  Raises ValueError
    naming the plane that is not on it, or the pair that meets elsewhere."""
    X = Form(projected_quartic())
    one = X.ring.one
    for k, covs in enumerate(RATIONALITY_PLANES):
        if not restrict(X, cut_out(covs, one, 2, "plane")).is_zero():
            raise ValueError("rationality plane %d is not on the quartic "
                             "threefold" % k)
    for (a, b), printed in RATIONALITY_INTERSECTIONS.items():
        rows = [[lift(one, c) for c in cv]
                for cv in RATIONALITY_PLANES[a] + RATIONALITY_PLANES[b]]
        ker = nullspace(rows, one)
        if (len(ker) != 1 or normalize(ker[0])
                != normalize([lift(one, c) for c in printed])):
            raise ValueError("rationality planes %d and %d do not meet in "
                             "the printed point %r" % (a, b, printed))


# ---------------------------------------------------------------------------
# the 35-nodal cubic in P^6
# ---------------------------------------------------------------------------

def segre_t_forms(ring):
    """The eight printed linear forms identifying the cubic with the Segre
    cubic in P^6."""
    x0, x1, x2, x3, x4, x5, x6 = ring.gens()
    i = field_i(ring.one)
    two_x0 = x0.scale(2)
    t0 = two_x0 + x1 - x2 - x3
    t1 = two_x0 - x1 + x2 - x3
    t2 = two_x0 - x1 - x2 + x3
    t3 = two_x0 + x1 + x2 + x3
    t4 = -two_x0 - (x4 + x5 + x6).scale(i)
    t5 = -two_x0 + (x4 + x5 - x6).scale(i)
    t6 = -two_x0 + (x4 - x5 + x6).scale(i)
    t7 = -two_x0 + (-x4 + x5 + x6).scale(i)
    return [t0, t1, t2, t3, t4, t5, t6, t7]


# the prime over which the 35 nodes of the cubic are counted
SEGRE_PRIME = 13


def segre_isomorphism_check():
    """The printed linear change takes the associated cubic of the Klein
    complex to the Segre cubic: the sum of the eight forms is zero and the
    sum of their cubes is one nonzero scalar multiple of the cubic.  Also
    counts, over F_p, the distinct ordinary nodes of the cubic among the 34
    lifts of the printed nodes of the complex (verify_node_inventory) and
    the cone point, each tested by forms.node_check on the cubic itself.
    Raises ValueError when a claim fails (node_check raises on a lift at
    which the cubic is not singular), and returns the scalar and the number
    of distinct nodes."""
    f = CompleteIntersection35.klein().associated_cubic()
    ring = f.ring
    ts = segre_t_forms(ring)
    total = ring.zero()
    cubes = ring.zero()
    for t in ts:
        total = total + t
        cubes = cubes + t * t * t
    ok, lam = proportional_polys(cubes, f.poly)
    if not (total.is_zero() and ok and lam):
        raise ValueError("printed change of variables fails")

    one = Mod(1, SEGRE_PRIME)
    ci = CompleteIntersection35.klein(i=sqrt_minus_one(SEGRE_PRIME), one=one)
    lifts1, lifts2 = verify_node_inventory(ci)
    cubic = ci.associated_cubic()
    cone = (one,) + (one * 0,) * 6
    seen = {normalize(p) for p in lifts1 + lifts2 + [cone]
            if node_check(cubic, p)}
    return {"lambda": lam, "nodes_mod_p": len(seen)}
