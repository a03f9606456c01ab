"""The monomial symmetry group of the cubic line complex in Klein
coordinates: the signed permutation matrices that preserve both equations
up to scalar, which are the group of order 1152 that four named elements
generate, and their orbits on the 34 nodes and the 24 planes.  Of the CLI
suites, only symmetry reads this module.
"""

from itertools import permutations, product

from .linecomplex import (CompleteIntersection35, _span_key, klein_nodes_16,
                          klein_nodes_18, klein_plane_list)
from .poly import proportional_polys
from .projgeom import _orbit, normalize


class SymmetryReport:
    def __init__(self, order, node_orbit_sizes, plane_orbit_count,
                 has_block_swap, closed, elements):
        self.order = order
        self.node_orbit_sizes = node_orbit_sizes
        self.plane_orbit_count = plane_orbit_count
        self.has_block_swap = has_block_swap
        self.closed = closed
        self.elements = elements


def _compose_elements(g, h):
    """Matrix product M_g * M_h acting on points as p -> M p with
    (M p)_j = (-1)^{f_j} p_{pi(j)}, scaled so that f_0 = 0."""
    pig, fg = g
    pih, fh = h
    pi = tuple(pih[pig[j]] for j in range(6))
    flips = [fg[j] ^ fh[pig[j]] for j in range(6)]
    return pi, tuple(f ^ flips[0] for f in flips)


def _apply_element(el, coords):
    pi, flips = el
    return tuple(-coords[p] if f else coords[p] for p, f in zip(pi, flips))


def _element_preserves(el, form):
    """Full symbolic check: form composed with the monomial matrix is a
    nonzero scalar multiple of form."""
    ring = form.ring
    mapping = dict(zip(ring.varnames, _apply_element(el, ring.gens())))
    ok, _ = proportional_polys(form.poly.subst(mapping, ring), form.poly)
    return ok


ONE = (tuple(range(6)), (0,) * 6)
G0 = ((3, 4, 5, 0, 1, 2), (0, 0, 0, 1, 1, 1))
# x1<->x2, the 3-cycle x1->x2->x3, the sign change of x2 and x3, and the
# block swap G0: no three of them generate the fourth
GENERATORS = (((1, 0, 2, 3, 4, 5), (0,) * 6),
              ((1, 2, 0, 3, 4, 5), (0,) * 6),
              ((0, 1, 2, 3, 4, 5), (0, 1, 1, 0, 0, 0)),
              G0)


def monomial_symmetry_group():
    """The monomial 6x6 matrices that preserve both Klein equations,
    x1^2 + ... + y3^2 and x1*x2*x3 + i*y1*y2*y3, up to scalar, as pairs
    (pi, flips): x_j -> (-1)^{f_j} x_{pi(j)} with f_0 = 0.

    Let x_j -> u_j x_{pi(j)} with nonzero u_j.  Each term of the cubic
    goes to a multiple of one monomial, so pi maps the block {1,2,3} to
    itself or to {4,5,6}: 72 permutations.  The quadric's six squares pick
    up u_j^2, which must agree, so every u_j is +-u_1, and projectively
    u_1 = 1: the matrix is a signed permutation.  Let s and t be the sign
    products over the blocks {1,2,3} and {4,5,6}.  When the blocks stay,
    the cubic goes to s*x1*x2*x3 + i*t*y1*y2*y3, so s = t; when they swap,
    to i*t*x1*x2*x3 + s*y1*y2*y3, so s = i*(i*t) = -t.  So the six signs
    multiply to +1 when the blocks stay and to -1 when they swap: 16 of
    the 32 sign choices for each permutation, 1152 in all.  The derivation
    is checked, not trusted: each of the four GENERATORS gets a full
    symbolic verification of both equations (invariance up to scalar is
    multiplicative), and one that fails raises ValueError.  One orbit
    search from ONE then closes the group they generate, and `closed`
    says that the derived set is that group: closed under composition,
    and every element a product of verified symmetries.  The node and
    plane orbits are searched along the same four.  Reports projective
    order, node orbit sizes, and the number of plane orbits.
    """
    elements = set()
    for pi in permutations(range(6)):
        img = set(pi[:3])
        if img not in ({0, 1, 2}, {3, 4, 5}):
            continue
        swap = img == {3, 4, 5}
        for flips in product((0, 1), repeat=5):
            if sum(flips) % 2 == swap:
                elements.add((pi, (0,) + flips))

    ci = CompleteIntersection35.klein()
    for el in GENERATORS:
        for name, form in (("quadric", ci.quadric), ("cubic", ci.cubic)):
            if not _element_preserves(el, form):
                raise ValueError("monomial element %s does not preserve "
                                 "the %s" % (el, name))
    group = _orbit(ONE, GENERATORS, _compose_elements)

    node_keys = [normalize(p) for p in klein_nodes_18() + klein_nodes_16()]
    orbit_sizes = _orbit_sizes(node_keys, GENERATORS, _apply_point)

    plane_keys = [_span_key(pl.basis) for pl in klein_plane_list()]
    plane_orbits = len(_orbit_sizes(plane_keys, GENERATORS, _apply_plane))

    return SymmetryReport(len(elements), sorted(orbit_sizes),
                          plane_orbits, G0 in elements, group == elements,
                          elements)


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
