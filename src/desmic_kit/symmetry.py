"""The monomial symmetry group of the cubic line complex in Klein
coordinates: the monomial 6x6 matrices with entries in {1, i, -1, -i} that
preserve both equations up to scalar, their closure (order 1152 as a
projective group) and their orbits on the 34 nodes and the 24 planes.
Of the CLI suites, only symmetry reads this module.
"""

from itertools import permutations, product

from .linecomplex import (CompleteIntersection35, _span_key, klein_nodes_16,
                          klein_nodes_18, klein_plane_list)
from .poly import proportional_polys
from .projgeom import _orbit, normalize
from .scalars import I, QI


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
