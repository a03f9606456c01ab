"""Projective geometry: the projective key of a point, the orbit search,
and lines of P^3 with their Plucker coordinates.

Plucker convention: (p12, p13, p14, p23, p24, p34), satisfying
p12*p34 - p13*p24 + p14*p23 = 0.

A point of any projective space, and a plane of P^3, is a tuple of field
coordinates (see scalars.lift); normalize() gives its key.
_orbit() is the one orbit search: group closure, orbits, coset subgroups
and fiber connectivity.
"""

from fractions import Fraction

from .matrices import matrix_rank, nullspace
from .scalars import lift, one_like


def _orbit(seed, gens, action, keys=None):
    """The orbit of seed under what gens generate: a breadth-first search
    making |orbit|*|gens| calls of action(g, x) (Seress, Permutation Group
    Algorithms, 2003).  An image outside keys, if given, raises ValueError."""
    orbit = {seed}
    frontier = [seed]
    for x in frontier:
        for g in gens:
            y = action(g, x)
            if y not in orbit:
                if keys is not None and y not in keys:
                    raise ValueError("the orbit of %s leaves the verified set"
                                     % (seed,))
                orbit.add(y)
                frontier.append(y)
    return orbit


def normalize(coords):
    """The projective key of a coordinate vector: every entry divided by
    the first nonzero one.  The entries must be field elements already
    (see scalars.lift); a zero vector raises ValueError."""
    lead = next((c for c in coords if c), None)
    if lead is None:
        raise ValueError("zero coordinate vector")
    return tuple(c / lead for c in coords)


PLUCKER_INDEX = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class LineP3:
    """Line in P^3 through two points, given as coordinate sequences, with
    cached Plucker coordinates (p12,p13,p14,p23,p24,p34).  Int and Fraction
    coordinates are lifted into the rationals."""

    __slots__ = ("p", "q", "plucker")

    def __init__(self, p, q):
        p = tuple(lift(Fraction(1), c) for c in p)
        q = tuple(lift(Fraction(1), c) for c in q)
        pl = tuple(p[i] * q[j] - p[j] * q[i] for i, j in PLUCKER_INDEX)
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

    def __reduce__(self):
        return LineP3, (self.p, self.q)

    @classmethod
    def from_planes(cls, h1, h2):
        """The intersection line of two distinct planes, given as
        covector sequences."""
        rows = [[lift(Fraction(1), c) for c in h] for h in (h1, h2)]
        ker = nullspace(rows, one_like(rows[0][0]))
        if len(ker) != 2:
            raise ValueError("planes do not meet in a line")
        return cls(ker[0], ker[1])

    def contains(self, pt):
        return matrix_rank([list(self.p), list(self.q),
                            [lift(Fraction(1), c) for c in pt]]) == 2

    def __repr__(self):
        return "LineP3(%r)" % (list(self.plucker),)
