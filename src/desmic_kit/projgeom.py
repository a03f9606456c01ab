"""Projective geometry: points of projective space of any dimension, and
planes and lines of P^3, a line with its Plucker coordinates.

Plucker convention: (p12, p13, p14, p23, p24, p34), satisfying
p12*p34 - p13*p24 + p14*p23 = 0.

A point of any projective space is a ProjPoint; normalize() gives its key.
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
