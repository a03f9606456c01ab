"""Homogeneous forms with designated coordinates, their Taylor expansion at
a point, and the polar matrix of a quadratic form: what the node tests of
surfaces and linecomplex share.

Forms may carry symbolic parameters: a Form records which ring variables are
projective coordinates; the remaining variables are parameters, and all
verdicts are then generic (over the rational function field in the
parameters).  The generic node verdict is det(polar matrix) != 0 in the
parameter ring, in odd characteristic (surfaces.node_check).
"""

from itertools import product
from math import comb

from .poly import MultiPoly, PolyRing
from .scalars import lift


class Form:
    """Homogeneous polynomial with a designated set of coordinate variables."""

    def __init__(self, poly, coord_vars=None):
        self.poly = poly
        self.ring = poly.ring
        if coord_vars is None:
            coord_vars = poly.ring.varnames
        self.coord_vars = tuple(coord_vars)
        self.coord_idx = [poly.ring.varnames.index(v) for v in self.coord_vars]
        degs = {sum(e[i] for i in self.coord_idx) for e in poly.coeffs}
        if len(degs) > 1:
            raise ValueError("form not homogeneous in its coordinates")
        self.degree = degs.pop() if degs else -1
        self.char = poly.ring.char

    def partials(self):
        return [self.poly.diff(v) for v in self.coord_vars]

    def __repr__(self):
        return "Form(%r)" % (self.poly,)


def taylor(f, p, degree):
    """Taylor coefficients of the form f at the point p, up to total degree
    `degree` in the local coordinates u = x - p.

    Returns a dict mapping each exponent tuple e (one slot per coordinate
    variable) to the nonzero coefficient of u^e, a polynomial in the
    parameters of f.  That coefficient is the Hasse derivative D^(e) f at
    p: a term c*x^a*t^b of f contributes c*C(a, e)*p^(a-e)*t^b for every
    e <= a with |e| <= degree, where C(a, e) is the product of the binomial
    coefficients C(a_i, e_i) mapped into the field.  No division by e! is
    involved, so the expansion is exact in every characteristic (Hasse
    1936, J. reine angew. Math. 175)."""
    one = f.ring.one
    point = [lift(one, c) for c in p]
    if len(point) != len(f.coord_vars):
        raise ValueError("point %r has %d coordinates, the form %d"
                         % (point, len(point), len(f.coord_vars)))
    params = [k for k in range(f.ring.nvars()) if k not in f.coord_idx]
    powers = []
    for c in point:
        row = [one]
        for _ in range(max(f.degree, 0)):
            row.append(row[-1] * c)
        powers.append(row)
    buckets = {}
    for exp, c in f.poly.coeffs.items():
        a = [exp[k] for k in f.coord_idx]
        b = tuple(exp[k] for k in params)
        # a zero coordinate kills every term with e_i < a_i
        ranges = [range(ai, ai + 1) if not x else range(min(ai, degree) + 1)
                  for ai, x in zip(a, point)]
        for e in product(*ranges):
            if sum(e) > degree:
                continue
            binom = 1
            term = c
            for ai, ei, pw in zip(a, e, powers):
                if ai > ei:
                    binom *= comb(ai, ei)
                    term = term * pw[ai - ei]
            if binom != 1:
                term = term * lift(one, binom)
            if term:
                bucket = buckets.setdefault(e, {})
                bucket[b] = bucket[b] + term if b in bucket else term
    pr = PolyRing([f.ring.varnames[k] for k in params], one)
    out = {e: MultiPoly(pr, d) for e, d in buckets.items()}
    return {e: g for e, g in out.items() if g}


def polar_matrix(q2, nvars, one):
    """Matrix of the polar form q(a + b) - q(a) - q(b) of the quadratic form
    q, given as a dict exponent tuple -> coefficient.  Row i holds the
    coefficients of the formal partial dq/du_i: a cross term c*u_i*u_j puts
    c at (i, j) and (j, i), and a square term c*u_i^2 puts 2c at (i, i),
    which is zero in characteristic 2."""
    zero = one * 0
    two = lift(one, 2)
    m = [[zero] * nvars for _ in range(nvars)]
    for e, c in q2.items():
        i, j = (k for k, x in enumerate(e) for _ in range(x))
        if i == j:
            m[i][i] = m[i][i] + c * two
        else:
            m[i][j] = m[i][j] + c
            m[j][i] = m[j][i] + c
    return m
