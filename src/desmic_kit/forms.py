"""Homogeneous forms with designated coordinates, their Taylor expansion at
a point (from one Hasse table per form and degree, built on first use), the
polar matrix of a quadratic form and the smoothness test of the quadric it
defines, the restriction of a form to a linear subspace (each term expanded
into one exponent dict, with no polynomial product), and the ordinary-node
test of a hypersurface (node_check): what the node and containment tests of
surfaces, linecomplex and cremona share.

Forms may carry symbolic parameters: a Form records which ring variables are
projective coordinates; the remaining variables are parameters, and all
verdicts are then generic (over the rational function field in the
parameters).  The generic node verdict is det(polar matrix) != 0 in the
parameter ring, in odd characteristic.
"""

from itertools import product
from math import comb, prod

from .matrices import det_poly_matrix, matrix_rank, nullspace
from .poly import MultiPoly, PolyRing
from .projgeom import normalize
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
        self._hasse = {}

    def hasse_table(self, degree):
        """(ring, entries) of the Taylor expansion up to `degree`, built on
        first use and kept.  ring is the polynomial ring of the parameters.
        Each entry is (e, b, c*C(a, e), rest) for a term c*x^a*t^b of the
        form and an e <= a with |e| <= degree whose coefficient c*C(a, e)
        is nonzero in the field; rest lists the coordinate positions of
        x^(a-e), each as often as its exponent."""
        table = self._hasse.get(degree)
        if table is None:
            one = self.ring.one
            params = [k for k in range(self.ring.nvars())
                      if k not in self.coord_idx]
            entries = []
            for exp, c in self.poly.coeffs.items():
                a = [exp[k] for k in self.coord_idx]
                b = tuple(exp[k] for k in params)
                for e in product(*(range(min(ai, degree) + 1) for ai in a)):
                    if sum(e) > degree:
                        continue
                    ce = c * lift(one, prod(map(comb, a, e)))
                    if ce:
                        rest = tuple(k for k, (ai, ei) in enumerate(zip(a, e))
                                     for _ in range(ai - ei))
                        entries.append((e, b, ce, rest))
            ring = PolyRing([self.ring.varnames[k] for k in params], one)
            table = self._hasse[degree] = (ring, entries)
        return table

    def partials(self):
        return [self.poly.diff(v) for v in self.coord_vars]

    def __repr__(self):
        return "Form(%r)" % (self.poly,)


def restrict(f, vectors):
    """f(s0*v0 + s1*v1 + ...) as a polynomial in the parameters of f and
    s0, s1, ...: the restriction of f to the span of the vectors, with the
    parameters kept symbolic.  Entries enter the field through lift.  It is
    the zero polynomial iff f vanishes identically on that span.

    Each term of f is expanded straight into one exponent dict, one linear
    factor sum_k v_k[j]*s_k at a time; no polynomial is multiplied."""
    one = f.ring.one
    params = [k for k, v in enumerate(f.ring.varnames)
              if v not in f.coord_vars]
    ring = PolyRing([f.ring.varnames[k] for k in params]
                    + ["s%d" % k for k in range(len(vectors))], one)
    # the nonzero (k, v_k[j]) of the linear form of each coordinate j
    linear = [[(k, c) for k, c in enumerate(lift(one, vec[j])
                                            for vec in vectors) if c]
              for j in range(len(f.coord_idx))]
    start = (0,) * len(vectors)
    out = {}
    for exp, c in f.poly.coeffs.items():
        terms = {start: c}
        for j, idx in enumerate(f.coord_idx):
            for _ in range(exp[idx]):
                new = {}
                for e, d in terms.items():
                    for k, a in linear[j]:
                        e2 = e[:k] + (e[k] + 1,) + e[k + 1:]
                        x = d * a
                        new[e2] = new[e2] + x if e2 in new else x
                terms = new
        head = tuple(exp[k] for k in params)
        for e, d in terms.items():
            key = head + e
            out[key] = out[key] + d if key in out else d
    return MultiPoly(ring, out)


def cut_out(covectors, one, dim, what):
    """A basis of the common kernel of the covectors, whose entries enter
    the field of `one` through lift.  Raises ValueError, naming the
    covectors as given, unless the kernel is a projective space of
    dimension dim (the `what`: a line or a plane)."""
    basis = nullspace([[lift(one, c) for c in cv] for cv in covectors], one)
    if len(basis) != dim + 1:
        raise ValueError("covectors %r cut a space of dimension %d, not a %s"
                         % (covectors, len(basis) - 1, what))
    return basis


def hasse_at(f, p, degree):
    """Hasse derivatives of the form f at the point p, whose entries are
    field elements, up to total degree `degree`: {e: {b: coeff}}, the
    nonzero coefficients of u^e*t^b in f(p + u), where u = x - p are the
    local coordinates and t the parameters of f.  A term c*x^a*t^b of f
    contributes c*C(a, e)*p^(a-e) to u^e*t^b for every e <= a with
    |e| <= degree (Form.hasse_table); one whose rest p^(a-e) has a zero
    factor contributes nothing and is skipped.  C(a, e) is the product of
    the binomial coefficients C(a_i, e_i) mapped into the field, and no
    division by e! is involved, so the expansion is exact in every
    characteristic (Hasse 1936, J. reine angew. Math. 175)."""
    if len(p) != len(f.coord_vars):
        raise ValueError("point %r has %d coordinates, the form %d"
                         % (p, len(p), len(f.coord_vars)))
    _, entries = f.hasse_table(degree)
    buckets = {}
    for e, b, c, rest in entries:
        for k in rest:
            x = p[k]
            if not x:
                break
            c = c * x
        else:
            bucket = buckets.setdefault(e, {})
            bucket[b] = bucket[b] + c if b in bucket else c
    out = {}
    for e, bucket in buckets.items():
        bucket = {b: c for b, c in bucket.items() if c}
        if bucket:
            out[e] = bucket
    return out


def polar_matrix(q2, nvars, one):
    """Matrix of the polar form q(a + b) - q(a) - q(b) of the quadratic form
    q, given as a dict exponent tuple -> coefficient.  Row i holds the
    coefficients of the formal partial dq/du_i: a cross term c*u_i*u_j puts
    c at (i, j) and (j, i), and a square term c*u_i^2 puts 2c at (i, i),
    which is zero in characteristic 2.  Each exponent names its slots, and
    no two exponents name the same slot."""
    zero = one * 0
    two = lift(one, 2)
    m = [[zero] * nvars for _ in range(nvars)]
    for e, c in q2.items():
        i, j = (k for k, x in enumerate(e) for _ in range(x))
        if i == j:
            m[i][i] = c * two
        else:
            m[i][j] = m[j][i] = c
    return m


def _chart(point, expansion):
    """The local equation in the affine chart at a normalized point, from
    the point's hasse_at expansion.

    The chart fixes the pivot x_k = 1 (k the first nonzero coordinate) and
    puts x_i = p_i + u_i elsewhere, so of the expansion only the terms with
    e[k] = 0 remain; their exponent tuples are returned with slot k
    dropped."""
    k = next(i for i, c in enumerate(point) if c)
    return {e[:k] + e[k + 1:]: d for e, d in expansion.items() if not e[k]}


def quadratic_part_smooth(q2_coeffs, nvars, one):
    """Geometric smoothness of the projective quadric defined by a quadratic
    form in `nvars` variables over an exact field (char-2 robust).

    q2_coeffs: dict exponent-tuple -> field element.  The test: let N be the
    kernel of the polar matrix (the common kernel of the formal partials);
    the quadric is smooth iff N = 0, or dim N = 1 with q2 nonvanishing on
    the kernel line.  The rank decides all but the case dim N = 1, the only
    one that needs the kernel.
    """
    if not q2_coeffs:
        return False
    polar = polar_matrix(q2_coeffs, nvars, one)
    rank = matrix_rank(polar)
    if rank != nvars - 1:
        return rank == nvars
    w, = nullspace(polar, one)
    val = one * 0
    for e, c in q2_coeffs.items():
        t = c
        for wi, ei in zip(w, e):
            for _ in range(ei):
                t = t * wi
        val = val + t
    return bool(val)


def node_check(f, p):
    """True iff p is an ordinary node of V(f): the degree-2 part of f in an
    affine chart at p defines a smooth quadric (Jacobian criterion on the
    tangent cone; valid in characteristic 2).  Raises ValueError when p is
    not a singular point of V(f).

    With parameters the verdict is generic, over the rational function
    field in the parameters, and needs odd characteristic: there the
    quadric is smooth iff the determinant of its polar matrix, computed in
    the parameter ring by exact Bareiss division, is not zero.

    Value, gradient and quadratic part come from one degree-2 Hasse
    expansion at the normalized point: p is singular iff it has no term of
    degree < 2, and then its chart is the quadratic part."""
    point = normalize([lift(f.ring.one, c) for c in p])
    expansion = hasse_at(f, point, 2)
    if any(sum(e) < 2 for e in expansion):
        raise ValueError("point %r is not singular on the form" % (p,))
    q2 = _chart(point, expansion)
    n = len(f.coord_vars) - 1
    if f.ring.nvars() > len(f.coord_vars):
        if f.char == 2:
            raise ValueError("%r has parameters in characteristic 2, where "
                             "the generic node test does not apply" % (f,))
        if not q2:
            return False
        ring, _ = f.hasse_table(2)
        q2 = {e: MultiPoly(ring, d) for e, d in q2.items()}
        one = ring.const(1)
        return not det_poly_matrix(polar_matrix(q2, n, one)).is_zero()
    q2 = {e: d[()] for e, d in q2.items()}
    return quadratic_part_smooth(q2, n, f.ring.one)
