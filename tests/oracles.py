"""Oracles shared by several test modules."""

from fractions import Fraction
from itertools import combinations

from desmic_kit.matrices import bilinear, det_poly_matrix, matrix_rank, \
    nullspace
from desmic_kit.poly import MultiPoly, PolyRing


# The ways a coordinate entered a field before scalars.lift replaced them.

def from_int(one, n):
    """Image of the integer n in the field whose identity is `one`."""
    return one * n


def as_field(c):
    """A plain int coordinate lifted into the rationals (projgeom)."""
    return Fraction(c) if isinstance(c, int) else c


def lift_scalar(one, a):
    """Image of an int/Fraction coordinate in the field of `one`
    (surfaces)."""
    if isinstance(a, int):
        return from_int(one, a)
    if isinstance(a, Fraction):
        num = from_int(one, a.numerator)
        if a.denominator == 1:
            return num
        return num / from_int(one, a.denominator)
    return one * a


def lift_point(one, pt):
    """A coordinate tuple with its ints lifted into the field of `one`
    (linecomplex)."""
    return tuple(from_int(one, c) if isinstance(c, int) else c for c in pt)


def dense_contains_point(plane, pt):
    """Plane incidence as PlaneInP5.contains_point computed it before its
    sparse form: the full dot product of each covector with the point."""
    zero = plane.one * 0
    return not any(sum((a * b for a, b in zip(cv, pt)), zero)
                   for cv in plane.covectors)


def localize_split(f, p):
    """The affine chart at p by substitution, as surfaces computed it before
    its Taylor expansion: x_i = p_i/p_k + u_i with the pivot x_k = 1 (k the
    first nonzero coordinate) is substituted into a ring of parameters,
    local and coordinate variables, and the result is split by local
    exponent.  Returns (dict local exponent tuple -> parameter polynomial,
    local names, parameter ring)."""
    point = list(p)
    pivot = next(i for i, c in enumerate(point) if c)
    one = f.ring.one
    norm = []
    for c in point:
        if isinstance(c, int):
            c = Fraction(c) if isinstance(one, (Fraction, int)) \
                else from_int(one, c)
        norm.append(c)
    norm = [c / norm[pivot] for c in norm]

    local_names = ["u%d" % i for i in range(len(point) - 1)]
    pr_names = [v for v in f.ring.varnames if v not in f.coord_vars]
    big = PolyRing(pr_names + local_names + list(f.coord_vars), one)
    mapping = {}
    li = 0
    for i, v in enumerate(f.coord_vars):
        if i == pivot:
            mapping[v] = big.const(1)
        else:
            mapping[v] = (big.var(local_names[li])
                          + big.const(1).scale(one * norm[i]))
            li += 1
    for v in pr_names:
        mapping[v] = big.var(v)
    loc = f.poly.subst(mapping, big)
    pr = PolyRing(pr_names, one)
    npr = len(pr_names)
    nloc = len(local_names)
    out = {}
    for e, c in loc.coeffs.items():
        le = tuple(e[npr:npr + nloc])
        pe = tuple(e[:npr])
        bucket = out.setdefault(le, {})
        bucket[pe] = bucket.get(pe, one * 0) + c
    return {le: MultiPoly(pr, d) for le, d in out.items()
            if not MultiPoly(pr, d).is_zero()}, local_names, pr


def pairwise_closed(elements, compose):
    """Closure of a finite set under composition, as the symmetry search
    checked it before its generating set: every one of the |S|^2 products
    lies in S."""
    return all(compose(g, h) in elements for g in elements for h in elements)


def orbit_sizes_by_elements(keys, elements, action):
    """Orbit sizes of the group `elements` on `keys`, as the symmetry search
    computed them before its generating set: the orbit of a seed is its
    image under every element, which is an orbit only if `elements` is
    closed."""
    todo = set(keys)
    sizes = []
    while todo:
        seed = todo.pop()
        orbit = {action(g, seed) for g in elements}
        if not orbit <= set(keys):
            raise ValueError("the orbit of %s leaves the verified set"
                             % (seed,))
        todo -= orbit
        sizes.append(len(orbit))
    return sorted(sizes)


def evaluate(poly, values):
    """A polynomial at a point by summing its terms, each a product of
    repeated multiplications; `values` maps every variable name to a
    scalar.  Tests compare Taylor coefficients and gradients with it."""
    vals = [values[v] for v in poly.ring.varnames]
    total = poly.ring.one * 0
    for e, c in poly.coeffs.items():
        t = c
        for vi, ei in zip(vals, e):
            for _ in range(ei):
                t = t * vi
        total = total + t
    return total


def collinear_by_minors(p, q, r):
    """Collinearity of three integer points of P^3 as configs tested it
    before its integer form: each of the four 3x3 minors of the coordinate
    matrix by the generic Bareiss determinant."""
    rows = (p, q, r)
    return all(det_poly_matrix([[row[c] for c in cols] for row in rows]) == 0
               for cols in combinations(range(4), 3))


class F4Formulas:
    """a + b*w in the field with four elements, w^2 = w + 1, as scalars.F4
    computed it before it kept four interned elements: every operation
    builds a new object from the reduced mod-2 formulas."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", a % 2)
        object.__setattr__(self, "b", b % 2)

    def __setattr__(self, *a):
        raise AttributeError("F4 is immutable")

    def __add__(self, o):
        return F4Formulas(self.a ^ o.a, self.b ^ o.b)

    __sub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, o):
        a, b, c, d = self.a, self.b, o.a, o.b
        return F4Formulas((a * c + b * d) % 2, (a * d + b * c + b * d) % 2)

    def inverse(self):
        if not (self.a or self.b):
            raise ZeroDivisionError("0 in F4")
        return self * self

    def __truediv__(self, o):
        return self * o.inverse()

    def __eq__(self, o):
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b, "F4"))

    def __repr__(self):
        return {(0, 0): "F4(0)", (1, 0): "F4(1)",
                (0, 1): "w", (1, 1): "w+1"}[(self.a, self.b)]


def dense_rref(rows):
    """Reduced row echelon form as matrices.rref computed it before it
    skipped zero entries: every entry of the pivot row is divided and every
    entry of a cleared row updated, zero or not."""
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return a, pivots


def tangent_gram_rank(h, lin, one):
    """Rank of the bilinear form with matrix h on the kernel of the covector
    lin, as linecomplex.ci_node_report computed it before its bordered
    matrix: the Gram matrix of h on a basis of that kernel."""
    tangent = nullspace([lin], one)
    return matrix_rank([[bilinear(h, u, v) for v in tangent]
                        for u in tangent])


def naive_power(base, e, one):
    """base**e as the product of e factors base."""
    r = one
    for _ in range(e):
        r = r * base
    return r
