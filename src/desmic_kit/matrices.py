"""Exact matrix algebra shared by every suite: fraction-free determinants
over integers, fields and polynomial rings, sparse Gram products, rank by
forward elimination, and reduced row echelon form and nullspace over any
exact field."""

from fractions import Fraction
from math import lcm


def det_poly_matrix(m):
    """Exact determinant of a square matrix with entries in one ring
    (polynomials, integers, or any exact field scalars), by fraction-free
    Bareiss elimination: every division is exact, so polynomial and integer
    entries never leave their ring.  An entry type with a divexact method
    (polynomials) divides by it, ints by floor division and field scalars
    by /.  The package calls it on integer Gram matrices only; the
    polynomial and field paths serve the tests' oracles."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("non-square matrix")
    if n == 0:
        raise ValueError("empty matrix")
    a = [list(r) for r in m]
    sample = a[0][0]
    div = getattr(type(sample), "divexact", None)
    if div is None:
        if all(isinstance(x, int) for r in a for x in r):
            div = int.__floordiv__
        else:
            div = lambda f, g: f / g
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return sample * 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num if prev is None else div(num, prev)
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


# -- generic exact linear algebra over a field -------------------------------

def bilinear(gram, u, v):
    """u . v under the Gram matrix, summed over the nonzero entries of u
    and v only."""
    sv = [(b, y) for b, y in enumerate(v) if y]
    return sum(x * sum(gram[a][b] * y for b, y in sv)
               for a, x in enumerate(u) if x)


# -- fraction-free rational vectors (Cohen 1993, section 2.2) -----------------

def integer_scaled(v):
    """(d, w) for a vector of ints and Fractions: d is the lcm of the
    entries' denominators and w = d * v is an int vector."""
    d = lcm(*{x.denominator for x in v})
    return d, [x.numerator * (d // x.denominator) for x in v]


def exact_ratio(n, d):
    """n / d for ints, as an int when d divides n and else a Fraction."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def gram_times(gram, v):
    """G . v for an integer matrix G and a rational vector v, summed over the
    nonzero entries of v only; v is scaled to integers and each entry of the
    product is divided once."""
    d, w = integer_scaled(v)
    sv = [(b, y) for b, y in enumerate(w) if y]
    return [exact_ratio(sum(row[b] * y for b, y in sv), d) for row in gram]


def rref(rows):
    """Reduced row echelon form over any exact field.  Returns (rref_rows,
    pivot_columns).  Rows are lists of field elements (truthiness = nonzero)."""
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
        a[r] = [x / inv if x else x for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return a, pivots


def matrix_rank(rows):
    """Rank over any exact field by forward elimination: each pivot row
    clears its column in the rows below it, unscaled, and the elimination
    stops once every row holds a pivot.  No back-substitution: rref is for
    kernels and echelon keys."""
    a = [list(r) for r in rows]
    nr = len(a)
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        for i in range(rank + 1, nr):
            if a[i][c]:
                f = a[i][c] / top[c]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], top)]
        rank += 1
        if rank == nr:
            break
    return rank


def nullspace(rows, one):
    """Basis of the right kernel over the field containing `one`."""
    a, pivots = rref(rows)
    nc = len(rows[0]) if rows else 0
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    zero = one * 0
    for fc in free:
        vec = [zero] * nc
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -a[r][fc]
        basis.append(vec)
    return basis
