"""Exact matrix algebra: Smith normal form of integer matrices, fraction-free
determinants over polynomial rings, rational inertia, and small generic
linear-algebra helpers over any exact field."""

from fractions import Fraction
from math import lcm

from .poly import MultiPoly


def det_poly_matrix(m):
    """Exact determinant of a square matrix with entries in one ring
    (polynomials, integers, or any exact field scalars), by fraction-free
    Bareiss elimination: every division is exact, so polynomial and integer
    entries never leave their ring."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("non-square matrix")
    if n == 0:
        raise ValueError("empty matrix")
    a = [list(r) for r in m]
    sample = a[0][0]
    if isinstance(sample, MultiPoly):
        div = MultiPoly.divexact
    elif all(isinstance(x, int) for r in a for x in r):
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


def smith_normal_form(m):
    """Smith normal form of an integer matrix given as a list of rows:
    returns row lists (D, U, V) with U*M*V = D, U and V unimodular, and the
    diagonal of D a divisibility chain d1 | d2 | ..."""
    a = [list(r) for r in m]
    nr = len(a)
    nc = len(a[0]) if a else 0
    for k, r in enumerate(a):
        if len(r) != nc:
            raise ValueError("ragged rows: row %d has %d entries, "
                             "row 0 has %d" % (k, len(r), nc))
        for x in r:
            if not isinstance(x, int):
                raise ValueError("row %d entry %r is not an int" % (k, x))
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(i, j, c):  # row i += c * row j
        for k in range(nc):
            a[i][k] += c * a[j][k]
        for k in range(nr):
            u[i][k] += c * u[j][k]

    def col_op(i, j, c):  # col i += c * col j
        for k in range(nr):
            a[k][i] += c * a[k][j]
        for k in range(nc):
            v[k][i] += c * v[k][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for k in range(nr):
            a[k][i], a[k][j] = a[k][j], a[k][i]
        for k in range(nc):
            v[k][i], v[k][j] = v[k][j], v[k][i]

    t = 0
    while t < min(nr, nc):
        # find pivot: smallest nonzero abs value in remaining block
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                row_op(i, t, -q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, nc):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                col_op(j, t, -q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry
        ok = True
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t]:
                    row_op(t, i, 1)
                    ok = False
                    break
            if not ok:
                break
        if ok:
            if a[t][t] < 0:
                for k in range(nc):
                    a[t][k] = -a[t][k]
                for k in range(nr):
                    u[t][k] = -u[t][k]
            t += 1
    return a, u, v


def smith_invariants(m):
    """Nonzero diagonal invariant factors d1 | d2 | ... of m."""
    d, _, _ = smith_normal_form(m)
    return [r[i] for i, r in enumerate(d) if i < len(r) and r[i]]


def row_basis(m):
    """A basis of the lattice spanned by the rows of an integer matrix: the
    nonzero rows of U*M for the Smith form U*M*V = D.  U is unimodular, so
    U*M spans the same lattice, and its rows past the rank are zero."""
    _, u, _ = smith_normal_form(m)
    um = [[sum(x * y for x, y in zip(r, c)) for c in zip(*m)] for r in u]
    return [r for r in um if any(r)]


def inertia_signature(m):
    """Exact inertia (n_plus, n_zero, n_minus) of a symmetric rational matrix
    via symmetric Gaussian elimination over the rationals."""
    n = len(m)
    a = [[Fraction(x) for x in r] for r in m]
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix not symmetric")
    pos = neg = zero = 0
    live = list(range(n))
    while live:
        k = next((i for i in live if a[i][i] != 0), None)
        if k is None:
            # all diagonal zero: look for off-diagonal pivot pair
            pair = None
            for i in live:
                for j in live:
                    if i != j and a[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                zero += len(live)
                break
            i, j = pair
            # symmetric congruence: row/col i += row/col j makes a[i][i]=2a[i][j]
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            continue
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        live.remove(k)
        for i in live:
            if a[i][k] == 0:
                continue
            f = a[i][k] / d
            for j in live:
                a[i][j] -= f * a[k][j]
            a[i][k] = Fraction(0)
        for j in live:
            a[k][j] = Fraction(0)
    return pos, zero, neg


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
    _, pivots = rref(rows)
    return len(pivots)


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


def solve_linear(rows, rhs, one):
    """One solution x of A x = rhs over the field, or None if inconsistent."""
    nc = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    a, pivots = rref(aug)
    zero = one * 0
    for r in range(len(a)):
        if all(not x for x in a[r][:nc]) and a[r][nc]:
            return None
    x = [zero] * nc
    for r, pc in enumerate(pivots):
        if pc == nc:
            return None
        x[pc] = a[r][nc]
    return x
