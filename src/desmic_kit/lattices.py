"""Even integral lattices, discriminant forms, and curve-lattice checks:
the lattice spanned by a curve system, overlattice glue, and the
embeddability verdicts, with the integer and rational linear algebra only
they use (Smith normal form, row bases, inertia, linear solves), and the
validating JSON loader of curve systems (intersection matrices, fibers
and divisors), since the lattices suite alone reads a curve file.

Root lattices are taken negative definite (the (-2)-curve convention), so
hyperbolic Picard-type lattices have signature (1, n).  Finite quadratic
forms live on finite abelian groups of exponent e, with q in Q/2Z and b in
Q/Z stored as the integer tables e*q mod 2e and e*b mod e.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
import json
from math import gcd, lcm, prod
import os

from .configs import CurveSystem
from .matrices import bilinear, det_poly_matrix, rref


# ---------------------------------------------------------------------------
# integer and rational linear algebra
# ---------------------------------------------------------------------------

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
    """Exact inertia (n_plus, n_zero, n_minus) of a symmetric integer or
    rational matrix, by fraction-free symmetric elimination (Bareiss 1968).
    A rational matrix is first scaled by the lcm of its denominators, which
    keeps the inertia.  Pivots are diagonal entries; after each step the
    remaining entries are principal-bordered minors, so each division by
    the previous pivot is exact, and the Gaussian pivot d_k/d_(k-1) has
    the sign sign(d_k)*sign(d_(k-1)).  With every remaining diagonal entry
    zero, the congruence row/col i += row/col j makes a[i][i] = 2a[i][j]."""
    n = len(m)
    den = lcm(*(x.denominator for r in m for x in r))
    a = [[x.numerator * (den // x.denominator) for x in r] for r in m]
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix not symmetric")
    pos = neg = zero = 0
    prev = 1
    live = list(range(n))
    while live:
        k = next((i for i in live if a[i][i] != 0), None)
        if k is None:
            pair = next(((i, j) for i in live for j in live
                         if i != j and a[i][j] != 0), None)
            if pair is None:
                zero += len(live)
                break
            i, j = pair
            for t in live:
                a[i][t] += a[j][t]
            for t in live:
                a[t][i] += a[t][j]
            continue
        d = a[k][k]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        live.remove(k)
        pivot_row = a[k]
        for i in live:
            row, c = a[i], a[i][k]
            for j in live:
                q, r = divmod(d * row[j] - c * pivot_row[j], prev)
                if r:
                    raise ArithmeticError(
                        "inexact elimination step at (%d, %d)" % (i, j))
                row[j] = q
        prev = d
    return pos, zero, neg


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


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

class Lattice:
    """An even integral lattice given by its Gram matrix."""

    def __init__(self, gram, name=None):
        self.gram = [list(r) for r in gram]
        self.name = name
        n = len(self.gram)
        for i, r in enumerate(self.gram):
            if len(r) != n:
                raise ValueError("Gram matrix not square: row %d has %d "
                                 "entries, expected %d" % (i, len(r), n))
            bad = [x for x in r if not isinstance(x, int)]
            if bad:
                raise ValueError("Gram entry %r is not an integer"
                                 % (bad[0],))
        for i in range(n):
            if self.gram[i][i] % 2:
                raise ValueError("diagonal entry %d is odd"
                                 % self.gram[i][i])
            for j in range(i + 1, n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("Gram matrix not symmetric at (%d, %d)"
                                     % (i, j))
        self.rank = n

    def det(self):
        return det_poly_matrix(self.gram) if self.rank else 1

    def signature(self):
        """(n_plus, n_minus); raises on a degenerate form."""
        pos, zero, neg = inertia_signature(self.gram)
        if zero:
            raise ValueError("degenerate Gram matrix")
        return (pos, neg)

    def disc_group(self):
        """Invariant factors (> 1) of the discriminant group."""
        return [d for d in smith_invariants(self.gram) if d > 1]

    def __repr__(self):
        return "Lattice(%s, rank %d)" % (self.name or "?", self.rank)


def _dynkin_edges(kind, n):
    """Edges of the Dynkin graph on vertices 0..n-1."""
    if kind == "A":
        if n < 1:
            raise ValueError("A_%d: A_n needs n >= 1" % n)
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "D":
        if n < 3:
            raise ValueError("D_%d: D_n needs n >= 3" % n)
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    if kind == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_%d: E_n needs n in (6, 7, 8)" % n)
        # chain 0..n-2 with the extra vertex n-1 attached at position 2
        return [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
    raise ValueError("unknown Dynkin kind %r" % kind)


def _root_gram(kind, n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
    for a, b in _dynkin_edges(kind, n):
        g[a][b] = g[b][a] = 1
    return g


def standard_lattice(name):
    """U, A_n / D_n / E_n (negative definite) or <k> by name, e.g. "U",
    "A3", "D8", "E8", "<-4>"."""
    if name == "U":
        return Lattice([[0, 1], [1, 0]], name="U")
    if name.startswith("<") and name.endswith(">"):
        k = int(name[1:-1])
        return Lattice([[k]], name=name)
    kind, n = name[0], int(name[1:])
    if kind in ("A", "D", "E"):
        return Lattice(_root_gram(kind, n), name=name)
    raise ValueError("unknown lattice name %r" % name)


def direct_sum(*lattices):
    lats = []
    for l in lattices:
        lats.append(standard_lattice(l) if isinstance(l, str) else l)
    n = sum(l.rank for l in lats)
    g = [[0] * n for _ in range(n)]
    off = 0
    for l in lats:
        for i in range(l.rank):
            for j in range(l.rank):
                g[off + i][off + j] = l.gram[i][j]
        off += l.rank
    name = "+".join(l.name or "?" for l in lats)
    return Lattice(g, name=name)


# ---------------------------------------------------------------------------
# finite quadratic forms
# ---------------------------------------------------------------------------

def _mod2(x):
    return Fraction(x) % 2


def _mod1(x):
    return Fraction(x) % 1


class FiniteQuadForm:
    """A quadratic form on a finite abelian group presented by invariant
    factors: orders (d_1, ..., d_k), q(g_i) in Q/2Z and b(g_i, g_j) in
    Q/Z on the generators, given as rationals.  Once checked they are kept
    as integers over the exponent e = lcm(d_i): q[i] = e*q(g_i) mod 2e and
    b[i][j] = e*b(g_i, g_j) mod e, integral as d_i*b(g_i, -) is and
    q(g_i) = b(g_i, g_i) mod 1."""

    def __init__(self, orders, qvals, bmat):
        self.orders = tuple(int(d) for d in orders)
        for i, d in enumerate(self.orders):
            if d <= 1:
                raise ValueError("generator %d has order %d, expected "
                                 "above 1" % (i, d))
        k = len(self.orders)
        qs = [_mod2(v) for v in qvals]
        bs = [[_mod1(bmat[i][j]) for j in range(k)] for i in range(k)]
        for i in range(k):
            d, q = self.orders[i], qs[i]
            # b(x, x) = q(x) read modulo 1
            if bs[i][i] != _mod1(q):
                raise ValueError("generator %d: b(g, g) = %s is not q(g) = "
                                 "%s modulo 1" % (i, bs[i][i], q))
            if _mod2(q * d * d) != 0:
                raise ValueError("generator %d: q(g) = %s incompatible with "
                                 "order %d" % (i, q, d))
            for j in range(k):
                if bs[i][j] != bs[j][i]:
                    raise ValueError("b not symmetric at generators %d, %d: "
                                     "%s and %s" % (i, j, bs[i][j],
                                                    bs[j][i]))
                if _mod1(bs[i][j] * d) != 0:
                    raise ValueError("generators %d, %d: b = %s incompatible "
                                     "with order %d"
                                     % (i, j, bs[i][j], d))
        self.e = e = lcm(*self.orders)
        self.q = tuple(int(v * e) for v in qs)
        self.b = tuple(tuple(int(v * e) for v in row) for row in bs)

    @property
    def order(self):
        return prod(self.orders)

    def elements(self):
        return product(*[range(d) for d in self.orders])

    def q_of(self, el):
        """e*q(el) mod 2e, an int, for el given by its coordinates on the
        generators."""
        total = 0
        k = len(self.orders)
        for i in range(k):
            total += el[i] * el[i] * self.q[i]
            for j in range(i + 1, k):
                total += 2 * el[i] * el[j] * self.b[i][j]
        return total % (2 * self.e)

    def direct_sum(self, other):
        z1, z2 = [0] * len(other.orders), [0] * len(self.orders)
        bmat = ([[Fraction(v, self.e) for v in r] + z1 for r in self.b]
                + [z2 + [Fraction(v, other.e) for v in r] for r in other.b])
        qvals = [Fraction(v, f.e) for f in (self, other) for v in f.q]
        return FiniteQuadForm(self.orders + other.orders, qvals, bmat)

    def value_multiset(self):
        return Counter(self.q_of(el) for el in self.elements())

    def __repr__(self):
        return "FiniteQuadForm(orders=%s, q=%s)" % (self.orders, self.q)


def fq_u2():
    """The even hyperbolic form on (Z/2)^2: q = 0 on generators,
    b(g1, g2) = 1/2."""
    return FiniteQuadForm((2, 2), (0, 0),
                          [[0, Fraction(1, 2)], [Fraction(1, 2), 0]])


def fq_v2():
    """The other form on (Z/2)^2: q = 1 on both generators,
    b(g1, g2) = 1/2."""
    return FiniteQuadForm((2, 2), (1, 1),
                          [[0, Fraction(1, 2)], [Fraction(1, 2), 0]])


def fq_cyclic(theta, order):
    """Cyclic form Z/order with q(gen) = theta/order mod 2Z."""
    q = Fraction(theta, order)
    return FiniteQuadForm((order,), (q,), [[q]])


def disc_form(l):
    """The discriminant quadratic form of a nondegenerate even lattice,
    together with its generators as rational vectors.

    Returns (FiniteQuadForm, generator vectors in the lattice basis)."""
    n = l.rank
    d, _, v = smith_normal_form(l.gram)
    diag = [d[i][i] for i in range(n)]
    if any(x == 0 for x in diag):
        raise ValueError("degenerate Gram matrix")
    # Z^n / (gram Z^n): generator i is the dual vector gram^-1 (u^-1 e_i),
    # of order diag[i].  As gram^-1 = v diag^-1 u, that is column i of v
    # over diag[i], so b(g_i, g_j) is the integer pairing of the two
    # columns over diag[i]*diag[j].
    keep = [i for i in range(n) if diag[i] > 1]
    cols = [[v[r][i] for r in range(n)] for i in keep]
    orders = [diag[i] for i in keep]
    bmat = [[Fraction(bilinear(l.gram, x, y), di * dj)
             for y, dj in zip(cols, orders)] for x, di in zip(cols, orders)]
    qvals = [r[i] for i, r in enumerate(bmat)]
    gens = [[Fraction(c, d) for c in x] for x, d in zip(cols, orders)]
    return FiniteQuadForm(orders, qvals, bmat), gens


def _primary_parts(orders):
    """Prime-power multiset of a direct sum of cyclic groups; two abelian
    groups are isomorphic iff these agree, whatever the presentation."""
    parts = []
    for n in orders:
        m, d = n, 2
        while m > 1:
            if m % d == 0:
                pk = 1
                while m % d == 0:
                    m //= d
                    pk *= d
                parts.append(pk)
            d += 1
    return sorted(parts)


def fq_isometric(q1, q2):
    """Whether two finite quadratic forms are isometric; exhaustive search
    over generator images (complete for group order <= 2^10).  Equal
    primary parts give equal exponents, so past that check the integer
    tables of the two forms compare directly.  Each element of q2 is
    tabulated once; generator i of q1 goes to an element of its order and
    q value whose pairings with the earlier images are q1.b[i]."""
    if q1.order != q2.order:
        return False
    if q1.order > 1024:
        raise ValueError("group order above the configured bound")
    if _primary_parts(q1.orders) != _primary_parts(q2.orders):
        return False
    if q1.value_multiset() != q2.value_multiset():
        return False

    e, k, k2 = q2.e, len(q1.orders), len(q2.orders)
    # element -> (order, q value, its row y*b of pairings with generators)
    table = {y: (lcm(*(d // gcd(c, d) for c, d in zip(y, q2.orders) if c)),
                 q2.q_of(y),
                 [sum(y[a] * q2.b[a][c] for a in range(k2)) % e
                  for c in range(k2)])
             for y in q2.elements()}
    images = [None] * k

    def extend(i):
        if i == k:
            # the candidate homomorphism must be a q-preserving bijection
            seen = set()
            for el in q1.elements():
                im = tuple(sum(el[a] * images[a][c] for a in range(k))
                           % q2.orders[c] for c in range(k2))
                if im in seen:
                    return False
                seen.add(im)
                if table[im][1] != q1.q_of(el):
                    return False
            return True
        for y, (order, qy, row) in table.items():
            if order != q1.orders[i] or qy != q1.q[i]:
                continue
            if any(sum(r * z for r, z in zip(row, images[j])) % e
                   != q1.b[i][j] for j in range(i)):
                continue
            images[i] = y
            if extend(i + 1):
                return True
            images[i] = None
        return False

    return extend(0)


def genus_match_indefinite(l1, l2):
    """Signature and discriminant-form comparison.  Agreement means
    isomorphism when the lattices are indefinite and rk L >= l(A_L) + 2,
    l(A_L) the number of invariant factors above 1 of the discriminant
    group: an even lattice meeting both is unique in its genus (Nikulin,
    Integral symmetric bilinear forms and some of their applications,
    Math. USSR Izv. 14, 1980, Cor. 1.13.3; trusted, not re-proved).
    Otherwise only genus-level agreement is reported."""
    s1, s2 = l1.signature(), l2.signature()
    d1, d2 = abs(l1.det()), abs(l2.det())
    out = {"signatures": (s1, s2), "disc_orders": (d1, d2), "match": False}
    if s1 != s2 or d1 != d2:
        return out
    f1, _ = disc_form(l1)
    f2, _ = disc_form(l2)
    if not fq_isometric(f1, f2):
        return out
    out["match"] = True
    out["level"] = ("isomorphic by uniqueness of indefinite even "
                    "lattices in their genus (cited)"
                    if min(s1) > 0 and l1.rank >= len(f1.orders) + 2
                    else "genus-level")
    return out


# ---------------------------------------------------------------------------
# curve-span lattices
# ---------------------------------------------------------------------------

def lattice_from_curves(cs):
    """The nondegenerate quotient of the integer span of a curve system by
    the radical of its intersection form.

    Returns a dict with the Lattice, rank, signature and the invariant
    factors of the discriminant group."""
    g = cs.gram
    n = len(g)
    d, _, v = smith_normal_form(g)
    keep = [i for i in range(n) if d[i][i] != 0]
    # columns of v indexed by `keep` descend to a basis of Z^n / radical
    basis = [[v[r][i] for r in range(n)] for i in keep]
    gram = [[bilinear(g, x, y) for y in basis] for x in basis]
    lat = Lattice(gram, name="curve span")
    return {"lattice": lat,
            "rank": lat.rank,
            "signature": lat.signature(),
            "disc_group": lat.disc_group(),
            "disc_order": abs(lat.det())}


# the curve files and their validating JSON loader
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name, data_dir=None):
    return os.path.join(data_dir or DATA_DIR, name)


def _is_int(value):
    """True for a JSON integer; bool is an int subclass but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _records(value, where, keys):
    """value, which must be a JSON list of objects, each with no key outside
    keys; `where` names it in the ValueError raised otherwise."""
    if not isinstance(value, list):
        raise ValueError("%s: %r is not a list" % (where, value))
    for rec in value:
        if not isinstance(rec, dict):
            raise ValueError("%s: record %r is not an object" % (where, rec))
        extra = sorted(set(rec) - keys)
        if extra:
            raise ValueError("%s: key %r is not one of %s in record %r"
                             % (where, extra[0], sorted(keys), rec))
    return value


def _unique_keys(pairs):
    """object_pairs_hook for json.load: the object as a dict; a repeated key
    raises ValueError naming the record, its list and object values elided."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError("key %r is repeated in the record {%s}" % (
                key, ", ".join("%r: %s" % (k, "..." if isinstance(
                    v, (list, dict)) else repr(v)) for k, v in pairs)))
        obj[key] = value
    return obj


def ingest_curve_system(path):
    """Load and validate a curve system from its JSON file."""
    with open(path) as fh:
        data = json.load(fh, object_pairs_hook=_unique_keys)
    if not isinstance(data, dict):
        raise ValueError("top level %r is not an object" % (data,))
    for key in data:
        if key not in ("curves", "intersections", "fibrations",
                       "divisors"):
            raise ValueError("unknown top-level key %r" % key)
    if "curves" not in data:
        raise ValueError("missing 'curves'")
    ids, selfints = [], {}
    for rec in _records(data["curves"], "curves", {"id", "self"}):
        if set(rec) != {"id", "self"}:
            raise ValueError("bad curve record %r" % (rec,))
        if not isinstance(rec["id"], str):
            raise ValueError("curve record %r: id is not a string" % (rec,))
        if not _is_int(rec["self"]):
            raise ValueError("curve record %r: self-intersection is not an "
                             "integer" % (rec,))
        ids.append(rec["id"])
        selfints[rec["id"]] = rec["self"]
    n = len(ids)
    index = {c: k for k, c in enumerate(ids)}
    gram = [[0] * n for _ in range(n)]
    for c in ids:
        gram[index[c]][index[c]] = selfints[c]
    given = set()
    intersections = data.get("intersections", [])
    if not isinstance(intersections, list):
        raise ValueError("intersections: %r is not a list" % (intersections,))
    for entry in intersections:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError("bad intersection entry %r" % (entry,))
        a, b, val = entry
        # curve ids are strings, so an id of another type names no curve
        if not all(isinstance(c, str) and c in index for c in (a, b)):
            raise ValueError("intersection names unknown curve: %r"
                             % (entry,))
        if a == b:
            raise ValueError("self-intersections belong in 'curves': %r"
                             % (entry,))
        if not _is_int(val):
            raise ValueError("intersection entry %r: value is not an integer"
                             % (entry,))
        if frozenset((a, b)) in given:
            raise ValueError("intersection %s.%s given twice: %r"
                             % (a, b, entry))
        given.add(frozenset((a, b)))
        gram[index[a]][index[b]] = gram[index[b]][index[a]] = val
    fibrations = _records(data.get("fibrations", []), "fibrations",
                          {"name", "fibers"})
    names = []
    for fib in fibrations:
        if set(fib) != {"name", "fibers"}:
            raise ValueError("bad fibration record %r" % (fib.get("name"),))
        if not isinstance(fib["name"], str):
            raise ValueError("fibration name %r is not a string"
                             % (fib["name"],))
        if fib["name"] in names:
            raise ValueError("fibration name %r is repeated" % (fib["name"],))
        names.append(fib["name"])
        fibers = _records(fib["fibers"],
                          "fibration %s fibers" % (fib["name"],),
                          {"type", "components"})
        for k, fiber in enumerate(fibers):
            if not fiber.get("components"):
                raise ValueError("fibration %s fiber %d has no components: "
                                 "%r" % (fib["name"], k, fiber))
            if not isinstance(fiber.get("type", ""), str):
                raise ValueError("fibration %s fiber %d: type %r is not a "
                                 "string" % (fib["name"], k, fiber["type"]))
            for comp in _records(fiber["components"],
                                 "fibration %s fiber %d components"
                                 % (fib["name"], k), {"id", "mult"}):
                if "id" not in comp:
                    raise ValueError("fibration %s component %r has no id"
                                     % (fib["name"], comp))
                if not (isinstance(comp["id"], str) and comp["id"] in index):
                    raise ValueError(
                        "fibration %s names unknown curve %r"
                        % (fib["name"], comp["id"]))
                if not (_is_int(comp.get("mult")) and comp["mult"] > 0):
                    raise ValueError(
                        "fibration %s component %r: multiplicity is not a "
                        "positive integer" % (fib["name"], comp))
    divisors = _records(data.get("divisors", []), "divisors",
                        {"name", "terms"})
    seen = []
    for div in divisors:
        if not {"name", "terms"} <= set(div):
            raise ValueError("divisor record %r needs a name and terms"
                             % (div,))
        if not isinstance(div["name"], str):
            raise ValueError("divisor name %r is not a string"
                             % (div["name"],))
        if div["name"] in seen:
            raise ValueError("divisor name %r is repeated" % (div["name"],))
        seen.append(div["name"])
        for term in _records(div["terms"],
                             "divisor %s terms" % (div["name"],),
                             {"id", "class", "coeff"}):
            keys = set(term)
            if keys not in ({"id", "coeff"}, {"class", "coeff"}):
                raise ValueError("bad divisor term %r in %s"
                                 % (term, div["name"]))
            if "id" in term and not (isinstance(term["id"], str)
                                     and term["id"] in index):
                raise ValueError("divisor %s names unknown curve %r"
                                 % (div["name"], term["id"]))
            if "class" in term and term["class"] not in names:
                raise ValueError("divisor %s names unknown fibration %r"
                                 % (div["name"], term["class"]))
            coeff = term["coeff"]
            try:  # an integer, or a string that Fraction parses
                if not _is_int(coeff):
                    Fraction(coeff if isinstance(coeff, str) else "")
            except (ValueError, ZeroDivisionError):
                raise ValueError("divisor %s term %r: coefficient is not an "
                                 "integer or a fraction string"
                                 % (div["name"], term)) from None
    cs = CurveSystem(ids, gram, fibrations, divisors)
    return cs.validate()


def kummer_char0_system(data_dir=None):
    return ingest_curve_system(data_path("kummer-char0.json", data_dir))


# ---------------------------------------------------------------------------
# overlattices
# ---------------------------------------------------------------------------

def overlattice(l, glue):
    """The overlattice of l generated by l and rational glue vectors
    (coordinates in the basis of l).

    Returns (Lattice, basis rows in the old coordinates as Fractions).
    Raises ValueError when the result is not an even integral lattice
    (non-isotropic glue)."""
    n = l.rank
    if not glue:
        return l, [[Fraction(int(i == j)) for j in range(n)]
                   for i in range(n)]
    den = lcm(*(Fraction(x).denominator for vec in glue for x in vec))
    rows = [[den * int(i == j) for j in range(n)] for i in range(n)]
    for vec in glue:
        scaled = [Fraction(x) * den for x in vec]
        if any(x.denominator != 1 for x in scaled):
            raise ValueError("glue vector %r is not integral over the common "
                             "denominator %d" % (vec, den))
        rows.append([int(x) for x in scaled])
    basis_scaled = row_basis(rows)
    if len(basis_scaled) != n:
        raise ValueError("glue vectors %r drop the rank from %d to %d"
                         % (glue, n, len(basis_scaled)))
    basis = [[Fraction(x, den) for x in row] for row in basis_scaled]
    gram = [[bilinear(l.gram, x, y) for y in basis] for x in basis]
    for i in range(n):
        if gram[i][i].denominator != 1 or gram[i][i] % 2 != 0:
            raise ValueError("glue vector not isotropic: odd or "
                             "fractional square %s" % gram[i][i])
        for j in range(n):
            if gram[i][j].denominator != 1:
                raise ValueError("glue vectors not closed: fractional "
                                 "pairing %s" % gram[i][j])
    out = Lattice([[int(x) for x in row] for row in gram],
                  name="%s^+" % (l.name or "?"))
    return out, basis


def _coords_in_basis(vec, basis):
    """Express vec (old coordinates) in a row basis; raises ValueError
    unless the coordinates are integral."""
    cols = [[Fraction(x) for x in c] for c in zip(*basis)]
    coords = solve_linear(cols, [Fraction(x) for x in vec], Fraction(1))
    if coords is None or any(x.denominator != 1 for x in coords):
        raise ValueError("%s has no integral coordinates in the basis: %s"
                         % (vec, coords))
    return [int(x) for x in coords]


def d5_a3_chain():
    """The chain D5+A3 inside D8 inside E8 built by glue vectors, with the
    index-2 and index-4 overlattices verified even and unimodular/disc-4.

    Returns a dict with the three lattices and the two overlattice bases;
    raises ValueError unless D8 lies in E8."""
    base = direct_sum("D5", "A3")
    fq, gens = disc_form(base)
    # find an isotropic element of order 4 mixing both factors
    chosen = None
    for el in fq.elements():
        if fq.q_of(el) != 0:
            continue
        if lcm(*(d // gcd(c, d) for c, d in zip(el, fq.orders) if c)) != 4:
            continue
        vec = [sum(Fraction(el[i]) * gens[i][r] for i in range(len(gens)))
               for r in range(base.rank)]
        if all(x.denominator == 1 for x in vec[:5]):
            continue  # glue must involve the D5 factor
        if all(x.denominator == 1 for x in vec[5:]):
            continue  # and the A3 factor
        chosen = vec
        break
    if chosen is None:
        raise ValueError("no order-4 isotropic glue found")
    e8, e8_basis = overlattice(base, [chosen])
    if abs(e8.det()) != 1 or e8.signature() != (0, 8):
        raise ValueError("glued E8 has det %s and signature %s"
                         % (e8.det(), e8.signature()))
    half = [2 * x for x in chosen]
    d8, d8_basis = overlattice(base, [half])
    if abs(d8.det()) != 4 or d8.signature() != (0, 8):
        raise ValueError("glued D8 has det %s and signature %s"
                         % (d8.det(), d8.signature()))
    for row in d8_basis:
        _coords_in_basis(row, e8_basis)
    return {"base": base, "E8": e8, "D8": d8,
            "e8_basis": e8_basis, "d8_basis": d8_basis}


# ---------------------------------------------------------------------------
# the embeddability verdicts
# ---------------------------------------------------------------------------

def curve_span_lattice_names():
    """The two printed presentations of the 28-curve span."""
    return direct_sum("U", "D8", "D9"), direct_sum("U", "E8", "D8", "<-4>")


def supersingular_picard(sigma):
    """The Picard lattice of the supersingular surface with the given
    Artin invariant (characteristic-two presentation)."""
    if sigma == 1:
        return direct_sum("U", "E8", "D12")
    if sigma == 2:
        return direct_sum("U", "E8", "D8", "D4")
    if sigma == 3:
        return direct_sum("U", "E8", "D4", "D4", "D4")
    raise ValueError("sigma must be 1, 2 or 3")


# the E8 simple roots that carry D5's simple roots 0..4: the chain 0-1-2-3
# with root 7 joined to root 2 is a D5 sub-diagram of E8 (_dynkin_edges),
# and part of a basis spans a primitive sublattice (Bourbaki, Lie Groups
# and Lie Algebras, Ch. VI, section 1)
D5_IN_E8 = (0, 1, 2, 3, 7)


def _embedding_check(sigma, sub_gram, amb, rows):
    """rows: integer images in amb of a basis of the sub lattice, the
    witness for Artin invariant sigma.  Raises ValueError unless the Gram
    is preserved and the sublattice is primitive (all Smith invariants of
    the embedding matrix equal 1)."""
    k = len(rows)
    for i in range(k):
        for j in range(k):
            if bilinear(amb.gram, rows[i], rows[j]) != sub_gram[i][j]:
                raise ValueError("sigma %d witness embedding fails: Gram not "
                                 "preserved at (%d, %d)" % (sigma, i, j))
    invs = smith_invariants(rows)
    if len(invs) != k or any(d != 1 for d in invs):
        raise ValueError("sigma %d witness embedding fails: embedding not "
                         "primitive: invariants %s" % (sigma, invs))


def _block_embedding_rows(blocks, total_rank):
    """blocks: list of (offset in ambient, rows in local coordinates).
    Produces integer rows in the ambient coordinates."""
    rows = []
    for off, local in blocks:
        for vec in local:
            row = [0] * total_rank
            for c, x in enumerate(vec):
                row[off + c] = x
            rows.append(row)
    return rows


def ternary_enumeration(target_det):
    """All Minkowski-reduced even negative-definite ternary Gram matrices
    of the given determinant magnitude: diagonal -a <= -b <= ... with
    2 <= a <= b <= c, abc <= 4*target_det, off-diagonal x with
    |2x| bounded by the matching diagonals."""
    bound = 4 * target_det
    found = []
    a = 2
    while True:
        if a * a * a > bound:
            break
        b = a
        while a * b * b <= bound:
            c = b
            while a * b * c <= bound:
                for f in range(-(b // 2), b // 2 + 1):
                    for g in range(-(a // 2), a // 2 + 1):
                        for h in range(-(a // 2), a // 2 + 1):
                            gram = [[-a, h, g],
                                    [h, -b, f],
                                    [g, f, -c]]
                            lat = Lattice(gram)
                            if lat.det() != -target_det:
                                continue
                            if lat.signature() != (0, 3):
                                continue
                            found.append(lat)
                c += 2
            b += 2
        a += 2
    return found


def artin2_check(sigma):
    """Whether the 28-curve lattice embeds primitively in the Picard
    lattice with Artin invariant sigma.

    sigma 1 and 2 verify an explicit embedding; sigma 3 enumerates every
    candidate complement and finds none that matches.  Returns
    {"embeddable": verdict}, and for sigma 3 also the number of
    "candidates" enumerated; raises ValueError when a step fails.
    """
    if sigma not in (1, 2, 3):
        raise ValueError("sigma must be 1, 2 or 3")
    s = supersingular_picard(sigma)
    signature, disc_group = s.signature(), s.disc_group()
    if signature != (1, 21) or disc_group != [2] * (2 * sigma):
        raise ValueError("Picard lattice for sigma %d has signature %s and "
                         "discriminant group %s"
                         % (sigma, signature, disc_group))

    if sigma == 1:
        # L = U + D5 + D12 sits blockwise in U + E8 + D12, with D5's
        # simple roots on the E8 simple roots of a D5 sub-diagram
        sub = direct_sum("U", "D5", "D12")
        rows = _block_embedding_rows(
            [(0, [[1, 0], [0, 1]]),
             (2, [[int(j == r) for j in range(8)] for r in D5_IN_E8]),
             (10, [[int(i == j) for j in range(12)] for i in range(12)])],
            s.rank)
        _embedding_check(sigma, sub.gram, s, rows)
        # the printed presentation agrees with the blocks used
        printed = direct_sum("U", "E8", "D8", "<-4>")
        if not genus_match_indefinite(sub, printed)["match"]:
            raise ValueError("%s is not in the genus of %s"
                             % (sub.name, printed.name))
        return {"embeddable": True}

    if sigma == 2:
        # put <-4> primitively inside D4 as the vector e1 + e3
        sub = direct_sum("U", "E8", "D8", "<-4>")
        v = [1, 0, 1, 0]
        ident = lambda n: [[int(i == j) for j in range(n)]
                           for i in range(n)]
        rows = _block_embedding_rows(
            [(0, ident(2)), (2, ident(8)), (10, ident(8)), (18, [v])],
            s.rank)
        _embedding_check(sigma, sub.gram, s, rows)
        return {"embeddable": True}

    # sigma == 3: the complement would be a rank-3 even negative-definite
    # lattice of determinant -16 with discriminant form q1(4) + v
    target = fq_cyclic(1, 4).direct_sum(fq_v2())
    candidates = ternary_enumeration(16)
    matching = []
    for lat in candidates:
        fq, _ = disc_form(lat)
        if fq.order != 16:
            continue
        if fq_isometric(fq, target):
            matching.append(lat)
    if matching:
        raise ValueError("unexpected complement found: %r"
                         % ([lat.gram for lat in matching],))
    return {"embeddable": False, "candidates": len(candidates)}
