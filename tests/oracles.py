"""Oracles shared by several test modules."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm

from desmic_kit.configs import DUAD_TABLE, _check_witness, _codegrees, \
    _duad_str, _refined_colors, _syntheme_str
from desmic_kit.forms import hasse_at, node_check
from desmic_kit.lattices import _primary_parts
from desmic_kit.matrices import bilinear, det_poly_matrix, matrix_rank, \
    nullspace
from desmic_kit.poly import MultiPoly, PolyRing
from desmic_kit.projgeom import normalize
from desmic_kit.scalars import lift


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


def monomial_elements_by_exponents():
    """The monomial symmetries (pi, exps), x_j -> i^(e_j) x_(pi(j)), as the
    symmetry search found them before it solved the congruences: for each
    block-preserving permutation, every exponent tuple mod 4 with one
    common parity and e1 + e2 + e3 - e4 - e5 - e6 = shift (mod 4), shift 0
    when the blocks stay and 2 when they swap, shifted to e1 = 0."""
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
            elements.add((pi, tuple((e - exps[0]) % 4 for e in exps)))
    return elements


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

    def __repr__(self):
        return {(0, 0): "F4(0)", (1, 0): "F4(1)",
                (0, 1): "w", (1, 1): "w+1"}[(self.a, self.b)]


class FractionPairQI:
    """Oracle: the Gaussian rational as a pair of Fractions, the
    representation QI had before it moved to one common denominator."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("QI is immutable")

    @staticmethod
    def _lift(other):
        if isinstance(other, FractionPairQI):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionPairQI(other)
        return NotImplemented

    def __add__(self, other):
        o = FractionPairQI._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FractionPairQI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return FractionPairQI(-self.re, -self.im)

    def __sub__(self, other):
        o = FractionPairQI._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FractionPairQI(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = FractionPairQI._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FractionPairQI(self.re * o.re - self.im * o.im,
                              self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def norm(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("0 in Q(i)")
        return FractionPairQI(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = FractionPairQI._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        assert isinstance(e, int)
        if e < 0:
            return self.inverse() ** (-e)
        r = FractionPairQI(1)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def __eq__(self, other):
        o = FractionPairQI._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im, "QI"))

    def __repr__(self):
        if self.im == 0:
            return "QI(%s)" % self.re
        return "QI(%s, %s)" % (self.re, self.im)


def inertia_by_fractions(m):
    """Exact inertia (n_plus, n_zero, n_minus) of a symmetric rational matrix
    via symmetric Gaussian elimination over the rationals: the oracle for
    lattices.inertia_signature, which eliminates fraction-free."""
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


def xgcd_inverse(v, p):
    """The inverse of v mod p as Mod.inverse computed it before the built-in
    pow(v, -1, p): by the extended Euclidean algorithm, or None when
    gcd(v, p) != 1."""
    a, b, s0, s1 = v % p, p, 1, 0
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
    return s0 % p if a == 1 else None


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
    lin, as the node test of linecomplex computed it before the bordered
    matrix and the associated cubic: the Gram matrix of h on a basis of that
    kernel."""
    tangent = nullspace([lin], one)
    return matrix_rank([[bilinear(h, u, v) for v in tangent]
                        for u in tangent])


def associated_cubic_node_lift(ci, pt):
    """linecomplex.node_lift as it was before it wrote the quadratic part
    of the associated cubic down itself: value, gradient and lambda from
    the degree-1 hasse_at expansion of each equation, and the verdict from
    forms.node_check on ci.associated_cubic() at the lift (-lambda, p)."""
    one = ci.one
    zero = one * 0
    pt = normalize([lift(one, c) for c in pt])
    n = len(pt)
    keys = [(0,) * n] + [tuple(int(k == m) for m in range(n))
                         for k in range(n)]
    (v2, *g2), (v3, *g3) = (
        [t.get(e, zero) for e in keys]
        for t in (hasse_at(ci.quadric, pt, 1), hasse_at(ci.cubic, pt, 1)))
    if v2 or v3:
        return None
    if not any(g2):
        raise ValueError("quadric not smooth at %r" % (pt,))
    j = next(k for k, c in enumerate(g2) if c)
    lam = g3[j] / g2[j]
    if any(c != lam * b for b, c in zip(g2, g3)):
        return None
    lifted = (-lam,) + pt
    return lifted if node_check(ci.associated_cubic(), lifted) else None


def naive_power(base, e, one):
    """base**e as the product of e factors base."""
    r = one
    for _ in range(e):
        r = r * base
    return r


def exhaustive_config_isomorphic(A, B):
    """configs.config_isomorphic as it was before it mapped blocks during
    the search: every point map consistent with the colors and codegrees is
    completed first, and only then is its block map derived, each block
    going to a block of B on its image points that no earlier block took
    (rejected when there is none), and the pair checked."""
    if A.type_signature != B.type_signature:
        raise ValueError("configuration type mismatch: %s vs %s"
                         % (A.type_signature, B.type_signature))
    pcolA, bcolA = _refined_colors(A)
    pcolB, bcolB = _refined_colors(B)
    ha = Counter(pcolA.values())
    if (ha != Counter(pcolB.values())
            or Counter(bcolA.values()) != Counter(bcolB.values())):
        return None
    codA, codB = _codegrees(A), _codegrees(B)
    order = sorted(A.points, key=lambda p: (ha[pcolA[p]], repr(p)))
    blocks_on = {}
    for b in B.blocks:
        blocks_on.setdefault(frozenset(B._points_of[b]), []).append(b)
    used, assign = set(), {}

    def block_map_for(pmap):
        bmap = {}
        for b in A.blocks:
            s = frozenset(pmap[p] for p in A._points_of[b])
            free = [c for c in blocks_on.get(s, ())
                    if c not in bmap.values()]
            if not free:
                return None
            bmap[b] = free[0]
        return bmap

    def extend(k):
        if k == len(order):
            yield dict(assign)
            return
        p = order[k]
        for q in B.points:
            if q in used or pcolB[q] != pcolA[p]:
                continue
            if not all(codA[(p, p2)] == codB[(q, q2)]
                       for p2, q2 in assign.items()):
                continue
            assign[p] = q
            used.add(q)
            yield from extend(k + 1)
            del assign[p]
            used.discard(q)

    for pmap in extend(0):
        bmap = block_map_for(pmap)
        if bmap is not None and _check_witness(A, B, pmap, bmap):
            return pmap, bmap
    return None


def searched_duad_syntheme_system():
    """configs.duad_syntheme_system as it was before it solved for the
    totals: every 5-subset of the synthemes filtered for pairwise
    disjointness, and the 720 labelings of the totals searched for the one
    that reproduces the printed table."""
    letters = range(1, 7)
    duads = [frozenset(d) for d in combinations(letters, 2)]

    def matchings(rest):
        if not rest:
            yield []
            return
        a = min(rest)
        for b in sorted(rest - {a}):
            for tail in matchings(rest - {a, b}):
                yield [frozenset({a, b})] + tail

    synthemes = [frozenset(m) for m in matchings(set(letters))]
    totals = [frozenset(combo) for combo in combinations(synthemes, 5)
              if all(not (s & t) for s, t in combinations(combo, 2))]
    for perm in permutations(range(6)):
        if all(_syntheme_str(next(iter(totals[perm[i]] & totals[perm[j]])))
               == DUAD_TABLE[i][j]
               for i, j in combinations(range(6), 2)):
            break
    else:
        raise ValueError("no labeling of the totals reproduces the printed "
                         "table")
    labeled = {"T%d" % (k + 1): totals[perm[k]] for k in range(6)}
    return {
        "duads": sorted(_duad_str(d) for d in duads),
        "synthemes": sorted(_syntheme_str(s) for s in synthemes),
        "totals": {k: sorted(_syntheme_str(s) for s in v)
                   for k, v in labeled.items()},
        "table": DUAD_TABLE,
    }


# Finite quadratic forms in Fraction arithmetic, as lattices kept them
# before its integer tables: q in Q/2Z and b in Q/Z on the generators,
# re-evaluated on unit vectors for every candidate image.

def _mod2(x):
    return Fraction(x) % 2


def _mod1(x):
    return Fraction(x) % 1


class FiniteQuadForm:
    """A quadratic form on a finite abelian group presented by invariant
    factors: orders (d_1, ..., d_k), q(g_i) in Q/2Z and b(g_i, g_j) in
    Q/Z on the generators."""

    def __init__(self, orders, qvals, bmat):
        self.orders = tuple(int(d) for d in orders)
        for i, d in enumerate(self.orders):
            if d <= 1:
                raise ValueError("generator %d has order %d, expected "
                                 "above 1" % (i, d))
        k = len(self.orders)
        self.q = tuple(_mod2(v) for v in qvals)
        self.b = tuple(tuple(_mod1(bmat[i][j]) for j in range(k))
                       for i in range(k))
        for i in range(k):
            d, q = self.orders[i], self.q[i]
            # b(x, x) = q(x) read modulo 1
            if self.b[i][i] != _mod1(q):
                raise ValueError("generator %d: b(g, g) = %s is not q(g) = "
                                 "%s modulo 1" % (i, self.b[i][i], q))
            if _mod2(q * d * d) != 0:
                raise ValueError("generator %d: q(g) = %s incompatible with "
                                 "order %d" % (i, q, d))
            for j in range(k):
                if self.b[i][j] != self.b[j][i]:
                    raise ValueError("b not symmetric at generators %d, %d: "
                                     "%s and %s" % (i, j, self.b[i][j],
                                                    self.b[j][i]))
                if _mod1(self.b[i][j] * d) != 0:
                    raise ValueError("generators %d, %d: b = %s incompatible "
                                     "with order %d"
                                     % (i, j, self.b[i][j], d))

    @property
    def order(self):
        n = 1
        for d in self.orders:
            n *= d
        return n

    def elements(self):
        return product(*[range(d) for d in self.orders])

    def q_of(self, el):
        total = Fraction(0)
        k = len(self.orders)
        for i in range(k):
            total += el[i] * el[i] * self.q[i]
            for j in range(i + 1, k):
                total += 2 * el[i] * el[j] * self.b[i][j]
        return _mod2(total)

    def b_of(self, u, v):
        total = Fraction(0)
        k = len(self.orders)
        for i in range(k):
            for j in range(k):
                total += u[i] * v[j] * self.b[i][j]
        return _mod1(total)

    def direct_sum(self, other):
        orders = self.orders + other.orders
        qvals = list(self.q) + list(other.q)
        k1, k2 = len(self.orders), len(other.orders)
        bmat = [[Fraction(0)] * (k1 + k2) for _ in range(k1 + k2)]
        for i in range(k1):
            for j in range(k1):
                bmat[i][j] = self.b[i][j]
        for i in range(k2):
            for j in range(k2):
                bmat[k1 + i][k1 + j] = other.b[i][j]
        return FiniteQuadForm(orders, qvals, bmat)

    def value_multiset(self):
        return Counter(self.q_of(el) for el in self.elements())

    def __repr__(self):
        return "FiniteQuadForm(orders=%s, q=%s)" % (self.orders, self.q)


def fq_isometric(q1, q2):
    """Whether two finite quadratic forms are isometric; exhaustive search
    over generator images (complete for group order <= 2^10)."""
    if q1.order != q2.order:
        return False
    if q1.order > 1024:
        raise ValueError("group order above the configured bound")
    if _primary_parts(q1.orders) != _primary_parts(q2.orders):
        return False
    if q1.value_multiset() != q2.value_multiset():
        return False

    def el_order(q, el):
        return lcm(*(d // gcd(c, d) for c, d in zip(el, q.orders) if c))

    targets = list(q2.elements())
    k = len(q1.orders)
    images = [None] * k

    def extend(i):
        if i == k:
            # the candidate homomorphism must be a q-preserving bijection
            seen = set()
            for el in q1.elements():
                im = tuple(sum(el[a] * images[a][b] for a in range(k))
                           % q2.orders[b] for b in range(len(q2.orders)))
                if im in seen:
                    return False
                seen.add(im)
                if q2.q_of(im) != q1.q_of(el):
                    return False
            return True
        for y in targets:
            if el_order(q2, y) != q1.orders[i]:
                continue
            if q2.q_of(y) != q1.q_of(tuple(int(j == i) for j in range(k))):
                continue
            ok = True
            for j in range(i):
                gi = tuple(int(a == i) for a in range(k))
                gj = tuple(int(a == j) for a in range(k))
                if q2.b_of(y, images[j]) != q1.b_of(gi, gj):
                    ok = False
                    break
            if not ok:
                continue
            images[i] = y
            if extend(i + 1):
                return True
            images[i] = None
        return False

    return extend(0)
