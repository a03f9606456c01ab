"""Incidence configurations and curve systems.

Covers the abstract side of the toolkit: the Reye configuration and the
incidence of the desmic surface's 12 nodes with its 16 lines, the
projective plane over the four-element field, Sylvester's
duads/synthemes/totals, curve systems (intersection matrices with fiber
and divisor records, validated), the 42-curve system with its fibration
tables, and divisor pairings on a curve system.  The JSON loader of curve
systems lives in `lattices`, whose suite alone reads a curve file.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

from .matrices import (bilinear, exact_ratio, gram_times, integer_scaled,
                       matrix_rank, nullspace)
from .projgeom import PLUCKER_INDEX, _orbit, normalize, on_line
from .scalars import F4, F4_ELEMENTS, W

# ---------------------------------------------------------------------------
# abstract configurations
# ---------------------------------------------------------------------------

class AbstractConfig:
    """A finite incidence structure of type (a_c, b_d): a points each lying
    in exactly c blocks, b blocks each containing exactly d points."""

    def __init__(self, points, blocks, incidence, name=None):
        self.points = list(points)
        self.blocks = list(blocks)
        self.name = name
        for kind, labels in (("point", self.points), ("block", self.blocks)):
            dups = [x for x, n in Counter(labels).items() if n > 1]
            if dups:
                raise ValueError("duplicate %s label %r" % (kind, dups[0]))
        self.incidence = frozenset(incidence)
        self._blocks_of = {p: set() for p in self.points}
        self._points_of = {b: set() for b in self.blocks}
        for p, b in self.incidence:
            if p not in self._blocks_of:
                raise ValueError("incidence names unknown point %r" % (p,))
            if b not in self._points_of:
                raise ValueError("incidence names unknown block %r" % (b,))
            self._blocks_of[p].add(b)
            self._points_of[b].add(p)
        degs = {len(s) for s in self._blocks_of.values()}
        sizes = {len(s) for s in self._points_of.values()}
        if len(degs) != 1:
            raise ValueError("point degrees not uniform: %s" % sorted(degs))
        if len(sizes) != 1:
            raise ValueError("block sizes not uniform: %s" % sorted(sizes))
        self.c = degs.pop()
        self.d = sizes.pop()

    @classmethod
    def from_blocks(cls, points, block_sets, name=None):
        """Build from a list of point sets; blocks are labeled 0..n-1."""
        blocks = list(range(len(block_sets)))
        inc = {(p, b) for b, s in enumerate(block_sets) for p in s}
        return cls(points, blocks, inc, name=name)

    @property
    def type_signature(self):
        return ((len(self.points), self.c), (len(self.blocks), self.d))

    def blocks_of(self, p):
        return frozenset(self._blocks_of[p])

    def __repr__(self):
        (a, c), (b, d) = self.type_signature
        return "AbstractConfig(%s: (%d_%d, %d_%d))" % (
            self.name or "?", a, c, b, d)


def _codegrees(cfg):
    """For each pair of points, the number of blocks containing both."""
    out = {}
    for p, q in combinations(cfg.points, 2):
        n = len(cfg._blocks_of[p] & cfg._blocks_of[q])
        out[(p, q)] = out[(q, p)] = n
    return out


def _refined_colors(cfg):
    """Stable coloring of points and blocks by iterated neighborhoods.

    The colors are canonical (built from nested tuples only), so they are
    directly comparable between two configurations.
    """
    pcol = {p: ("P",) for p in cfg.points}
    bcol = {b: ("B",) for b in cfg.blocks}
    while True:
        npcol = {p: (pcol[p], tuple(sorted(bcol[b]
                                           for b in cfg._blocks_of[p])))
                 for p in cfg.points}
        nbcol = {b: (bcol[b], tuple(sorted(pcol[p]
                                           for p in cfg._points_of[b])))
                 for b in cfg.blocks}
        stable = (len(set(npcol.values())) == len(set(pcol.values()))
                  and len(set(nbcol.values())) == len(set(bcol.values())))
        pcol, bcol = npcol, nbcol
        if stable:
            return pcol, bcol


def _check_witness(A, B, pmap, bmap):
    if set(pmap) != set(A.points) or set(pmap.values()) != set(B.points):
        return False
    if len(pmap) != len(set(pmap.values())):
        return False
    if set(bmap) != set(A.blocks) or set(bmap.values()) != set(B.blocks):
        return False
    if len(bmap) != len(set(bmap.values())):
        return False
    return {(pmap[p], bmap[b]) for p, b in A.incidence} == B.incidence


def config_isomorphic(A, B):
    """An explicit isomorphism (point map, block map) between two
    configurations, or None when an exhaustive backtracking search rules one
    out.  Raises ValueError when the type signatures differ.

    Each point of A goes to a point of B of its color whose codegrees with
    those already assigned agree.  A block of A is mapped when its last
    point is assigned, to a block of B on the image points that no other
    block took, and the search backtracks there if there is none;
    `_check_witness` decides each complete pair of maps."""
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

    # assign rarest colors first; closing[k] are the blocks of A whose last
    # point in that order is order[k] (an empty block closes at once)
    order = sorted(A.points, key=lambda p: (ha[pcolA[p]], repr(p)))
    rank = {p: k for k, p in enumerate(order)}
    closing = [[] for _ in order]
    for b in A.blocks:
        closing[max((rank[p] for p in A._points_of[b]), default=0)].append(b)
    blocks_on = {}
    for b in B.blocks:
        blocks_on.setdefault(frozenset(B._points_of[b]), []).append(b)
    used = set()
    assign = {}
    bmap = {}

    def extend(k):
        if k == len(order):
            yield dict(assign), dict(bmap)
            return
        p = order[k]
        for q in B.points:
            if q in used or pcolB[q] != pcolA[p]:
                continue
            ok = all(codA[(p, p2)] == codB[(q, q2)]
                     for p2, q2 in assign.items())
            if not ok:
                continue
            assign[p] = q
            # blocks of A with one image have one point set, so they all
            # close here: each takes the next block of B on that image
            free = {}
            for b in closing[k]:
                s = frozenset(assign[x] for x in A._points_of[b])
                image = next(free.setdefault(s, iter(blocks_on.get(s, ()))),
                             None)
                if image is None:
                    break
                bmap[b] = image
            else:
                used.add(q)
                yield from extend(k + 1)
                used.discard(q)
            del assign[p]

    for pmap, blocks in extend(0):
        if _check_witness(A, B, pmap, blocks):
            return pmap, blocks
    return None


# ---------------------------------------------------------------------------
# the Reye configuration and its geometric/abstract avatars
# ---------------------------------------------------------------------------

def reye_config():
    """(12_4, 16_3) from the cube model: 8 vertices, the center, and the
    3 points at infinity of the edge directions; 12 edges + 4 diagonals."""
    vertices = [(1, sx, sy, sz) for sx in (1, -1) for sy in (1, -1)
                for sz in (1, -1)]
    center = (1, 0, 0, 0)
    infinity = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    points = vertices + [center] + infinity
    lines = set()
    for p, q in combinations(points, 2):
        m = tuple(p[i] * q[j] - p[j] * q[i] for i, j in PLUCKER_INDEX)
        on = frozenset(r for r in points if on_line(m, r))
        if len(on) == 3:
            lines.add(on)
    if len(lines) != 16:
        raise ValueError("the cube model has %d lines of three points, not "
                         "16" % len(lines))
    inc = {(p, b) for b in lines for p in b}
    return AbstractConfig(points, sorted(lines, key=sorted), inc,
                          name="reye")


def desmic_surface_config(singular_12, lines_16):
    """Incidence of the 12 singular points of the desmic quartic with the
    16 lines common to the pencil (surfaces.DESMIC_SINGULAR_12 and
    surfaces.desmic_lines_16())."""
    nodes = [tuple(p) for p in singular_12]
    block_sets = [[n for n in nodes if ln.contains(n)] for ln in lines_16]
    return AbstractConfig.from_blocks(nodes, block_sets, name="desmic")


# ---------------------------------------------------------------------------
# the projective plane over the four-element field
# ---------------------------------------------------------------------------

_F4_ZERO = F4(0)
_F4_ONE = F4(1)


def _on(p, l):
    """Whether the point p of the plane over F_4 lies on the line l."""
    return p[0] * l[0] + p[1] * l[1] + p[2] * l[2] == _F4_ZERO


def _pg2_reps():
    pts = [(_F4_ONE, a, b) for a in F4_ELEMENTS for b in F4_ELEMENTS]
    pts += [(_F4_ZERO, _F4_ONE, a) for a in F4_ELEMENTS]
    pts.append((_F4_ZERO, _F4_ZERO, _F4_ONE))
    return pts


def pg24():
    """The projective plane over the field with four elements: 21 points,
    21 lines, five points per line and five lines per point."""
    pts = _pg2_reps()
    lines = _pg2_reps()
    inc = {(p, l) for p in pts for l in lines if _on(p, l)}
    return AbstractConfig(pts, lines, inc, name="pg(2,4)")


# ---------------------------------------------------------------------------
# duads, synthemes and totals
# ---------------------------------------------------------------------------

def _duad_str(d):
    a, b = sorted(d)
    return "%d%d" % (a, b)


def _syntheme_str(s):
    return ".".join(sorted(_duad_str(d) for d in s))


# the printed table of common synthemes: entry (i, j) is the syntheme that
# T(i+1) and T(j+1) share
DUAD_TABLE = (
    ("", "14.25.36", "16.24.35", "13.26.45", "12.34.56", "15.23.46"),
    ("14.25.36", "", "15.26.34", "12.35.46", "16.23.45", "13.24.56"),
    ("16.24.35", "15.26.34", "", "14.23.56", "13.25.46", "12.36.45"),
    ("13.26.45", "12.35.46", "14.23.56", "", "15.24.36", "16.25.34"),
    ("12.34.56", "16.23.45", "13.25.46", "15.24.36", "", "14.26.35"),
    ("15.23.46", "13.24.56", "12.36.45", "16.25.34", "14.26.35", ""),
)


def duad_syntheme_system():
    """Duads, synthemes and totals on six letters.  The totals are the
    5-cliques of the disjointness graph on the synthemes, and T_k is the
    total whose synthemes are the five entries of row k of the printed table.

    Returns a dict with keys: duads (15 strings), synthemes (15 strings),
    totals (label -> sorted list of 5 syntheme strings), table (6x6 tuple
    of strings: the syntheme that T(i+1) and T(j+1) share, empty on the
    diagonal), derived from the labeled totals."""
    letters = range(1, 7)
    duads = [frozenset(d) for d in combinations(letters, 2)]
    if len(duads) != 15:
        raise ValueError("%d duads, not 15" % len(duads))

    def matchings(rest):
        if not rest:
            yield []
            return
        a = min(rest)
        for b in sorted(rest - {a}):
            for tail in matchings(rest - {a, b}):
                yield [frozenset({a, b})] + tail

    synthemes = [frozenset(m) for m in matchings(set(letters))]
    if len(synthemes) != 15:
        raise ValueError("%d synthemes, not 15" % len(synthemes))

    # a total is five pairwise duad-disjoint synthemes: a partial total is
    # extended only by synthemes after its last member that are disjoint
    # from all of its members, so the totals come in combinations order
    def cliques(members, candidates):
        if len(members) == 5:
            yield frozenset(members)
            return
        for k, s in enumerate(candidates):
            yield from cliques(members + [s],
                               [t for t in candidates[k + 1:] if not s & t])

    totals = list(cliques([], synthemes))
    if len(totals) != 6:
        raise ValueError("%d totals, not 6" % len(totals))
    for t in totals:
        missed = set(duads).difference(*t)
        if missed:
            raise ValueError("total %s misses the duads %s"
                             % (sorted(map(_syntheme_str, t)),
                                sorted(map(_duad_str, missed))))
    for s, t in combinations(totals, 2):
        if len(s & t) != 1:
            raise ValueError("totals %s and %s share %d synthemes, not 1"
                             % (sorted(map(_syntheme_str, s)),
                                sorted(map(_syntheme_str, t)), len(s & t)))

    # T_k is read off row k of the printed table: the labeling is forced
    by_names = {frozenset(map(_syntheme_str, t)): t for t in totals}
    label_of = {}
    for k in range(1, 7):
        row = frozenset(v for j, v in enumerate(DUAD_TABLE[k - 1], 1)
                        if j != k)
        total = by_names.get(row)
        if total is None:
            raise ValueError("row T%d of the printed table, %s, is not a "
                             "total" % (k, ", ".join(sorted(row))))
        if total in label_of:
            raise ValueError("rows %s and T%d of the printed table name the "
                             "same total" % (label_of[total], k))
        label_of[total] = "T%d" % k
    labeled = {k: t for t, k in label_of.items()}
    rows = [labeled["T%d" % k] for k in range(1, 7)]
    table = tuple(tuple("" if i == j else _syntheme_str(next(iter(s & t)))
                        for j, t in enumerate(rows))
                  for i, s in enumerate(rows))
    return {
        "duads": sorted(_duad_str(d) for d in duads),
        "synthemes": sorted(_syntheme_str(s) for s in synthemes),
        "totals": {k: sorted(_syntheme_str(s) for s in v)
                   for k, v in labeled.items()},
        "table": table,
    }


# ---------------------------------------------------------------------------
# curve systems
# ---------------------------------------------------------------------------

# multiplicities of the exceptional fiber types; A~n and D~n (n >= 4)
# follow a formula (CurveSystem._check_fiber)
_AFFINE_MULTS = {
    "E~6": [1, 1, 1, 2, 2, 2, 3],
    "E~7": [1, 1, 2, 2, 2, 3, 3, 4],
    "E~8": [1, 2, 2, 3, 3, 4, 4, 5, 6],
}


class CurveSystem:
    """Finitely many curves with a symmetric integer intersection matrix,
    plus optional fibration and divisor records."""

    def __init__(self, ids, gram, fibrations=None, divisors=None):
        self.ids = list(ids)
        self.index = {c: k for k, c in enumerate(self.ids)}
        dups = sorted({c for c in self.ids if self.ids.count(c) > 1})
        if dups:
            raise ValueError("duplicate curve ids: %s" % ", ".join(dups))
        self.gram = [list(row) for row in gram]
        n = len(self.ids)
        if len(self.gram) != n:
            raise ValueError("intersection matrix has %d rows for %d curves"
                             % (len(self.gram), n))
        for cid, row in zip(self.ids, self.gram):
            if len(row) != n:
                raise ValueError("intersection row of curve %s has %d "
                                 "entries, expected %d" % (cid, len(row), n))
        for a in range(n):
            for b in range(a + 1, n):
                if self.gram[a][b] != self.gram[b][a]:
                    raise ValueError(
                        "intersection matrix not symmetric at %s, %s"
                        % (self.ids[a], self.ids[b]))
        self.fibrations = list(fibrations or [])
        self.divisors = list(divisors or [])

    def pair(self, a, b):
        return self.gram[self.index[a]][self.index[b]]

    def _as_vector(self, terms):
        """terms: iterable of (curve id, rational coefficient).  Integral
        entries are ints; only a non-integral one is a Fraction."""
        v = [0] * len(self.ids)
        for cid, coeff in terms:
            v[self.index[cid]] += Fraction(coeff)
        return [x.numerator if x.denominator == 1 else x for x in v]

    def vector_pairing(self, u, v):
        """u . v under the intersection matrix: both vectors are scaled to
        integers over their common denominators and divided once."""
        du, iu = integer_scaled(u)
        dv, iv = integer_scaled(v)
        return exact_ratio(bilinear(self.gram, iu, iv), du * dv)

    def _fiber_components(self, fibration_name, which=0):
        for fib in self.fibrations:
            if fib["name"] == fibration_name:
                return fib["fibers"][which]["components"]
        raise KeyError("no fibration named %r" % fibration_name)

    def divisor_vector(self, name):
        """Expand a divisor record; "class" terms contribute the class of
        a fiber of the named fibration (represented by its first fiber)."""
        for div in self.divisors:
            if div["name"] != name:
                continue
            terms = []
            for term in div["terms"]:
                coeff = Fraction(term["coeff"])
                if "class" in term:
                    terms += [(c["id"], coeff * c["mult"]) for c in
                              self._fiber_components(term["class"])]
                else:
                    terms.append((term["id"], coeff))
            return self._as_vector(terms)
        raise KeyError("no divisor named %r" % name)

    def _check_fiber(self, fname, k, fiber):
        comps = fiber["components"]
        cids = [c["id"] for c in comps]
        mults = [c["mult"] for c in comps]
        where = "fiber %d of %s" % (k, fname)
        twice = sorted({c for c in cids if cids.count(c) > 1})
        if twice:
            raise ValueError("%s lists curve %s twice"
                             % (where, ", ".join(twice)))
        ftype = fiber.get("type")
        if ftype is not None:
            kind, n = ftype[:2], ftype[2:]
            n = int(n) if n.isdecimal() else -1
            if ftype in _AFFINE_MULTS:
                want = _AFFINE_MULTS[ftype]
            elif not (kind == "A~" and n >= 0 or kind == "D~" and n >= 4):
                raise ValueError("%s: unknown fiber type %r"
                                 % (where, ftype))
            elif len(mults) != n + 1:
                # A~n and D~n have n + 1 components; counting them first
                # builds no list for a huge n
                want = None
            else:
                want = ([1] * (n + 1) if kind == "A~"
                        else [1, 1, 1, 1] + [2] * (n - 3))
            if sorted(mults) != want:
                raise ValueError(
                    "%s: multiplicities %s do not match type %s"
                    % (where, sorted(mults), ftype))
        # connectivity: the components reached from the first one by steps
        # a -> b between curves that meet
        seen = _orbit(cids[0], cids, lambda b, a: b if self.pair(a, b) else a)
        if seen != set(cids):
            raise ValueError("%s is not connected" % where)
        fv = self._as_vector(zip(cids, mults))
        sq = self.vector_pairing(fv, fv)
        if sq != 0:
            raise ValueError("%s: F^2 = %s, expected 0" % (where, sq))
        fg = gram_times(self.gram, fv)
        for cid in cids:
            val = fg[self.index[cid]]
            if val != 0:
                raise ValueError("%s: F . %s = %s, expected 0"
                                 % (where, cid, val))

    def validate(self):
        """Check the declared invariants; raises ValueError naming the
        offending fiber/curve/divisor on failure."""
        for cid in self.ids:
            if self.pair(cid, cid) != -2:
                raise ValueError("curve %s has self-intersection %s"
                                 % (cid, self.pair(cid, cid)))
        for fib in self.fibrations:
            for k, fiber in enumerate(fib["fibers"]):
                self._check_fiber(fib["name"], k, fiber)
        for div in self.divisors:
            dg = gram_times(self.gram, self.divisor_vector(div["name"]))
            for cid, val in zip(self.ids, dg):
                if val.denominator != 1:
                    raise ValueError(
                        "divisor %s pairs non-integrally with %s: %s"
                        % (div["name"], cid, val))
        return self


def divisor_pairings(cs, name):
    """H^2 and the table of H . C over all curves of the system, by exact
    rational Gram arithmetic (fiber classes expanded from the records)."""
    h = cs.divisor_vector(name)
    self_int = cs.vector_pairing(h, h)
    table = {}
    for cid, val in zip(cs.ids, gram_times(cs.gram, h)):
        if val.denominator != 1:
            raise ValueError("divisor %s pairs non-integrally with %s"
                             % (name, cid))
        table[cid] = val
    return {"self": self_int, "pairings": table}


# ---------------------------------------------------------------------------
# the 42-curve system
# ---------------------------------------------------------------------------

SIX_ARC = ((F4(1), F4(0), F4(0)),
           (F4(0), F4(1), F4(0)),
           (F4(0), F4(0), F4(1)),
           (F4(1), F4(1), F4(1)),
           (F4(1), W, W * W),
           (F4(1), W * W, W))


def label_42_curves(plane=None, sysd=None):
    """The 42-curve system: 21 exceptional curves over the points of the
    plane and 21 line transforms, labeled by letters 1..6, duads,
    synthemes and totals via the fixed 6-arc.  `plane` is pg24() and
    `sysd` is duad_syntheme_system(), each built here when not given; the
    incidence of points and lines is read from the plane.

    Returns (CurveSystem, labeling dict)."""
    plane = plane or pg24()
    sysd = sysd or duad_syntheme_system()
    pts, lines = plane.points, plane.blocks
    arc = list(SIX_ARC)
    for trip in combinations(arc, 3):
        if matrix_rank([list(r) for r in trip]) != 3:
            raise ValueError("the 6-arc points %s are collinear" % (trip,))

    # duad lines
    line_label = {}
    for i, j in combinations(range(6), 2):
        rep = normalize(nullspace([arc[i], arc[j]], _F4_ONE)[0])
        lbl = "%d%d" % (i + 1, j + 1)
        if rep in line_label:
            raise ValueError("duads %s and %s give the same line %s"
                             % (line_label[rep], lbl, rep))
        line_label[rep] = lbl

    # point labels: arc points get letters, the rest get the syntheme of
    # the duad lines through them
    point_label = {}
    for k, a in enumerate(arc):
        point_label[a] = "%d" % (k + 1)
    syntheme_strs = set(sysd["synthemes"])
    for p in pts:
        if p in point_label:
            continue
        duads = sorted(line_label[l] for l in plane._blocks_of[p]
                       if l in line_label)
        if len(duads) != 3:
            raise ValueError("non-arc point %s lies on the %d duad lines %s"
                             % (p, len(duads), duads))
        s = ".".join(duads)
        if s not in syntheme_strs:
            raise ValueError("the duads %s through point %s are not a "
                             "syntheme" % (s, p))
        point_label[p] = s
    if len(set(point_label.values())) != 21:
        raise ValueError("%d distinct point labels, not 21"
                         % len(set(point_label.values())))

    # total lines: the six lines missing every arc point
    totals = {k: set(v) for k, v in sysd["totals"].items()}
    for l in lines:
        if l in line_label:
            continue
        synths = sorted(point_label[p] for p in plane._points_of[l])
        match = [k for k, v in totals.items() if v == set(synths)]
        if len(synths) != 5 or len(match) != 1:
            raise ValueError("line %s through the synthemes %s matches the "
                             "totals %s, not one" % (l, synths, match))
        line_label[l] = match[0]
    if len(set(line_label.values())) != 21:
        raise ValueError("%d distinct line labels, not 21"
                         % len(set(line_label.values())))

    plabels = [point_label[p] for p in pts]
    llabels = [line_label[l] for l in lines]
    ids = plabels + llabels
    n = 42
    gram = [[0] * n for _ in range(n)]
    for k in range(n):
        gram[k][k] = -2
    # points and lines share their coordinate tuples: two row indexes
    prow = {p: a for a, p in enumerate(pts)}
    lrow = {l: 21 + b for b, l in enumerate(lines)}
    for p, l in plane.incidence:
        a, b = prow[p], lrow[l]
        gram[a][b] = gram[b][a] = 1
    cs = CurveSystem(ids, gram)
    cs.validate()
    # the lifted (21_5) property: each curve meets five curves, all of
    # the other kind (points against lines)
    for a, row in enumerate(gram):
        met = [b for b in range(n) if b != a and row[b]]
        same = [ids[b] for b in met if (b < 21) == (a < 21)]
        if same or sum(row[b] for b in met) != 5:
            raise ValueError("curve %s meets %s, not five curves of the "
                             "other kind" % (ids[a], [ids[b] for b in met]))
    return cs, {"points": plabels, "lines": llabels}


# the three fibration tables: (column header, four leaves) per column
FIBRATION_TABLE_1 = (
    ("12", ("12.35.46", "12.34.56", "12.36.45", "2")),
    ("13", ("13.25.46", "13.24.56", "3", "13.26.45")),
    ("14", ("4", "14.23.56", "14.25.36", "14.26.35")),
    ("15", ("15.23.46", "5", "15.24.36", "15.26.34")),
    ("16", ("6", "16.23.45", "16.24.35", "16.25.34")),
)
FIBRATION_TABLE_2 = (
    ("26", ("2", "13.26.45", "14.26.35", "15.26.34")),
    ("36", ("12.36.45", "3", "14.25.36", "15.24.36")),
    ("46", ("12.35.46", "13.25.46", "4", "15.23.46")),
    ("56", ("12.34.56", "13.24.56", "14.23.56", "5")),
    ("16", ("1", "16.23.45", "16.24.35", "16.25.34")),
)
FIBRATION_TABLE_3 = (
    ("23", ("2", "3", "14.23.56", "15.23.46")),
    ("45", ("4", "5", "12.36.45", "13.26.45")),
    ("T2", ("12.35.46", "13.24.56", "14.25.36", "15.26.34")),
    ("T5", ("12.34.56", "13.25.46", "14.26.35", "15.24.36")),
    ("16", ("1", "6", "16.24.35", "16.25.34")),
)
FIBRATION_TABLES = (FIBRATION_TABLE_1, FIBRATION_TABLE_2,
                    FIBRATION_TABLE_3)


def fibration_tables(curve_system=None):
    """The three fibration tables, validated against the 42-curve
    intersection matrix: each column is an affine 4-pronged star (central
    = the header, four leaves of multiplicity one), the fiber class
    squares to zero, and the sixteen simple components of the first four
    fibers agree across the three fibrations.

    Returns (CurveSystem with fibration records attached, commons set)."""
    cs = curve_system
    if cs is None:
        cs, _ = label_42_curves()
    fibrations = []
    commons = None
    for t, table in enumerate(FIBRATION_TABLES):
        fibers = []
        for central, leaves in table:
            for leaf in leaves:
                if cs.pair(central, leaf) != 1:
                    raise ValueError("table %d: central %s misses leaf %s"
                                     % (t + 1, central, leaf))
            for u, v in combinations(leaves, 2):
                if cs.pair(u, v) != 0:
                    raise ValueError("table %d: leaves %s, %s of central %s "
                                     "meet" % (t + 1, u, v, central))
            comps = [{"id": central, "mult": 2}]
            comps += [{"id": leaf, "mult": 1} for leaf in leaves]
            fibers.append({"type": "D~4", "components": comps})
        fibrations.append({"name": "f%d" % (t + 1), "fibers": fibers})
        simple = set()
        for central, leaves in table[:4]:
            simple.update(leaves)
        if len(simple) != 16:
            raise ValueError("table %d: %d simple components in its first "
                             "four columns, expected 16"
                             % (t + 1, len(simple)))
        if commons is None:
            commons = simple
        elif commons != simple:
            raise ValueError("table %d: simple components %s differ from "
                             "table 1's" % (t + 1, sorted(simple ^ commons)))
    h_terms = [{"class": "f%d" % (t + 1), "coeff": "1"} for t in range(3)]
    h_terms += [{"id": c, "coeff": "-1/2"} for c in sorted(commons)]
    out = CurveSystem(cs.ids, cs.gram, fibrations=fibrations,
                      divisors=[{"name": "H", "terms": h_terms}])
    out.validate()
    return out, commons


def extract_desmic_28(tables):
    """The 12 central curves of the first four fibers plus their 16 common
    simple components, as a sub curve system and the induced (12_4, 16_3)
    configuration, checked isomorphic to the Reye configuration.  `tables`
    is the (CurveSystem, commons) pair that fibration_tables() returns.

    Returns (CurveSystem, AbstractConfig, isomorphism with Reye)."""
    cs, commons = tables
    centrals = [central for table in FIBRATION_TABLES
                for central, _ in table[:4]]
    keep = centrals + sorted(commons)
    idx = [cs.index[c] for c in keep]
    sub = [[cs.gram[a][b] for b in idx] for a in idx]
    cs28 = CurveSystem(keep, sub)
    inc = {(c, e) for c in centrals for e in commons
           if cs28.pair(c, e) == 1}
    cfg = AbstractConfig(centrals, sorted(commons), inc, name="desmic-28")
    iso = config_isomorphic(cfg, reye_config())
    if iso is None:
        raise ValueError("28-curve configuration is not Reye")
    return cs28, cfg, iso
