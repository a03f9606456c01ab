"""Incidence configurations and curve systems.

Covers the abstract side of the toolkit: the Reye configuration and the
incidence of the desmic surface's 12 nodes with its 16 lines, the
projective plane over the four-element field, Sylvester's
duads/synthemes/totals, the 42-curve system with its fibration tables, and
a JSON loader for dual-graph data (curve systems with intersection
matrices, fibers and divisors).
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
import json
import os

from .matrices import (bilinear, exact_ratio, gram_times, integer_scaled,
                       matrix_rank, nullspace)
from .projgeom import PLUCKER_INDEX, _orbit, normalize
from .scalars import F4, F4_ELEMENTS, W

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name, data_dir=None):
    return os.path.join(data_dir or DATA_DIR, name)


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


def config_isomorphic(A, B, seed=None):
    """An explicit isomorphism (point map, block map) between two
    configurations, or None when an exhaustive backtracking search rules one
    out.  Raises ValueError when the type signatures differ.

    seed is an optional list of forced (point of A, point of B) pairs,
    used for automorphism questions.
    """
    if A.type_signature != B.type_signature:
        raise ValueError("configuration type mismatch: %s vs %s"
                         % (A.type_signature, B.type_signature))
    pcolA, bcolA = _refined_colors(A)
    pcolB, bcolB = _refined_colors(B)

    def hist(col):
        h = {}
        for c in col.values():
            h[c] = h.get(c, 0) + 1
        return h

    if hist(pcolA) != hist(pcolB) or hist(bcolA) != hist(bcolB):
        return None
    codA, codB = _codegrees(A), _codegrees(B)

    seed = list(seed or [])
    for p, q in seed:
        if pcolA[p] != pcolB[q]:
            return None

    # assign rarest colors first, then points adjacent to assigned ones
    ha = hist(pcolA)
    free = [p for p in A.points if p not in {s[0] for s in seed}]
    order = [s[0] for s in seed] + sorted(
        free, key=lambda p: (ha[pcolA[p]], repr(p)))
    forced = dict(seed)
    used = set(forced.values())
    assign = dict(forced)

    by_pointset = {frozenset(B._points_of[b]): b for b in B.blocks}

    def block_map_for(pmap):
        """Derive the block map from a point map, or None if some block
        image is not a block (codegree consistency alone does not force
        block preservation)."""
        bmap = {}
        for b in A.blocks:
            s = frozenset(pmap[p] for p in A._points_of[b])
            if s not in by_pointset:
                return None
            bmap[b] = by_pointset[s]
        if len(set(bmap.values())) != len(A.blocks):
            return None
        return bmap

    def extend(k):
        if k == len(order):
            yield dict(assign)
            return
        p = order[k]
        if p in forced:
            yield from extend(k + 1)
            return
        for q in B.points:
            if q in used or pcolB[q] != pcolA[p]:
                continue
            ok = all(codA[(p, p2)] == codB[(q, q2)]
                     for p2, q2 in assign.items() if p2 != p)
            if not ok:
                continue
            assign[p] = q
            used.add(q)
            yield from extend(k + 1)
            del assign[p]
            used.discard(q)

    # seeds count as already assigned for the codegree checks
    for p, q in seed:
        assign[p] = q
    for pmap in extend(0):
        bmap = block_map_for(pmap)
        if bmap is None:
            continue
        if _check_witness(A, B, pmap, bmap):
            return pmap, bmap
    return None


# ---------------------------------------------------------------------------
# the Reye configuration and its geometric/abstract avatars
# ---------------------------------------------------------------------------

def _collinear(p, q, r):
    """Whether three integer points of P^3 lie on a line: the 3x4 matrix
    of their coordinates has rank <= 2 iff its four 3x3 minors vanish.
    Expanded along r, the minor on columns i < j < k is
    r_i m_jk - r_j m_ik + r_k m_ij, with m the 2x2 minors of p and q."""
    m01, m02, m03, m12, m13, m23 = (p[i] * q[j] - p[j] * q[i]
                                    for i, j in PLUCKER_INDEX)
    r0, r1, r2, r3 = r
    return (r0 * m12 - r1 * m02 + r2 * m01 == 0
            and r0 * m13 - r1 * m03 + r3 * m01 == 0
            and r0 * m23 - r2 * m03 + r3 * m02 == 0
            and r1 * m23 - r2 * m13 + r3 * m12 == 0)


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
        on = frozenset(r for r in points if _collinear(p, q, r))
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
    cfg = AbstractConfig.from_blocks(nodes, block_sets, name="desmic")
    if cfg.type_signature != ((12, 4), (16, 3)):
        raise ValueError("desmic incidence has type %s, expected "
                         "((12, 4), (16, 3))" % (cfg.type_signature,))
    return cfg


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
    cfg = AbstractConfig(pts, lines, inc, name="pg(2,4)")
    if cfg.type_signature != ((21, 5), (21, 5)):
        raise ValueError("pg(2,4) has type %s, expected ((21, 5), (21, 5))"
                         % (cfg.type_signature,))
    return cfg


# ---------------------------------------------------------------------------
# duads, synthemes and totals
# ---------------------------------------------------------------------------

def _duad_str(d):
    a, b = sorted(d)
    return "%d%d" % (a, b)


def _syntheme_str(s):
    return ".".join(sorted(_duad_str(d) for d in s))


# the printed symmetric table of common synthemes: entry (i, j) is the one
# syntheme shared by totals i and j (1-based)
TOTALS_TABLE = {
    (1, 2): "14.25.36", (1, 3): "16.24.35", (1, 4): "13.26.45",
    (1, 5): "12.34.56", (1, 6): "15.23.46",
    (2, 3): "15.26.34", (2, 4): "12.35.46", (2, 5): "16.23.45",
    (2, 6): "13.24.56",
    (3, 4): "14.23.56", (3, 5): "13.25.46", (3, 6): "12.36.45",
    (4, 5): "15.24.36", (4, 6): "16.25.34",
    (5, 6): "14.26.35",
}
for (_i, _j), _v in list(TOTALS_TABLE.items()):
    TOTALS_TABLE[(_j, _i)] = _v


def duad_syntheme_system():
    """Duads, synthemes and totals on six letters, with the totals labeled
    T1..T6 so that the pairwise-intersection table reproduces the printed
    one entry for entry.

    Returns a dict with keys: duads (15 strings), synthemes (15 strings),
    totals (label -> sorted list of 5 syntheme strings), table (6x6 tuple
    of strings, empty on the diagonal)."""
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

    # a total is five pairwise duad-disjoint synthemes covering all duads
    disjoint = {(s, t) for s in synthemes for t in synthemes
                if s is not t and not (s & t)}
    totals = []
    for combo in combinations(synthemes, 5):
        if all((s, t) in disjoint for s, t in combinations(combo, 2)):
            totals.append(frozenset(combo))
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

    # find the labeling that reproduces the printed table
    labeling = None
    for perm in permutations(range(6)):
        ok = True
        for i, j in combinations(range(6), 2):
            common = next(iter(totals[perm[i]] & totals[perm[j]]))
            if _syntheme_str(common) != TOTALS_TABLE[(i + 1, j + 1)]:
                ok = False
                break
        if ok:
            labeling = perm
            break
    if labeling is None:
        raise ValueError("no labeling of the totals reproduces the printed "
                         "table")

    labeled = {"T%d" % (k + 1): totals[labeling[k]] for k in range(6)}
    table = tuple(
        tuple("" if i == j else TOTALS_TABLE[(i + 1, j + 1)]
              for j in range(6))
        for i in range(6))
    # double-check the rendered table against the labeled totals
    for i, j in permutations(range(6), 2):
        common = next(iter(labeled["T%d" % (i + 1)]
                           & labeled["T%d" % (j + 1)]))
        if table[i][j] != _syntheme_str(common):
            raise ValueError("table entry T%d, T%d is %s, but the totals "
                             "share %s" % (i + 1, j + 1, table[i][j],
                                           _syntheme_str(common)))
    return {
        "duads": sorted(_duad_str(d) for d in duads),
        "synthemes": sorted(_syntheme_str(s) for s in synthemes),
        "totals": {k: sorted(_syntheme_str(s) for s in v)
                   for k, v in labeled.items()},
        "table": table,
        "_synthemes_raw": synthemes,
        "_totals_raw": labeled,
    }


# ---------------------------------------------------------------------------
# curve systems
# ---------------------------------------------------------------------------

_AFFINE_MULTS = {
    "D~4": [1, 1, 1, 1, 2],
    "D~8": [1, 1, 1, 1, 2, 2, 2, 2, 2],
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

    def fiber_vector(self, fibration_name, which=0):
        return self._as_vector(
            (c["id"], c["mult"])
            for c in self._fiber_components(fibration_name, which))

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
            want = _AFFINE_MULTS.get(ftype)
            if want is None and ftype.startswith("A~"):
                want = [1] * (int(ftype[2:]) + 1)
            if want is None and ftype.startswith("D~"):
                n = int(ftype[2:])
                want = [1, 1, 1, 1] + [2] * (n - 3)
            if want is None:
                raise ValueError("%s: unknown fiber type %r"
                                 % (where, ftype))
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


def _is_int(value):
    """True for a JSON integer; bool is an int subclass but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _records(value, where):
    """value, which must be a JSON list of objects; `where` names it in the
    ValueError raised otherwise."""
    if not isinstance(value, list):
        raise ValueError("%s: %r is not a list" % (where, value))
    for rec in value:
        if not isinstance(rec, dict):
            raise ValueError("%s: record %r is not an object" % (where, rec))
    return value


def ingest_curve_system(path):
    """Load and validate a curve system from its JSON file."""
    with open(path) as fh:
        data = json.load(fh)
    for key in data:
        if key not in ("curves", "intersections", "fibrations",
                       "divisors"):
            raise ValueError("unknown top-level key %r" % key)
    if "curves" not in data:
        raise ValueError("missing 'curves'")
    ids, selfints = [], {}
    for rec in _records(data["curves"], "curves"):
        if set(rec) != {"id", "self"}:
            raise ValueError("bad curve record %r" % (rec,))
        if not _is_int(rec["self"]):
            raise ValueError("curve record %r: self-intersection is not an "
                             "integer" % (rec,))
        ids.append(rec["id"])
        selfints[rec["id"]] = rec["self"]
    n = len(ids)
    index = {c: k for k, c in enumerate(ids)}
    if len(index) != n:
        raise ValueError("duplicate curve ids")
    gram = [[0] * n for _ in range(n)]
    for c in ids:
        gram[index[c]][index[c]] = selfints[c]
    given = set()
    for entry in data.get("intersections", []):
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError("bad intersection entry %r" % (entry,))
        a, b, val = entry
        if a not in index or b not in index:
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
    fibrations = _records(data.get("fibrations", []), "fibrations")
    for fib in fibrations:
        if set(fib) != {"name", "fibers"}:
            raise ValueError("bad fibration record %r" % (fib.get("name"),))
        fibers = _records(fib["fibers"],
                          "fibration %s fibers" % (fib["name"],))
        for k, fiber in enumerate(fibers):
            if "components" not in fiber:
                raise ValueError("fibration %s fiber %d has no components: "
                                 "%r" % (fib["name"], k, fiber))
            for comp in _records(fiber["components"],
                                 "fibration %s fiber %d components"
                                 % (fib["name"], k)):
                if "id" not in comp:
                    raise ValueError("fibration %s component %r has no id"
                                     % (fib["name"], comp))
                if comp["id"] not in index:
                    raise ValueError(
                        "fibration %s names unknown curve %r"
                        % (fib["name"], comp["id"]))
                if not (_is_int(comp.get("mult")) and comp["mult"] > 0):
                    raise ValueError(
                        "fibration %s component %r: multiplicity is not a "
                        "positive integer" % (fib["name"], comp))
    divisors = _records(data.get("divisors", []), "divisors")
    for div in divisors:
        if not {"name", "terms"} <= set(div):
            raise ValueError("divisor record %r needs a name and terms"
                             % (div,))
        for term in _records(div["terms"],
                             "divisor %s terms" % (div["name"],)):
            keys = set(term)
            if keys not in ({"id", "coeff"}, {"class", "coeff"}):
                raise ValueError("bad divisor term %r in %s"
                                 % (term, div["name"]))
            if "id" in term and term["id"] not in index:
                raise ValueError("divisor %s names unknown curve %r"
                                 % (div["name"], term["id"]))
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


def supersingular_42_system(data_dir=None):
    """The 42-curve system with its fibrations and H, loaded from its
    checked-in JSON file (written by tools/make_data_files.py)."""
    return ingest_curve_system(data_path("supersingular-42.json", data_dir))


# ---------------------------------------------------------------------------
# the 42-curve system
# ---------------------------------------------------------------------------

SIX_ARC = ((F4(1), F4(0), F4(0)),
           (F4(0), F4(1), F4(0)),
           (F4(0), F4(0), F4(1)),
           (F4(1), F4(1), F4(1)),
           (F4(1), W, W * W),
           (F4(1), W * W, W))


def label_42_curves():
    """The 42-curve system: 21 exceptional curves over the points of the
    plane and 21 line transforms, labeled by letters 1..6, duads,
    synthemes and totals via the fixed 6-arc.

    Returns (CurveSystem, labeling dict)."""
    pts = _pg2_reps()
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
    sysd = duad_syntheme_system()
    syntheme_strs = set(sysd["synthemes"])
    for p in pts:
        if p in point_label:
            continue
        duads = sorted(lbl for rep, lbl in line_label.items()
                       if _on(p, rep))
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
    for l in _pg2_reps():
        if l in line_label:
            continue
        synths = sorted(point_label[p] for p in pts if _on(p, l))
        match = [k for k, v in totals.items() if v == set(synths)]
        if len(synths) != 5 or len(match) != 1:
            raise ValueError("line %s through the synthemes %s matches the "
                             "totals %s, not one" % (l, synths, match))
        line_label[l] = match[0]
    if len(set(line_label.values())) != 21:
        raise ValueError("%d distinct line labels, not 21"
                         % len(set(line_label.values())))

    plabels = [point_label[p] for p in pts]
    llabels = [line_label[l] for l in _pg2_reps()]
    ids = plabels + llabels
    n = 42
    gram = [[0] * n for _ in range(n)]
    for k in range(n):
        gram[k][k] = -2
    for a, p in enumerate(pts):
        for b, l in enumerate(_pg2_reps()):
            if _on(p, l):
                gram[a][21 + b] = gram[21 + b][a] = 1
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


# fixed rendering of the 6x6 duad/syntheme table, for byte-identity checks
DUAD_TABLE_REFERENCE = (
    ("", "14.25.36", "16.24.35", "13.26.45", "12.34.56", "15.23.46"),
    ("14.25.36", "", "15.26.34", "12.35.46", "16.23.45", "13.24.56"),
    ("16.24.35", "15.26.34", "", "14.23.56", "13.25.46", "12.36.45"),
    ("13.26.45", "12.35.46", "14.23.56", "", "15.24.36", "16.25.34"),
    ("12.34.56", "16.23.45", "13.25.46", "15.24.36", "", "14.26.35"),
    ("15.23.46", "13.24.56", "12.36.45", "16.25.34", "14.26.35", ""),
)


def extract_desmic_28():
    """The 12 central curves of the first four fibers plus their 16 common
    simple components, as a sub curve system and the induced (12_4, 16_3)
    configuration, checked isomorphic to the Reye configuration.

    Returns (CurveSystem, AbstractConfig, isomorphism with Reye)."""
    cs, commons = fibration_tables()
    centrals = [central for table in FIBRATION_TABLES
                for central, _ in table[:4]]
    want = ["12", "13", "14", "15", "26", "36", "46", "56",
            "23", "45", "T2", "T5"]
    if centrals != want:
        raise ValueError("centrals %s of the fibration tables differ from %s"
                         % (centrals, want))
    keep = centrals + sorted(commons)
    idx = [cs.index[c] for c in keep]
    sub = [[cs.gram[a][b] for b in idx] for a in idx]
    cs28 = CurveSystem(keep, sub)
    inc = {(c, e) for c in centrals for e in commons
           if cs28.pair(c, e) == 1}
    cfg = AbstractConfig(centrals, sorted(commons), inc, name="desmic-28")
    if cfg.type_signature != ((12, 4), (16, 3)):
        raise ValueError("28-curve configuration has type %s, expected "
                         "((12, 4), (16, 3))" % (cfg.type_signature,))
    iso = config_isomorphic(cfg, reye_config())
    if iso is None:
        raise ValueError("28-curve configuration is not Reye")
    return cs28, cfg, iso
