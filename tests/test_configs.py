"""Tests for incidence configurations, the duad/syntheme structures, the
42-curve system and the curve-system JSON loader (in `lattices`)."""

import importlib.util
import json
import os
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import desmic_kit.configs as cf
import desmic_kit.lattices as la
from desmic_kit.matrices import gram_times, matrix_rank
from desmic_kit.projgeom import PLUCKER_INDEX, on_line
from desmic_kit.surfaces import DESMIC_SINGULAR_12, desmic_lines_16
from claims import coset_config, perm_from_cycles, plane_node_config
from oracles import collinear_by_minors, exhaustive_config_isomorphic, \
    searched_duad_syntheme_system


# -- abstract configurations ---------------------------------------------------

def test_reye_config_type_and_model():
    r = cf.reye_config()
    assert r.type_signature == ((12, 4), (16, 3))
    # the line through the center and two opposite vertices is a block
    diag = frozenset({(1, 0, 0, 0), (1, 1, 1, 1), (1, -1, -1, -1)})
    assert diag in set(r.blocks)


def rank_collinear(p, q, r):
    """The oracle: rank <= 2 of the 3x4 coordinate matrix over Q."""
    return matrix_rank([[Fraction(v) for v in row]
                        for row in (p, q, r)]) <= 2


def collinear(p, q, r):
    """on_line with the minors of p and q, as reye_config calls it."""
    return on_line(tuple(p[i] * q[j] - p[j] * q[i] for i, j in PLUCKER_INDEX),
                   r)


small = st.integers(-3, 3)
point4 = st.tuples(small, small, small, small)


@settings(max_examples=300, deadline=None)
@given(point4, point4, point4)
def test_collinear_agrees_with_rank(p, q, r):
    assert collinear(p, q, r) == rank_collinear(p, q, r)


@settings(max_examples=100, deadline=None)
@given(point4, point4, small, small)
def test_collinear_on_combinations(p, q, alpha, beta):
    r = tuple(alpha * x + beta * y for x, y in zip(p, q))
    assert rank_collinear(p, q, r)
    assert collinear(p, q, r)


def test_collinear_agrees_with_rank_on_reye_points():
    points = [pt for b in cf.reye_config().blocks for pt in b]
    for p, q, r in combinations(sorted(set(points)), 3):
        assert collinear(p, q, r) == rank_collinear(p, q, r)


def test_collinear_agrees_with_minor_oracle():
    """The integer minors against the Bareiss determinants they replaced:
    all 220 triples of the cube-model points, then seeded random triples
    with repeated, proportional and combined points among them."""
    points = sorted({pt for b in cf.reye_config().blocks for pt in b})
    triples = list(combinations(points, 3))
    assert len(triples) == 220
    rng = random.Random(11)

    def rand_point():
        return tuple(rng.randint(-4, 4) for _ in range(4))

    for _ in range(400):
        p, q = rand_point(), rand_point()
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        triples += [(p, q, rand_point()), (p, p, q), (p, q, q),
                    (p, q, tuple(a * x for x in p)),
                    (p, q, tuple(a * x + b * y for x, y in zip(p, q)))]
    seen = set()
    for p, q, r in triples:
        got = collinear(p, q, r)
        assert got == collinear_by_minors(p, q, r), (p, q, r)
        seen.add(got)
    assert seen == {True, False}


def test_desmic_incidence_is_reye():
    d = cf.desmic_surface_config(DESMIC_SINGULAR_12, desmic_lines_16())
    assert d.type_signature == ((12, 4), (16, 3))
    iso = cf.config_isomorphic(d, cf.reye_config())
    assert iso is not None
    pmap, bmap = iso
    assert cf._check_witness(d, cf.reye_config(), pmap, bmap)


def test_kummer_28_incidence_is_reye():
    """(12_4, 16_3) read off the 28-curve Kummer system: the twelve
    disjoint curves as points, the sixteen exceptional curves as blocks,
    incident when the curves meet."""
    cs = la.kummer_char0_system()
    pts = [c for c in cs.ids if not c.startswith("T")]
    blocks = [c for c in cs.ids if c.startswith("T")]
    assert len(pts) == 12 and len(blocks) == 16
    inc = {(p, b) for p in pts for b in blocks if cs.pair(p, b) == 1}
    k = cf.AbstractConfig(pts, blocks, inc, name="kummer-28")
    assert k.type_signature == ((12, 4), (16, 3))
    assert cf.config_isomorphic(k, cf.reye_config()) is not None


def test_isomorphism_type_mismatch_raises():
    with pytest.raises(ValueError):
        cf.config_isomorphic(cf.reye_config(), cf.pg24())


def switched_reye():
    """Reye with one incidence swapped between two disjoint blocks: the
    degrees survive but the structure is no longer a Reye configuration."""
    r = cf.reye_config()
    blocks = [set(r._points_of[b]) for b in r.blocks]
    a, b = None, None
    for i, j in combinations(range(len(blocks)), 2):
        if not blocks[i] & blocks[j]:
            a, b = i, j
            break
    pa = sorted(blocks[a])[0]
    pb = sorted(blocks[b])[0]
    blocks[a].remove(pa)
    blocks[a].add(pb)
    blocks[b].remove(pb)
    blocks[b].add(pa)
    return cf.AbstractConfig.from_blocks(r.points,
                                         [frozenset(s) for s in blocks])


def test_switched_bipartite_graph_is_not_reye():
    r, other = cf.reye_config(), switched_reye()
    assert other.type_signature == r.type_signature
    assert cf.config_isomorphic(other, r) is None


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False))
def test_isomorphism_invariant_under_relabeling(rnd):
    r = cf.reye_config()
    shuffled = list(r.points)
    rnd.shuffle(shuffled)
    perm = dict(zip(r.points, shuffled))
    blocks = [frozenset(perm[p] for p in r._points_of[b]) for b in r.blocks]
    other = cf.AbstractConfig.from_blocks(shuffled, blocks)
    iso = cf.config_isomorphic(other, r)
    assert iso is not None
    # and the relation is symmetric
    assert cf.config_isomorphic(r, other) is not None


# -- coset and determinant configurations --------------------------------------

def test_coset_config_type_and_printed_quadruple():
    c = coset_config()
    assert c.type_signature == ((24, 3), (18, 4))
    quad = frozenset(perm_from_cycles(t)
                     for t in ["(143)", "(132)", "(1432)", "(13)"])
    assert quad in set(c.blocks)
    assert quad in c.blocks_of(perm_from_cycles("(143)"))


def test_coset_config_matches_plane_incidence_on_first_family():
    c = coset_config()
    p = plane_node_config(1)
    assert p.type_signature == ((24, 3), (18, 4))
    assert cf.config_isomorphic(c, p) is not None


DETERMINANT_CELL_LABELS = ((1, 14, 12, 7),
                           (15, 2, 5, 10),
                           (9, 8, 3, 16),
                           (6, 11, 13, 4))


def determinant_config():
    """(24_4, 16_6): the 24 monomials of a 4x4 determinant against the 16
    matrix cells, with the cells carrying the printed labels 1..16."""
    cells = [DETERMINANT_CELL_LABELS[r][c]
             for r in range(4) for c in range(4)]
    monomials = list(permutations(range(4)))
    inc = {(tau, DETERMINANT_CELL_LABELS[r][tau[r]])
           for tau in monomials for r in range(4)}
    cfg = cf.AbstractConfig(monomials, cells, inc, name="determinant")
    assert cfg.type_signature == ((24, 4), (16, 6))
    return cfg


def test_determinant_config_counts():
    d = determinant_config()
    assert d.type_signature == ((24, 4), (16, 6))
    for tau in d.points:
        assert len(d.blocks_of(tau)) == 4
    for cell in d.blocks:
        assert len(d._points_of[cell]) == 6


def test_determinant_config_matches_plane_incidence_on_second_family():
    d = determinant_config()
    p = plane_node_config(2)
    assert p.type_signature == ((24, 4), (16, 6))
    assert cf.config_isomorphic(d, p) is not None


def relabeled_reye(seed):
    """Reye with its points and blocks renamed and listed in a seeded random
    order."""
    r = cf.reye_config()
    rnd = random.Random(seed)
    names = list(range(len(r.points)))
    rnd.shuffle(names)
    rename = dict(zip(r.points, names))
    blocks = [frozenset(rename[p] for p in r._points_of[b]) for b in r.blocks]
    rnd.shuffle(blocks)
    return cf.AbstractConfig.from_blocks(sorted(names), blocks)


def repeated_block_config():
    return cf.AbstractConfig([1, 2], ["a", "b"], {(1, "a"), (2, "a"),
                                                  (1, "b"), (2, "b")})


ISOMORPHISM_CASES = {
    **{"reye-relabeled-%d" % seed: (lambda seed=seed: relabeled_reye(seed),
                                    cf.reye_config)
       for seed in range(4)},
    "reye-switched": (switched_reye, cf.reye_config),
    "desmic-12": (lambda: cf.desmic_surface_config(DESMIC_SINGULAR_12,
                                                   desmic_lines_16()),
                  cf.reye_config),
    "desmic-28": (lambda: cf.extract_desmic_28(cf.fibration_tables())[1],
                  cf.reye_config),
    "coset": (coset_config, lambda: plane_node_config(1)),
    "determinant": (determinant_config, lambda: plane_node_config(2)),
    # two blocks on the same two points
    "repeated-block": (repeated_block_config, repeated_block_config),
}


@pytest.mark.parametrize("case", sorted(ISOMORPHISM_CASES))
def test_isomorphism_search_agrees_with_exhaustive_oracle(case):
    """The search that maps blocks as it goes against the exhaustive one
    that derives the block map of each complete point map: the same
    verdict, both ways round, and every witness an isomorphism."""
    a, b = (make() for make in ISOMORPHISM_CASES[case])
    for x, y in ((a, b), (b, a)):
        got = cf.config_isomorphic(x, y)
        want = exhaustive_config_isomorphic(x, y)
        assert (got is None) == (want is None)
        for iso in (got, want):
            assert iso is None or cf._check_witness(x, y, *iso)
    assert (want is None) == (case == "reye-switched")


# -- the plane over the four-element field -------------------------------------

def test_pg24_counts():
    pg = cf.pg24()
    assert len(pg.points) == 21 and len(pg.blocks) == 21
    assert pg.type_signature == ((21, 5), (21, 5))


def test_pg24_projective_axioms():
    pg = cf.pg24()
    for p, q in combinations(pg.points, 2):
        assert len(pg.blocks_of(p) & pg.blocks_of(q)) == 1
    for l, m in combinations(pg.blocks, 2):
        assert len(pg._points_of[l] & pg._points_of[m]) == 1


# -- duads, synthemes, totals ---------------------------------------------------

EXPECTED_TABLE = (
    ("", "14.25.36", "16.24.35", "13.26.45", "12.34.56", "15.23.46"),
    ("14.25.36", "", "15.26.34", "12.35.46", "16.23.45", "13.24.56"),
    ("16.24.35", "15.26.34", "", "14.23.56", "13.25.46", "12.36.45"),
    ("13.26.45", "12.35.46", "14.23.56", "", "15.24.36", "16.25.34"),
    ("12.34.56", "16.23.45", "13.25.46", "15.24.36", "", "14.26.35"),
    ("15.23.46", "13.24.56", "12.36.45", "16.25.34", "14.26.35", ""),
)


def test_duad_syntheme_table_is_byte_identical():
    sysd = cf.duad_syntheme_system()
    assert sysd["table"] == EXPECTED_TABLE
    # symmetric, as printed
    for i in range(6):
        for j in range(6):
            assert sysd["table"][i][j] == sysd["table"][j][i]
    assert sysd["table"][0][1] == "14.25.36"


def test_totals_cover_and_intersect_once():
    sysd = cf.duad_syntheme_system()
    assert len(sysd["duads"]) == 15 and len(sysd["synthemes"]) == 15
    assert len(sysd["totals"]) == 6
    for label, synths in sysd["totals"].items():
        assert len(synths) == 5
        covered = {d for s in synths for d in s.split(".")}
        assert covered == set(sysd["duads"])
    for a, b in combinations(sorted(sysd["totals"]), 2):
        assert len(set(sysd["totals"][a]) & set(sysd["totals"][b])) == 1


def test_duad_syntheme_incidence_is_15_3():
    sysd = cf.duad_syntheme_system()
    inc = {(d, s) for d in sysd["duads"] for s in sysd["synthemes"]
           if d in s.split(".")}
    ds = cf.AbstractConfig(sysd["duads"], sysd["synthemes"], inc,
                           name="duad-syntheme")
    assert ds.type_signature == ((15, 3), (15, 3))



def test_solved_totals_agree_with_the_labeling_search():
    assert cf.duad_syntheme_system() == searched_duad_syntheme_system()


def test_printed_row_that_is_not_a_total_is_named(monkeypatch):
    # entry (1, 2) becomes 12.35.46, which shares the duad 12 with the
    # entry (1, 5), 12.34.56, so row 1 is five synthemes but no total
    table = [list(row) for row in cf.DUAD_TABLE]
    table[0][1] = table[1][0] = "12.35.46"
    monkeypatch.setattr(cf, "DUAD_TABLE", table)
    with pytest.raises(ValueError, match=re.escape(
            "row T1 of the printed table, 12.34.56, 12.35.46, 13.26.45, "
            "15.23.46, 16.24.35, is not a total")):
        cf.duad_syntheme_system()


def test_two_printed_rows_naming_one_total_are_named(monkeypatch):
    # row 2 is given the five entries of row 1
    table = [list(row) for row in cf.DUAD_TABLE]
    for j in range(2, 6):
        table[1][j] = table[0][j]
    monkeypatch.setattr(cf, "DUAD_TABLE", table)
    with pytest.raises(ValueError, match="rows T1 and T2 of the printed "
                       "table name the same total"):
        cf.duad_syntheme_system()

# -- the 42-curve system --------------------------------------------------------

def test_six_arc_general_position():
    from desmic_kit.matrices import matrix_rank
    for trip in combinations(cf.SIX_ARC, 3):
        assert matrix_rank([list(r) for r in trip]) == 3


def test_42_curve_labels_and_matrix():
    cs, labels = cf.label_42_curves()
    assert len(cs.ids) == 42 and len(set(cs.ids)) == 42
    assert set(labels["points"]) & set(labels["lines"]) == set()
    # line "12" meets points 1, 2 and the three synthemes containing 12
    mates = [c for c in labels["points"] if cs.pair("12", c) == 1]
    assert sorted(mates) == ["1", "12.34.56", "12.35.46", "12.36.45", "2"]
    # the remaining six lines carry total labels
    totals = [l for l in labels["lines"] if l.startswith("T")]
    assert sorted(totals) == ["T1", "T2", "T3", "T4", "T5", "T6"]
    # matrix invariants
    n = 42
    for a in range(n):
        assert cs.gram[a][a] == -2
        row = [cs.gram[a][b] for b in range(n) if b != a]
        assert set(row) <= {0, 1}
        assert sum(row) == 5
    pts, lns = set(labels["points"]), set(labels["lines"])
    for a, b in combinations(cs.ids, 2):
        if (a in pts) == (b in pts):
            assert cs.pair(a, b) == 0


def test_fibration_tables_validate():
    cs, commons = cf.fibration_tables()
    assert len(commons) == 16
    assert len(cs.fibrations) == 3
    for fib in cs.fibrations:
        assert len(fib["fibers"]) == 5
        for fiber in fib["fibers"]:
            assert fiber["type"] == "D~4"
    # fiber "12": central 12 meets its four printed leaves
    central, leaves = cf.FIBRATION_TABLE_1[0]
    assert central == "12"
    for leaf in leaves:
        assert cs.pair("12", leaf) == 1
    for u, v in combinations(leaves, 2):
        assert cs.pair(u, v) == 0


def fiber_vector(cs, fiber):
    """The class of a fiber record as a vector over the curves of cs."""
    return cs._as_vector((c["id"], c["mult"]) for c in fiber["components"])


def test_fiber_classes_square_to_zero():
    cs, _ = cf.fibration_tables()
    for fib in cs.fibrations:
        for k in range(len(fib["fibers"])):
            fv = fiber_vector(cs, fib["fibers"][k])
            assert cs.vector_pairing(fv, fv) == 0


def test_extract_desmic_28():
    cs28, cfg, iso = cf.extract_desmic_28(cf.fibration_tables())
    assert len(cs28.ids) == 28
    assert cfg.type_signature == ((12, 4), (16, 3))
    assert iso is not None
    assert cfg.points == ["12", "13", "14", "15", "26", "36", "46", "56",
                          "23", "45", "T2", "T5"]


# -- the sparse pairing against the dense double sum ----------------------------

def dense_pairing(cs, u, v):
    """The oracle: u . v as the full double sum over the Gram matrix."""
    n = len(cs.ids)
    return sum(u[a] * cs.gram[a][b] * v[b]
               for a in range(n) for b in range(n))


@lru_cache(maxsize=None)
def curve_system(name):
    if name == "42-curve":
        return cf.fibration_tables()[0]
    if name == "kummer-char0":
        return la.kummer_char0_system()
    return la.ingest_curve_system(la.data_path("kummer-char2-ordinary.json"))


SYSTEMS = ("42-curve", "kummer-char0", "kummer-char2")


def unit(n, k):
    v = [Fraction(0)] * n
    v[k] = Fraction(1)
    return v


@pytest.mark.parametrize("name", SYSTEMS)
def test_pairing_of_unit_zero_and_dense_vectors(name):
    cs = curve_system(name)
    n = len(cs.ids)
    units = [unit(n, k) for k in range(n)]
    for a in range(n):
        for b in range(n):
            assert cs.vector_pairing(units[a], units[b]) == cs.gram[a][b]
    zero = [Fraction(0)] * n
    dense = [Fraction(k + 1, k % 5 + 2) * (-1) ** k for k in range(n)]
    for u, v in ((zero, zero), (zero, dense), (dense, zero),
                 (dense, dense), (units[0], dense), (dense, units[-1])):
        assert cs.vector_pairing(u, v) == dense_pairing(cs, u, v)


def rational_vectors(n):
    """Vectors that mix int and Fraction entries, with denominators 1 to 6
    and either sign."""
    fractions = st.fractions(-5, 5, max_denominator=6).filter(bool)
    nonzero = st.one_of(fractions, st.integers(-5, 5).filter(bool))
    entry = st.one_of(st.just(0), st.just(Fraction(0)), nonzero)
    return st.one_of(
        st.just([Fraction(0)] * n),
        st.just([0] * n),
        st.integers(0, n - 1).map(lambda k: unit(n, k)),
        st.lists(nonzero, min_size=n, max_size=n),
        st.lists(entry, min_size=n, max_size=n))


def assert_exact(val, want):
    """val equals want, and is an int exactly when want is integral."""
    assert val == want
    assert isinstance(val, int) == (Fraction(want).denominator == 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_pairing_agrees_with_dense_sum(data):
    cs = curve_system(data.draw(st.sampled_from(SYSTEMS)))
    u = data.draw(rational_vectors(len(cs.ids)))
    v = data.draw(rational_vectors(len(cs.ids)))
    assert_exact(cs.vector_pairing(u, v), dense_pairing(cs, u, v))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gram_times_agrees_with_dense_sums(data):
    cs = curve_system(data.draw(st.sampled_from(SYSTEMS)))
    n = len(cs.ids)
    v = data.draw(rational_vectors(n))
    got = gram_times(cs.gram, v)
    assert len(got) == n
    for val, row in zip(got, cs.gram):
        assert_exact(val, sum(Fraction(g) * x for g, x in zip(row, v)))


def per_curve_divisor_pairings(cs, name):
    """The oracle: the divisor expanded from its record in Fractions, then
    one dense pairing per curve against a unit Fraction vector."""
    n = len(cs.ids)
    div = next(d for d in cs.divisors if d["name"] == name)
    h = [Fraction(0)] * n
    for term in div["terms"]:
        coeff = Fraction(term["coeff"])
        if "class" in term:
            fib = next(f for f in cs.fibrations if f["name"] == term["class"])
            for comp in fib["fibers"][0]["components"]:
                h[cs.index[comp["id"]]] += coeff * comp["mult"]
        else:
            h[cs.index[term["id"]]] += coeff
    return {"self": dense_pairing(cs, h, h),
            "pairings": {cid: dense_pairing(cs, h, unit(n, k))
                         for k, cid in enumerate(cs.ids)}}


@pytest.mark.parametrize("name", SYSTEMS)
def test_divisor_pairings_agree_with_per_curve_oracle(name):
    cs = curve_system(name)
    got = cf.divisor_pairings(cs, "H")
    assert got == per_curve_divisor_pairings(cs, "H")
    assert all(type(v) is int for v in got["pairings"].values())
    assert_exact(got["self"], 4)


@pytest.mark.parametrize("name", SYSTEMS)
def test_curve_vectors_hold_ints_for_integral_entries(name):
    cs = curve_system(name)
    vectors = [cs.divisor_vector("H")]
    vectors += [fiber_vector(cs, fib["fibers"][k]) for fib in cs.fibrations
                for k in range(len(fib["fibers"]))]
    for v in vectors:
        assert all(type(x) is int or x.denominator > 1 for x in v)


# -- curve-system ingestion ------------------------------------------------------

def test_checked_in_data_files_validate():
    cs0 = la.kummer_char0_system()
    assert len(cs0.ids) == 28
    cs2 = curve_system("kummer-char2")
    assert len(cs2.ids) == 22
    # three fibrations with two nine-component fibers each
    pis = [f for f in cs2.fibrations if f["name"].startswith("pi")]
    assert len(pis) == 3
    for fib in pis:
        assert len(fib["fibers"]) == 2
        for fiber in fib["fibers"]:
            assert fiber["type"] == "D~8"
            assert len(fiber["components"]) == 9


def test_char0_divisor_h():
    cs = la.kummer_char0_system()
    h = cs.divisor_vector("H")
    assert cs.vector_pairing(h, h) == 4
    for cid in cs.ids:
        want = 1 if cid.startswith("T") else 0
        assert cs.vector_pairing(h, unit(len(cs.ids), cs.index[cid])) == want


def test_char2_divisor_h():
    cs = curve_system("kummer-char2")
    h = cs.divisor_vector("H")
    assert cs.vector_pairing(h, h) == 4
    for cid in cs.ids:
        want = 1 if cid.endswith(".0") else 0
        assert cs.vector_pairing(h, unit(len(cs.ids), cs.index[cid])) == want


def test_ingest_rejects_bad_fiber(tmp_path):
    with open(la.data_path("kummer-char0.json")) as fh:
        data = json.load(fh)
    # drop one leaf from the first fiber: its class no longer squares to 0
    data["fibrations"][0]["fibers"][0]["components"].pop()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="f1"):
        la.ingest_curve_system(str(bad))


def _put(value, *path):
    """An edit that puts value at data[path[0]][path[1]]..."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


@pytest.mark.parametrize("edit,match", [
    (lambda d: d["fibrations"][0]["fibers"][0]["components"][0].pop("id"),
     "fibration f1 component {'mult': 2} has no id"),
    (lambda d: d["fibrations"][1]["fibers"][2].pop("components"),
     "fibration f2 fiber 2 has no components: {'type': 'D~4'}"),
    (lambda d: d["divisors"][0].pop("name"),
     "divisor record {'terms': [{'class': 'f1', 'coeff': '1'}, "),
    (lambda d: d["divisors"][0].pop("terms"),
     "divisor record {'name': 'H'} needs a name and terms"),
    (_put(5, "curves", 0), "curves: record 5 is not an object"),
    (_put(7, "fibrations", 0), "fibrations: record 7 is not an object"),
    (_put(3, "fibrations", 0, "fibers", 0),
     "fibration f1 fibers: record 3 is not an object"),
    (_put(9, "fibrations", 0, "fibers", 0, "components", 0),
     "fibration f1 fiber 0 components: record 9 is not an object"),
    (_put(4, "divisors", 0), "divisors: record 4 is not an object"),
    (_put(6, "divisors", 0, "terms", 0),
     "divisor H terms: record 6 is not an object"),
    (_put(3, "fibrations", 1, "fibers"),
     "fibration f2 fibers: 3 is not a list"),
    (_put(9, "fibrations", 0, "fibers", 1, "components"),
     "fibration f1 fiber 1 components: 9 is not a list"),
    (_put(4, "divisors", 0, "terms"), "divisor H terms: 4 is not a list"),
    (_put(2, "intersections", 0), "bad intersection entry 2"),
    (5, "top level 5 is not an object"),
    (_put(["a"], "curves", 0, "id"),
     "curve record {'id': ['a'], 'self': -2}: id is not a string"),
    (_put(4, "fibrations", 0, "fibers", 0, "type"),
     "fibration f1 fiber 0: type 4 is not a string"),
    (_put("D~x", "fibrations", 0, "fibers", 0, "type"),
     "fiber 0 of f1: unknown fiber type 'D~x'"),
    (_put([], "fibrations", 1, "fibers", 2, "components"),
     "fibration f2 fiber 2 has no components: {'type': 'D~4', "
     "'components': []}"),
    (_put("f9", "divisors", 0, "terms", 0, "class"),
     "divisor H names unknown fibration 'f9'"),
    (lambda d: d["divisors"].append(
        {"name": "H", "terms": [{"id": "E0", "coeff": 1}]}),
     "divisor name 'H' is repeated"),
    (_put("f1", "fibrations", 2, "name"), "fibration name 'f1' is repeated"),
    (_put(1, "divisors", 0, "weight"),
     "divisors: key 'weight' is not one of ['name', 'terms'] in record "
     "{'name': 'H', "),
    (_put(1, "fibrations", 0, "fibers", 0, "weight"),
     "fibration f1 fibers: key 'weight' is not one of ['components', "
     "'type'] in record {'type': 'D~4', "),
    (_put(1, "fibrations", 0, "fibers", 0, "components", 0, "id2"),
     "fibration f1 fiber 0 components: key 'id2' is not one of ['id', "
     "'mult'] in record {'id': 'E0', 'mult': 2, 'id2': 1}"),
    (_put(["E0"], "intersections", 0, 0),
     "intersection names unknown curve: [['E0'], 'T00', 1]"),
    (_put(["E0"], "fibrations", 0, "fibers", 0, "components", 0, "id"),
     "fibration f1 names unknown curve ['E0']"),
    (_put(["T00"], "divisors", 0, "terms", 3, "id"),
     "divisor H names unknown curve ['T00']"),
    (_put(5, "intersections"), "intersections: 5 is not a list"),
    (_put({"a": 1}, "divisors", 0, "name"),
     "divisor name {'a': 1} is not a string"),
    (_put(["f1"], "fibrations", 0, "name"),
     "fibration name ['f1'] is not a string"),
    ('{"curves": [{"id": "a", "self": -2, "id": "b"}]}',
     "key 'id' is repeated in the record {'id': 'a', 'self': -2, "
     "'id': 'b'}"),
    ('{"curves": [{"id": "a", "self": -2}], "intersections": [], '
     '"curves": [{"id": "b", "self": -2}]}',
     "key 'curves' is repeated in the record {'curves': ..., "
     "'intersections': ..., 'curves': ...}"),
    (lambda d: d["curves"].append({"id": "T00", "self": -2}),
     "duplicate curve ids: T00"),
], ids=["component-id", "fiber-components", "divisor-name", "divisor-terms",
        "curve-record", "fibration-record", "fiber-record",
        "component-record", "divisor-record", "term-record", "fibers-list",
        "components-list", "terms-list", "intersection-entry", "top-level",
        "curve-id-type", "fiber-type-type", "fiber-type-number",
        "fiber-components-empty", "divisor-class", "divisor-name-twice",
        "fibration-name-twice", "divisor-key", "fiber-key",
        "component-key", "intersection-id-type", "component-id-type",
        "term-id-type", "intersections-list", "divisor-name-type",
        "fibration-name-type", "record-key-twice", "top-level-key-twice",
        "curve-id-twice"])
def test_ingest_rejects_records_missing_a_key(tmp_path, edit, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        _ingest_edited(tmp_path, edit)


def four_cycle(ftype):
    """Four -2-curves in a cycle, each of multiplicity 1, as one fiber of
    the given type: the fiber A~3."""
    ids = ["a", "b", "c", "d"]
    gram = [[-2 if i == j else int((i - j) % 2) for j in range(4)]
            for i in range(4)]
    fiber = {"type": ftype, "components": [{"id": c, "mult": 1} for c in ids]}
    return cf.CurveSystem(ids, gram, [{"name": "f", "fibers": [fiber]}])


def test_four_cycle_is_a_fiber_of_type_a3_only():
    four_cycle("A~3").validate()
    for ftype in ("D~0", "D~1", "D~2", "D~3", "D~", "B~3"):
        with pytest.raises(ValueError, match=re.escape(
                "fiber 0 of f: unknown fiber type %r" % ftype)):
            four_cycle(ftype).validate()
    # a type with another number of components fails on the count, before
    # any list of its n + 1 multiplicities is built
    for ftype in ("A~2", "A~4", "D~4", "A~99999999999", "D~99999999999"):
        with pytest.raises(ValueError, match=re.escape(
                "fiber 0 of f: multiplicities [1, 1, 1, 1] do not match "
                "type %s" % ftype)):
            four_cycle(ftype).validate()


def test_ingest_rejects_non_integral_divisor(tmp_path):
    with open(la.data_path("kummer-char0.json")) as fh:
        data = json.load(fh)
    data["divisors"].append(
        {"name": "bad", "terms": [{"id": "E0", "coeff": "1/2"}]})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="bad"):
        la.ingest_curve_system(str(bad))


def test_ingest_rejects_unknown_curve(tmp_path):
    with open(la.data_path("kummer-char0.json")) as fh:
        data = json.load(fh)
    data["intersections"].append(["E0", "nonsense", 1])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="nonsense"):
        la.ingest_curve_system(str(bad))


def _edit_intersections(data, case):
    """Apply one bad edit to a loaded kummer-char0.json record."""
    if case == "value-1.5":
        data["intersections"][0][2] = 1.5
    elif case == "value-true":
        data["intersections"][0][2] = True
    elif case == "zero-pair-twice":
        data["intersections"] += [["E0", "E1", 0], ["E0", "E1", 0]]
    elif case == "zero-then-one":
        data["intersections"] += [["E0", "E1", 0], ["E1", "E0", 1]]
    elif case == "self-1.5":
        data["curves"][0]["self"] = 1.5


@pytest.mark.parametrize("case,match", [
    ("value-1.5", r"\['E0', 'T00', 1.5\]: value is not an integer"),
    ("value-true", r"\['E0', 'T00', True\]: value is not an integer"),
    ("zero-pair-twice", "E0.E1 given twice"),
    ("zero-then-one", r"E1.E0 given twice: \['E1', 'E0', 1\]"),
    ("self-1.5", "'T00', 'self': 1.5}: self-intersection is not an integer"),
])
def test_ingest_rejects_bad_intersection_values(tmp_path, case, match):
    with open(la.data_path("kummer-char0.json")) as fh:
        data = json.load(fh)
    _edit_intersections(data, case)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=match):
        la.ingest_curve_system(str(bad))


def _ingest_edited(tmp_path, edit):
    """Ingest the char-0 curve file after edit(data); an edit that is not
    callable replaces the whole file, and a string is the file's text."""
    with open(la.data_path("kummer-char0.json")) as fh:
        data = json.load(fh)
    if callable(edit):
        edit(data)
    else:
        data = edit
    path = tmp_path / "edited.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return la.ingest_curve_system(str(path))


@pytest.mark.parametrize("value", [True, 1.5, "x"])
def test_ingest_rejects_bad_divisor_coefficients(tmp_path, value):
    def edit(data):
        data["divisors"][0]["terms"][0]["coeff"] = value
    term = {"class": "f1", "coeff": value}
    with pytest.raises(ValueError, match=re.escape(
            "divisor H term %r: coefficient is not an integer" % (term,))):
        _ingest_edited(tmp_path, edit)


@pytest.mark.parametrize("value", [True, 1.5, 0])
def test_ingest_rejects_bad_fiber_multiplicities(tmp_path, value):
    def edit(data):
        data["fibrations"][0]["fibers"][0]["components"][0]["mult"] = value
    comp = {"id": "E0", "mult": value}
    with pytest.raises(ValueError, match=re.escape(
            "fibration f1 component %r: multiplicity is not a positive "
            "integer" % (comp,))):
        _ingest_edited(tmp_path, edit)


def test_ingest_accepts_an_integer_divisor_coefficient(tmp_path):
    def edit(data):
        data["divisors"][0]["terms"][0]["coeff"] = 1
    cs = _ingest_edited(tmp_path, edit)
    want = la.kummer_char0_system().divisor_vector("H")
    assert cs.divisor_vector("H") == want


def test_divisor_halves_are_fractions():
    cs = la.kummer_char0_system()
    coeffs = {Fraction(t["coeff"]) for t in cs.divisors[0]["terms"]
              if "id" in t}
    assert coeffs == {Fraction(-1, 2)}


def test_data_files_are_what_their_writer_renders():
    """src/desmic_kit/data holds exactly the files that
    tools/make_data_files.py renders, byte for byte."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "make_data_files", os.path.join(root, "tools", "make_data_files.py"))
    writer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(writer)
    rendered = dict(writer.data_files())
    assert sorted(os.listdir(la.DATA_DIR)) == sorted(rendered)
    for name, text in rendered.items():
        with open(la.data_path(name)) as fh:
            assert fh.read() == text
