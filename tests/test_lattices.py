"""Tests for even lattices, discriminant forms, curve-span lattices, the
overlattice chains and the embeddability verdicts.  The Dynkin
classification of curve subsets and the reported CM and transcendental
lattices are paper claims that only these tests check, so their code is
here."""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import desmic_kit.configs as cf
import desmic_kit.lattices as la
from desmic_kit.lattices import (inertia_signature, row_basis,
                                 smith_invariants, smith_normal_form)
from desmic_kit.matrices import bilinear, matrix_rank

import oracles


# -- construction ---------------------------------------------------------------

def test_standard_lattices_invariants():
    table = {
        "U": (2, -1, (1, 1), []),
        "A3": (3, -4, (0, 3), [4]),
        "D4": (4, 4, (0, 4), [2, 2]),
        "D5": (5, -4, (0, 5), [4]),
        "D8": (8, 4, (0, 8), [2, 2]),
        "D9": (9, -4, (0, 9), [4]),
        "D12": (12, 4, (0, 12), [2, 2]),
        "E8": (8, 1, (0, 8), []),
        "<-4>": (1, -4, (0, 1), [4]),
    }
    for name, (rank, det, sig, disc) in table.items():
        l = la.standard_lattice(name)
        assert l.rank == rank
        assert l.det() == det
        assert l.signature() == sig
        assert l.disc_group() == disc


def test_unknown_lattice_name():
    with pytest.raises(ValueError):
        la.standard_lattice("Z5")


@pytest.mark.parametrize("name,match", [
    ("A0", "A_0: A_n needs n >= 1"),
    ("A-1", "A_-1: A_n needs n >= 1"),
    ("D2", "D_2: D_n needs n >= 3"),
    ("E5", r"E_5: E_n needs n in \(6, 7, 8\)"),
    ("E9", r"E_9: E_n needs n in \(6, 7, 8\)"),
])
def test_dynkin_rank_out_of_range(name, match):
    with pytest.raises(ValueError, match=match):
        la.standard_lattice(name)
    # the smallest lattice of each kind is still built
    smallest = {"A": "A1", "D": "D3", "E": "E6"}[name[0]]
    assert la.standard_lattice(smallest).rank == int(smallest[1:])


def test_odd_diagonal_rejected():
    with pytest.raises(ValueError, match="diagonal entry -1 is odd"):
        la.Lattice([[-1]])


def rescale(name, m):
    """The standard lattice `name` with its form multiplied by m."""
    l = la.standard_lattice(name)
    return la.Lattice([[m * x for x in r] for r in l.gram],
                      name="%s(%d)" % (l.name, m))


def test_direct_sum_and_rescale():
    l = la.direct_sum("U", "D8", "D9")
    assert l.rank == 19
    assert l.signature() == (1, 18)
    assert l.det() == 16
    a22 = rescale("A2", 2)
    assert a22.det() == 12
    assert a22.gram == [[-4, 2], [2, -4]]


def test_det_matches_disc_group_order():
    for name in ("U", "A3", "D4", "D8", "E8", "<-4>"):
        l = la.standard_lattice(name)
        order = 1
        for d in l.disc_group():
            order *= d
        assert abs(l.det()) == order


# -- discriminant forms ----------------------------------------------------------

def test_disc_form_d4_is_v():
    fq, _ = la.disc_form(la.standard_lattice("D4"))
    assert la.fq_isometric(fq, la.fq_v2())


def test_disc_form_d8_is_u():
    fq, _ = la.disc_form(la.standard_lattice("D8"))
    assert la.fq_isometric(fq, la.fq_u2())


def test_disc_form_minus4_is_cyclic():
    fq, _ = la.disc_form(la.standard_lattice("<-4>"))
    assert la.fq_isometric(fq, la.fq_cyclic(-1, 4))
    assert not la.fq_isometric(fq, la.fq_cyclic(1, 4))


def test_u_and_v_relations():
    u, v = la.fq_u2(), la.fq_v2()
    assert not la.fq_isometric(u, v)
    assert la.fq_isometric(u.direct_sum(u), v.direct_sum(v))
    q1, q5 = la.fq_cyclic(1, 4), la.fq_cyclic(5, 4)
    assert la.fq_isometric(q1.direct_sum(v), q5.direct_sum(u))
    assert not la.fq_isometric(q1.direct_sum(u), q5.direct_sum(u))


def test_fq_diagonal_consistency_enforced():
    # b(x, x) must equal q(x) mod 1
    with pytest.raises(ValueError, match=r"generator 0: b\(g, g\) = 1/2 "
                       r"is not q\(g\) = 1 modulo 1"):
        la.FiniteQuadForm((2,), (1,), [[Fraction(1, 2)]])


def test_fq_isometric_bound():
    big = la.FiniteQuadForm((2,) * 11, (0,) * 11,
                            [[0] * 11 for _ in range(11)])
    with pytest.raises(ValueError):
        la.fq_isometric(big, big)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from(["A1", "A2", "A3", "D4", "D5", "<-4>",
                                 "<-2>", "U"]),
                min_size=2, max_size=2))
def test_disc_form_respects_direct_sums(names):
    l1 = la.standard_lattice(names[0])
    l2 = la.standard_lattice(names[1])
    whole, _ = la.disc_form(la.direct_sum(l1, l2))
    f1, _ = la.disc_form(l1)
    f2, _ = la.disc_form(l2)
    assert la.fq_isometric(whole, f1.direct_sum(f2))


# -- integer tables against the Fraction oracle -------------------------------------

def oracle_disc_form(l):
    """disc_form(l) with the Fraction oracle of the same form, paired from
    the generator vectors that disc_form returns."""
    fq, gens = la.disc_form(l)
    qvals = [bilinear(l.gram, x, x) for x in gens]
    bmat = [[bilinear(l.gram, x, y) for y in gens] for x in gens]
    return fq, oracles.FiniteQuadForm(fq.orders, qvals, bmat)


def seeded_ade_sums(count=14, seed=0):
    """Direct sums of one to three root lattices and <-2k>, with
    discriminant order at most 64."""
    rng = random.Random(seed)
    names = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "D7", "E6",
             "E7", "E8", "<-2>", "<-4>", "<-6>", "U"]
    sums = []
    while len(sums) < count:
        l = la.direct_sum(*rng.choices(names, k=rng.randint(1, 3)))
        if abs(l.det()) <= 64:
            sums.append(l)
    return sums


HALF = Fraction(1, 2)
FACTORS = {"u": ((2, 2), (0, 0), [[0, HALF], [HALF, 0]]),
           "v": ((2, 2), (1, 1), [[0, HALF], [HALF, 0]]),
           "q1(4)": ((4,), (Fraction(1, 4),), [[Fraction(1, 4)]]),
           "q5(4)": ((4,), (Fraction(5, 4),), [[Fraction(1, 4)]]),
           "q2(3)": ((3,), (Fraction(2, 3),), [[Fraction(2, 3)]]),
           "q1(8)": ((8,), (Fraction(1, 8),), [[Fraction(1, 8)]])}
SUMS = [("q1(4)", "v"), ("q5(4)", "u"), ("q1(4)", "u"), ("q5(4)", "v"),
        ("u", "u"), ("v", "v"), ("q2(3)", "u"), ("u", "q2(3)"),
        ("q1(8)", "v"), ("q1(4)", "q2(3)"), ("q5(4)", "q2(3)")]


def summed_forms(names):
    """The direct sum of the named factors, built by lattices and by the
    oracle."""
    forms = [(la.FiniteQuadForm(*FACTORS[name]),
              oracles.FiniteQuadForm(*FACTORS[name])) for name in names]
    fq, want = forms[0]
    for f, o in forms[1:]:
        fq, want = fq.direct_sum(f), want.direct_sum(o)
    return fq, want


def assert_agrees_with_oracle(pairs):
    """Every element's e*q, every b entry and the isometry verdict on
    every ordered pair agree with the Fraction oracle; both verdicts
    occur."""
    verdicts = set()
    for fq, want in pairs:
        assert fq.e == lcm(*fq.orders) and fq.orders == want.orders
        assert [[fq.e * x for x in r] for r in want.b] == \
            [list(r) for r in fq.b]
        for el in fq.elements():
            assert fq.q_of(el) == fq.e * want.q_of(el)
    for (f1, o1), (f2, o2) in product(pairs, repeat=2):
        got = la.fq_isometric(f1, f2)
        assert got == oracles.fq_isometric(o1, o2), (f1, f2)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_disc_forms_of_ade_sums_agree_with_fraction_oracle():
    assert_agrees_with_oracle([oracle_disc_form(l)
                               for l in seeded_ade_sums()])


def test_ternary_candidate_forms_agree_with_fraction_oracle():
    candidates = la.ternary_enumeration(16)
    assert len(candidates) == 13
    target = summed_forms(("q1(4)", "v"))
    assert_agrees_with_oracle([oracle_disc_form(l) for l in candidates]
                              + [target, oracle_disc_form(
                                  la.standard_lattice("A3"))])


def test_sums_of_unequal_exponents_agree_with_fraction_oracle():
    pairs = [summed_forms(names) for names in SUMS]
    assert [f.e for f, _ in pairs] == [4, 4, 4, 4, 2, 2, 6, 6, 8, 12, 12]
    assert la.fq_isometric(pairs[0][0], pairs[1][0])
    assert not la.fq_isometric(pairs[2][0], pairs[1][0])
    assert_agrees_with_oracle(pairs)


def test_flipping_one_generator_q_changes_the_verdict():
    fq, want = summed_forms(SUMS[0])
    target, oracle_target = summed_forms(SUMS[1])
    assert la.fq_isometric(fq, target) and \
        oracles.fq_isometric(want, oracle_target)
    qvals = [Fraction(x, fq.e) for x in fq.q]
    qvals[0] += 1
    bmat = [[Fraction(x, fq.e) for x in r] for r in fq.b]
    assert not la.fq_isometric(la.FiniteQuadForm(fq.orders, qvals, bmat),
                               target)
    assert not oracles.fq_isometric(
        oracles.FiniteQuadForm(fq.orders, qvals, bmat), oracle_target)


def test_forms_hold_ints_and_search_makes_no_fraction(monkeypatch):
    q1v = la.fq_cyclic(1, 4).direct_sum(la.fq_v2())
    q5u = la.fq_cyclic(5, 4).direct_sum(la.fq_u2())
    q1u = la.fq_cyclic(1, 4).direct_sum(la.fq_u2())
    d4, _ = la.disc_form(la.standard_lattice("D4"))
    v2 = la.fq_v2()
    for f in (q1v, q5u, q1u, d4):
        fields = (f.e,) + f.orders + f.q + sum(f.b, ())
        assert all(type(x) is int for x in fields)
        assert type(f.q_of((1,) * len(f.orders))) is int
        assert not hasattr(f, "b_of")
    values = q1v.value_multiset()

    def no_fraction(*args):
        raise AssertionError("Fraction%r made" % (args,))

    monkeypatch.setattr(la, "Fraction", no_fraction)
    assert la.fq_isometric(q1v, q5u)
    assert not la.fq_isometric(q1u, q5u)
    assert la.fq_isometric(d4, v2)
    assert q1v.value_multiset() == values and sum(values.values()) == 16


def test_unimodular_disc_form_is_trivial():
    fq, gens = la.disc_form(la.standard_lattice("E8"))
    assert (fq.e, fq.orders, fq.q, fq.b, gens) == (1, (), (), (), [])
    assert fq.order == 1 and fq.value_multiset() == Counter({0: 1})
    assert la.fq_isometric(fq, fq)


# -- genus matching ---------------------------------------------------------------

def test_genus_match_main_example():
    l1, l2 = la.curve_span_lattice_names()
    out = la.genus_match_indefinite(l1, l2)
    assert out["match"]
    assert out["signatures"] == ((1, 18), (1, 18))
    assert out["disc_orders"] == (16, 16)
    assert "uniqueness of indefinite" in out["level"]


def test_genus_match_negative_example():
    out = la.genus_match_indefinite(la.direct_sum("U", "D8", "D12"),
                                    la.direct_sum("U", "E8", "D12"))
    assert not out["match"]


def test_genus_match_d5_d12_presentation():
    out = la.genus_match_indefinite(la.direct_sum("U", "D8", "D9"),
                                    la.direct_sum("U", "D5", "D12"))
    assert out["match"]


def test_genus_match_definite_is_genus_level():
    d4 = la.standard_lattice("D4")
    out = la.genus_match_indefinite(d4, d4)
    assert out["match"] and out["level"] == "genus-level"


def test_genus_match_needs_rank_at_least_l_plus_2():
    """Cor. 1.13.3 of Nikulin needs rk L >= l(A_L) + 2: U(2) has rank 2
    and l = 2, U + U(2) sits on the bound, the rank-19 pair has l = 3."""
    u2 = la.Lattice([[0, 2], [2, 0]], name="U(2)")
    out = la.genus_match_indefinite(u2, u2)
    assert out["match"] and out["level"] == "genus-level"
    on_bound = la.direct_sum("U", u2)
    assert on_bound.rank == len(on_bound.disc_group()) + 2
    l1, _ = la.curve_span_lattice_names()
    assert l1.disc_group() == [2, 2, 4]
    for l in (on_bound, l1):
        out = la.genus_match_indefinite(l, l)
        assert out["match"] and "uniqueness of indefinite" in out["level"]


def test_genus_match_self():
    l = la.direct_sum("U", "E8")
    assert la.genus_match_indefinite(l, l)["match"]


# -- curve-span lattices ----------------------------------------------------------

def test_28_curve_span():
    rep = la.lattice_from_curves(la.kummer_char0_system())
    assert rep["rank"] == 19
    assert rep["signature"] == (1, 18)
    assert rep["disc_order"] == 16


def test_single_curve_span():
    rep = la.lattice_from_curves(cf.CurveSystem(["C"], [[-2]]))
    assert rep["rank"] == 1
    assert rep["disc_group"] == [2]


def d8_subsystem_names():
    return ["T00", "T02", "T10", "T13", "E0", "T01", "Ep1", "T11", "E1",
            "Ep2",
            "T20", "E2", "T22", "T23",
            "D3", "T30", "E3", "T32", "T33"]


def _subsystem(cs, names):
    idx = [cs.index[c] for c in names]
    gram = [[cs.gram[a][b] for b in idx] for a in idx]
    return cf.CurveSystem(names, gram)


def test_d8_fibration_subsystem_contains_u_d8_d5_d4():
    cs = la.kummer_char0_system()
    rep = la.lattice_from_curves(_subsystem(cs, d8_subsystem_names()))
    target = la.direct_sum("U", "D8", "D5", "D4")
    assert rep["rank"] == target.rank == 19
    assert rep["disc_order"] == abs(target.det()) == 64
    assert la.genus_match_indefinite(rep["lattice"], target)["match"]
    # adding the second section halves the discriminant twice
    rep2 = la.lattice_from_curves(
        _subsystem(cs, d8_subsystem_names() + ["Ep3"]))
    assert rep2["rank"] == 19 and rep2["disc_order"] == 16


def test_42_curve_span_is_the_sigma1_lattice():
    cs, _ = cf.fibration_tables()
    rep = la.lattice_from_curves(cs)
    assert rep["rank"] == 22
    assert rep["signature"] == (1, 21)
    assert rep["disc_group"] == [2, 2]
    s1 = la.supersingular_picard(1)
    assert la.genus_match_indefinite(rep["lattice"], s1)["match"]


# -- divisor pairings --------------------------------------------------------------

def test_char0_h_pairings():
    cs = la.kummer_char0_system()
    out = cf.divisor_pairings(cs, "H")
    assert out["self"] == 4
    for cid, val in out["pairings"].items():
        assert val == (1 if cid.startswith("T") else 0)


def test_two_node_line_system_squares_to_four():
    # 2(E1+E2) + F1+...+F6 + 2F0 for two nodes sharing exactly one line
    cs = la.kummer_char0_system()
    terms = [{"id": "E0", "coeff": "2"}, {"id": "Ep0", "coeff": "2"},
             {"id": "T00", "coeff": "2"}]
    terms += [{"id": t, "coeff": "1"}
              for t in ("T01", "T02", "T03", "T10", "T20", "T30")]
    sys2 = cf.CurveSystem(cs.ids, cs.gram, fibrations=cs.fibrations,
                          divisors=[{"name": "HL", "terms": terms}])
    assert cf.divisor_pairings(sys2, "HL")["self"] == 4


def test_supersingular_h_profile():
    cs, commons = cf.fibration_tables()
    out = cf.divisor_pairings(cs, "H")
    assert out["self"] == 4
    pair = out["pairings"]
    centrals = {c for t in cf.FIBRATION_TABLES for c, _ in t[:4]}
    contracted = {"16", "16.24.35", "16.25.34"}
    conics = {"1", "6", "16.23.45"}
    for c in centrals | contracted:
        assert pair[c] == 0
    for c in commons:
        assert pair[c] == 1
    for c in conics:
        assert pair[c] == 2
    # the remaining eight curves pair to 1 in this intersection matrix
    rest = set(cs.ids) - centrals - contracted - conics - set(commons)
    assert rest == {"24", "25", "34", "35", "T1", "T3", "T4", "T6"}
    for c in rest:
        assert pair[c] == 1


def test_divisor_pairings_invariant_under_relabeling():
    cs = la.kummer_char0_system()
    order = list(reversed(cs.ids))
    idx = [cs.index[c] for c in order]
    gram = [[cs.gram[a][b] for b in idx] for a in idx]
    flipped = cf.CurveSystem(order, gram, fibrations=cs.fibrations,
                             divisors=cs.divisors)
    a = cf.divisor_pairings(cs, "H")
    b = cf.divisor_pairings(flipped, "H")
    assert a["self"] == b["self"] and a["pairings"] == b["pairings"]


def test_divisor_pairings_invariant_under_radical_shift():
    # two fibers of one fibration differ by a radical vector
    cs = la.kummer_char0_system()
    extra = [{"id": "E0", "coeff": "2"}, {"id": "E1", "coeff": "-2"}]
    extra += [{"id": "T0%d" % j, "coeff": "1"} for j in range(4)]
    extra += [{"id": "T1%d" % j, "coeff": "-1"} for j in range(4)]
    shifted_terms = list(cs.divisors[0]["terms"]) + extra
    sys2 = cf.CurveSystem(cs.ids, cs.gram, fibrations=cs.fibrations,
                          divisors=[{"name": "H", "terms": shifted_terms}])
    assert cf.divisor_pairings(sys2, "H") == cf.divisor_pairings(cs, "H")


def test_divisor_pairings_unknown_name():
    cs = la.kummer_char0_system()
    with pytest.raises(KeyError):
        cf.divisor_pairings(cs, "nope")


# -- Dynkin classification ---------------------------------------------------------

def graph_isomorphic(edges1, edges2, n):
    """Whether two graphs on the vertices 0..n-1 are isomorphic, by
    backtracking over degree-preserving vertex maps.  Edges are distinct
    pairs of distinct vertices."""
    def adjacency(edges):
        adj = [set() for _ in range(n)]
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    adj1, adj2 = adjacency(edges1), adjacency(edges2)
    deg1, deg2 = [len(s) for s in adj1], [len(s) for s in adj2]
    if sorted(deg1) != sorted(deg2):
        return False
    assign = [None] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        for j in range(n):
            if used[j] or deg2[j] != deg1[i]:
                continue
            if any((i2 in adj1[i]) != (assign[i2] in adj2[j])
                   for i2 in range(i)):
                continue
            assign[i] = j
            used[j] = True
            if extend(i + 1):
                return True
            assign[i] = None
            used[j] = False
        return False

    return extend(0)


def affine_edges(kind, n):
    """Edges of the affine diagram with n+1 vertices."""
    if kind == "A":
        return [(i, (i + 1) % (n + 1)) for i in range(n + 1)]
    if kind == "D":
        # chain 0..n-2 with leaves n-1 (at vertex 1) and n (at vertex n-3)
        base = [(i, i + 1) for i in range(n - 2)]
        return base + [(1, n - 1)] + [(n - 3, n)]
    # the affine vertex n extends the short arm (E6), one long arm (E7), or
    # the long chain (E8)
    attach = {6: n - 1, 7: 0, 8: n - 2}[n]
    return la._dynkin_edges("E", n) + [(n, attach)]


def classify_dynkin(cs, subset):
    """ADE or affine type of a subset of (-2)-curves, by graph isomorphism
    against the standard templates.  Raises ValueError when the subgraph
    matches no template."""
    subset = list(subset)
    m = len(subset)
    for c in subset:
        if cs.pair(c, c) != -2:
            raise ValueError("curve %s is not a (-2)-curve" % c)
    edges = []
    for i, j in combinations(range(m), 2):
        val = cs.pair(subset[i], subset[j])
        if val not in (0, 1):
            raise ValueError("intersection %s.%s = %s outside {0,1}"
                             % (subset[i], subset[j], val))
        if val == 1:
            edges.append((i, j))
    candidates = [("A%d" % m, la._dynkin_edges("A", m))]
    if m >= 3:
        candidates.append(("D%d" % m, la._dynkin_edges("D", m)))
    if m in (6, 7, 8):
        candidates.append(("E%d" % m, la._dynkin_edges("E", m)))
    if m >= 3:
        candidates.append(("A~%d" % (m - 1), affine_edges("A", m - 1)))
    if m >= 5:
        candidates.append(("D~%d" % (m - 1), affine_edges("D", m - 1)))
    if m in (7, 8, 9):
        candidates.append(("E~%d" % (m - 1), affine_edges("E", m - 1)))
    for name, tmpl in candidates:
        if graph_isomorphic(edges, tmpl, m):
            return name
    raise ValueError("subset matches no ADE or affine template")


def test_classify_dynkin_char0_examples():
    cs = la.kummer_char0_system()
    assert classify_dynkin(cs, ["T20", "E2", "T22", "T23"]) == "D4"
    assert classify_dynkin(cs, ["D3", "T30", "E3", "T32", "T33"]) == "D5"


def test_classify_dynkin_affine_fiber():
    cs, _ = cf.fibration_tables()
    central, leaves = cf.FIBRATION_TABLE_1[0]
    assert classify_dynkin(cs, [central] + list(leaves)) == "D~4"


def test_classify_dynkin_paths_and_stars():
    path = cf.CurveSystem(["a", "b", "c"],
                          [[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    assert classify_dynkin(path, ["a", "b", "c"]) == "A3"
    cycle = cf.CurveSystem(["a", "b", "c"],
                           [[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
    assert classify_dynkin(cycle, ["a", "b", "c"]) == "A~2"


def test_classify_dynkin_rejects_junk():
    bad = cf.CurveSystem(["a", "b"], [[-2, 2], [2, -2]])
    with pytest.raises(ValueError):
        classify_dynkin(bad, ["a", "b"])


# -- overlattices -------------------------------------------------------------------

def test_overlattice_empty_glue_is_identity():
    l = la.standard_lattice("A3")
    out, basis = la.overlattice(l, [])
    assert out.gram == l.gram


def test_overlattice_rejects_non_isotropic_glue():
    l = la.standard_lattice("<-4>")
    with pytest.raises(ValueError):
        la.overlattice(l, [[Fraction(1, 2)]])


def test_d5_a3_chain():
    ch = la.d5_a3_chain()
    assert ch["base"].det() == 16
    assert abs(ch["E8"].det()) == 1
    assert abs(ch["D8"].det()) == 4
    assert la.genus_match_indefinite(
        ch["E8"], la.standard_lattice("E8"))["match"]
    fq_d8, _ = la.disc_form(ch["D8"])
    assert la.fq_isometric(fq_d8, la.fq_u2())
    # D8 sits inside E8: every D8 basis vector is integral in the E8 basis
    for row in ch["d8_basis"]:
        coords = la._coords_in_basis(row, ch["e8_basis"])
        assert coords is not None
        assert all(c.denominator == 1 for c in coords)


# -- embeddability verdicts ----------------------------------------------------------

def test_artin_verdicts():
    r1 = la.artin2_check(1)
    r2 = la.artin2_check(2)
    r3 = la.artin2_check(3)
    assert r1 == r2 == {"embeddable": True}
    assert not r3["embeddable"]
    assert r3["candidates"] > 0
    for sigma in (1, 2, 3):
        picard = la.supersingular_picard(sigma)
        assert picard.signature() == (1, 21)
        assert picard.disc_group() == [2] * (2 * sigma)


def test_d5_off_its_sub_diagram_fails_the_sigma_1_witness(monkeypatch):
    # E8 roots 0..4 are a chain: D5's branch edge 2-4 lands on no edge,
    # which is the pairing of rows 4 and 6 of U + D5 + D12
    monkeypatch.setattr(la, "D5_IN_E8", (0, 1, 2, 3, 4))
    with pytest.raises(ValueError, match=re.escape(
            "sigma 1 witness embedding fails: Gram not preserved at "
            "(4, 6)")):
        la.artin2_check(1)


def test_artin_check_rejects_bad_sigma():
    with pytest.raises(ValueError):
        la.artin2_check(4)


def test_ternary_enumeration_det4_recovers_a3():
    cands = la.ternary_enumeration(4)
    assert cands
    fq_a3, _ = la.disc_form(la.standard_lattice("A3"))
    for lat in cands:
        assert lat.det() == -4
        assert lat.signature() == (0, 3)
        fq, _ = la.disc_form(lat)
        assert la.fq_isometric(fq, fq_a3)


# -- reported lattices ----------------------------------------------------------------

def cm_picard_lattices():
    """The two special Picard lattices reported with their invariants."""
    l1 = la.direct_sum("U", "E8", "E8", "<-4>", "<-4>")
    l2 = la.direct_sum("U", "E8", "E8", rescale("A2", 2))
    return [{"name": l.name, "rank": l.rank, "signature": l.signature(),
             "disc_group": l.disc_group(), "det": l.det()}
            for l in (l1, l2)]


def transcendental_lattice():
    """U(2) + <4>, reported with its invariants."""
    l = la.direct_sum(rescale("U", 2), la.standard_lattice("<4>"))
    return {"lattice": l, "signature": l.signature(),
            "disc_group": l.disc_group(), "det": l.det()}


def test_m2_and_cm_lattices():
    # M2, the Picard lattice of the characteristic-0 Kummer model
    m2 = la.direct_sum("U", "E8", "D8", "<-4>")
    assert m2.rank == 19 and m2.signature() == (1, 18)
    assert abs(m2.det()) == 16
    cms = cm_picard_lattices()
    assert len(cms) == 2
    for rep in cms:
        assert rep["rank"] == 20
        assert rep["signature"] == (1, 19)
        order = 1
        for d in rep["disc_group"]:
            order *= d
        assert abs(rep["det"]) == order
    assert abs(cms[0]["det"]) == 16
    assert abs(cms[1]["det"]) == 12


def test_transcendental_lattice():
    t = transcendental_lattice()
    assert t["lattice"].rank == 3
    assert t["signature"] == (2, 1)
    assert abs(t["det"]) == 16
    assert t["disc_group"] == [2, 2, 4]


# -- the shared matrix kernels against the lattice code they replaced --------------
#
# Each oracle below is the lattice-specific algorithm that matrices.py now
# replaces, kept as it was except where its docstring says otherwise.

def det_by_inertia_and_smith(gram):
    """The oracle for Lattice.det: sign from the inertia, magnitude from
    the Smith invariants."""
    if not gram:
        return 1
    pos, zero, neg = inertia_signature(gram)
    if zero:
        return 0
    mag = 1
    for d in smith_invariants(gram):
        mag *= d
    return mag if neg % 2 == 0 else -mag


def inverse_by_gauss_jordan(gram):
    n = len(gram)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                       for j in range(n)]
         for i, row in enumerate(gram)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def disc_form_by_gauss_jordan(l):
    """The oracle for disc_form: generator i is gram^-1 times column i of
    u^-1, both inverses by Gauss-Jordan, paired by the dense double sum."""
    n = l.rank
    d, u, _ = smith_normal_form(l.gram)
    diag = [d[i][i] for i in range(n)]
    uinv = inverse_by_gauss_jordan(u)
    ginv = inverse_by_gauss_jordan(l.gram)
    gens, orders = [], []
    for i in range(n):
        if diag[i] == 1:
            continue
        t = [uinv[r][i] for r in range(n)]
        gens.append([sum(ginv[r][c] * t[c] for c in range(n))
                     for r in range(n)])
        orders.append(diag[i])

    def pairing(x, y):
        return sum(x[r] * l.gram[r][c] * y[c]
                   for r in range(n) for c in range(n))

    qvals = [pairing(x, x) for x in gens]
    bmat = [[pairing(x, y) for y in gens] for x in gens]
    return la.FiniteQuadForm(orders, qvals, bmat), gens


def coords_by_gauss_jordan(vec, basis):
    """The oracle for _coords_in_basis: solve basis^T x = vec."""
    n = len(basis)
    a = [[Fraction(basis[r][c]) for r in range(n)] + [Fraction(vec[c])]
         for c in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def hermite_rows(rows):
    """The oracle for the overlattice row basis: an echelon basis of the
    row lattice by repeated integer row reduction.  One fix: a row whose
    pivot-column entry is reduced to zero leaves the stack.  Before, it
    stayed, sorted first and was divided by, so [[0, 2, 0, 1], [0, 3, 2, 0],
    [0, 6, 6, 0]] raised ZeroDivisionError."""
    rows = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    basis = []
    col = 0
    while col < ncols and rows:
        stack = [r for r in rows if r[col] != 0]
        if not stack:
            col += 1
            continue
        while True:
            stack.sort(key=lambda r: abs(r[col]))
            piv = stack[0]
            done = True
            for r in stack[1:]:
                f = r[col] // piv[col]
                for k in range(ncols):
                    r[k] -= f * piv[k]
                if r[col] != 0:
                    done = False
            stack = [piv] + [r for r in stack[1:] if r[col]]
            if done or len(stack) == 1:
                break
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        rows = [r for r in rows if r is not piv and any(r)]
        for r in rows:
            if r[col] % piv[col] == 0 and r[col] != 0:
                f = r[col] // piv[col]
                for k in range(ncols):
                    r[k] -= f * piv[k]
        rows = [r for r in rows if any(r)]
        col += 1
    return basis


def hermite_normal_form(rows):
    """The canonical basis of a row lattice: the echelon basis with every
    entry above a pivot reduced into [0, pivot)."""
    basis = hermite_rows(rows)
    for i, row in enumerate(basis):
        c = next(k for k, x in enumerate(row) if x)
        for j in range(i):
            f = basis[j][c] // row[c]
            basis[j] = [x - f * y for x, y in zip(basis[j], row)]
    return basis


def even_grams(max_n=5):
    """Random even symmetric integer matrices, degenerate ones included."""
    @st.composite
    def draw(draw_):
        n = draw_(st.integers(1, max_n))
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * draw_(st.integers(-3, 3))
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = draw_(st.integers(-3, 3))
        return g
    return draw()


NAMED = ["U", "A1", "A3", "D4", "D5", "D8", "E8", "<-4>", "<4>"]
NAMED_SUMS = [("U", "D8", "D9"), ("U", "E8", "D8", "<-4>"), ("D5", "A3"),
              ("U", "E8", "D12"), ("U", "E8", "D4", "D4", "D4")]


def named_lattices():
    return ([la.standard_lattice(n) for n in NAMED]
            + [la.direct_sum(*names) for names in NAMED_SUMS]
            + [rescale("A2", 2), transcendental_lattice()["lattice"]]
            + la.ternary_enumeration(16))


def test_det_agrees_with_inertia_and_smith_on_named_lattices():
    for l in named_lattices():
        assert l.det() == det_by_inertia_and_smith(l.gram), l


@settings(max_examples=80, deadline=None)
@given(even_grams(6))
def test_det_agrees_with_inertia_and_smith(gram):
    assert la.Lattice(gram).det() == det_by_inertia_and_smith(gram)


def assert_same_disc_form(l):
    try:
        want_fq, want_gens = disc_form_by_gauss_jordan(l)
    except StopIteration:  # the Gauss-Jordan oracle hit a zero pivot
        with pytest.raises(ValueError, match="degenerate"):
            la.disc_form(l)
        return
    fq, gens = la.disc_form(l)
    assert gens == want_gens
    assert (fq.orders, fq.q, fq.b) == (want_fq.orders, want_fq.q, want_fq.b)


def test_disc_form_agrees_with_gauss_jordan_on_named_lattices():
    for l in named_lattices():
        assert_same_disc_form(l)


@settings(max_examples=60, deadline=None)
@given(even_grams(5))
def test_disc_form_agrees_with_gauss_jordan(gram):
    assert_same_disc_form(la.Lattice(gram))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coords_in_basis_agrees_with_gauss_jordan(data):
    n = data.draw(st.integers(1, 5))
    small = st.integers(-4, 4)
    basis = data.draw(st.lists(st.lists(small, min_size=n, max_size=n),
                               min_size=n, max_size=n))
    if matrix_rank([[Fraction(x) for x in r] for r in basis]) < n:
        return
    coeffs = data.draw(st.lists(small, min_size=n, max_size=n))
    vec = [sum(coeffs[r] * basis[r][c] for r in range(n)) for c in range(n)]
    assert la._coords_in_basis(vec, basis) == coeffs
    assert coords_by_gauss_jordan(vec, basis) == coeffs
    off = data.draw(st.lists(small, min_size=n, max_size=n))
    want = coords_by_gauss_jordan(off, basis)
    if all(x.denominator == 1 for x in want):
        assert la._coords_in_basis(off, basis) == want
    else:
        with pytest.raises(ValueError, match="no integral coordinates"):
            la._coords_in_basis(off, basis)


def test_coords_in_basis_on_the_overlattice_chain():
    ch = la.d5_a3_chain()
    for big, small in (("e8_basis", "d8_basis"), ("e8_basis", "e8_basis")):
        for row in ch[small]:
            want = coords_by_gauss_jordan(row, ch[big])
            assert la._coords_in_basis(row, ch[big]) == want
    # E8 is not inside D8: some E8 basis row has fractional coordinates
    with pytest.raises(ValueError, match="no integral coordinates"):
        for row in ch["e8_basis"]:
            la._coords_in_basis(row, ch["d8_basis"])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_row_basis_spans_the_hermite_lattice(data):
    ncols = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=ncols,
                                       max_size=ncols), min_size=1,
                              max_size=7))
    got = row_basis(rows)
    assert len(got) == matrix_rank([[Fraction(x) for x in r] for r in rows])
    assert hermite_normal_form(got) == hermite_normal_form(rows)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_basis_of_glued_rows(data):
    # the shape overlattice reduces: den * identity, then the glue rows
    n = data.draw(st.integers(1, 6))
    den = data.draw(st.integers(1, 8))
    glue = data.draw(st.lists(st.lists(st.integers(-2 * den, 2 * den),
                                       min_size=n, max_size=n),
                              max_size=3))
    rows = [[den * int(i == j) for j in range(n)] for i in range(n)] + glue
    got = row_basis(rows)
    assert len(got) == n
    assert hermite_normal_form(got) == hermite_normal_form(rows)


def test_overlattice_basis_spans_the_hermite_lattice():
    # the two glue vectors of the D5+A3 chain, scaled to integer rows as
    # overlattice does
    ch = la.d5_a3_chain()
    base = ch["base"]
    for key, index in (("e8_basis", 4), ("d8_basis", 2)):
        basis = ch[key]
        den = max(x.denominator for r in basis for x in r)
        rows = [[den * int(i == j) for j in range(8)] for i in range(8)]
        glue = [v for v in basis
                if any(x.denominator != 1 for x in v)]
        rows += [[int(den * x) for x in v] for v in glue]
        scaled = [[int(den * x) for x in r] for r in basis]
        assert hermite_normal_form(scaled) == hermite_normal_form(rows)
        out, again = la.overlattice(base, glue)
        assert again == basis
        assert abs(out.det()) * index * index == abs(base.det())
