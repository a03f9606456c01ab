"""End-to-end acceptance run: one pass/fail line per criterion, each with a
pinned wall-clock budget.  All checks are exact (zero tolerance).

Two sub-checks compare exact computations against printed formulas that
the computations contradict; they are implemented verbatim and marked as
strict expected failures so the discrepancy stays visible."""

import time

import pytest

import desmic_kit.cli as cli


def run_within(suite, budget_seconds, options=None):
    t0 = time.monotonic()
    rep = cli.run_suite(suite, options)
    elapsed = time.monotonic() - t0
    assert elapsed < budget_seconds, \
        "%s took %.1fs, budget %.0fs" % (suite, elapsed, budget_seconds)
    return {c.id: c for c in rep.checks}


def test_criterion_1_identity_suite():
    by_id = run_within("identities", 10)
    for cid in ("identities.desmic", "identities.eight-squares",
                "identities.steinerian-char0",
                "identities.steinerian-char2"):
        assert by_id[cid].status == "pass", by_id[cid].details


def test_criterion_2_desmic_surface():
    by_id = run_within("desmic-surface", 30)
    for cid in ("desmic.nodes-12", "desmic.lines-16",
                "desmic.reye-incidence", "desmic.tangency-computed"):
        assert by_id[cid].status == "pass", by_id[cid].details


@pytest.mark.xfail(strict=True, reason="the printed tangency formula "
                   "u(b+c) + v(a+b) contradicts the exact computation "
                   "(a+2b)u + (2a+b)v, confirmed by a gradient oracle")
def test_criterion_2_tangency_formula_verbatim():
    by_id = run_within("desmic-surface", 30)
    assert by_id["desmic.tangency-printed"].status == "pass", \
        by_id["desmic.tangency-printed"].details


def test_criterion_3_line_complex():
    by_id = run_within("line-complex", 5,
                       cli.Options(primes=(13, 17)))
    assert by_id["complex.nodes-34"].status == "pass"
    assert by_id["complex.planes-24"].status == "pass"
    for p in (13, 17):
        assert by_id["complex.scan-f%d" % p].status == "evidence-only"
        assert by_id["complex.scan-f%d-unit" % p].status == "evidence-only"
        assert by_id["complex.scan-f%d-match" % p].status == "pass"


def test_criterion_4_symmetry():
    by_id = run_within("symmetry", 5)
    assert by_id["symmetry.group-1152"].status == "pass", \
        by_id["symmetry.group-1152"].details


def test_criterion_5_projection():
    by_id = run_within("cremona", 60)
    for cid in ("cremona.rewrite", "cremona.nodes-17",
                "cremona.singular-lines", "cremona.rationality-planes",
                "cremona.segre"):
        assert by_id[cid].status == "pass", by_id[cid].details


def test_criterion_6_characteristic_2():
    by_id = run_within("char2", 60)
    for cid in ("char2.points-13", "char2.a3-specialization",
                "char2.kummer-model"):
        assert by_id[cid].status == "pass", by_id[cid].details


def test_criterion_7_supersingular():
    by_id = run_within("supersingular", 2)
    for cid in ("ss.pg24", "ss.duad-table", "ss.fibration-tables",
                "ss.reye-28", "ss.divisor-h"):
        assert by_id[cid].status == "pass", by_id[cid].details


@pytest.mark.xfail(strict=True, reason="the printed pairing profile "
                   "{0x15, 1x16, 2x3, 3x8} is unattainable for this "
                   "intersection matrix; the exact profile is "
                   "{0x15, 1x24, 2x3}")
def test_criterion_7_pairing_profile_verbatim():
    by_id = run_within("supersingular", 2)
    assert by_id["ss.pairing-profile-printed"].status == "pass", \
        by_id["ss.pairing-profile-printed"].details


def test_criterion_8_lattices():
    by_id = run_within("lattices", 120)
    for cid in ("lat.genus-match", "lat.span-28", "lat.disc-forms",
                "lat.overlattice-chains", "lat.artin-verdicts"):
        assert by_id[cid].status == "pass", by_id[cid].details
