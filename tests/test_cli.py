"""Tests for the batch verification driver."""

import ast
import glob
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import desmic_kit.cli as cli
import desmic_kit.configs as cf
import desmic_kit.cremona as cr
import desmic_kit.lattices as la
import desmic_kit.linecomplex as lc
import desmic_kit.suite_identities as suite_identities
import desmic_kit.surfaces as sf


def test_identity_suite_all_pass():
    rep = cli.run_suite("identities")
    assert rep.ok
    assert len(rep.checks) == 4
    assert all(c.status == "pass" for c in rep.checks)


def test_unknown_suite():
    with pytest.raises(ValueError):
        cli.run_suite("nope")


def test_check_ids_unique_and_sorted():
    rep = cli.run_suite("identities")
    ids = [c.id for c in rep.checks]
    assert ids == sorted(ids) and len(ids) == len(set(ids))


def test_report_schema_and_no_elapsed():
    rep = cli.run_suite("identities")
    data = json.loads(rep.to_json())
    assert data["schema"] == 1
    assert data["suite"] == "identities"
    assert data["primes"] == [13, 17]
    assert data["ok"] is True and data["failed"] == 0
    for c in data["checks"]:
        assert set(c) == {"id", "anchor", "status", "details"}


def test_desmic_surface_suite_has_the_known_failure():
    rep = cli.run_suite("desmic-surface")
    assert not rep.ok
    by_id = {c.id: c for c in rep.checks}
    assert by_id["desmic.tangency-printed"].status == "fail"
    assert by_id["desmic.tangency-computed"].status == "pass"
    assert by_id["desmic.nodes-12"].status == "pass"
    assert by_id["desmic.lines-16"].status == "pass"
    assert by_id["desmic.reye-incidence"].status == "pass"


def test_line_complex_scans_are_evidence_only():
    rep = cli.run_suite("line-complex")
    assert rep.ok  # evidence-only is not a failure
    by_id = {c.id: c for c in rep.checks}
    for p in (13, 17):
        assert by_id["complex.scan-f%d" % p].status == "evidence-only"
        assert by_id["complex.scan-f%d-unit" % p].status == "evidence-only"
        assert by_id["complex.scan-f%d-match" % p].status == "pass"
    assert by_id["complex.nodes-34"].status == "pass"
    assert by_id["complex.planes-24"].status == "pass"


def test_prime_option_controls_scan_checks():
    rep = cli.run_suite("line-complex", cli.Options(primes=(13,)))
    ids = [c.id for c in rep.checks]
    assert "complex.scan-f13" in ids and "complex.scan-f17" not in ids


def test_cremona_and_char2_suites_pass():
    assert cli.run_suite("cremona").ok
    assert cli.run_suite("char2").ok


SCAN_CHECKS = tuple("complex.scan-f%d%s" % (p, kind) for p in (13, 17)
                    for kind in ("", "-unit", "-match"))
# shared input -> (suite, module, function, calls in one run, the checks
# that read it).  The scan runs once for each of its 4 distinct arguments.
SHARED_INPUTS = {
    "pencil": ("desmic-surface", sf, "desmic_pencil_symbolic", 1,
               ("desmic.nodes-12", "desmic.lines-16",
                "desmic.tangency-computed", "desmic.tangency-printed")),
    "tangency": ("desmic-surface", sf, "residual_conic_tangency", 1,
                 ("desmic.tangency-computed", "desmic.tangency-printed")),
    "scan": ("line-complex", lc, "scan_singular_points", 4,
             SCAN_CHECKS),
    "42-curve-tables": ("supersingular", cf, "fibration_tables", 1,
                        ("ss.fibration-tables", "ss.reye-28", "ss.divisor-h",
                         "ss.pairing-profile-printed")),
    "h-pairings": ("supersingular", cf, "divisor_pairings", 1,
                   ("ss.divisor-h", "ss.pairing-profile-printed")),
}
# the "all" case breaks every input but the pencil and the H pairings: the
# tangency is computed from the pencil and the H pairings from the 42-curve
# tables, so a broken pencil or tables would hide them
ALL_BROKEN = ("tangency", "scan", "42-curve-tables")


def _suite_and_inputs(case, broken):
    """The suite that `case` (one input, or "all") runs, and its inputs."""
    if case != "all":
        return SHARED_INPUTS[case][0], [case]
    return "all", ALL_BROKEN if broken else list(SHARED_INPUTS)


def _instrument(monkeypatch, names, broken):
    """Count the calls of the named shared inputs in a {function: calls}
    dict; a broken input raises ValueError naming its function."""
    calls = {}
    for name in names:
        _, module, func, _, _ = SHARED_INPUTS[name]
        real = getattr(module, func)

        def counted(*args, func=func, real=real):
            calls[func] = calls.get(func, 0) + 1
            if broken:
                raise ValueError("%s broke" % func)
            return real(*args)

        monkeypatch.setattr(module, func, counted)
    return calls


def _assert_computed_once_per_run(monkeypatch, case):
    suite, names = _suite_and_inputs(case, broken=False)
    calls = _instrument(monkeypatch, names, broken=False)
    cli.run_suite(suite)
    assert calls == {SHARED_INPUTS[n][2]: SHARED_INPUTS[n][3] for n in names}


def _assert_failure_is_not_cached(monkeypatch, case):
    suite, names = _suite_and_inputs(case, broken=True)
    calls = _instrument(monkeypatch, names, broken=True)
    failed = {c.id: c.details for c in cli.run_suite(suite).failures}
    want, want_calls = {}, {}
    for name in names:
        _, _, func, _, readers = SHARED_INPUTS[name]
        want.update((cid, "ValueError: %s broke" % func) for cid in readers)
        want_calls[func] = len(readers)
    assert failed == want
    assert calls == want_calls


@pytest.mark.parametrize("case", list(SHARED_INPUTS) + ["all"])
def test_shared_input_computed_once_per_run(monkeypatch, case):
    _assert_computed_once_per_run(monkeypatch, case)


@pytest.mark.parametrize("case", list(SHARED_INPUTS) + ["all"])
def test_shared_input_failure_is_not_cached(monkeypatch, case):
    _assert_failure_is_not_cached(monkeypatch, case)


def test_rebound_check_function_is_the_one_that_runs(monkeypatch):
    monkeypatch.setattr(suite_identities, "check_steinerian",
                        lambda char: ("fail", "rebound in char %d" % char))
    failed = {c.id: c.details for c in cli.run_suite("identities").failures}
    assert failed == {"identities.steinerian-char0": "rebound in char 0",
                      "identities.steinerian-char2": "rebound in char 2"}


def test_a_missing_printed_node_fails_the_family_sizes(monkeypatch):
    # 17 + 16 points all pass the node test: only the count decides
    monkeypatch.setattr(lc, "PLUCKER_NODES_18",
                        lc.PLUCKER_NODES_18[:17])
    checks = {c.id: c for c in cli.run_suite("line-complex").checks}
    assert checks["complex.nodes-34"].status == "fail"
    assert checks["complex.nodes-34"].details == "18 + 16 = 34 listed " \
        "points are ordinary nodes in both coordinate systems"


def test_a_missing_printed_node_fails_the_plane_counts(monkeypatch):
    # every plane is still contained: only the incidence counts decide
    monkeypatch.setattr(lc, "PLUCKER_NODES_16",
                        lc.PLUCKER_NODES_16[1:])
    checks = {c.id: c for c in cli.run_suite("line-complex").checks}
    assert checks["complex.planes-24"].status == "fail"
    assert checks["complex.planes-24"].details.startswith("24 planes ")


def _changed_records(monkeypatch, suite, module, name, value):
    """The records of `suite` that change when module.name is rebound to
    value, by id."""
    before = {c.id: c.as_dict() for c in cli.run_suite(suite).checks}
    monkeypatch.setattr(module, name, value)
    after = {c.id: c.as_dict() for c in cli.run_suite(suite).checks}
    assert set(after) == set(before)
    return {cid: rec for cid, rec in after.items() if rec != before[cid]}


def _edited_scan(edit):
    """linecomplex.scan_singular_points with edit(p, unit_variant, points)
    applied to the points it finds; the count is that of the edited
    list."""
    real = lc.scan_singular_points

    def scan(p, unit_variant=False):
        pts = edit(p, unit_variant, real(p, unit_variant)[1])
        return len(pts), pts

    return scan


@pytest.mark.parametrize("edit,failed", [
    # a point dropped from the F_13 scan: its count and its match fail
    (lambda p, unit, pts: pts[1:] if (p, unit) == (13, False) else pts,
     {"complex.scan-f13", "complex.scan-f13-match"}),
    # a point replaced, so the count holds: only the match fails
    (lambda p, unit, pts: [(0,) * 6] + pts[1:] if (p, unit) == (13, False)
     else pts, {"complex.scan-f13-match"}),
    # a point dropped from the unit-variant scan, which nothing matches
    (lambda p, unit, pts: pts[1:] if (p, unit) == (13, True) else pts,
     {"complex.scan-f13-unit"})], ids=["drop", "replace", "drop-unit"])
def test_an_edited_scan_fails_the_checks_that_read_it(monkeypatch, edit,
                                                      failed):
    changed = _changed_records(monkeypatch, "line-complex", lc,
                               "scan_singular_points", _edited_scan(edit))
    assert set(changed) == failed
    assert all(r["status"] == "fail" for r in changed.values())


def test_a_switched_reye_configuration_fails_the_reye_28_alone(monkeypatch):
    # one incidence swapped between two disjoint blocks keeps the degrees;
    # the 28 curves are then no longer isomorphic to what reye_config says
    from test_configs import switched_reye
    switched = switched_reye()
    changed = _changed_records(monkeypatch, "supersingular", cf,
                               "reye_config", lambda: switched)
    assert changed == {"ss.reye-28": {
        "id": "ss.reye-28", "anchor": "28-curve configuration",
        "status": "fail",
        "details": "ValueError: 28-curve configuration is not Reye"}}


def test_a_moved_printed_plucker_node_fails_the_node_check(monkeypatch):
    # (1, 0, 0, 0, 0, 1) is off the quadric, and the planes through it are
    # not those through (1, 0, 0, 0, 0, 0)
    moved = [(1, 0, 0, 0, 0, 1)] + lc.PLUCKER_NODES_18[1:]
    changed = _changed_records(monkeypatch, "line-complex", lc,
                               "PLUCKER_NODES_18", moved)
    assert set(changed) == {"complex.nodes-34", "complex.planes-24"}
    assert all(r["status"] == "fail" for r in changed.values())
    assert changed["complex.nodes-34"]["details"] == "ValueError: printed " \
        "point fails the node test: (QI(1), QI(0), QI(0), QI(0), QI(0), QI(1))"


def test_a_changed_klein_node_fails_the_segre_check(monkeypatch):
    # the first node (1, 0, 0, -i, 0, 0) becomes (1, 1, 0, -i, 0, 0), which
    # is off the quadric; the other cremona checks read Plucker forms only
    listed = lc.klein_nodes_18

    def moved(i=None):
        pts = listed(i)
        return [pts[0][:1] + pts[0][:1] + pts[0][2:]] + pts[1:]

    changed = _changed_records(monkeypatch, "cremona", lc,
                               "klein_nodes_18", moved)
    assert set(changed) == {"cremona.segre"}
    assert changed["cremona.segre"]["status"] == "fail"
    assert changed["cremona.segre"]["details"].startswith(
        "ValueError: printed point fails the node test: (Mod(1, 13), "
        "Mod(1, 13), Mod(0, 13)")


def test_a_moved_projected_node_fails_the_seventeen_nodes(monkeypatch):
    # (0, 0, 1, 0, 1) lies on the singular line x1 = x2 = x4 = 0: singular,
    # but no ordinary node, so the count and the details drop to 16
    moved = [(0, 0, 1, 0, 1)] + cr.PROJECTED_NODES_17[1:]
    changed = _changed_records(monkeypatch, "cremona", cr,
                               "PROJECTED_NODES_17", moved)
    assert set(changed) == {"cremona.nodes-17"}
    assert changed["cremona.nodes-17"] == {
        "id": "cremona.nodes-17", "anchor": "seventeen nodes",
        "status": "fail", "details": "16 listed points verified as nodes "
        "of the projected quartic"}


def test_a_nonsingular_projected_node_fails_the_seventeen_nodes_alone(
        monkeypatch):
    # (1, 0, 1, 1, 1) is not a singular point of the projected quartic; the
    # identities, lines and planes do not read the printed nodes
    moved = [(1, 0, 1, 1, 1)] + cr.PROJECTED_NODES_17[1:]
    changed = _changed_records(monkeypatch, "cremona", cr,
                               "PROJECTED_NODES_17", moved)
    assert set(changed) == {"cremona.nodes-17"}
    assert changed["cremona.nodes-17"]["status"] == "fail"
    assert changed["cremona.nodes-17"]["details"] == "ValueError: point " \
        "(1, 0, 1, 1, 1) is not singular on the form"


def test_a_smooth_printed_line_fails_the_singular_lines_alone(monkeypatch):
    # the line x1 = x2 = x3 = 0 lies on the projected quartic, but the
    # partial in x3 does not vanish along it
    lines = [((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))]
    changed = _changed_records(monkeypatch, "cremona", cr,
                               "SINGULAR_LINES_4",
                               lines + cr.SINGULAR_LINES_4[1:])
    assert set(changed) == {"cremona.singular-lines"}
    assert changed["cremona.singular-lines"]["status"] == "fail"


def test_a_moved_printed_meet_fails_the_rationality_planes_alone(
        monkeypatch):
    meets = dict(cr.RATIONALITY_INTERSECTIONS)
    meets[(0, 1)] = (1, 1, 0, 0, 0)
    changed = _changed_records(monkeypatch, "cremona", cr,
                               "RATIONALITY_INTERSECTIONS", meets)
    assert set(changed) == {"cremona.rationality-planes"}
    assert changed["cremona.rationality-planes"]["status"] == "fail"
    assert changed["cremona.rationality-planes"]["details"] == "ValueError: " \
        "rationality planes 0 and 1 do not meet in the printed point " \
        "(1, 1, 0, 0, 0)"


def test_a_changed_projected_quartic_fails_every_check_that_reads_it(
        monkeypatch):
    # the coefficient of x2*x3^2*x4 goes from -1 to -3; cremona.segre reads
    # the complex, not the projection
    real = cr.projected_quartic

    def changed_quartic():
        x1, x2, x3, x4, x5 = cr.X_RING.gens()
        return real() - (x2 * x3 * x3 * x4).scale(2)

    changed = _changed_records(monkeypatch, "cremona", cr,
                               "projected_quartic", changed_quartic)
    assert set(changed) == {"cremona.rewrite", "cremona.nodes-17",
                            "cremona.singular-lines",
                            "cremona.rationality-planes"}
    assert all(r["status"] == "fail" for r in changed.values())


def test_a_changed_char2_cremona_quartic_fails_the_thirteen_points_alone(
        monkeypatch):
    # adding b*c*w^2*x*y cancels that term in characteristic 2; b = 0 at the
    # A_3 specialization, and the Kummer quartic is another surface
    real = sf._cremona_char2

    def changed_quartic(a, b, c, d, x, y, z, w):
        return real(a, b, c, d, x, y, z, w) + b * c * w ** 2 * x * y

    changed = _changed_records(monkeypatch, "char2", sf, "_cremona_char2",
                               changed_quartic)
    assert set(changed) == {"char2.points-13"}
    assert changed["char2.points-13"]["status"] == "fail"
    assert changed["char2.points-13"]["details"] == "ValueError: the points " \
        "of family 1 are not singular on the characteristic-2 Cremona quartic"


def test_a_moved_kummer_point_fails_the_kummer_model_alone(monkeypatch):
    # (1, 1, 1, 0) is off the characteristic-2 Kummer quartic
    moved = [(1, 1, 1, 0)] + sf.KUMMER2_SIX_POINTS[1:]
    changed = _changed_records(monkeypatch, "char2", sf,
                               "KUMMER2_SIX_POINTS", moved)
    assert set(changed) == {"char2.kummer-model"}
    assert changed["char2.kummer-model"]["status"] == "fail"


def test_lattice_suite_passes():
    rep = cli.run_suite("lattices")
    assert rep.ok and len(rep.checks) == 5


def test_missing_data_file_fails_cleanly(tmp_path):
    rep = cli.run_suite("lattices", cli.Options(data_dir=str(tmp_path)))
    by_id = {c.id: c for c in rep.checks}
    assert by_id["lat.span-28"].status == "fail"
    assert "data file missing" in by_id["lat.span-28"].details


# sha256 of the 42-curve system with its fibrations and H, as sorted JSON:
# a snapshot that any change to the derived ids, Gram matrix, fibration
# records or divisor fails
DIGEST_42 = "f39e4bd2c6bed16e1cca5e8ab9e34901e3c30b05c1697bf570054abf81adf232"


def test_42_curve_system_matches_its_pinned_digest():
    cs, _ = cf.fibration_tables()
    text = json.dumps({"ids": cs.ids, "gram": cs.gram,
                       "fibrations": cs.fibrations,
                       "divisors": cs.divisors}, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST_42


def test_supersingular_suite_reads_no_data_dir(tmp_path):
    # the suite derives its curves, so a missing directory and an empty
    # one give the default report, and nothing is written to either
    (tmp_path / "empty").mkdir()
    default = cli.run_suite("supersingular").to_json()
    for data_dir in (tmp_path / "no" / "such" / "dir", tmp_path / "empty"):
        opt = cli.Options(data_dir=str(data_dir))
        assert cli.run_suite("supersingular", opt).to_json() == default
    assert [p.name for p in tmp_path.iterdir()] == ["empty"]
    assert list((tmp_path / "empty").iterdir()) == []


def test_supersingular_run_derives_the_42_curves_once(monkeypatch):
    # the plane, the duad system and the 42 curves are each built once per
    # run, and the suite reads no curve file
    calls = []
    for module, name in ((cf, "pg24"), (cf, "duad_syntheme_system"),
                         (cf, "label_42_curves"), (cf, "fibration_tables"),
                         (la, "ingest_curve_system")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, name=name, real=real:
                            calls.append(name) or real(*a))
    rep = cli.run_suite("supersingular")
    assert [c.id for c in rep.failures] == ["ss.pairing-profile-printed"]
    assert sorted(calls) == ["duad_syntheme_system", "fibration_tables",
                             "label_42_curves", "pg24"]


def test_supersingular_suite_statuses():
    rep = cli.run_suite("supersingular")
    by_id = {c.id: c for c in rep.checks}
    assert by_id["ss.pairing-profile-printed"].status == "fail"
    for cid in ("ss.pg24", "ss.duad-table", "ss.fibration-tables",
                "ss.reye-28", "ss.divisor-h"):
        assert by_id[cid].status == "pass"


def test_swapped_printed_duad_entries_fail_the_duad_table_alone(
        monkeypatch):
    # row T1 keeps its five synthemes, so the totals are labeled as before
    # and only the table derived from them disagrees with the printed one
    table = [list(row) for row in cf.DUAD_TABLE]
    table[0][1], table[0][2] = table[0][2], table[0][1]
    changed = _changed_records(monkeypatch, "supersingular", cf,
                               "DUAD_TABLE", tuple(map(tuple, table)))
    assert set(changed) == {"ss.duad-table"}
    assert changed["ss.duad-table"]["status"] == "fail"
    assert changed["ss.duad-table"]["details"] == \
        "6x6 duad/syntheme table differs from the reference"


def test_supersingular_report_matches_benchmark_reference():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ref = os.path.join(root, "perfbench", "references",
                       "supersingular-13-17.json")
    with open(ref) as fh:
        assert cli.run_suite("supersingular").to_json() == fh.read()


def test_all_report_matches_recorded_report():
    """The --suite all report stays byte-identical to the one recorded in
    tests/reports/; the README gives the command that rewrites it."""
    ref = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "reports", "all-13-17.json")
    with open(ref) as fh:
        assert cli.run_suite("all").to_json() == fh.read()


def test_main_exit_codes_and_json_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["--suite", "identities", "--json", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "identities: 4 checks, 0 failed" in text
    data = json.loads(out.read_text())
    assert data["schema"] == 1 and data["ok"]
    # a suite with a known failing check exits nonzero
    assert cli.main(["--suite", "desmic-surface"]) == 1
    capsys.readouterr()


def test_main_json_to_stdout(capsys):
    code = cli.main(["--suite", "identities", "--json", "-"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["suite"] == "identities"


def test_main_rejects_an_unwritable_json_path_before_running(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    path = str(tmp_path / "no" / "such" / "dir" / "r.json")
    monkeypatch.setattr(cli, "run_suite", lambda *a: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--suite", "identities", "--json", path])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "cannot write the JSON report to %s" % path in captured.err
    assert not captured.out


def test_main_rejects_the_removed_budget_option():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--budget-seconds", "5"])
    assert exc.value.code == 2


def test_main_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        cli.main(["--suite", "nope"])


@pytest.mark.parametrize("value", ["21", "1", "19", "2", "-13", "x", "0"])
def test_main_rejects_bad_prime(value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--suite", "identities", "--prime", value])
    assert exc.value.code == 2
    assert "'%s' is not a prime p = 1 (mod 4)" % value \
        in capsys.readouterr().err


def test_main_rejects_a_repeated_prime(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--suite", "line-complex", "--prime", "17", "--prime",
                  "13", "--prime", "13"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "prime 13 given twice" in captured.err and not captured.out


def test_main_accepts_primes_one_mod_four(capsys):
    assert cli.main(["--suite", "identities", "--prime", "5",
                     "--prime", "29", "--json", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["primes"] == [5, 29]


@pytest.mark.parametrize("primes,named", [
    ([], "no scan prime given: ()"),
    ([13, 21], "21 is not a prime p = 1 (mod 4)"),
    ([19, 13], "19 is not a prime p = 1 (mod 4)"),
    ([13, "17"], "'17' is not a prime p = 1 (mod 4)"),
    ([17, 13, 13], "prime 13 given twice")],
    ids=["empty", "composite", "three-mod-four", "string", "repeated"])
def test_options_reject_bad_primes_by_name(primes, named):
    with pytest.raises(ValueError) as exc:
        cli.Options(primes=primes)
    assert str(exc.value) == named


def test_duplicate_check_ids_rejected():
    c = cli.Check("x", "a", "pass", "d")
    with pytest.raises(ValueError, match="duplicate check ids: x"):
        cli.VerificationReport("s", [c, c], cli.Options())


def test_check_status_validated():
    with pytest.raises(ValueError, match="'maybe'"):
        cli.Check("x", "a", "maybe", "d")


OPTIMIZED_CHECKS = """
from fractions import Fraction
import desmic_kit.cli as cli
import desmic_kit.lattices as la
import desmic_kit.linecomplex as lc
import desmic_kit.symmetry as sy
import desmic_kit.cremona as cr
import desmic_kit.configs as cf
import desmic_kit.projgeom as pg
import desmic_kit.surfaces as sf
import claims
from desmic_kit.configs import CurveSystem
from desmic_kit.lattices import FiniteQuadForm, Lattice, _coords_in_basis
from desmic_kit.poly import PolyRing
from desmic_kit.projgeom import LineP3
from desmic_kit.scalars import F4, Mod, QI
from desmic_kit.scan import run_scan
print("debug", __debug__)

def patched(module, name, value, call):
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        call()
    finally:
        setattr(module, name, saved)

def symmetry_with_failing_element():
    sy._element_preserves = lambda el, form: False
    sy.monomial_symmetry_group()

plucker = lc.CompleteIntersection35.plucker()
a, b, c, d, e = PolyRing(list("abcde")).gens()
f2 = Mod(1, 2)
klein_f2 = lc.CompleteIntersection35.klein(i=f2, one=f2)

def artin_with_wrong_witness(sigma):
    # the first witness row, a hyperbolic basis vector of U, becomes the sum
    # of both, whose square is 2, not 0
    real = la._block_embedding_rows

    def wrong(blocks, total_rank):
        rows = real(blocks, total_rank)
        return [[x + y for x, y in zip(rows[0], rows[1])]] + rows[1:]

    patched(la, "_block_embedding_rows", wrong, lambda: la.artin2_check(sigma))

def relabeled_42(a, b, value):
    cs, _ = cf.label_42_curves()
    gram = [row[:] for row in cs.gram]
    i, j = cs.index[a], cs.index[b]
    gram[i][j] = gram[j][i] = value
    return CurveSystem(cs.ids, gram)

collinear_arc = cf.SIX_ARC[:3] + ((F4(1), F4(1), F4(0)),) + cf.SIX_ARC[4:]

def desmic_28_not_reye():
    cf.config_isomorphic = lambda cfg, other: None
    cf.extract_desmic_28(cf.fibration_tables())

u, v, t = PolyRing(list("uvt")).gens()
a3_series = u * v + t ** 3
x, y, z, w = PolyRing(list("xyzw")).gens()
printed_planes = lc.plucker_plane_list(QI(1))
klein_planes = lc.klein_plane_list()

ok = cli.Check("x", "a", "pass", "d")
twice = {"name": "f", "fibers": [{"components": [{"id": "a", "mult": 1},
                                                 {"id": "a", "mult": 1}]}]}
for case in (lambda: run_scan(13, 0),
             lambda: cli.Check("x", "a", "bogus", "d"),
             lambda: cli.VerificationReport("s", [ok, ok], cli.Options()),
             lambda: CurveSystem(["a", "a"], [[0, 0], [0, 0]]),
             lambda: CurveSystem(["a", "b"], [[0, 1], [2, 0]]),
             lambda: CurveSystem(["a", "b"], [[0, 1]]),
             lambda: CurveSystem(["a", "b"], [[0, 1], [1]]),
             lambda: CurveSystem(["a"], [[-2]], [twice]).validate(),
             lambda: Lattice([[-2, 1]]),
             lambda: Lattice([[0.5]]),
             lambda: Lattice([[-1]]),
             lambda: Lattice([[-2, 1], [0, -2]]),
             lambda: _coords_in_basis([1, 0], [[2, 0], [0, 1]]),
             symmetry_with_failing_element,
             lambda: Mod(3, 1),
             lambda: Mod(Mod(3, 5), 7),
             lambda: lc.CompleteIntersection35(plucker.cubic, plucker.quadric,
                                               "plucker"),
             lambda: lc.CompleteIntersection35(lc.Form(a * a + b * e),
                                               lc.Form(a * b * c), "plucker"),
             lambda: lc.node_lift(klein_f2, (1, 1, 0, 0, 0, 0)),
             lambda: lc.PlaneInP5([[int(j == k) for j in range(5)]
                                   for k in range(3)], Fraction(1)),
             lambda: artin_with_wrong_witness(1),
             lambda: artin_with_wrong_witness(2),
             lambda: cf.fibration_tables(relabeled_42("12", "2", 0)),
             lambda: cf.fibration_tables(relabeled_42("2", "12.35.46", 1)),
             desmic_28_not_reye,
             lambda: patched(cf, "SIX_ARC", collinear_arc,
                             cf.label_42_curves),
             lambda: FiniteQuadForm([2], [Fraction(1, 3)],
                                    [[Fraction(1, 7)]]),
             lambda: patched(sf, "_factor_binary_quadratic",
                             lambda a, b, c, one: ((one, one * 0),
                                                   (one, one)),
                             lambda: sf.rdp_an_type(a3_series)),
             lambda: sf.residual_conic_tangency(sf.Form(z ** 4)),
             lambda: sf.residual_conic_tangency(
                 sf.Form((x + y) ** 2 * z ** 2)),
             lambda: sf.residual_conic_tangency(
                 sf.Form((x + y) * z ** 3 + (x + w) * x ** 3)),
             lambda: claims.projected_24_points_quartic_rank(
                 (1, 2, 3, 4, 5)),
             lambda: patched(lc, "plucker_plane_list",
                             lambda one: printed_planes[:23]
                             + printed_planes[:1], claims.klein_plane_labels),
             lambda: patched(lc, "klein_plane_list",
                             lambda: klein_planes[:23] + klein_planes[:1],
                             claims.klein_plane_labels),
             lambda: cr.line_singular_on(cr.Form(cr.projected_quartic()),
                                         [[1, 0, 0, 0, 0]]),
             lambda: patched(cr, "RATIONALITY_PLANES",
                             [((0, 1, 0, 0, 0),)],
                             cr.verify_rationality_planes),
             lambda: cf.AbstractConfig(["p", "p"], ["b"], []),
             lambda: cf.AbstractConfig(["p"], ["b", "b"], []),
             lambda: cf.AbstractConfig(["p"], ["b"], [("q", "b")]),
             lambda: cf.AbstractConfig(["p"], ["b"], [("p", "c")]),
             lambda: cf.AbstractConfig(["p", "q"], ["b"], [("p", "b")]),
             lambda: cf.AbstractConfig(["p"], ["b", "c"], [("p", "b")]),
             lambda: claims.plane_node_config(3),
             lambda: patched(claims, "COSET_SUBGROUP_GENERATORS",
                             [[(2, 1, 3, 4)]], claims.coset_config),
             lambda: patched(pg, "PLUCKER_INDEX",
                             pg.PLUCKER_INDEX[:5] + ((3, 2),),
                             lambda: LineP3([1, 0, 1, 0], [0, 1, 0, 1])),
             lambda: patched(la, "row_basis", lambda rows: rows[:1],
                             lambda: la.overlattice(
                                 la.standard_lattice("D4"),
                                 [[Fraction(1, 2)] * 4]))):
    try:
        case()
        print("accepted")
    except ValueError as exc:
        print("ValueError", exc)
"""

# what each case's error names, in the order of OPTIMIZED_CHECKS
OPTIMIZED_ERRORS = ["c=0", "'bogus'", "ids: x", "curve ids: a",
                    "symmetric at a, b", "1 rows for 2 curves",
                    "curve b has 1 entries", "fiber 0 of f lists curve a",
                    "row 0 has 2 entries", "entry 0.5", "entry -1 is odd",
                    "symmetric at (0, 1)", "[1, 0] has no integral",
                    "does not preserve the quadric", "modulus 1 is below 2",
                    "mixed moduli 5 and 7", "degrees 3 and 2, not 2 and 3",
                    "quadric in 5 coordinates", "not smooth at (Mod(1, 2), "
                    "Mod(1, 2), Mod(0, 2)",
                    "(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), "
                    "Fraction(0, 1), Fraction(0, 1))] cut a space of "
                    "dimension 1, not a plane", "sigma 1 witness embedding "
                    "fails: Gram not preserved at (0, 0)", "sigma 2 witness "
                    "embedding fails: Gram not preserved at (0, 0)",
                    "table 1: central 12 misses leaf 2",
                    "table 1: leaves 12.35.46, 2 of central 12 meet",
                    "28-curve configuration is not Reye",
                    "the 6-arc points ((F4(1), F4(0), F4(0)), (F4(0), "
                    "F4(1), F4(0)), (F4(1), F4(1), F4(0))) are collinear",
                    "generator 0: b(g, g) = 1/7 is not q(g) = 1/3 modulo 1",
                    "quadratic terms [(1, 1, 0), (2, 0, 0)], not u*v alone",
                    "does not vanish on the line LineP3([Fraction(0, 1), "
                    "Fraction(1, 1)",
                    "the form is singular along the line LineP3([Fraction(0, "
                    "1), Fraction(1, 1)",
                    "no single linear tangency condition",
                    "center (Fraction(1, 1), Fraction(2, 1), "
                    "Fraction(3, 1), Fraction(4, 1), Fraction(5, 1)) has 4 "
                    "independent linear forms",
                    "printed planes have 23 distinct canonical forms",
                    "Klein planes match 23 distinct printed labels",
                    "[[1, 0, 0, 0, 0]] cut a space of dimension 3, not a "
                    "line",
                    "((0, 1, 0, 0, 0),) cut a space of dimension 3, not a "
                    "plane",
                    "duplicate point label 'p'", "duplicate block label 'b'",
                    "unknown point 'q'", "unknown block 'c'",
                    "point degrees not uniform: [0, 1]",
                    "block sizes not uniform: [0, 1]",
                    "plane family 3 is not 1 or 2",
                    "quadruple (143), (132), (1432), (13) is a block on "
                    "neither side",
                    "violate the Plucker relation: Fraction(-2, 1)",
                    "drop the rank from 4 to 1"]


def _fresh_python(*args, path=()):
    """Run a new interpreter with this package's src/, the tests' shared
    modules and the directories in `path` on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                              (src, here) + tuple(path))),
                          capture_output=True, text=True)


def test_validation_survives_python_O():
    out = _fresh_python("-O", "-c", OPTIMIZED_CHECKS)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "debug False"
    assert len(lines) == 1 + len(OPTIMIZED_ERRORS), lines
    for line, want in zip(lines[1:], OPTIMIZED_ERRORS):
        assert line.startswith("ValueError ") and want in line, (line, want)


def test_all_suites_report_alike_under_python_O():
    runs = [_fresh_python(*flags, "-m", "desmic_kit.cli", "--suite", "all",
                          "--json", "-") for flags in ((), ("-O",))]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].returncode == runs[1].returncode == 1
    assert len(json.loads(runs[0].stdout)["checks"]) == 37


# The package modules a fresh process executes: the audit hook sees the
# module code of each import that runs.  Given a suite, the process runs
# it; given "import", it only imports cli.
EXECUTED_MODULES = """
import json, os, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec"
                 and ran.add(getattr(args[0], "co_filename", "")))
import desmic_kit.cli as cli
ok = None if sys.argv[1] == "import" else cli.run_suite(sys.argv[1]).ok
package = os.path.dirname(cli.__file__)
print(json.dumps([ok, sorted(os.path.basename(f)[:-3] for f in ran
                             if os.path.dirname(f) == package)]))
"""

# what `import desmic_kit.cli` executes, and so every run
EAGER_MODULES = {"__init__", "cli", "scalars"}
# suite -> (report ok, the library modules it executes beyond EAGER_MODULES);
# each suite also executes its own suite module and no other
SUITE_MODULES = {
    "identities": (True, {"matrices", "projgeom", "poly", "forms",
                          "surfaces"}),
    "desmic-surface": (False, {"matrices", "projgeom", "poly", "forms",
                               "surfaces", "configs"}),
    "line-complex": (True, {"matrices", "projgeom", "poly", "forms",
                            "linecomplex", "scan"}),
    "symmetry": (True, {"matrices", "projgeom", "poly", "forms",
                        "linecomplex", "symmetry"}),
    "cremona": (True, {"matrices", "projgeom", "poly", "forms",
                       "linecomplex", "cremona"}),
    "char2": (True, {"matrices", "projgeom", "poly", "forms", "surfaces"}),
    "supersingular": (False, {"matrices", "projgeom", "configs"}),
    "lattices": (True, {"matrices", "projgeom", "configs", "lattices"}),
}


def suite_module_name(suite):
    return "suite_" + suite.replace("-", "_")


@pytest.mark.parametrize("suite", cli.SUITES)
def test_suite_executes_only_its_modules(suite):
    out = _fresh_python("-c", EXECUTED_MODULES, suite)
    assert out.returncode == 0, out.stderr
    report_ok, ran = json.loads(out.stdout)
    ok, extra = SUITE_MODULES[suite]
    assert report_ok == ok
    assert set(ran) == EAGER_MODULES | extra | {suite_module_name(suite)}


def test_importing_cli_executes_only_the_eager_modules():
    out = _fresh_python("-c", EXECUTED_MODULES, "import")
    assert out.returncode == 0, out.stderr
    assert set(json.loads(out.stdout)[1]) == EAGER_MODULES


# Installed as sitecustomize in a fresh process: at exit it prints how many
# times the module code of cli.py ran.  Under `python -m desmic_kit.cli`
# that code runs as __main__, so a suite module that imported
# desmic_kit.cli would run it a second time.
COUNT_CLI_RUNS = """
import atexit, os, sys
runs = []
sys.addaudithook(lambda event, args: event == "exec"
                 and getattr(args[0], "co_name", "") == "<module>"
                 and os.path.basename(getattr(args[0], "co_filename", ""))
                 == "cli.py" and runs.append(args[0].co_filename))
atexit.register(lambda: sys.stderr.write("cli.py ran %d times\\n"
                                         % len(runs)))
"""


def test_python_m_runs_the_cli_module_once(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(COUNT_CLI_RUNS)
    out = _fresh_python("-m", "desmic_kit.cli", "--suite", "all", "--json",
                        "-", path=(str(tmp_path),))
    assert out.returncode == 1, out.stderr
    assert len(json.loads(out.stdout)["checks"]) == 37
    assert out.stderr.splitlines()[-1] == "cli.py ran 1 times"


def test_startup_cost_lists_the_line_complex_modules():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = _fresh_python(os.path.join(root, "tools", "startup_cost.py"),
                        "--suite", "line-complex", "--repeats", "1")
    assert out.returncode == 0, out.stderr
    head, *rows = out.stdout.splitlines()
    assert head.startswith("line-complex: %d modules, " % len(rows))
    # each row: module, line count, "lines", milliseconds, "ms"
    rows = [row.split() for row in rows]
    modules = {row[0] for row in rows}
    assert {m for m in modules if m.startswith("suite_")} == {
        "suite_line_complex"}
    assert modules == EAGER_MODULES | SUITE_MODULES["line-complex"][1] | {
        "suite_line_complex"}
    assert all(int(row[1]) > 0 and float(row[3]) > 0 for row in rows)


# The two commands that the benchmark runs, each with its reference report
# in perfbench/references/: a mistake in loading suite modules that shows
# only under `python -m` fails here.
BENCHMARK_COMMANDS = [
    (["--suite", "supersingular"], "supersingular-13-17.json", 1),
    (["--suite", "line-complex", "--prime", "29", "--prime", "37"],
     "line-complex-29-37.json", 0)]


@pytest.mark.parametrize("args,reference,code", BENCHMARK_COMMANDS,
                         ids=["supersingular", "line-complex-29-37"])
def test_fresh_cli_run_matches_benchmark_reference(args, reference, code):
    out = _fresh_python("-m", "desmic_kit.cli", *args, "--json", "-")
    assert out.returncode == code, out.stderr
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "references", reference),
              "rb") as fh:
        assert out.stdout.encode() == fh.read()


# A run after library modules were rebound in a fresh process that imported
# cli: configs and lattices wrapped to count their calls ("import"), or
# rebound to raise through the package before the suite modules that read
# them have run: configs and lattices ("unloaded"), or symmetry and
# surfaces ("unloaded-lc-sf"); or configs and lattices rebound to raise
# after their suites ran once, so that their suite modules are loaded
# ("after-run").  The process also prints which suite modules had run when
# it rebound.
REBOUND_AFTER_IMPORT = """
import json, os, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec"
                 and ran.add(os.path.basename(getattr(args[0], "co_filename",
                                                      ""))))
import desmic_kit.cli as cli
import desmic_kit
import desmic_kit.configs as cf
import desmic_kit.lattices as la
import desmic_kit.surfaces
import desmic_kit.symmetry
calls = []

def rebound(*args):
    raise ValueError("rebound")

suites = ("supersingular", "lattices")
if sys.argv[1] == "import":
    real = (cf.fibration_tables, cf.divisor_pairings,
            la.curve_span_lattice_names)
    cf.fibration_tables = lambda *a: calls.append("tables") or real[0](*a)
    cf.divisor_pairings = lambda *a: calls.append("pairings") or real[1](*a)
    la.curve_span_lattice_names = lambda: calls.append("names") or real[2]()
elif sys.argv[1] == "unloaded":
    desmic_kit.configs.pg24 = rebound
    desmic_kit.lattices.curve_span_lattice_names = rebound
elif sys.argv[1] == "unloaded-lc-sf":
    desmic_kit.symmetry.monomial_symmetry_group = rebound
    desmic_kit.surfaces.eight_squares_parts = rebound
    suites = ("identities", "symmetry")
else:
    for s in suites:
        cli.run_suite(s)
    cf.pg24 = rebound
    la.curve_span_lattice_names = rebound
early = sorted(m[:-3] for m in ran if m.startswith("suite_"))
failed = {c.id: c.details for s in suites
          for c in cli.run_suite(s).failures}
print(json.dumps([failed, calls, early]))
"""

XFAIL_PROFILE = {"ss.pairing-profile-printed": "pairing profile {0x15, "
                 "1x24, 2x3} vs printed {0x15, 1x16, 2x3, 3x8}"}
REBOUND_SS_LAT = {cid: "ValueError: rebound" for cid in (
    "ss.pg24", "ss.fibration-tables", "ss.reye-28", "ss.divisor-h",
    "ss.pairing-profile-printed", "lat.genus-match")}


@pytest.mark.parametrize("how,rebound,calls", [
    ("import", XFAIL_PROFILE, ["tables", "pairings", "names"]),
    ("unloaded", REBOUND_SS_LAT, []),
    ("unloaded-lc-sf", {"identities.eight-squares": "ValueError: rebound",
                        "symmetry.group-1152": "ValueError: rebound"}, []),
    ("after-run", REBOUND_SS_LAT, [])])
def test_rebinding_configs_and_lattices_after_importing_cli(how, rebound,
                                                            calls):
    out = _fresh_python("-c", REBOUND_AFTER_IMPORT, how)
    assert out.returncode == 0, out.stderr
    failed, seen, early = json.loads(out.stdout)
    assert failed == rebound
    assert seen == calls
    assert early == (["suite_lattices", "suite_supersingular"]
                     if how == "after-run" else [])


# Every module of the package, a new one included, must be free of assert
# statements, so that `python -O` removes no check.
ASSERT_FREE_MODULES = sorted(
    os.path.basename(path) for path in glob.glob(os.path.join(
        os.path.dirname(os.path.abspath(cli.__file__)), "*.py")))


@pytest.mark.parametrize("module", ASSERT_FREE_MODULES)
def test_module_has_no_assert_statements(module):
    path = os.path.join(os.path.dirname(os.path.abspath(cli.__file__)),
                        module)
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], "%s asserts at lines %s" % (module, lines)


def test_cli_reads_no_private_name_of_a_lazily_loaded_module():
    """Each suite module imports the library modules it reads as module
    objects (`from . import linecomplex as lc`), never cli, and reads only
    their public names."""
    package = os.path.dirname(os.path.abspath(cli.__file__))
    paths = sorted(glob.glob(os.path.join(package, "suite_*.py")))
    assert [os.path.basename(p)[:-3] for p in paths] == sorted(
        map(suite_module_name, cli.SUITES))
    private = []
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1]
        modules = {node.module or a.name for node in imports
                   for a in node.names}
        assert modules and "cli" not in modules, path
        aliases = {a.asname or a.name for node in imports
                   if node.module is None for a in node.names}
        private += ["%s: %s.%s at line %d" % (os.path.basename(path),
                                              node.value.id, node.attr,
                                              node.lineno)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases
                    and node.attr.startswith("_")]
        private += ["%s: imports %s.%s" % (os.path.basename(path),
                                           node.module, a.name)
                    for node in imports if node.module is not None
                    for a in node.names if a.name.startswith("_")]
    assert private == []


# Functions and methods of the package that the verifier never runs but
# that are kept as library API, each with its reason.
KEPT_API = {
    "scalars.QI.inverse": "the Q(i) inverse behind 1/x and negative powers; "
                          "a run reaches it only through __rtruediv__ and "
                          "__pow__, which it does not call",
}

# Python calls dunder methods implicitly (operators, hashing, repr, pickle),
# so a run that never happens to need one does not make it dead code.
DUNDER = re.compile(r"__\w+__")


def src_definitions(package):
    """The top-level functions and the methods of top-level classes of the
    package, as qualified name -> (path, first line, name): the key of the
    code object that a call runs, whose first line is the first decorator's
    when there is one."""
    defs = {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                subs = [(node.name + "." + sub.name, sub) for sub in node.body
                        if isinstance(sub, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                subs = [(node.name, node)]
            else:
                continue
            for qual, fn in subs:
                first = min([d.lineno for d in fn.decorator_list]
                            + [fn.lineno])
                defs[module + "." + qual] = (path, first, fn.name)
    return defs


def never_ran(defs, ran):
    """The definitions whose code key is not in `ran`, dunder methods
    excepted."""
    return sorted(q for q, key in defs.items()
                  if key not in ran and not DUNDER.fullmatch(key[2]))


# Runs `desmic-kit --suite all --json -` and the line-complex suite at two
# primes (only --prime runs cli.scan_prime) under sys.setprofile, and prints
# the code key of every function of the package that ran.
EXECUTED_FUNCTIONS = """
import contextlib, io, json, os, sys
package = sys.argv[1]
ran = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(package):
            ran.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(profile)
import desmic_kit.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["--suite", "all", "--json", "-"])
    cli.main(["--suite", "line-complex", "--prime", "29", "--prime", "37"])
sys.setprofile(None)
print(json.dumps(sorted(ran)))
"""


def test_never_ran_reports_a_planted_function_and_passes_a_dunder():
    defs = {"m.f": ("m.py", 3, "f"), "m.C.__repr__": ("m.py", 9, "__repr__"),
            "m.C.g": ("m.py", 12, "g"), "m.h": ("m.py", 20, "h")}
    ran = {("m.py", 12, "g"), ("m.py", 20, "h")}
    assert never_ran(defs, ran) == ["m.f"]
    assert never_ran(defs, ran | {("m.py", 3, "f")}) == []


def test_every_src_definition_is_reached_from_cli():
    """Every top-level function and method of the package runs in
    `desmic-kit --suite all` or `--suite line-complex --prime 29 --prime
    37`, unless it is a dunder method or KEPT_API keeps it."""
    package = os.path.dirname(os.path.abspath(cli.__file__))
    out = _fresh_python("-c", EXECUTED_FUNCTIONS, package + os.sep)
    assert out.returncode == 0, out.stderr
    ran = {tuple(key) for key in json.loads(out.stdout)}
    unrun = never_ran(src_definitions(package), ran)
    assert all(not DUNDER.fullmatch(q.rsplit(".", 1)[1]) for q in KEPT_API)
    assert set(KEPT_API) <= set(unrun), "KEPT_API names a definition " \
        "that runs: %s" % sorted(set(KEPT_API) - set(unrun))
    extra = [q for q in unrun if q not in KEPT_API]
    assert extra == [], "%d definitions that the verifier never runs: %s" % (
        len(extra), ", ".join(extra))
