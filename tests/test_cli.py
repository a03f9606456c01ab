"""Tests for the batch verification driver."""

import ast
import glob
import json
import os
import re
import subprocess
import sys

import pytest

import desmic_kit.cli as cli
import desmic_kit.configs as cf


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
    "pencil": ("desmic-surface", cli.sf, "desmic_pencil_symbolic", 1,
               ("desmic.nodes-12", "desmic.lines-16",
                "desmic.tangency-computed", "desmic.tangency-printed")),
    "tangency": ("desmic-surface", cli.sf, "residual_conic_tangency", 1,
                 ("desmic.tangency-computed", "desmic.tangency-printed")),
    "scan": ("line-complex", cli.lc, "scan_singular_points", 4,
             SCAN_CHECKS),
    "projection": ("cremona", cli.lc, "project_to_quartic_threefold", 1,
                   ("cremona.rewrite", "cremona.nodes-17",
                    "cremona.singular-lines")),
    "42-curve-tables": ("supersingular", cli.cf, "supersingular_42_system", 1,
                        ("ss.fibration-tables", "ss.divisor-h",
                         "ss.pairing-profile-printed")),
}
# the "all" case breaks every input but the pencil: the tangency is
# computed from the pencil, so a broken pencil would hide it
ALL_BROKEN = ("tangency", "scan", "projection", "42-curve-tables")


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


def test_cremona_projection_runs_once_per_suite(monkeypatch):
    _assert_computed_once_per_run(monkeypatch, "projection")


def test_cremona_projection_failure_is_not_cached(monkeypatch):
    _assert_failure_is_not_cached(monkeypatch, "projection")


@pytest.mark.parametrize("case", [n for n in SHARED_INPUTS
                                  if n != "projection"] + ["all"])
def test_shared_input_computed_once_per_run(monkeypatch, case):
    _assert_computed_once_per_run(monkeypatch, case)


@pytest.mark.parametrize("case", [n for n in SHARED_INPUTS
                                  if n != "projection"] + ["all"])
def test_shared_input_failure_is_not_cached(monkeypatch, case):
    _assert_failure_is_not_cached(monkeypatch, case)


def test_rebound_check_function_is_the_one_that_runs(monkeypatch):
    monkeypatch.setattr(cli, "check_steinerian",
                        lambda char: ("fail", "rebound in char %d" % char))
    failed = {c.id: c.details for c in cli.run_suite("identities").failures}
    assert failed == {"identities.steinerian-char0": "rebound in char 0",
                      "identities.steinerian-char2": "rebound in char 2"}


def test_lattice_suite_passes():
    rep = cli.run_suite("lattices")
    assert rep.ok and len(rep.checks) == 5


def test_missing_data_file_fails_cleanly(tmp_path):
    rep = cli.run_suite("lattices", cli.Options(data_dir=str(tmp_path)))
    by_id = {c.id: c for c in rep.checks}
    assert by_id["lat.span-28"].status == "fail"
    assert "data file missing" in by_id["lat.span-28"].details


def test_supersingular_data_file_matches_checked_in_copy():
    cs = cf.supersingular_42_system()
    built, _ = cf.fibration_tables()
    assert cs.ids == built.ids and cs.gram == built.gram
    assert cs.fibrations == built.fibrations
    assert cs.divisors == built.divisors


def test_missing_data_dir_fails_each_supersingular_check(tmp_path):
    # a missing directory and an empty one fail alike, and nothing is
    # written to either
    (tmp_path / "empty").mkdir()
    for data_dir in (tmp_path / "no" / "such" / "dir", tmp_path / "empty"):
        opt = cli.Options(data_dir=str(data_dir))
        first = cli.run_suite("supersingular", opt)
        assert cli.run_suite("supersingular", opt).to_json() \
            == first.to_json()
        failed = {c.id: c.details for c in first.failures}
        want = "data file missing: [Errno 2] No such file or directory: " \
            "'%s'" % cf.data_path("supersingular-42.json", opt.data_dir)
        assert failed == {"ss.fibration-tables": want, "ss.divisor-h": want,
                          "ss.pairing-profile-printed": want}
    assert [p.name for p in tmp_path.iterdir()] == ["empty"]
    assert list((tmp_path / "empty").iterdir()) == []


def test_supersingular_suite_statuses():
    rep = cli.run_suite("supersingular")
    by_id = {c.id: c for c in rep.checks}
    assert by_id["ss.pairing-profile-printed"].status == "fail"
    for cid in ("ss.pg24", "ss.duad-table", "ss.fibration-tables",
                "ss.reye-28", "ss.divisor-h"):
        assert by_id[cid].status == "pass"


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


def test_main_accepts_primes_one_mod_four(capsys):
    assert cli.main(["--suite", "identities", "--prime", "5",
                     "--prime", "29", "--json", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["primes"] == [5, 29]


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
    lc._element_preserves = lambda el, form: False
    lc.monomial_symmetry_group()

plucker = lc.CompleteIntersection35.plucker()
a, b, c, d, e = PolyRing(list("abcde")).gens()
f2 = Mod(1, 2)
klein_f2 = lc.CompleteIntersection35.klein(i=f2, one=f2)

def artin_with_failing_embedding(sigma):
    la._embedding_check = lambda *a: (False, "Gram not preserved at (0, 0)")
    la.artin2_check(sigma)

def relabeled_42(a, b, value):
    cs, _ = cf.label_42_curves()
    gram = [row[:] for row in cs.gram]
    i, j = cs.index[a], cs.index[b]
    gram[i][j] = gram[j][i] = value
    return CurveSystem(cs.ids, gram)

collinear_arc = cf.SIX_ARC[:3] + ((F4(1), F4(1), F4(0)),) + cf.SIX_ARC[4:]

def desmic_28_not_reye():
    cf.config_isomorphic = lambda cfg, other: None
    cf.extract_desmic_28()

u, v, t = PolyRing(list("uvt")).gens()
a3_series = u * v + t ** 3
edge = LineP3([1, 0, 0, 0], [0, 1, 0, 0])
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
             lambda: lc.ci_node_report(klein_f2, (1, 1, 0, 0, 0, 0)),
             lambda: lc.NodeInventory([], [None] * 16, [], []),
             lambda: lc.PlaneInP5([[int(j == k) for j in range(5)]
                                   for k in range(3)], Fraction(1)),
             lambda: artin_with_failing_embedding(1),
             lambda: artin_with_failing_embedding(2),
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
             lambda: patched(sf, "contains_line", lambda f, line: True,
                             lambda: sf.residual_conic_tangency(line=edge)),
             lambda: claims.projected_24_points_quartic_rank(
                 (1, 2, 3, 4, 5)),
             lambda: patched(lc, "plucker_plane_list",
                             lambda one: printed_planes[:23]
                             + printed_planes[:1], claims.klein_plane_labels),
             lambda: patched(lc, "klein_plane_list",
                             lambda: klein_planes[:23] + klein_planes[:1],
                             claims.klein_plane_labels),
             lambda: lc._line_on_and_singular(lc.Form(lc.projected_quartic()),
                                              [[1, 0, 0, 0, 0]]),
             lambda: patched(lc, "RATIONALITY_PLANES",
                             [((0, 1, 0, 0, 0),)],
                             lc.rationality_planes_check),
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
                                 "D4", [[Fraction(1, 2)] * 4]))):
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
                    "Mod(1, 2), Mod(0, 2)", "0 + 16 singular points",
                    "[[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]] cut "
                    "a space of dimension 1", "sigma 1 witness embedding "
                    "fails: Gram not preserved at (0, 0)", "sigma 2 witness "
                    "embedding fails: Gram not preserved at (0, 0)",
                    "table 1: central 12 misses leaf 2",
                    "table 1: leaves 12.35.46, 2 of central 12 meet",
                    "28-curve configuration is not Reye",
                    "the 6-arc points ((F4(1), F4(0), F4(0)), (F4(0), "
                    "F4(1), F4(0)), (F4(1), F4(1), F4(0))) are collinear",
                    "generator 0: b(g, g) = 1/7 is not q(g) = 1/3 modulo 1",
                    "quadratic terms [(1, 1, 0), (2, 0, 0)], not u*v alone",
                    "does not vanish on the line LineP3([Fraction(1, 1), "
                    "Fraction(0, 1)",
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


def _fresh_python(*args):
    """Run a new interpreter with this package's src/ and the tests'
    shared modules on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ,
                                   PYTHONPATH=os.pathsep.join((src, here))),
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
# it; given "table", it only builds the check table.
EXECUTED_MODULES = """
import json, os, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec"
                 and ran.add(getattr(args[0], "co_filename", "")))
import desmic_kit.cli as cli
if sys.argv[1] == "table":
    cli._check_table(cli.Options())
    ok = None
else:
    ok = cli.run_suite(sys.argv[1]).ok
package = os.path.dirname(cli.__file__)
print(json.dumps([ok, sorted(os.path.basename(f)[:-3] for f in ran
                             if os.path.dirname(f) == package)]))
"""

# what every run executes: cli and the modules it imports eagerly
EAGER_MODULES = {"__init__", "cli", "scalars", "poly", "matrices", "projgeom"}
# suite -> (report ok, the modules it executes beyond EAGER_MODULES)
SUITE_MODULES = {
    "identities": (True, {"forms", "surfaces"}),
    "desmic-surface": (False, {"forms", "surfaces", "configs"}),
    "line-complex": (True, {"forms", "linecomplex", "scan"}),
    "symmetry": (True, {"forms", "linecomplex"}),
    "cremona": (True, {"forms", "linecomplex", "surfaces"}),
    "char2": (True, {"forms", "surfaces"}),
    "supersingular": (False, {"configs", "lattices"}),
    "lattices": (True, {"configs", "lattices"}),
}


@pytest.mark.parametrize("suite", cli.SUITES)
def test_suite_executes_only_its_modules(suite):
    out = _fresh_python("-c", EXECUTED_MODULES, suite)
    assert out.returncode == 0, out.stderr
    report_ok, ran = json.loads(out.stdout)
    ok, extra = SUITE_MODULES[suite]
    assert report_ok == ok
    assert set(ran) == EAGER_MODULES | extra


def test_check_table_executes_no_lazily_loaded_module():
    out = _fresh_python("-c", EXECUTED_MODULES, "table")
    assert out.returncode == 0, out.stderr
    assert set(json.loads(out.stdout)[1]) == EAGER_MODULES


# The two commands that the benchmark runs, each with its reference report
# in perfbench/references/: a mistake in loading modules on first use that
# shows only under `python -m` fails here.
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


# A run after lazily loaded modules were rebound in a fresh process that
# imported cli: either configs and lattices once they have run ("import"),
# or modules that have not run yet, reached through cli and through the
# package, whose first use keeps the binding: configs and lattices
# ("unloaded"), or linecomplex and surfaces ("unloaded-lc-sf").  The
# process also prints which of the four modules had run when it rebound.
REBOUND_AFTER_IMPORT = """
import json, os, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec"
                 and ran.add(os.path.basename(getattr(args[0], "co_filename",
                                                      ""))))
import desmic_kit
import desmic_kit.cli as cli
calls = []

def rebound(*args):
    raise ValueError("rebound")

suites = ("supersingular", "lattices")
if sys.argv[1] == "import":
    import desmic_kit.configs as cf
    import desmic_kit.lattices as la
    real_cf, real_la = cf.supersingular_42_system, la.divisor_pairings
    cf.supersingular_42_system = lambda *a: calls.append("cf") or real_cf(*a)
    la.divisor_pairings = lambda *a: calls.append("la") or real_la(*a)
elif sys.argv[1] == "unloaded":
    cli.cf.pg24 = rebound
    desmic_kit.lattices.curve_span_lattice_names = rebound
else:
    cli.lc.monomial_symmetry_group = rebound
    cli.sf.eight_squares_parts = rebound
    suites = ("identities", "symmetry")
early = sorted(m[:-3] for m in ("configs.py", "lattices.py",
                                "linecomplex.py", "surfaces.py") if m in ran)
failed = {c.id: c.details for s in suites
          for c in cli.run_suite(s).failures}
print(json.dumps([failed, calls, early]))
"""

XFAIL_PROFILE = {"ss.pairing-profile-printed": "pairing profile {0x15, "
                 "1x24, 2x3} vs printed {0x15, 1x16, 2x3, 3x8}"}


@pytest.mark.parametrize("how,rebound,calls", [
    ("import", XFAIL_PROFILE, ["cf", "la", "la"]),
    ("unloaded", dict(XFAIL_PROFILE, **{
        "ss.pg24": "ValueError: rebound",
        "lat.genus-match": "ValueError: rebound"}), []),
    ("unloaded-lc-sf", {"identities.eight-squares": "ValueError: rebound",
                        "symmetry.group-1152": "ValueError: rebound"}, [])])
def test_rebinding_configs_and_lattices_after_importing_cli(how, rebound,
                                                            calls):
    out = _fresh_python("-c", REBOUND_AFTER_IMPORT, how)
    assert out.returncode == 0, out.stderr
    failed, seen, early = json.loads(out.stdout)
    assert failed == rebound
    assert seen == calls
    assert early == (["configs", "lattices"] if how == "import" else [])


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
