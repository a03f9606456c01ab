"""Tests for the batch verification driver."""

import ast
import json
import os
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


def test_cremona_projection_runs_once_per_suite(monkeypatch):
    calls = []
    real = cli.lc.project_to_quartic_threefold

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli.lc, "project_to_quartic_threefold", counted)
    assert cli.run_suite("cremona").ok
    assert len(calls) == 1


def test_cremona_projection_failure_is_not_cached(monkeypatch):
    calls = []

    def broken():
        calls.append(1)
        raise ValueError("projection broke")

    monkeypatch.setattr(cli.lc, "project_to_quartic_threefold", broken)
    failed = {c.id: c.details for c in cli.run_suite("cremona").failures}
    want = "ValueError: projection broke"
    assert failed == {"cremona.rewrite": want, "cremona.nodes-17": want,
                      "cremona.singular-lines": want}
    assert len(calls) == 3


def test_lattice_suite_passes():
    rep = cli.run_suite("lattices")
    assert rep.ok and len(rep.checks) == 5


def test_missing_data_file_fails_cleanly(tmp_path):
    rep = cli.run_suite("lattices", cli.Options(data_dir=str(tmp_path)))
    by_id = {c.id: c for c in rep.checks}
    assert by_id["lat.span-28"].status == "fail"
    assert "data file missing" in by_id["lat.span-28"].details


def test_supersingular_data_file_is_generated_and_cached(tmp_path):
    path = tmp_path / "supersingular-42.json"
    assert not path.exists()
    cs = cf.supersingular_42_system(str(tmp_path))
    assert path.exists() and len(cs.ids) == 42
    first = path.read_bytes()
    cs2 = cf.supersingular_42_system(str(tmp_path))
    assert path.read_bytes() == first
    assert cs2.ids == cs.ids and cs2.gram == cs.gram


def test_supersingular_data_file_matches_checked_in_copy(tmp_path):
    cf.supersingular_42_system(str(tmp_path))
    generated = (tmp_path / "supersingular-42.json").read_bytes()
    with open(cf.data_path("supersingular-42.json"), "rb") as fh:
        assert generated == fh.read()
    assert [p.name for p in tmp_path.iterdir()] == ["supersingular-42.json"]
    assert (tmp_path / "supersingular-42.json").stat().st_mode & 0o777 == 0o644


def test_supersingular_data_file_write_is_atomic(tmp_path, monkeypatch):
    def broken_dump(obj, fh, **kwargs):
        fh.write('{"curves": [')
        raise OSError("disk full")

    monkeypatch.setattr(cf.json, "dump", broken_dump)
    with pytest.raises(OSError, match="disk full"):
        cf.supersingular_42_system(str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_missing_data_dir_fails_each_supersingular_check(tmp_path):
    opt = cli.Options(data_dir=str(tmp_path / "no" / "such" / "dir"))
    first = cli.run_suite("supersingular", opt)
    assert cli.run_suite("supersingular", opt).to_json() == first.to_json()
    failed = {c.id: c.details for c in first.failures}
    want = "data file missing: [Errno 2] no such data directory: '%s'" \
        % cf.data_path("supersingular-42.json", opt.data_dir)
    assert failed == {"ss.fibration-tables": want, "ss.divisor-h": want,
                      "ss.pairing-profile-printed": want}
    assert list(tmp_path.iterdir()) == []


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
import desmic_kit.surfaces as sf
from desmic_kit.configs import CurveSystem
from desmic_kit.lattices import FiniteQuadForm, Lattice, _coords_in_basis
from desmic_kit.poly import PolyRing, PowerSeriesTrunc
from desmic_kit.projgeom import LineP3, ProjPoint
from desmic_kit.scalars import Mod, QI
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

def desmic_28_not_reye():
    cf.config_isomorphic = lambda cfg, other: None
    cf.extract_desmic_28()

u, v, t = PolyRing(list("uvt")).gens()
a3_series = PowerSeriesTrunc.from_poly(u * v + t ** 3)
edge = LineP3(ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 0, 0]))
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
             lambda: FiniteQuadForm([2], [Fraction(1, 3)],
                                    [[Fraction(1, 7)]]),
             lambda: patched(sf, "_factor_binary_quadratic",
                             lambda a, b, c, one: ((one, one * 0),
                                                   (one, one)),
                             lambda: sf.rdp_an_type(a3_series)),
             lambda: patched(sf, "contains_line", lambda f, line: True,
                             lambda: sf.residual_conic_tangency(line=edge)),
             lambda: sf.projected_24_points_quartic_rank((1, 2, 3, 4, 5)),
             lambda: patched(lc, "plucker_plane_list",
                             lambda one: printed_planes[:23]
                             + printed_planes[:1], lc.klein_plane_labels),
             lambda: patched(lc, "klein_plane_list",
                             lambda: klein_planes[:23] + klein_planes[:1],
                             lc.klein_plane_labels),
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
             lambda: cf.plane_node_config(3),
             lambda: patched(cf, "COSET_SUBGROUP_GENERATORS",
                             [[(2, 1, 3, 4)]], cf.coset_config)):
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
                    "generator 0: b(g, g) = 1/7 is not q(g) = 1/3 modulo 1",
                    "quadratic terms [(1, 1, 0), (2, 0, 0)], not u*v alone",
                    "does not vanish on the line LineP3([Fraction(1, 1), "
                    "Fraction(0, 1)",
                    "center ProjPoint([Fraction(1, 1), Fraction(2, 1), "
                    "Fraction(3, 1), Fraction(4, 1), Fraction(5, 1)]) has 4 "
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
                    "neither side"]


def test_validation_survives_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                         env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == "debug False"
    assert len(lines) == 1 + len(OPTIMIZED_ERRORS), lines
    for line, want in zip(lines[1:], OPTIMIZED_ERRORS):
        assert line.startswith("ValueError ") and want in line, (line, want)


# Modules free of assert statements, so that `python -O` removes no check
# from them.  Later modules are added to this list, never removed from it.
ASSERT_FREE_MODULES = ("cli.py", "scan.py", "surfaces.py", "linecomplex.py")


@pytest.mark.parametrize("module", ASSERT_FREE_MODULES)
def test_module_has_no_assert_statements(module):
    path = os.path.join(os.path.dirname(os.path.abspath(cli.__file__)),
                        module)
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], "%s asserts at lines %s" % (module, lines)
