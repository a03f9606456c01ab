"""Batch verification driver.

Runs the named check suites with fixed inputs, prints a human-readable
summary and optionally a machine-readable JSON report.  Reports are
deterministic: given the same suite, options and data files the JSON
output is byte-identical across runs (wall-clock times are kept on the
in-memory objects but never serialized).
"""

import argparse
import contextlib
import functools
import importlib.util
from itertools import combinations
import json
import sys
import time

from .projgeom import normalize
from .scalars import QI, is_prime, sqrt_minus_one

SUITES = ("identities", "desmic-surface", "line-complex", "symmetry",
          "cremona", "char2", "supersingular", "lattices")

DEFAULT_PRIMES = (13, 17)


def _on_first_use(name):
    """The submodule `name` of this package, executed when one of its
    attributes is first read (the lazy-import recipe of `importlib.util`).
    An import compiles a module (where no bytecode is cached) and runs it;
    a suite that reads none of its attributes pays for neither."""
    fullname = "%s.%s" % (__package__, name)
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return module


# A suite executes only the modules its checks read: surfaces for
# identities, desmic-surface and char2, linecomplex for line-complex,
# symmetry and cremona, symmetry and cremona for their own suites alone,
# configs for desmic-surface, supersingular and lattices, and lattices for
# the last one.  Both surfaces and linecomplex import forms, whose
# node_check desmic-surface and cremona read.
fm = _on_first_use("forms")
sf = _on_first_use("surfaces")
lc = _on_first_use("linecomplex")
sy = _on_first_use("symmetry")
cr = _on_first_use("cremona")
cf = _on_first_use("configs")
la = _on_first_use("lattices")


class Check:
    """One verification step: id, human anchor, outcome, details."""

    def __init__(self, check_id, anchor, status, details, elapsed=0.0):
        if status not in ("pass", "fail", "evidence-only", "skipped"):
            raise ValueError("check %r: unknown status %r" % (check_id, status))
        self.id = check_id
        self.anchor = anchor
        self.status = status
        self.details = details
        self.elapsed = elapsed  # in-memory only, never serialized

    def as_dict(self):
        return {"id": self.id, "anchor": self.anchor,
                "status": self.status, "details": self.details}


class VerificationReport:
    """All checks of one suite, merged in a deterministic order."""

    def __init__(self, suite, checks, options):
        ids = [c.id for c in checks]
        dups = sorted({i for i in ids if ids.count(i) > 1})
        if dups:
            raise ValueError("duplicate check ids: %s" % ", ".join(dups))
        self.suite = suite
        self.checks = sorted(checks, key=lambda c: c.id)
        self.options = options

    @property
    def failures(self):
        return [c for c in self.checks if c.status == "fail"]

    @property
    def ok(self):
        return not self.failures

    def as_dict(self):
        return {"schema": 1,
                "suite": self.suite,
                "primes": list(self.options.primes),
                "checks": [c.as_dict() for c in self.checks],
                "failed": len(self.failures),
                "ok": self.ok}

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


class Options:
    def __init__(self, primes=DEFAULT_PRIMES, data_dir=None):
        self.primes = tuple(primes) if primes else DEFAULT_PRIMES
        self.data_dir = data_dir


# ---------------------------------------------------------------------------
# individual checks; each returns (status, details)
# ---------------------------------------------------------------------------

def _ok(cond, details):
    return ("pass" if cond else "fail"), details


def check_desmic_identity():
    lhs, rhs = sf.desmic_identity_parts()
    return _ok(lhs == rhs, "product-of-tetrahedra identity holds exactly")


def check_eight_squares():
    lhs, rhs = sf.eight_squares_parts()
    return _ok(lhs == rhs, "eight-squares identity holds exactly")


def check_steinerian(char):
    lhs, rhs = sf.steinerian_identity_parts(char)
    return _ok(lhs == rhs,
               "f^2 - f_x f_y f_z = G w^2 in characteristic %d" % char)


def check_desmic_nodes(pencil):
    f = pencil()
    good = sum(1 for p in sf.DESMIC_SINGULAR_12 if fm.node_check(f, p))
    return _ok(good == 12, "%d/12 points are ordinary nodes of the "
               "generic pencil member" % good)


def check_desmic_lines(pencil):
    f = pencil()
    lines = sf.desmic_lines_16()
    distinct = len(set(l.plucker for l in lines))
    good = sum(1 for l in lines if sf.contains_line(f, l))
    return _ok(distinct == 16 and good == 16,
               "%d distinct base-locus lines, %d contained" % (distinct, good))


def check_desmic_reye():
    desmic = cf.desmic_surface_config(sf.DESMIC_SINGULAR_12,
                                      sf.desmic_lines_16())
    iso = cf.config_isomorphic(desmic, cf.reye_config())
    return _ok(iso is not None,
               "node/line incidence is a (12_4, 16_3) Reye configuration")


def check_tangency_computed(tangency):
    from .poly import proportional_polys
    condition, conic, big = tangency()
    ring = condition.ring
    a, b, u, v = ring.gens()
    two = ring.const(2)
    computed_ok = proportional_polys(
        condition, (a + two * b) * u + (two * a + b) * v)[0]
    si, ti, ri = (big.varnames.index(n) for n in ("s", "t", "r"))
    degs = {e[si] + e[ti] + e[ri] for e in conic.coeffs}
    return _ok(computed_ok and degs == {2},
               "tangency condition (a+2b)u + (2a+b)v = 0 confirmed by the "
               "gradient oracle; residual conic is an honest quadric")


def check_tangency_printed(tangency):
    # the printed formula, taken at face value: u(b+c) + v(a+b) with
    # c = -a-b, compared against the computed condition
    from .poly import proportional_polys
    condition, _, _ = tangency()
    ring = condition.ring
    a, b, u, v = ring.gens()
    printed = (b + (-a - b)) * u + (a + b) * v
    same = proportional_polys(condition, printed)[0]
    return _ok(same, "computed condition %s the printed formula "
               "u(b+c) + v(a+b)" % ("matches" if same else "differs from"))


def check_complex_nodes():
    sizes = [tuple(map(len, lc.verify_node_inventory(ci)))
             for ci in (lc.CompleteIntersection35.plucker(),
                        lc.CompleteIntersection35.klein())]
    return _ok(sizes == [(18, 16)] * 2, "18 + 16 = 34 listed points are "
               "ordinary nodes in both coordinate systems")


def check_complex_planes():
    per_plane, per_node1, per_node2 = lc.verify_plane_inventory(
        lc.CompleteIntersection35.plucker())
    ok = (per_plane == [(3, 4)] * 24 and per_node1 == [4] * 18
          and per_node2 == [6] * 16)
    return _ok(ok, "24 planes contained; 3+4 nodes per plane, 4 planes per "
               "first-family node, 6 per second-family node")


def check_scan(scan, p, unit_variant):
    count, pts = scan(p, unit_variant)
    want = 18 if unit_variant else 34
    label = "unit-coefficient variant" if unit_variant else "complex"
    if count == want:
        return ("evidence-only",
                "exhaustive scan of the projective quadric over F_%d finds "
                "exactly %d singular points of the %s" % (p, count, label))
    return ("fail", "scan over F_%d found %d singular points, expected %d"
            % (p, count, want))


def check_scan_matches_list(scan, p):
    i = sqrt_minus_one(p)
    printed = {tuple(c.v for c in normalize(pt))
               for pt in lc.klein_nodes_18(i) + lc.klein_nodes_16(i)}
    _, pts = scan(p, False)
    return _ok(set(pts) == printed,
               "scan output over F_%d equals the reduction of the printed "
               "node list" % p)


def check_symmetry():
    rep = sy.monomial_symmetry_group()
    ok = (rep.closed and rep.order == 1152
          and rep.node_orbit_sizes == [16, 18]
          and rep.plane_orbit_count == 1)
    return _ok(ok, "monomial symmetry group %s at order %d with node "
               "orbits %s and %d plane orbit(s)"
               % ("closes" if rep.closed else "does not close", rep.order,
                  rep.node_orbit_sizes, rep.plane_orbit_count))


def check_cremona_rewrite():
    return _ok(all(lhs == rhs for lhs, rhs in cr.projection_identity_parts()),
               "quartic-threefold rewriting and elimination identities hold "
               "exactly")


def check_cremona_nodes():
    f = fm.Form(cr.projected_quartic())
    good = sum(1 for p in cr.PROJECTED_NODES_17 if fm.node_check(f, p))
    return _ok(good == len(cr.PROJECTED_NODES_17) == 17,
               "%d listed points verified as nodes of the projected quartic"
               % good)


def check_cremona_lines():
    f = fm.Form(cr.projected_quartic())
    good = sum(1 for covs in cr.SINGULAR_LINES_4
               if cr.line_singular_on(f, covs))
    return _ok(good == len(cr.SINGULAR_LINES_4) == 4,
               "all 4 listed singular lines verified")


def check_rationality_planes():
    cr.verify_rationality_planes()  # raises naming a plane or a meet
    return ("pass", "the three planes lie on the threefold and meet pairwise "
            "in the listed points")


def check_segre():
    out = cr.segre_isomorphism_check()
    ok = out["lambda"] == QI(24) and out["nodes_mod_p"] == 35
    return _ok(ok, "sum t_i = 0 and sum t_i^3 = 24 * cubic; 35 distinct "
               "nodes over a prime field")


def check_char2_points():
    sf.verify_char2_cremona_singular_points()  # raises naming a family
    return ("pass", "13/13 singular points verified in the parametric "
            "quotient rings")


def check_char2_a3():
    F = sf.cremona_char2_specialized(0, 0, 1, 1)
    verdict = sf.rdp_an_type(sf.local_series(F, (0, 0, 0, 1)))
    return _ok(verdict == "A3", "specialization (0,0,1,1) has an A_3 point "
               "at (0,0,0,1); detector returned %s" % verdict)


def check_char2_kummer():
    form, lines, verdicts = sf.kummer_char2_quartic()
    pts = sf.kummer_char2_points()
    a3 = verdicts.count("A3")
    counts_pt = [sum(1 for l in lines if l.contains(p)) for p in pts]
    counts_ln = [sum(1 for p in pts if l.contains(p)) for l in lines]
    ok = (len(lines) == 4 and all(sf.contains_line(form, l) for l in lines)
          and a3 == 6 and counts_pt == [2] * 6 and counts_ln == [3] * 4)
    return _ok(ok, "4 lines on the surface, 6 A_3 points, (6_2, 4_3) "
               "incidence")


def check_pg24(plane):
    pg = plane()
    ok = pg.type_signature == ((21, 5), (21, 5))
    ok = ok and all(len(pg.blocks_of(p) & pg.blocks_of(q)) == 1
                    for p, q in combinations(pg.points, 2))
    return _ok(ok, "plane over the four-element field is a (21_5, 21_5) "
               "configuration with unique joins")


def check_duad_table(duads):
    sysd = duads()
    same = sysd["table"] == cf.DUAD_TABLE
    return _ok(same, "6x6 duad/syntheme table is byte-identical to the "
               "reference rendering" if same else
               "6x6 duad/syntheme table differs from the reference")


def check_fibration_tables(tables):
    cs, commons = tables()
    ok = (len(commons) == 16
          and [len(fib["fibers"]) for fib in cs.fibrations] == [5] * 3)
    return _ok(ok, "three fibration tables validate: five 4-pronged star "
               "fibers each, classes square to zero, 16 common simple "
               "components")


def check_reye_28(tables):
    cf.extract_desmic_28(tables())  # raises unless the 28 curves are Reye
    return ("pass", "28-curve sub-system carries a (12_4, 16_3) "
            "configuration isomorphic to Reye")


def check_ss_divisor(tables, h_pairings):
    _, commons = tables()
    out = h_pairings()
    pair = out["pairings"]
    centrals = {c for t in cf.FIBRATION_TABLES for c, _ in t[:4]}
    conics = {"1", "6", "16.23.45"}
    contracted = {"16", "16.24.35", "16.25.34"}
    ok = out["self"] == 4
    ok = ok and all(pair[c] == 0 for c in centrals | contracted)
    ok = ok and all(pair[c] == 1 for c in commons)
    ok = ok and all(pair[c] == 2 for c in conics)
    return _ok(ok, "H^2 = 4; H pairs 0 with centrals and contracted curves, "
               "1 with the 16 commons, 2 with the three conics")


def check_ss_profile_printed(h_pairings):
    out = h_pairings()
    profile = {}
    for v in out["pairings"].values():
        profile[v] = profile.get(v, 0) + 1
    printed = {0: 15, 1: 16, 2: 3, 3: 8}
    got = ", ".join("%dx%d" % (k, profile[k]) for k in sorted(profile))
    return _ok(profile == printed,
               "pairing profile {%s} vs printed {0x15, 1x16, 2x3, 3x8}"
               % got)


def check_genus_match():
    l1, l2 = la.curve_span_lattice_names()
    out = la.genus_match_indefinite(l1, l2)
    ok = (out["match"] and out["signatures"] == ((1, 18), (1, 18))
          and out["disc_orders"] == (16, 16))
    return _ok(ok, "the two rank-19 presentations share signature (1,18), "
               "discriminant order 16 and isometric discriminant forms")


def check_span_28(data_dir):
    rep = la.lattice_from_curves(la.kummer_char0_system(data_dir))
    ok = (rep["rank"] == 19 and rep["signature"] == (1, 18)
          and rep["disc_order"] == 16)
    return _ok(ok, "28-curve span has rank %d, signature %s, discriminant "
               "order %d" % (rep["rank"], rep["signature"],
                             rep["disc_order"]))


def check_disc_form_relations():
    u, v = la.fq_u2(), la.fq_v2()
    q1, q5 = la.fq_cyclic(1, 4), la.fq_cyclic(5, 4)
    ok = (not la.fq_isometric(u, v)
          and la.fq_isometric(u.direct_sum(u), v.direct_sum(v))
          and la.fq_isometric(q1.direct_sum(v), q5.direct_sum(u)))
    return _ok(ok, "u != v, u+u = v+v, q_1(4)+v = q_5(4)+u as finite "
               "quadratic forms")


def check_overlattice_chains():
    ch = la.d5_a3_chain()  # raises unless E8 and D8 have det 1 and 4
    # and D8 lies in E8
    ok = la.genus_match_indefinite(
        ch["E8"], la.standard_lattice("E8"))["match"]
    fq_d8, _ = la.disc_form(ch["D8"])
    ok = ok and la.fq_isometric(fq_d8, la.fq_u2())
    return _ok(ok, "glue over the rank-8 base yields unimodular and "
               "determinant-4 overlattices with the expected forms, nested "
               "as sublattices")


def check_artin_verdicts():
    r1, r2, r3 = (la.artin2_check(s) for s in (1, 2, 3))
    ok = (r1["embeddable"] and r2["embeddable"]
          and not r3["embeddable"] and r3["candidates"] > 0)
    return _ok(ok, "embeddability verdicts (yes, yes, no); the third case "
               "certified by exhaustive ternary enumeration (%d candidates, "
               "0 matching)" % r3["candidates"])


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------

def _check_table(opt):
    """{suite: [(id, anchor, check, *args)]}, built for one run, so that it
    calls the check functions bound in this module when the run starts.
    A value that two or more checks read (and none modifies) is a cached
    thunk made here: it is computed at most once per run, and an exception
    is not cached, so each check that reads a failed value reports the
    failure itself.  A thunk reads its module attribute when first called,
    so building the table loads no module."""
    pencil = functools.cache(lambda: sf.desmic_pencil_symbolic())
    tangency = functools.cache(lambda: sf.residual_conic_tangency(pencil()))
    scan = functools.cache(lambda p, unit: lc.scan_singular_points(p, unit))
    plane = functools.cache(lambda: cf.pg24())
    duads = functools.cache(lambda: cf.duad_syntheme_system())
    tables = functools.cache(lambda: cf.fibration_tables(
        cf.label_42_curves(plane(), duads())[0]))
    h_pairings = functools.cache(lambda: cf.divisor_pairings(tables()[0], "H"))
    scans = [row for p in opt.primes for row in (
        ("complex.scan-f%d" % p, "exhaustive scan over F_%d" % p,
         check_scan, scan, p, False),
        ("complex.scan-f%d-unit" % p,
         "exhaustive scan, unit variant, over F_%d" % p,
         check_scan, scan, p, True),
        ("complex.scan-f%d-match" % p,
         "scan agrees with the printed list mod %d" % p,
         check_scan_matches_list, scan, p))]
    return {
        "identities": [
            ("identities.desmic", "desmic tetrahedra product identity",
             check_desmic_identity),
            ("identities.eight-squares", "eight-squares identity",
             check_eight_squares),
            ("identities.steinerian-char0", "Steinerian identity over Z",
             check_steinerian, 0),
            ("identities.steinerian-char2", "Steinerian identity over F_2",
             check_steinerian, 2),
        ],
        "desmic-surface": [
            ("desmic.nodes-12", "twelve singular points of the pencil",
             check_desmic_nodes, pencil),
            ("desmic.lines-16", "sixteen base-locus lines",
             check_desmic_lines, pencil),
            ("desmic.reye-incidence", "node/line incidence configuration",
             check_desmic_reye),
            ("desmic.tangency-computed",
             "residual-conic tangency, gradient oracle",
             check_tangency_computed, tangency),
            ("desmic.tangency-printed",
             "residual-conic tangency, printed formula",
             check_tangency_printed, tangency),
        ],
        "line-complex": [
            ("complex.nodes-34", "34 listed nodes", check_complex_nodes),
            ("complex.planes-24", "24 planes and incidence counts",
             check_complex_planes),
        ] + scans,
        "symmetry": [
            ("symmetry.group-1152", "monomial symmetry group and orbits",
             check_symmetry),
        ],
        "cremona": [
            ("cremona.rewrite", "quartic threefold rewriting identity",
             check_cremona_rewrite),
            ("cremona.nodes-17", "seventeen nodes",
             check_cremona_nodes),
            ("cremona.singular-lines", "four singular lines",
             check_cremona_lines),
            ("cremona.rationality-planes", "three planes and intersections",
             check_rationality_planes),
            ("cremona.segre", "cubic change of variables", check_segre),
        ],
        "char2": [
            ("char2.points-13", "thirteen singular points",
             check_char2_points),
            ("char2.a3-specialization", "A_3 at the special member",
             check_char2_a3),
            ("char2.kummer-model", "four lines and six A_3 points",
             check_char2_kummer),
        ],
        "supersingular": [
            ("ss.pg24", "plane over the four-element field", check_pg24,
             plane),
            ("ss.duad-table", "duad/syntheme table", check_duad_table,
             duads),
            ("ss.fibration-tables", "three fibration tables",
             check_fibration_tables, tables),
            ("ss.reye-28", "28-curve configuration",
             check_reye_28, tables),
            ("ss.divisor-h", "polarization pairings",
             check_ss_divisor, tables, h_pairings),
            ("ss.pairing-profile-printed", "printed pairing profile",
             check_ss_profile_printed, h_pairings),
        ],
        "lattices": [
            ("lat.genus-match", "two presentations of the rank-19 lattice",
             check_genus_match),
            ("lat.span-28", "28-curve span invariants",
             check_span_28, opt.data_dir),
            ("lat.disc-forms", "finite quadratic form relations",
             check_disc_form_relations),
            ("lat.overlattice-chains", "overlattice chains",
             check_overlattice_chains),
            ("lat.artin-verdicts", "embeddability verdicts",
             check_artin_verdicts),
        ],
    }


def _run_one(check_id, anchor, check, *args):
    t0 = time.monotonic()
    try:
        status, details = check(*args)
    except FileNotFoundError as e:
        status, details = "fail", "data file missing: %s" % e
    except Exception as e:  # a crashed check is a failed check
        status, details = "fail", "%s: %s" % (type(e).__name__, e)
    return Check(check_id, anchor, status, details,
                 elapsed=time.monotonic() - t0)


def run_suite(name, options=None):
    """Run one suite (or "all") and return its VerificationReport.  The
    checks run one after another: each is CPU-bound Python, so threads
    would only add switching under the interpreter lock."""
    if name != "all" and name not in SUITES:
        raise ValueError("unknown suite %r" % name)
    opt = options or Options()
    table = _check_table(opt)
    names = SUITES if name == "all" else (name,)
    checks = [_run_one(*row) for s in names for row in table[s]]
    return VerificationReport(name, checks, opt)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def scan_prime(text):
    """argparse type of --prime: a prime p = 1 (mod 4), so that F_p has
    the square root of -1 that the scan checks need."""
    try:
        p = int(text)
    except ValueError:
        p = 0
    if p % 4 != 1 or not is_prime(p):
        raise argparse.ArgumentTypeError(
            "%r is not a prime p = 1 (mod 4)" % (text,))
    return p


def build_parser():
    ap = argparse.ArgumentParser(
        prog="desmic-kit",
        description="run exact verification suites and report the results")
    ap.add_argument("--suite", default="all",
                    choices=SUITES + ("all",))
    ap.add_argument("--prime", type=scan_prime, action="append",
                    default=None,
                    help="scan prime p = 1 (mod 4), repeatable "
                         "(default: 13 and 17)")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="write the JSON report here ('-' for stdout)")
    ap.add_argument("--data-dir", default=None,
                    help="directory with the lattices suite's curve file")
    return ap


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for k, p in enumerate(args.prime or ()):
        if p in args.prime[:k]:
            parser.error("prime %d given twice" % p)
    # the report file is opened before any check runs, so that a path
    # that cannot be written is a usage error, not a failed run
    out = None
    if args.json and args.json != "-":
        try:
            out = open(args.json, "w")
        except OSError as e:
            parser.error("cannot write the JSON report to %s: %s"
                         % (args.json, e.strerror))
    opt = Options(primes=args.prime, data_dir=args.data_dir)
    with out or contextlib.nullcontext():
        report = run_suite(args.suite, opt)
        if args.json == "-":
            sys.stdout.write(report.to_json())
        else:
            for c in report.checks:
                print("[%s] %s (%s): %s"
                      % (c.status, c.id, c.anchor, c.details))
            print("%s: %d checks, %d failed" % (
                report.suite, len(report.checks), len(report.failures)))
            if out:
                out.write(report.to_json())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
