"""Batch verification driver.

Runs the named check suites with fixed inputs, prints a human-readable
summary and optionally a machine-readable JSON report.  Reports are
deterministic: given the same suite, options and data files the JSON
output is byte-identical across runs (wall-clock times are kept on the
in-memory objects but never serialized).

This module is the runner alone.  The checks of suite `name` live in the
module `suite_<name>` (dashes become underscores), which a run imports when
it reaches that suite, so a process compiles only the checks it runs and
the library modules they import.  A suite module's `rows(options)` returns
its (id, anchor, check, *args) rows in run order; a check returns
(verdict, details), where the verdict is True for pass, False for fail, or
"evidence-only".  A value that several checks of a suite read is a cached
thunk made in `rows`: it is computed at most once per run, and a failure
is not cached, so each check that reads a failed value reports it.
"""

import argparse
import contextlib
import importlib
import json
import sys
import time

from .scalars import is_prime

SUITES = ("identities", "desmic-surface", "line-complex", "symmetry",
          "cremona", "char2", "supersingular", "lattices")

DEFAULT_PRIMES = (13, 17)


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


def is_scan_prime(p):
    """Whether p is a prime p = 1 (mod 4), so that F_p has the square root
    of -1 that the scan checks need."""
    return isinstance(p, int) and p % 4 == 1 and is_prime(p)


class Options:
    """The scan primes, each a distinct prime p = 1 (mod 4) (a bad one
    raises ValueError naming it), and the lattices suite's data
    directory."""

    def __init__(self, primes=DEFAULT_PRIMES, data_dir=None):
        primes = tuple(primes)
        if not primes:
            raise ValueError("no scan prime given: %r" % (primes,))
        for k, p in enumerate(primes):
            if not is_scan_prime(p):
                raise ValueError("%r is not a prime p = 1 (mod 4)" % (p,))
            if p in primes[:k]:
                raise ValueError("prime %d given twice" % p)
        self.primes = primes
        self.data_dir = data_dir


def _run_one(check_id, anchor, check, *args):
    t0 = time.monotonic()
    try:
        verdict, details = check(*args)
        status = verdict if isinstance(verdict, str) else (
            "pass" if verdict else "fail")
    except FileNotFoundError as e:
        status, details = "fail", "data file missing: %s" % e
    except Exception as e:  # a crashed check is a failed check
        status, details = "fail", "%s: %s" % (type(e).__name__, e)
    return Check(check_id, anchor, status, details,
                 elapsed=time.monotonic() - t0)


def _suite_module(name):
    """The module that holds the checks of suite `name`, imported (and so
    compiled and executed) on its first use."""
    return importlib.import_module(
        "%s.suite_%s" % (__package__, name.replace("-", "_")))


def run_suite(name, options=None):
    """Run one suite (or "all", each suite in SUITES order) and return its
    VerificationReport.  The checks run one after another in row order:
    each is CPU-bound Python, so threads would only add switching under
    the interpreter lock."""
    if name != "all" and name not in SUITES:
        raise ValueError("unknown suite %r" % name)
    opt = options or Options()
    names = SUITES if name == "all" else (name,)
    checks = [_run_one(*row) for s in names
              for row in _suite_module(s).rows(opt)]
    return VerificationReport(name, checks, opt)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def scan_prime(text):
    """argparse type of --prime: a prime p = 1 (mod 4)."""
    try:
        p = int(text)
    except ValueError:
        p = 0
    if not is_scan_prime(p):
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
    try:
        opt = Options(primes=args.prime or DEFAULT_PRIMES,
                      data_dir=args.data_dir)
    except ValueError as e:  # a repeated prime
        parser.error(str(e))
    # the report file is opened before any check runs, so that a path
    # that cannot be written is a usage error, not a failed run
    out = None
    if args.json and args.json != "-":
        try:
            out = open(args.json, "w")
        except OSError as e:
            parser.error("cannot write the JSON report to %s: %s"
                         % (args.json, e.strerror))
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
