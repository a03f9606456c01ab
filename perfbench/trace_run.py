"""The traced run: per-layer metrics from one in-process suite run.

`cli.run_suite(suite, cli.Options(primes=...))` runs once with the default
thread count, with spans around every public `cli.check_*` function and
around the functions in REPORTED.  Nothing under src/ is edited; the spans
are installed from here (spans.py).
"""

import glob
import importlib
import json
import os
import pkgutil
import sys
import time

import spans as sp
from workloads import (REFERENCES, SRC, WORKLOADS, data_hashes,
                       load_reference)
from scalar_loop import scalar_rates

# span name -> the aggregates reported for it.  The span name is
# "<module>.<qualname>" inside desmic_kit.  Only functions that one of the
# workloads calls are listed: the symmetry group, the Cremona projection and
# the lattice and surface checks run in none of them.
REPORTED = {
    "linecomplex.scan_singular_points": ("calls",),
    "matrices.rref": ("calls", "self_cpu_s"),
    "poly.MultiPoly.subst": ("calls", "self_cpu_s"),
    "poly.MultiPoly.__mul__": ("calls", "self_cpu_s"),
    "scan.run_scan": ("calls", "self_cpu_s"),
    "configs.CurveSystem.vector_pairing": ("calls", "self_cpu_s"),
    "configs.supersingular_42_system": ("calls",),
    "configs.ingest_curve_system": ("calls", "self_cpu_s"),
    "configs.fibration_tables": ("calls",),
    "configs.extract_desmic_28": ("self_cpu_s",),
}
ROLLUP_MODULES = ("cli",) + tuple(sorted({n.split(".")[0] for n in REPORTED}))
SCALAR_OPS = ("qi_mul", "qi_div", "mod_mul", "mod_inverse", "f4_mul")
UNITS = {"calls": "count", "self_cpu_s": "s"}


def check_ids():
    """Every check id in the reference reports, in sorted order."""
    ids = set()
    for path in glob.glob(os.path.join(REFERENCES, "*.json")):
        with open(path) as fh:
            ids.update(c["id"] for c in json.load(fh)["checks"])
    return sorted(ids)


def layer_metrics():
    """(name, unit) of every per-layer metric, in the order reported.  A
    metric the run does not reach (a check outside its suite, a function
    it never calls or that no longer exists) reads 0."""
    metrics = [("cli.check.%s.s" % c, "s") for c in check_ids()]
    metrics += [("cli.wait_s", "s"), ("cli.threads_used", "count")]
    metrics += [("%s.%s" % (n, agg), UNITS[agg])
                for n, aggs in REPORTED.items() for agg in aggs]
    metrics += [("%s.self_cpu_s" % m, "s") for m in ROLLUP_MODULES]
    metrics += [("scan.points_per_s", "1/s")]
    metrics += [("scalars.%s_per_s" % op, "1/s") for op in SCALAR_OPS]
    metrics += [("trace.wall_s", "s"), ("trace.overhead_frac", "frac")]
    return metrics


def import_package():
    """Import desmic_kit from src/ with all of its modules, so that every
    binding of a traced function exists before spans are installed."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("desmic_kit")
    for info in pkgutil.iter_modules(pkg.__path__):
        try:
            importlib.import_module("desmic_kit." + info.name)
        except ImportError:  # e.g. the compiled scan kernel is not built
            pass
    return importlib.import_module("desmic_kit.cli")


def projective_points(p):
    """|P^5(F_p)| = (p^6 - 1) / (p - 1)."""
    return (p ** 6 - 1) // (p - 1)


def write_spans(path, spans):
    """One JSON list per line, fields in the order of spans.ID..ARG0."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def run_traced(workload, primes, seed, spans_path):
    suite, want_exit = WORKLOADS[workload]
    ref, _ = load_reference(workload, primes)
    cli = import_package()
    scalars = importlib.import_module("desmic_kit.scalars")
    rates, loop_info = scalar_rates(scalars, seed)
    span_cost_s = sp.span_cost()

    tracer = sp.Tracer("desmic_kit")
    checks = sorted(n for n, v in vars(cli).items()
                    if n.startswith("check_") and callable(v))
    tracer.install(["cli:" + n for n in checks]
                   + [n.replace(".", ":", 1) for n in REPORTED],
                   keep_arg0=("scan:run_scan",))
    hashes = data_hashes()
    try:
        t0 = time.perf_counter()
        report = cli.run_suite(suite, cli.Options(primes=primes))
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    exit_code = 0 if report.ok else 1
    same = report.to_json().encode() == ref and exit_code == want_exit
    data_ok = data_hashes() == hashes
    attempted = len(report.checks)
    failed = 0 if same and data_ok else attempted

    spans = tracer.spans
    write_spans(spans_path, spans)
    by_name, by_module = sp.aggregate(spans)
    elapsed = {c.id: c.elapsed for c in report.checks}
    values = {"cli.check.%s.s" % cid: t for cid, t in elapsed.items()}
    # a check's own thread CPU is that of its top-level cli.check_* span
    top_cpu = sum(s[sp.CPU] for s in spans if s[sp.PARENT] is None)
    values["cli.wait_s"] = sum(elapsed.values()) - top_cpu
    values["cli.threads_used"] = len({s[sp.THREAD] for s in spans})
    for name, row in by_name.items():
        for agg in REPORTED.get(name, ()):
            values["%s.%s" % (name, agg)] = row[agg]
    for module, cpu in by_module.items():
        values["%s.self_cpu_s" % module] = cpu
    scan_points = sum(projective_points(s[sp.ARG0]) for s in spans
                      if s[sp.NAME] == "scan.run_scan")
    if scan_points:
        values["scan.points_per_s"] = (
            scan_points / by_name["scan.run_scan"]["self_cpu_s"])
    for op, rate in rates.items():
        values["scalars.%s_per_s" % op] = rate
    overhead = len(spans) * span_cost_s
    values["trace.wall_s"] = wall
    values["trace.overhead_frac"] = overhead / max(wall - overhead, 1e-9)
    metrics = {n: (values.get(n, 0), unit) for n, unit in layer_metrics()}

    sidecar = {
        "identical": same, "exit": exit_code, "data_unchanged": data_ok,
        "absent": tracer.absent, "spans": len(spans),
        "span_cost_s": span_cost_s, "scalar_loop": loop_info,
        "computed": {
            "scan.points_per_s": "sum over run_scan calls of "
                                 "(p^6-1)/(p-1), divided by its self CPU",
            "trace.overhead_frac": "spans x calibrated span cost, divided "
                                   "by traced wall time minus that"},
        "by_name": by_name, "by_module": by_module,
    }
    return failed == 0, attempted, failed, metrics, sidecar
