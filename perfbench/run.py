"""Outside-in benchmark of the desmic-kit batch verifier.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload scan-primes --seed 0 \
        --seconds 50 --trace 0

With --trace 0 each measured invocation is one fresh child process,
`python -m desmic_kit.cli --suite ... [--prime ...] --json -` with
PYTHONPATH=src, run one at a time (a closed loop with one client).  Its
report bytes and exit code are compared with the reference recorded at the
seed commit.  The CLI chooses its own thread count (os.cpu_count()).
Its wall and CPU times are scaled by the host's speed while it ran
(hostprobe.py), so that they do not follow the load that others put on a
shared host; the raw times go to the sidecar.

With --trace 1 the suite runs once in this process through
`cli.run_suite`, with spans wrapped around the functions named in
trace_run.REPORTED (see spans.py), and a seeded scalar micro-loop supplies the
arithmetic rates.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it holds the provenance.  A sidecar with every sample goes
to .bench_out/.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import sys
import time

from hostprobe import HostProbe, ProbeError
from workloads import (PACKAGE, SRC, WORKLOADS, BenchmarkError, cli_args,
                       data_hashes, load_reference, run_child,
                       workload_primes)

OUT_DIR = os.path.abspath(".bench_out")
# A run never lets a child outlive this many seconds after the run began.
RUN_DEADLINE_S = 170.0
SETUP_IMPORTS = 11
# Invocations a run makes at least, so that its median has one to spare.
MIN_SAMPLES = 3


def source_hash():
    """sha256 over the package's Python sources, which identifies the code
    where there is no git checkout."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of a git checkout in the current directory, read from .git
    itself; None elsewhere (src_sha256 identifies the code there)."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def have_fast():
    """scan.HAVE_FAST, read in a child; None once it no longer exists."""
    code = ("try:\n    import desmic_kit.scan as s\n"
            "except ImportError:\n    s = None\n"
            "print(repr(getattr(s, 'HAVE_FAST', None)))")
    out, _, _, _ = run_child([sys.executable, "-c", code], 60)
    return {"True": True, "False": False}.get(out.decode().strip())


def provenance(workload, seed, primes, trace):
    return {"workload": workload, "seed": seed, "primes": list(primes),
            "trace": trace, "git_commit": git_commit(),
            "src_sha256": source_hash(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "have_fast": have_fast(),
            "data_sha256": data_hashes()}


def differing_checks(out, ref_doc):
    """Ids of reference checks whose report entry differs in `out`."""
    try:
        got = {c["id"]: c for c in json.loads(out)["checks"]}
    except (ValueError, KeyError, TypeError):
        return [c["id"] for c in ref_doc["checks"]]
    return [c["id"] for c in ref_doc["checks"] if got.get(c["id"]) != c]


def measure_setup():
    """Median seconds for a fresh interpreter to import desmic_kit.cli.
    Not scaled by the host's speed: over 61 trial set-ups, scaling these
    0.1-0.5 s imports cut their spread only from 22% to 17-18%."""
    argv = [sys.executable, "-c", "import desmic_kit.cli"]
    times = []
    for k in range(SETUP_IMPORTS + 1):
        _, rc, wall, _ = run_child(argv, 60)
        if rc != 0:
            raise BenchmarkError("importing desmic_kit.cli failed")
        if k:  # the first import is a warm-up
            times.append(wall)
    return statistics.median(times), times


def run_end_to_end(workload, primes, seconds, started):
    """Closed loop, one client: start the next CLI invocation only when the
    previous one has ended and the next is expected to end within
    `seconds` (the first MIN_SAMPLES always run)."""
    _, want_exit = WORKLOADS[workload]
    ref, ref_doc = load_reference(workload, primes)
    hashes = data_hashes()
    argv = [sys.executable, "-m", "desmic_kit.cli"] + cli_args(workload,
                                                                primes)
    setup_s, setup_samples = measure_setup()

    samples = []
    t0 = time.perf_counter()
    while len(samples) < MIN_SAMPLES or (
            time.perf_counter() - t0 + statistics.median(
            s["wall_s"] for s in samples) <= seconds):
        timeout = RUN_DEADLINE_S - (time.perf_counter() - started)
        with HostProbe() as probe:
            out, rc, wall, usage = run_child(argv, timeout)
        wall_speed, cpu_speed = probe.wall_speed(), probe.cpu_speed()
        cpu = usage.ru_utime + usage.ru_stime
        same = out == ref and rc == want_exit
        data_ok = data_hashes() == hashes
        samples.append({
            "wall_s": wall,
            "cpu_s": cpu,
            "wall_speed": wall_speed,
            "cpu_speed": cpu_speed,
            "probe_samples": len(probe.samples),
            "wall_scaled_s": wall * wall_speed,
            "cpu_scaled_s": cpu * cpu_speed,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit": rc,
            "identical": same,
            "data_unchanged": data_ok,
            "differing": [] if same else differing_checks(out, ref_doc),
            "checks": len(ref_doc["checks"]),
            # an invocation whose report bytes or exit code differ, or
            # that changed a data file, has every check wrong
            "wrong": 0 if same and data_ok else len(ref_doc["checks"]),
        })
        if samples[-1]["wrong"]:
            break

    attempted = sum(s["checks"] for s in samples)
    failed = sum(s["wrong"] for s in samples)
    correct = failed == 0
    metrics = {
        "wall_scaled_s": (statistics.median(
            s["wall_scaled_s"] for s in samples), "s"),
        "cpu_scaled_s": (statistics.median(
            s["cpu_scaled_s"] for s in samples), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples),
                        "MB"),
        "checks_match_frac": (1.0 - failed / attempted, "frac"),
    }
    sidecar = {"samples": samples, "setup_samples_s": setup_samples}
    return correct, attempted, failed, metrics, sidecar


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    try:
        if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
            raise BenchmarkError("no desmic_kit sources under %s" % SRC)
        os.makedirs(OUT_DIR, exist_ok=True)
        primes = workload_primes(args.workload, args.seed)
        stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        prov = provenance(args.workload, args.seed, primes, args.trace)
        if args.trace:
            from trace_run import run_traced
            result = run_traced(args.workload, primes, args.seed,
                                os.path.join(OUT_DIR, stem + "-spans.jsonl"))
        else:
            result = run_end_to_end(args.workload, primes, args.seconds,
                                    started)
    except (BenchmarkError, ProbeError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    correct, attempted, failed, metrics, sidecar = result

    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump({"provenance": prov, "metrics": metrics, **sidecar}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
