"""Workloads, their reference reports, and the child processes that run
the CLI.  Paths are relative to the current directory, which is the root
of the checkout under test."""

import glob
import hashlib
import json
import os
import signal
import subprocess
import threading
import time

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references")
SRC = os.path.abspath("src")
PACKAGE = os.path.join(SRC, "desmic_kit")

# workload -> (suite, expected CLI exit code).  supersingular exits 1
# because its strict-XFAIL printed-formula check reports "fail".
WORKLOADS = {
    # the O(p^4) P^5(F_p) scan dominates; no symmetry or curve systems
    "scan-primes": ("line-complex", 0),
    # the 42-curve pairings dominate; no scan and no symmetry group
    "supersingular": ("supersingular", 1),
}
DEFAULT_PRIMES = (13, 17)
# The seed picks the order of one prime pair.  A run's cost must not depend
# on its seed, because a metric's spread is taken over runs with different
# seeds, and the scan cost grows as p^4.
SCAN_PRIME_ORDERS = ((29, 37), (37, 29))


class BenchmarkError(Exception):
    """The checkout or the program cannot be benchmarked."""


def prime_orders(workload):
    """Every prime tuple that the seed can pick for `workload`."""
    if workload == "scan-primes":
        return SCAN_PRIME_ORDERS
    return (DEFAULT_PRIMES,)


def workload_primes(workload, seed):
    orders = prime_orders(workload)
    return orders[seed % len(orders)]


def cli_args(workload, primes):
    """Arguments to the CLI: only --suite, --prime and --json, so that the
    CLI picks its own thread count."""
    suite, _ = WORKLOADS[workload]
    args = ["--suite", suite]
    if tuple(primes) != DEFAULT_PRIMES:
        for p in primes:
            args += ["--prime", str(p)]
    return args + ["--json", "-"]


def reference_path(workload, primes):
    suite, _ = WORKLOADS[workload]
    return os.path.join(REFERENCES, "%s-%s.json"
                        % (suite, "-".join(map(str, primes))))


def load_reference(workload, primes):
    """The reference report as bytes and as parsed JSON."""
    path = reference_path(workload, primes)
    if not os.path.exists(path):
        raise BenchmarkError("no reference report %s" % path)
    with open(path, "rb") as fh:
        ref = fh.read()
    return ref, json.loads(ref)


def run_child(argv, timeout):
    """Run a Python child with PYTHONPATH=src to completion.  Returns
    (stdout bytes, exit code, wall seconds, rusage); the child is killed
    after `timeout` seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=SRC))
    killer = threading.Timer(max(timeout, 0.0), os.kill,
                             (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, wall, usage


def data_hashes():
    """sha256 of each src/desmic_kit/data/*.json, by file name."""
    hashes = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "data", "*.json"))):
        with open(path, "rb") as fh:
            hashes[os.path.basename(path)] = hashlib.sha256(
                fh.read()).hexdigest()
    return hashes
