"""How fast the shared host runs Python right now, measured alongside a run.

On the shared 2-vCPU virtual machine this benchmark was written on, the
same CLI invocation took 7.5 s in one minute and 20 s some minutes later,
with the program unchanged: the host's other load slowed every instruction.
The slowdown reaches the benchmark's child process and a thread of the
benchmark alike.
So while a child runs, a `HostProbe` thread repeats a small fixed job, and
run.py multiplies the child's times by REFERENCE_S / (the job's mean time)
over that interval.  In 5-run trials of both workloads there, the spread
of the runs' median times (quartile distance over median) fell from 31-55%
raw to 4-8% scaled.

Two speeds come from the same samples.  `cpu_speed` uses the job's thread
CPU time and scales the child's CPU time.  `wall_speed` scales wall times:
it uses the job's wall time minus the time the probe thread spent runnable
but waiting for a core of this machine (/proc/thread-self/schedstat), so
time the hypervisor took away from the vCPU counts as a slow host, while
waiting behind the benchmark's own child does not.

The job imports nothing from desmic_kit, so it is the same code on every
commit: a change to the program moves the scaled times, a change in the
host's load does not.  It costs about 8% of one core while a child runs.
"""

import statistics
import threading
import time

SCHEDSTAT = "/proc/thread-self/schedstat"

# Mean thread-CPU seconds of one probe job at this host's usual speed; a
# scaled time reads as "seconds on a host where the probe job takes this".
REFERENCE_S = 0.008
ROUNDS = 10000
PERIOD_S = 0.1
MODULUS = 10007
# The job's result; a different value means the job itself changed.
CHECKSUM = (176690, 3951)


class ProbeError(RuntimeError):
    """The probe job returned a wrong result, or took no samples."""


def probe_job(rounds=ROUNDS):
    """Small-int modular arithmetic, tuple keys in a dict and list appends:
    the kind of interpreter work the verifier's exact arithmetic does."""
    acc = 0
    buckets = {}
    for i in range(rounds):
        x = (i * i + 7 * i + 3) % MODULUS
        y = pow(x, 3, MODULUS)
        key = (x & 127, y % 79)
        buckets.setdefault(key, []).append(i)
        acc = (acc * 31 + x + y) % 1000003
    return acc, len(buckets)


def run_queue_wait_s():
    """Seconds this thread has spent runnable, waiting for a core."""
    with open(SCHEDSTAT) as fh:
        return int(fh.read().split()[1]) / 1e9


class HostProbe:
    """Context manager: runs the probe job every PERIOD_S seconds on a
    thread of its own until the block ends.  `wall_speed()` and
    `cpu_speed()` are then the host's speed relative to REFERENCE_S (below
    1 on a slow host).  Each sample is (thread CPU s, wall s minus run-queue
    wait)."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._error = None
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        try:
            while True:
                w0, c0 = time.perf_counter(), time.thread_time()
                q0 = run_queue_wait_s()
                result = probe_job()
                q1 = run_queue_wait_s()
                wall = time.perf_counter() - w0
                self.samples.append((time.thread_time() - c0,
                                     wall - (q1 - q0)))
                if result != CHECKSUM:
                    raise ProbeError("probe job returned %r, expected %r"
                                     % (result, CHECKSUM))
                if self._stop.wait(PERIOD_S):
                    return
        except ProbeError as e:
            self._error = e
        except OSError as e:
            self._error = ProbeError("cannot read %s: %s" % (SCHEDSTAT, e))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if self._error is not None and exc[0] is None:
            raise self._error

    def _speed(self, field):
        if not self.samples:
            raise ProbeError("the host probe took no samples")
        return REFERENCE_S / statistics.mean(s[field] for s in self.samples)

    def cpu_speed(self):
        return self._speed(0)

    def wall_speed(self):
        return self._speed(1)
