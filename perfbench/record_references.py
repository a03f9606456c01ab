"""Record the reference reports that run.py compares every run against.

Run once, at the commit whose reports are the reference, from the root of
the checkout:

    python3 perfbench/record_references.py

Writes perfbench/references/<suite>-<primes>.json for every workload and
every prime order its seed can pick.
"""

import os
import sys

from workloads import (REFERENCES, WORKLOADS, cli_args, prime_orders,
                       reference_path, run_child)


def main():
    os.makedirs(REFERENCES, exist_ok=True)
    for workload, (_, want_exit) in sorted(WORKLOADS.items()):
        for primes in prime_orders(workload):
            argv = ([sys.executable, "-m", "desmic_kit.cli"]
                    + cli_args(workload, primes))
            out, rc, wall, _ = run_child(argv, 600)
            if rc != want_exit:
                raise SystemExit("%s %s: exit %d, expected %d"
                                 % (workload, primes, rc, want_exit))
            with open(reference_path(workload, primes), "wb") as fh:
                fh.write(out)
            print("%s %s: %.1fs" % (workload, primes, wall))


if __name__ == "__main__":
    main()
