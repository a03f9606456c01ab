"""Start-up cost of each verification suite, module by module.

Usage, from any directory:

    python3 tools/startup_cost.py [--suite NAME ...] [--repeats N]

For each suite (default: every suite, after "import", which lists what
`import desmic_kit.cli` executes alone) a fresh interpreter with src/ on
its path imports `desmic_kit.cli` and runs the suite under an audit hook on
"exec", which sees the module code of every import that runs.  Each package
module it executes is printed with its line count and the median time, over
N calls in this process, to `compile()` its source.  Where no bytecode is
cached (PYTHONDONTWRITEBYTECODE=1 and no __pycache__), a fresh run pays the
compile time of every module it lists.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "desmic_kit")

# Prints the names of the package modules whose module code ran while the
# process imported desmic_kit.cli and, unless argv[1] is "import", ran that
# suite.
EXECUTED_MODULES = """
import json, os, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec"
                 and ran.add(getattr(args[0], "co_filename", "")))
import desmic_kit.cli as cli
if sys.argv[1] != "import":
    cli.run_suite(sys.argv[1])
package = os.path.dirname(cli.__file__)
print(json.dumps(sorted(os.path.basename(f)[:-3] for f in ran
                        if os.path.dirname(f) == package)))
"""


def executed_modules(suite):
    """The package modules that a fresh run of `suite` executes."""
    out = subprocess.run([sys.executable, "-c", EXECUTED_MODULES, suite],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def compile_cost(module, repeats):
    """(line count, median milliseconds to compile) of a package module."""
    path = os.path.join(PACKAGE, module + ".py")
    with open(path) as fh:
        source = fh.read()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        compile(source, path, "exec", dont_inherit=True)
        times.append(time.perf_counter() - t0)
    return source.count("\n"), 1000 * statistics.median(times)


def main(argv=None):
    sys.path.insert(0, SRC)
    from desmic_kit.cli import SUITES
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--suite", action="append",
                    choices=("import",) + SUITES,
                    help="repeatable (default: import and every suite)")
    ap.add_argument("--repeats", type=int, default=21,
                    help="compile() calls per module (default: 21)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    costs = {}
    for suite in args.suite or ("import",) + SUITES:
        modules = executed_modules(suite)
        for module in modules:
            if module not in costs:
                costs[module] = compile_cost(module, args.repeats)
        print("%s: %d modules, %d lines, %.2f ms to compile" % (
            suite, len(modules), sum(costs[m][0] for m in modules),
            sum(costs[m][1] for m in modules)))
        for module in modules:
            print("  %-22s %5d lines %8.2f ms" % ((module,) + costs[module]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
