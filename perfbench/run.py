#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 10 --trace 0

Builds perfbench/bin/main.exe with dune (against the repository's own
libraries under lib/), runs it with the given arguments and passes its
output through: metric lines by name with unit, then one JSON result line
as the last line of standard output.  Exits with the benchmark's status:
0 when every correctness check passed, non-zero otherwise (including
when the tree holds no buildable repository).  Spans kept by a traced run
are written to _perfbench/ in the checkout.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")
TRACE_DIR = "_perfbench"


def run(cmd, timeout, **kw):
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the root of a repository checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    rc = run(["dune", "build", "--root", ".", "--cache=disabled",
              "./perfbench/bin/main.exe"],
             BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0:
        print(f"run.py: build failed ({rc})", file=sys.stderr)
        return rc
    args = sys.argv[1:] + ["--trace-dir", TRACE_DIR]
    sys.stdout.flush()
    return run([EXE] + args, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
