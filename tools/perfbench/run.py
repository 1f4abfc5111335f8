#!/usr/bin/env python3
"""Build and run the ncdn benchmark (BENCHMARK.json at the repo root).

Run from the repository root:

    python3 tools/perfbench/run.py --workload gen-n4096 --seed 1 \\
        --seconds 10 --trace 0

The first call configures and builds tools/perfbench (the simulator
library from src/ plus the ncdn_perf driver) into .bench_build/perfbench;
later calls rebuild only what changed.  Build output goes to stderr.  The
last line on stdout is the driver's JSON result.  Exit status: the
driver's, 2 on a usage error or when the sources are missing, 1 when the
build fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

BUILD_JOBS = "4"


def main(argv: list[str]) -> int:
    here = Path(__file__).resolve().parent
    root = here.parent.parent
    if not (root / "src").is_dir() or not (here / "ncdn_perf.cpp").is_file():
        print("run.py: simulator sources not found under "
              f"{root}; run from a full checkout", file=sys.stderr)
        return 2
    build = root / ".bench_build" / "perfbench"
    binary = build / "ncdn_perf"
    steps = []
    if not (build / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(here), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "-j", BUILD_JOBS,
                  "--target", "ncdn_perf"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return 1
    sys.stdout.flush()
    os.execv(str(binary), [str(binary), *argv])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
