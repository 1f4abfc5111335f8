#!/usr/bin/env python3
"""Reduced-size self-check of the ncdn benchmark.

Run from the repository root:

    python3 tools/perfbench/selfcheck.py

It builds the benchmark through run.py, runs every workload at
`--size small` with tracing off and on (`--workload all`, one forked
child per workload), and asserts that:

  * every run is correct: no failed cell, the traced and untraced runs
    reproduce the same simulated statistics, decoded payloads equal the
    source tokens, and the 4-thread sweep JSON equals the 1-thread one
    (the driver counts any mismatch as failed);
  * every metric BENCHMARK.json names is emitted, with its unit, for every
    workload, and no end-to-end metric reads 0;
  * peak RSS is per workload: forward-n16384 reads above gen-n4096;
  * the benchmark's C++ sources lint clean under tools/ci/ncdn_lint.py.

Exit status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def run_all(trace: int) -> dict[str, dict[str, Any]]:
    """Runs every workload at small size; returns workload -> result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all",
           "--seed", "7", "--seconds", "0", "--trace", str(trace),
           "--size", "small"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"selfcheck: {' '.join(cmd)} exited "
                         f"{done.returncode}")
    results: dict[str, dict[str, Any]] = {}
    for line in done.stdout.splitlines():
        name, sep, body = line.partition(": ")
        if sep and body.startswith("{"):
            results[name] = json.loads(body)
    return results


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    problems: list[str] = []

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        results = run_all(trace)
        for workload in workloads:
            res = results.get(workload)
            if res is None:
                problems.append(f"{workload} trace={trace}: no result")
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{workload} trace={trace}: "
                                f"{res['failed']} of {res['attempted']} "
                                "failed")
            if res["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: nothing run")
            for metric in spec[key]:
                got = res["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{workload} trace={trace}: "
                                    f"{metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} unit "
                                    f"{got['unit']} != {metric['unit']}")
                elif key == "end_to_end" and got["value"] <= 0:
                    problems.append(f"{workload}: {metric['name']} reads "
                                    f"{got['value']}")
        if trace == 0 and not problems:
            rss = {w: results[w]["metrics"]["peak_rss_mb"]["value"]
                   for w in workloads}
            if not rss["forward-n16384"] > rss["gen-n4096"]:
                problems.append(f"peak RSS not per workload: {rss}")

    sources = sorted(str(p.relative_to(ROOT))
                     for p in HERE.glob("*.cpp"))
    lint = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ci" / "ncdn_lint.py"),
         "--root", str(ROOT), *sources],
        capture_output=True, text=True, check=False)
    if lint.returncode != 0:
        problems.append("ncdn_lint: " + lint.stdout.strip())

    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"selfcheck: {len(workloads)} workloads, traced and untraced, "
          "all checks hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
