"""Single-report timings for the ROADMAP baseline table, with this harness.

    python3 perfbench/baseline.py

Each case is one in-process `braidtel.cli.main(... --format json)` run in a
fresh child process (so peak RSS is per case), timed with the reference
kernel's median printed alongside.  Prints one line per case and a JSON
list at the end.  Not part of the benchmark command; it re-measures the
table in ROADMAP.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
CASES = [
    ["verify", "bmw", "--phi", "0.3"],
    ["verify", "bmw", "--sites", "8"],
    ["verify", "bmw", "--sites", "9"],
    ["verify", "bmw", "--sites", "10"],
    ["verify", "brauer", "--sites", "8"],
    ["solve", "--mn", "00"],
    ["teleport", "standard", "--count", "1000"],
    ["teleport", "yang-baxter", "--count", "1000"],
    ["teleport", "gate", "--count", "1000"],
    ["teleport", "two-qubit", "--count", "200"],
]


def _child(argv: list[str]) -> None:
    import resource
    import statistics
    import time

    from run import SRC, ReferenceKernel, run_report  # pins BLAS to one thread before numpy loads

    sys.path.insert(0, str(SRC))
    import braidtel.cli as cli

    kernel = ReferenceKernel()
    run_report(cli, ["verify", "bmw"])  # warm imports and lazy numpy set-up
    before = statistics.median(kernel() for _ in range(20))
    start = time.perf_counter()
    rc, doc = run_report(cli, argv)
    elapsed = time.perf_counter() - start
    after = statistics.median(kernel() for _ in range(20))
    print(json.dumps({
        "case": " ".join(argv),
        "seconds": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ref_kernel_ms": (before + after) / 2 * 1e3,
        "pass": rc == 0 and doc["pass"],
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description="re-measure the ROADMAP baseline table")
    parser.add_argument("--child", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(args.child)
        return 0
    rows = []
    for case in CASES:
        done = subprocess.run(
            [sys.executable, __file__, "--child", *case], capture_output=True, text=True, timeout=600, check=True
        )
        row = json.loads(done.stdout.strip().splitlines()[-1])
        rows.append(row)
        print(f"{row['case']:40s} {row['seconds']:9.3f} s  {row['peak_rss_mb']:7.1f} MB  "
              f"ref {row['ref_kernel_ms']:.3f} ms  pass={row['pass']}", flush=True)
    print(json.dumps(rows))
    return 0 if all(r["pass"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
