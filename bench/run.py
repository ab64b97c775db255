"""Benchmark entry point.

    python3 bench/run.py --workload mixed_fabric --seed 1 --seconds 15 --trace 0

Run from the repository root.  Builds the workload from ``--seed``, measures
it for about ``--seconds`` seconds against the package in ``src/``, checks
every packet's fate, and prints human-readable lines followed, as the last
line, by one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("mixed_fabric", "wire_tagging")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gvn" / "__init__.py").is_file():
        print(f"error: no gvn package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import measure
    import workloads

    print(f"env python={platform.python_version()} nproc={os.cpu_count()} "
          f"commit={git_commit()}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    if args.workload == "wire_tagging":
        stream = workloads.wire_tagging(args.seed)
        report = (measure.wire_traced(stream, args.seconds) if args.trace
                  else measure.wire_end_to_end(stream, args.seconds, str(SRC)))
    else:
        work = workloads.SIM_WORKLOADS[args.workload](args.seed)
        report = (measure.simulator_traced(work, args.seconds, args.seed) if args.trace
                  else measure.simulator_end_to_end(work, args.seconds))

    for note in report.notes:
        print(note)
    for error in report.errors:
        print(f"error: {error}")
    for klass, count in sorted(report.mismatches.items()):
        print(f"fate mismatch: class {klass}: {count} packets")
    print(f"failed_frac {report.failed / max(1, report.attempted):.6g} "
          f"({report.failed} of {report.attempted} packets)")
    for name, (value, unit) in report.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = report.failed == 0 and not report.errors
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
