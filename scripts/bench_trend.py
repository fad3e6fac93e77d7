#!/usr/bin/env python3
"""Trend experiment: reference engine vs the cutting engines on hard
depth-limited grid circuits.

Generates 16-qubit grid-paired random circuits, keeps instances whose cut
produces a bounded number of decisions, and times all three engines.  The
amplitude-adding engine should come out ahead on most instances once the
reference engine's diagrams grow; the diagram-adding engine shows the
final-addition bottleneck.

Usage:
    python scripts/bench_trend.py [--instances 10] [--max-decisions 6]
                                  [--timeout 300] [--csv out.csv]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qcdd.bench import run_bench, write_csv, COLUMNS  # noqa: E402
from qcdd.circuit import generate_random_circuit  # noqa: E402
from qcdd.cli import worker_count  # noqa: E402
from qcdd.hybrid import classify, default_partition  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qubits", type=int, default=16)
    ap.add_argument("--depth", type=int, default=12)
    ap.add_argument("--density", type=float, default=0.7)
    ap.add_argument("--instances", type=int, default=10)
    ap.add_argument("--min-decisions", type=int, default=2)
    ap.add_argument("--max-decisions", type=int, default=6)
    ap.add_argument("--timeout", type=float, default=300.0)
    ap.add_argument("--workers", type=worker_count, default=None,
                    help="worker processes per engine run, at least 1"
                         " (default: the CPUs this process may run on)")
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    seeds = []
    seed = 0
    while len(seeds) < args.instances and seed < 10_000:
        c = generate_random_circuit(args.qubits, args.depth, seed, args.density, "grid")
        d = len(classify(c, default_partition(args.qubits)).decisions)
        if args.min_decisions <= d <= args.max_decisions:
            seeds.append(seed)
        seed += 1
    print(f"instances: n={args.qubits} depth={args.depth} density={args.density} seeds={seeds}")

    rows = run_bench([args.qubits], [args.depth], seeds, density=args.density,
                     pairing="grid", workers=args.workers, timeout=args.timeout)
    widths = [max(len(c), 12) for c in COLUMNS]
    print("  ".join(c.rjust(w) for c, w in zip(COLUMNS, widths)))
    for row in rows:
        print("  ".join(c.rjust(w) for c, w in zip(row.cells(), widths)))
    wins = sum(1 for r in rows if r.t_amp is not None and (r.t_ref is None or r.t_amp <= r.t_ref))
    print(f"\namplitude-adding engine no slower than the reference on {wins}/{len(rows)} instances")
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            write_csv(rows, f)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
