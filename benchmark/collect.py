#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize every metric.

Run from the repository root, for example:

    python3 benchmark/collect.py --seeds 0 1 2 3 4 5 6 7 8 9 --out summary.json
    python3 benchmark/collect.py --workloads wide20 --seeds 0 1 2 3 4

For each workload and metric it records every value, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``.  ``--trace-seed`` adds one traced run per workload,
whose per-layer metrics are stored as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["report"] = proc.stdout.strip().splitlines()[:-1]
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    import numpy

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary = {
        "env": {"nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(), "numpy": numpy.__version__,
                "machine": platform.machine()},
        "run_seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for w in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        reports = []
        for seed in args.seeds:
            r = run_once(w, seed, args.seconds, 0)
            attempted += r["attempted"]
            failed += r["failed"]
            reports.append(r["report"])
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in r["metrics"].items()), flush=True)
        entry = {"attempted": attempted, "failed": failed, "metrics": {}}
        for name, vals in values.items():
            s = summarize(vals)
            s["unit"] = units[name]
            entry["metrics"][name] = s
            flag = " OVER BOUND/3" if name in bounds and s["spread"] > bounds[name] / 3 else ""
            print(f"{w} {name}: median {s['median']:.4g} {units[name]}, "
                  f"spread {s['spread']:.3f}{flag}", flush=True)
        entry["reports"] = reports
        if args.trace_seed is not None:
            t = run_once(w, args.trace_seed, args.seconds, 1)
            entry["trace"] = {"seed": args.trace_seed, "attempted": t["attempted"],
                              "failed": t["failed"], "report": t["report"],
                              "metrics": t["metrics"]}
            failed += t["failed"]
        print(f"{w}: attempted {attempted}, failed {failed}", flush=True)
        summary["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
