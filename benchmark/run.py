#!/usr/bin/env python3
"""qcdd benchmark: the three engines on one seeded workload.

Run from the repository root:

    python3 benchmark/run.py --workload wide20 --seed 0 --seconds 55 --trace 0

The workload (``paths14`` or ``wide20``, see ``workloads.py``)
and ``--seed`` give one circuit.  The program only sees that circuit, as
parsed from its QASM text.  Every engine output is checked against
``dense_simulate``; a run that raises, times out or deviates by more than
``TOL_VERIFY`` in max-abs counts as a failed operation.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
Each engine run happens in a fresh forked child of this warmed process;
the engines share the time evenly and each runs at least once.  Every
``SETUP_EVERY_S`` one fresh interpreter imports qcdd, parses the QASM text
and classifies it (``setup_s``).  ``schrodinger`` is single-process and
``hybrid_amp`` uses ``workers = nproc``.  ``hybrid_dd`` uses one worker:
with more, the shared path counter decides which diagrams each worker sums,
so the work itself changes from run to run.

Times are reported as the mean of the run's repetitions, peak RSS as the
largest.  On a shared 2-vCPU virtual machine (Xeon, 2.1 GHz) the speed
switched every few seconds between regimes about 1.6x apart.  The median
of such a two-mode sample jumps between the modes from run to run; the
mean moves with the share of time spent in each.  Over the same ten runs
per workload there, the spread of the per-run median was 0.13-0.30 and
that of the mean 0.10-0.24.

``--trace 1`` runs each engine untraced with ``workers = nproc``
(``hybrid_dd`` ``POOL_REPS`` times, every repetition printed) and once
traced with ``workers = 1`` (``tracer.py``), and reports the per-layer
metrics.

Human-readable lines come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing as mp
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ENGINES = ("schrodinger", "hybrid_amp", "hybrid_dd")
STAGES = ("simulate", "kron", "extract", "add")  # keys of a hybrid run's stats["times"]
TOL_VERIFY = 1e-9  # the CLI's --tol-verify default
TOL_TRACED = 1e-12  # traced vs untraced state vector
POOL_REPS = 3  # untraced hybrid_dd runs at nproc workers in --trace 1
SETUP_EVERY_S = 3.0  # one set-up sample per this many seconds of engine runs
HARD_LIMIT_S = 170.0  # the whole run, start to exit

SETUP_SNIPPET = """\
import sys
sys.path.insert(0, sys.argv[1])
import qcdd
c = qcdd.parse(sys.stdin.read())
print(len(qcdd.classify(c, qcdd.default_partition(c.n)).decisions))
"""

T_START = time.perf_counter()


def import_program():
    """Import qcdd from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "qcdd" / "__init__.py").is_file():
        sys.exit(f"benchmark: no qcdd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcdd

    if not Path(qcdd.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"benchmark: imported qcdd from {qcdd.__file__}, not from {SRC}")
    return qcdd


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def timed_workers(engine: str) -> int:
    """Worker count of the end-to-end runs (see the module docstring)."""
    return 1 if engine == "hybrid_dd" else nproc()


def time_left() -> float:
    return HARD_LIMIT_S - (time.perf_counter() - T_START)


def busy_share(stats: dict) -> float:
    """Summed stage seconds of a hybrid run over workers x its wall time."""
    times = stats["times"]
    return sum(times[s] for s in STAGES) / (stats["workers"] * times["total"])


# -- engine runs in forked children ---------------------------------------


def run_engine(qcdd, engine: str, circuit, workers: int):
    """Full state vector of ``circuit`` from one engine, plus its stats."""
    n = circuit.n
    if engine == "schrodinger":
        pkg = qcdd.Package()
        state = qcdd.simulate(circuit, pkg)
        return pkg.extract_statevector(state, n), {"max_path_nodes": pkg.peak_nodes}
    if engine == "hybrid_amp":
        res = qcdd.run_hybrid_amp(circuit, workers=workers)
        return res.vector, res.stats
    res = qcdd.run_hybrid_dd(circuit, workers=workers)
    return res.package.extract_statevector(res.state, n), res.stats


def engine_job(qcdd, engine, circuit, oracle, workers, traced=False, keep_vector=False):
    """Body of one child: time the engine, then check it against the oracle."""
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    vec, stats = run_engine(qcdd, engine, circuit, workers)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {
        "wall": wall,
        "err": float(np.abs(vec - oracle).max()),
        "rss_mb": rss_kib / 1024.0,
        "stats": stats,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
    if keep_vector:
        out["vector"] = vec
    return out


def _child_main(job, conn):
    os.setpgid(0, 0)  # own process group, so a timeout also stops the engine's workers
    try:
        msg = ("ok", job())
    except Exception:  # reported to the parent, which counts the failure
        msg = ("error", traceback.format_exc())
    conn.send(msg)
    conn.close()


def _stop_group(pgid: int):
    """Kill what is left of a child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def in_child(job, timeout: float):
    """Run ``job()`` in a forked child; returns (status, payload, seconds)."""
    ctx = mp.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_main, args=(job, send))
    t0 = time.perf_counter()
    proc.start()
    send.close()
    status, payload = "died", "child exited without a result"
    try:
        if recv.poll(max(timeout, 0.0)):
            status, payload = recv.recv()
        else:
            status, payload = "timeout", f"no result within {timeout:.0f} s"
    except EOFError:
        pass
    finally:
        if status != "ok":
            _stop_group(proc.pid)
        proc.join()
        recv.close()
    return status, payload, time.perf_counter() - t0


# -- the run ----------------------------------------------------------------


class Tally:
    """Attempted and failed operations; every failure is printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}")
        return ok

    def engine_run(self, label: str, status: str, res) -> bool:
        if status != "ok":
            return self.check(False, f"{label}: {status}: {res}")
        return self.check(res["err"] <= TOL_VERIFY, f"{label}: max-abs error {res['err']:.3e}")


class SetupTimer:
    """Fresh interpreters that import qcdd, parse the QASM text and classify."""

    def __init__(self, qasm_text: str, decisions: int, tally: Tally):
        self.cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC)]
        self.text = qasm_text
        self.expect = str(decisions)
        self.tally = tally
        self.times: list[float] = []
        self._run()  # warms the file cache; not recorded

    def _run(self):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(self.cmd, input=self.text, capture_output=True, text=True,
                                  timeout=max(time_left() - 5, 1.0))
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - t0
        return proc, time.perf_counter() - t0

    def sample(self):
        proc, dt = self._run()
        ok = proc is not None and proc.returncode == 0 and proc.stdout.strip() == self.expect
        what = "timed out" if proc is None else f"exit {proc.returncode} {proc.stderr[-300:]}"
        if self.tally.check(ok, f"setup: {what}"):
            self.times.append(dt)


def timed_engine_runs(qcdd, circuit, oracle, seconds: float, setup: SetupTimer, tally: Tally):
    """Engine runs for ``seconds``, shared evenly: every engine runs once, then
    the engine with the least time spent so far runs next, until its last run
    no longer fits.  A set-up sample is taken every ``SETUP_EVERY_S``."""
    runs = {e: [] for e in ENGINES}
    spent = {e: 0.0 for e in ENGINES}
    last: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    next_setup = 0.0
    while True:
        engine = min(ENGINES, key=lambda e: (e in last, spent[e]))
        now = time.perf_counter()
        if engine in last and now + last[engine] > deadline:
            return runs
        if now >= next_setup:
            setup.sample()
            next_setup = time.perf_counter() + SETUP_EVERY_S
        status, res, dt = in_child(
            lambda: engine_job(qcdd, engine, circuit, oracle, timed_workers(engine)),
            time_left() - 5,
        )
        last[engine] = dt
        spent[engine] += dt
        if tally.engine_run(engine, status, res):
            runs[engine].append(res)


def traced_runs(qcdd, inst, circuit, oracle, tally: Tally) -> dict[str, float]:
    """Per-layer metrics: untraced runs at nproc workers, one traced run at one."""
    metrics: dict[str, float] = {}
    worst_err = 0.0
    for engine in ENGINES:
        plain_runs = []
        for _ in range(POOL_REPS if engine == "hybrid_dd" else 1):
            status, res, _ = in_child(
                lambda: engine_job(qcdd, engine, circuit, oracle, nproc(), keep_vector=True),
                time_left() - 5,
            )
            if not tally.engine_run(f"{engine} untraced", status, res):
                return {}
            plain_runs.append(res)
        status, traced, _ = in_child(
            lambda: engine_job(qcdd, engine, circuit, oracle, 1, traced=True, keep_vector=True),
            time_left() - 5,
        )
        if not tally.engine_run(f"{engine} traced", status, traced):
            return {}
        worst_err = max([worst_err, traced["err"]] + [r["err"] for r in plain_runs])
        if engine == "hybrid_dd":
            for r in plain_runs:
                print(f"hybrid_dd at {nproc()} workers: {r['wall']:.3f} s, "
                      f"pool.busy_share {busy_share(r['stats']):.3f}")
        plain = sorted(plain_runs, key=lambda r: r["wall"])[len(plain_runs) // 2]
        diff = float(np.abs(plain["vector"] - traced["vector"]).max())
        tally.check(diff <= TOL_TRACED, f"{engine}: traced vs untraced differ by {diff:.3e}")
        print(f"{engine}: untraced {plain['wall']:.3f} s ({nproc()} workers), "
              f"traced {traced['wall']:.3f} s (1 worker), traced vs untraced {diff:.1e}")

        layers = traced["layers"]
        stats = plain["stats"]
        layers["dd.peak_nodes"] = traced["stats"]["max_path_nodes"]
        layers["trace.overhead_ratio"] = traced["wall"] / plain["wall"]
        if engine == "schrodinger":
            layers = {k: v for k, v in layers.items() if not k.startswith("hybrid.")}
        else:
            for stage in STAGES:
                layers[f"hybrid.{stage}_s"] = stats["times"][stage]
            layers["pool.busy_share"] = busy_share(stats)
        if engine == "hybrid_dd":
            layers["hybrid.final_nodes"] = stats["final_nodes"]
        for key, value in layers.items():
            metrics[f"{engine}.{key}"] = value
    metrics["circuit.oracle_max_abs_err"] = worst_err
    print("trace.overhead_ratio = traced wall (1 worker) / untraced wall "
          f"({nproc()} workers): it mixes wrapper overhead with the worker-count difference")
    print(f"zero paths: traced {metrics['hybrid_amp.hybrid.zero_paths']}, "
          f"dense block count {inst.zero_paths}")
    return metrics


def median_time(fn, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def warm_up(qcdd):
    """Run every engine once on a tiny circuit, so that imports and lazy
    set-up are done before the first fork."""
    c = qcdd.generate_random_circuit(6, 3, 0, 0.7, "grid")
    for engine in ENGINES:
        run_engine(qcdd, engine, c, nproc())


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_err"):
        return "abs"
    return "count"


def main(argv=None) -> int:
    qcdd = import_program()
    from workloads import WORKLOADS, select_instance

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    inst = select_instance(args.workload, args.seed)
    text = qcdd.to_qasm(inst.circuit)
    circuit = qcdd.parse(text)
    tally = Tally()
    tally.check(circuit == inst.circuit, "QASM round trip changed the circuit")
    w = inst.workload
    print(f"workload {w.name}: circuit seed {w.circuit_seed}, frame from seed {args.seed}: "
          f"{inst.frame}")
    print(f"n={circuit.n} depth={w.depth} gates={inst.gates} decisions={inst.decisions} "
          f"paths={inst.paths} zero_paths={inst.zero_paths} (share {inst.zero_share:.3f})")
    print(f"nproc={nproc()} python={sys.version.split()[0]} numpy={np.__version__}")

    t0 = time.perf_counter()
    oracle = qcdd.dense_simulate(circuit, cap=circuit.n)
    oracle_s = time.perf_counter() - t0
    warm_up(qcdd)
    gc.collect()
    gc.freeze()  # forked children then neither copy nor re-scan the parent's objects

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        part = qcdd.default_partition(circuit.n)
        metrics["circuit.oracle_s"] = (oracle_s, "s")
        metrics["qasm.parse_s"] = (median_time(lambda: qcdd.parse(text)), "s")
        metrics["hybrid.classify_s"] = (median_time(lambda: qcdd.classify(circuit, part)), "s")
        for name, value in traced_runs(qcdd, inst, circuit, oracle, tally).items():
            metrics[name] = (value, layer_unit(name))
    else:
        setup = SetupTimer(text, inst.decisions, tally)
        runs = timed_engine_runs(qcdd, circuit, oracle, args.seconds, setup, tally)
        print(f"setup_s: {len(setup.times)} runs, s "
              + " ".join(f"{t:.4f}" for t in setup.times))
        metrics["setup_s"] = (statistics.fmean(setup.times) if setup.times else 0.0, "s")
        for engine in ENGINES:
            rs = runs[engine]
            walls = [r["wall"] for r in rs] or [0.0]
            rss = [r["rss_mb"] for r in rs] or [0.0]
            print(f"{engine} ({timed_workers(engine)} workers): {len(rs)} runs, s "
                  + " ".join(f"{x:.3f}" for x in walls)
                  + f"; rss MiB {min(rss):.1f}-{max(rss):.1f}; max-abs error "
                  + f"{max((r['err'] for r in rs), default=float('nan')):.2e}")
            metrics[f"{engine}_s"] = (statistics.fmean(walls), "s")
            metrics[f"{engine}_rss_mb"] = (max(rss), "MiB")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
