"""Benchmark harness: time each engine on generated circuit families.

Each engine runs in a disposable child process (its own process group) so a
row that exceeds the timeout can be killed cleanly, workers included, and is
recorded as ``>timeout`` in the report.
"""

from __future__ import annotations

import csv
import json
import multiprocessing as mp
import os
import signal
import time
import traceback
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, generate_random_circuit
from .dd import Package
from .hybrid import (
    Partition, classify, default_partition, run_hybrid_amp, run_hybrid_dd, usable_cpus,
)
from .schrodinger import simulate
from .weights import DEFAULT_TOL

COLUMNS = ["name", "decisions", "t_ref", "t_DD", "t_ref/t_DD", "t_amp", "t_ref/t_amp"]
VERIFY_CAP = 20  # largest n whose engine outputs ``verify`` compares


@dataclass
class BenchRow:
    name: str
    n: int
    depth: int
    seed: int
    decisions: int
    t_ref: float | None
    t_dd: float | None
    t_amp: float | None
    timeout: float
    agree: bool | None = None

    def cells(self) -> list[str]:
        def t(x):
            return f"{x:.6f}" if x is not None else f">{self.timeout:g}"

        def ratio(a, b):
            if a is None or b is None:
                return "---"
            return f"{a / b:.4f}"

        return [
            self.name,
            str(self.decisions),
            t(self.t_ref),
            t(self.t_dd),
            ratio(self.t_ref, self.t_dd),
            t(self.t_amp),
            ratio(self.t_ref, self.t_amp),
        ]


def _engine_child(fn, conn):
    os.setpgrp()
    try:
        t0 = time.perf_counter()
        vec = fn()
        dt = time.perf_counter() - t0
        conn.send(("ok", dt, vec))
    except BaseException:
        conn.send(("err", traceback.format_exc(), None))
    finally:
        conn.close()


def _run_timed(fn, timeout: float):
    """Run ``fn`` in a killable child; returns (elapsed | None, payload | None)."""
    ctx = mp.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_engine_child, args=(fn, child))
    proc.start()
    child.close()
    if parent.poll(timeout):
        try:
            status, a, b = parent.recv()
        except EOFError:  # the child died without reporting (OOM kill, SIGKILL)
            proc.join()
            raise RuntimeError(
                f"engine run died without reporting (exit code {proc.exitcode})"
            ) from None
        proc.join()
        if status == "err":
            raise RuntimeError(f"engine run failed:\n{a}")
        return a, b
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.join()
    return None, None


def _engine_fn(circuit: Circuit, mode: str, cut: int, workers: int, tol: float, want_vec: bool):
    p = Partition(cut)

    def ref():
        pkg = Package(tol)
        e = simulate(circuit, pkg)
        return pkg.extract_statevector(e) if want_vec else None

    def dd():
        r = run_hybrid_dd(circuit, p, workers=workers, tol=tol)
        return r.package.extract_statevector(r.state) if want_vec else None

    def amp():
        r = run_hybrid_amp(circuit, p, workers=workers, tol=tol)
        return r.vector if want_vec else None

    return {"ref": ref, "dd": dd, "amp": amp}[mode]


def run_bench(
    ns,
    depths,
    seeds,
    density: float = 0.5,
    pairing: str = "grid",
    workers: int | None = None,
    timeout: float = 300.0,
    tol: float = DEFAULT_TOL,
    verify: bool = False,
) -> list[BenchRow]:
    """Generate one circuit per (n, depth, seed) and time each engine on it
    (``workers=None``: the CPUs this process may run on)."""
    if workers is not None and workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    workers = workers or usable_cpus()
    rows = []
    for n in ns:
        for depth in depths:
            for seed in seeds:
                circuit = generate_random_circuit(n, depth, seed, density, pairing)
                cut = default_partition(n).cut
                decisions = len(classify(circuit, Partition(cut)).decisions)
                want_vec = verify and n <= VERIFY_CAP
                times: dict[str, float | None] = {}
                vecs: dict[str, np.ndarray | None] = {}
                for mode in ("ref", "dd", "amp"):
                    elapsed, vec = _run_timed(
                        _engine_fn(circuit, mode, cut, workers, tol, want_vec), timeout
                    )
                    times[mode] = elapsed
                    vecs[mode] = vec
                agree = None
                if want_vec:
                    done = [v for v in vecs.values() if v is not None]
                    agree = all(np.abs(v - done[0]).max() < 1e-9 for v in done[1:]) if len(done) > 1 else None
                rows.append(
                    BenchRow(
                        name=f"rand_{n}q_d{depth}_s{seed}",
                        n=n,
                        depth=depth,
                        seed=seed,
                        decisions=decisions,
                        t_ref=times["ref"],
                        t_dd=times["dd"],
                        t_amp=times["amp"],
                        timeout=timeout,
                        agree=agree,
                    )
                )
    return rows


def write_csv(rows: list[BenchRow], stream) -> None:
    w = csv.writer(stream)
    w.writerow(COLUMNS)
    for row in rows:
        w.writerow(row.cells())


def write_json(rows: list[BenchRow], stream) -> None:
    out = []
    for row in rows:
        rec = dict(zip(COLUMNS, row.cells()))
        rec.update(n=row.n, depth=row.depth, seed=row.seed, timeout=row.timeout)
        if row.agree is not None:
            rec["agree"] = row.agree
        out.append(rec)
    json.dump(out, stream, indent=2)
    stream.write("\n")
