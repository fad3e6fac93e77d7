"""Seeded workload instances for the qcdd benchmark.

Every workload is one random grid circuit (density 0.7, ``grid`` pairing)
with a pinned circuit seed; the workload's filter (decision count, zero-path
share) is re-checked on every run.  The benchmark seed then picks a final
layer of one-qubit gates, ``i`` or ``z`` on each qubit.  A ``z`` flips the
sign of the amplitudes where its qubit is 1: every diagram keeps its shape
and node count, and zero paths stay zero, so the seed changes the output
state but not the amount of work.  Other monomial gates also keep node
counts, but x and y change normalization pivots and s and t add weight
values; with them, hybrid-dd peak memory on wide20 moved by up to 30%
between seeds.

The circuit seed is not drawn from the benchmark seed because the cost of
these circuits varies several-fold between circuit seeds (16 qubits, depth
12: circuit seed 5 needs 7x the schrodinger time of seed 4).  The pinned
seeds were picked among the first few that pass each filter, so that each
engine takes a few seconds on two cores and the layer each workload is
meant to stress dominates (see README.md).

The zero-path share is computed here with a small dense simulation of each
block, outside every timed region and without the decision-diagram code, so
it also serves as an independent count.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

import numpy as np

from qcdd import Circuit, Gate, classify, default_partition, generate_random_circuit

DENSITY = 0.7
PAIRING = "grid"
FRAME_KINDS = ("i", "z")
# a dense block state whose largest amplitude is below this is a zero path
ZERO_ATOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    qubits: int
    depth: int
    circuit_seed: int
    decisions: int
    zero_share: tuple[float, float] | None
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paths14", 14, 8, 13, 8, (0.4, 0.6),
            "256 small half-register paths, half of them exactly zero: per-path fixed "
            "cost (fresh packages, gate-DD builds) dominates the hybrid engines",
        ),
        Workload(
            "wide20", 20, 7, 3, 4, None,
            "16 paths on 20 qubits: 2**20-entry extraction and accumulation; multiply "
            "dominates schrodinger (with gc) and diagram addition dominates hybrid-dd",
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    workload: Workload
    frame: str
    circuit: Circuit
    gates: int
    decisions: int
    paths: int
    zero_paths: int

    @property
    def zero_share(self) -> float:
        return self.zero_paths / self.paths


def passes(w: Workload, circuit: Circuit, cls) -> int | None:
    """Zero-path count if ``circuit`` passes the workload's filter, else None."""
    if len(cls.decisions) != w.decisions:
        return None
    zero = count_zero_paths(circuit, default_partition(w.qubits).cut, cls)
    if w.zero_share is not None:
        lo, hi = w.zero_share
        if not lo <= zero / cls.path_count <= hi:
            return None
    return zero


def select_instance(name: str, seed: int) -> Instance:
    """The workload's pinned circuit, followed by the frame layer drawn from ``seed``."""
    w = WORKLOADS[name]
    base = generate_random_circuit(w.qubits, w.depth, w.circuit_seed, DENSITY, PAIRING)
    rng = Random(seed)
    frame = tuple(Gate(rng.choice(FRAME_KINDS), targets=(q,)) for q in range(w.qubits))
    circuit = Circuit(w.qubits, base.gates + frame)
    cls = classify(circuit, default_partition(w.qubits))
    zero = passes(w, circuit, cls)
    if zero is None:
        raise RuntimeError(f"{name}: circuit seed {w.circuit_seed} no longer passes the filter")
    return Instance(w, " ".join(g.kind for g in frame), circuit, len(circuit.gates),
                    len(cls.decisions), cls.path_count, zero)


def _apply(state: np.ndarray, mat: np.ndarray, qubits, n: int) -> np.ndarray:
    m = len(qubits)
    axes = [n - 1 - q for q in qubits]
    out = np.tensordot(mat.reshape((2,) * (2 * m)), state.reshape((2,) * n),
                       axes=(list(range(m, 2 * m)), axes))
    return np.moveaxis(out, list(range(m)), axes).reshape(-1)


def _live_leaves(ops, n_block: int, decisions, side: int) -> set[tuple[int, ...]]:
    """Digit tuples for which this block's state is non-zero.

    ``ops`` is the block's gate sequence in circuit order, with decision
    ``j`` written as ``("d", j, local_qubit)``.  The walk is depth-first over
    decision digits and prunes a prefix as soon as its state is zero.
    """
    live: set[tuple[int, ...]] = set()
    start = np.zeros(1 << n_block, dtype=complex)
    start[0] = 1.0

    def walk(state, pos: int, digits: tuple[int, ...]):
        while pos < len(ops) and ops[pos][0] == "g":
            _, mat, qs = ops[pos]
            state = _apply(state, mat, qs, n_block)
            pos += 1
        if pos == len(ops):
            if np.abs(state).max() >= ZERO_ATOL:
                live.add(digits)
            return
        _, j, q = ops[pos]
        for d, term in enumerate(decisions[j].terms):
            nxt = _apply(state, term[side], (q,), n_block)
            if np.abs(nxt).max() >= ZERO_ATOL:
                walk(nxt, pos + 1, digits + (d,))

    walk(start, 0, ())
    return live


def count_zero_paths(circuit, cut: int, cls) -> int:
    """Paths whose upper or lower block state is exactly zero (dense check)."""
    lower_set = set(cls.lower)
    by_gate = {dp.gate_index: j for j, dp in enumerate(cls.decisions)}
    upper_ops, lower_ops = [], []
    for i, g in enumerate(circuit.gates):
        j = by_gate.get(i)
        if j is not None:
            dp = cls.decisions[j]
            upper_ops.append(("d", j, dp.upper_qubit - cut))
            lower_ops.append(("d", j, dp.lower_qubit))
        elif i in lower_set:
            lower_ops.append(("g", g.operator(), g.qubits))
        else:
            upper_ops.append(("g", g.operator(), tuple(q - cut for q in g.qubits)))
    upper = _live_leaves(upper_ops, circuit.n - cut, cls.decisions, 0)
    lower = _live_leaves(lower_ops, cut, cls.decisions, 1)
    return cls.path_count - len(upper & lower)
