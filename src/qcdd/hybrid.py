"""Circuit-cutting path-sum engines.

The qubit register is cut at index ``k``: qubits ``0..k-1`` form the lower
block, ``k..n-1`` the upper block.  Every two-qubit gate straddling the cut
is split over the operator basis of its upper-block operand,

    U = |0><0| (x) U00 + |0><1| (x) U01 + |1><0| (x) U10 + |1><1| (x) U11,

and becomes a decision point; choosing one term per decision yields one
path, and the full state is the sum over all paths.  Each path simulates
the two blocks independently (one diagram package per block, no shared
state); the path's summand is the tensor product of the two block states.
Each block is folded by :func:`qcdd.schrodinger.apply_ops`, the reference
engine's own gate loop.

The paths are walked in order through the decision tree.  Each block's ops
are split once at the decisions into segments, each segment's runs of
one-qubit gates fused into one op apiece, and a walk record holds a
stack of prefix states per block, so a path resumes from the prefix it
shares with the previous one and folds only the segments after it.  A
prefix whose state is zero in either block answers every path under it
with the zero edge, without folding.  The decision factors project, so
many prefixes reach the same block node at a later decision: the walk
record also keeps, per block, a table of the segment folds it has made,
keyed by the segment, its digit and the node before the segment's
factor, and answers a repeat by rescaling the stored end state.  The ops
carry content keys from ``classify``, so ``apply_ops`` builds each
distinct gate or decision factor once per block package until that
package next collects garbage, not once per application.

Both modes run one driver, ``_run_paths``, which hands the two block states
of each path whose blocks are both non-zero to a "summer".  Each worker
keeps one package per block and one walk record for all of its paths, so
the prefix states, the fold tables, the operator diagrams and the compute
tables stay warm from one path to the next.
``run_hybrid_amp`` writes each non-zero path's two block arrays as rows of
one shared mapping and forms the state as one matrix product of the
written rows (``_AmpSum``); a block node is extracted once, and a later
row on the same node is that row rescaled;
``run_hybrid_dd`` adds the paths as diagrams in the run's package
(``_DDSum``): it copies each block node there once per run, through one
import memo per block package, so the sub-nodes that the imported
diagrams share are copied once too; it sums the lower diagrams of the
paths that share an upper node, and splices each distinct upper node
once, above its sum, which forms the tensor products by distributivity.

With ``W`` workers of ``P`` paths, worker ``w`` walks the contiguous path
range ``[w * P // W, (w + 1) * P // W)``, so only a subtree cut by a range
boundary has prefixes that two workers both fold.  Worker 0 is the calling
process; workers ``1..W-1`` are forked OS processes, forked before worker 0
folds a path, and each replies through its own pipe; workers share no
lock.  Every worker writes its amplitude rows in place in the mapping,
which the caller made before the fork, so a forked amplitude worker sends
only their number; a forked DD worker sends its partial sum copied into a
fresh package, and the caller adds the partials to its own sum.
"""

from __future__ import annotations

import functools
import itertools
import mmap
import multiprocessing as mp
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .circuit import CapacityError, Circuit, Gate
from .dd import EXTRACT_CAP, ZERO_EDGE, Edge, Package
from .schrodinger import apply_ops, fuse_runs
from .weights import DEFAULT_TOL, ONE, check_tolerance


# version of the stats record's layout (``HybridResult.stats``, ``--stats``)
STATS_SCHEMA = 1


class TopologyError(Exception):
    """A gate layout the cutting scheme cannot decompose."""


@dataclass(frozen=True)
class Partition:
    """Cut position: lower block = qubits 0..cut-1, upper block = cut..n-1."""

    cut: int


def default_partition(n: int) -> Partition:
    """Two (almost) equally sized blocks."""
    return Partition(n // 2)


@dataclass
class DecisionPoint:
    """A cross-block gate with its decomposition terms.

    Each term pairs a single-qubit factor on the upper-block operand with the
    matching 2x2 sub-block on the lower-block operand, in operator-basis order
    (00, 01, 10, 11) with zero terms dropped.
    """

    gate_index: int
    upper_qubit: int
    lower_qubit: int
    terms: tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass
class Classification:
    """Gate indices per block plus the decision points, in circuit order.

    ``lower_segments``/``upper_segments`` are each block's ops in circuit
    order, in block-local qubits, split at the decisions: segment 0 holds
    the gates before decision 0, and segment ``j + 1`` opens with decision
    ``j`` and holds the gates up to the next decision.  A segment is a pair
    ``(factors, gates)`` of ops ready for :func:`~qcdd.schrodinger.apply_ops`,
    content-keyed as :func:`~qcdd.schrodinger.fuse_runs` makes them:
    ``factors[d]`` is the block's one-qubit factor op of its opening
    decision's term ``d`` (non-unitary; none in segment 0), and ``gates``
    the segment's gates with their runs of one-qubit gates fused.
    """

    lower: list[int]
    upper: list[int]
    decisions: list[DecisionPoint]
    lower_segments: list[tuple[tuple, list[tuple]]]
    upper_segments: list[tuple[tuple, list[tuple]]]

    @property
    def path_count(self) -> int:
        count = 1
        for dp in self.decisions:
            count *= len(dp.terms)
        return count


_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def schmidt_terms(gate: Gate, partition: Partition, gate_index: int = -1) -> DecisionPoint:
    """Operator-basis decomposition of a two-qubit gate straddling the cut."""
    qs = gate.qubits
    if len(qs) != 2:
        raise TopologyError(
            f"gate {gate_index} ({gate.kind}) acts on {len(qs)} qubits across the cut"
        )
    k = partition.cut
    a, b = qs
    if (a < k) == (b < k):
        raise ValueError(f"gate {gate.kind} on {qs} does not straddle cut {k}")
    mat = gate.operator()
    if a < k:
        # listed order puts the lower operand in the high bit; reorder
        mat = _SWAP @ mat @ _SWAP
        upper_q, lower_q = b, a
    else:
        upper_q, lower_q = a, b
    terms = []
    for i in (0, 1):
        for j in (0, 1):
            sub = mat[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            if np.abs(sub).max() == 0.0:
                continue
            upper = np.zeros((2, 2), dtype=complex)
            upper[i, j] = 1.0
            terms.append((upper, np.ascontiguousarray(sub)))
    return DecisionPoint(gate_index, upper_q, lower_q, tuple(terms))


def classify(circuit: Circuit, partition: Partition) -> Classification:
    """Assign every gate to the lower block, the upper block, or a decision
    point, preserving circuit order within each group."""
    k = partition.cut
    if not 1 <= k <= circuit.n - 1:
        raise ValueError(f"cut {k} invalid for {circuit.n} qubits (need 1..{circuit.n - 1})")
    lower: list[int] = []
    upper: list[int] = []
    decisions: list[DecisionPoint] = []
    lower_segments: list = [((), [])]
    upper_segments: list = [((), [])]
    for i, g in enumerate(circuit.gates):
        qs = g.qubits
        lo = any(q < k for q in qs)
        hi = any(q >= k for q in qs)
        if lo and hi:
            dp = schmidt_terms(g, partition, i)
            decisions.append(dp)
            # on one qubit no two factors fuse: each stays an op of its own
            for segments, q, factors in zip((upper_segments, lower_segments),
                                            (dp.upper_qubit - k, dp.lower_qubit), zip(*dp.terms)):
                segments.append((tuple(fuse_runs(((q,), f, False) for f in factors)), []))
        elif lo:
            lower.append(i)
            lower_segments[-1][1].append((qs, g.operator(), True))
        else:
            upper.append(i)
            upper_segments[-1][1].append((tuple(q - k for q in qs), g.operator(), True))
    for segments in (lower_segments, upper_segments):
        segments[:] = [(factors, fuse_runs(gates)) for factors, gates in segments]
    return Classification(lower, upper, decisions, lower_segments, upper_segments)


def path_digits(decisions: list[DecisionPoint], index: int) -> tuple[int, ...]:
    """Digits of path ``index`` in lexicographic order (first decision is the
    most significant digit; digit d selects terms[d])."""
    digits: list[int] = []
    for dp in reversed(decisions):
        index, r = divmod(index, len(dp.terms))
        digits.append(r)
    if index:
        raise ValueError("path index out of range")
    return tuple(reversed(digits))


class _Walk:
    """A walk record: where a run of paths through the decision tree stands.

    ``digits`` are the decisions taken so far.  ``stacks`` holds the upper
    and the lower block's stack of prefix states: entry ``s`` is the block
    state after its segments ``0..s``, so each stack is one longer than
    ``digits`` once the walk has started.  Both stacks stop growing at the
    first zero state in either block.  A record serves one pair of block
    packages, and ``cls``, the classification of its first path, whose
    segment positions key its tables.

    The record keeps one fold table per block, its node table in the
    block's package (:meth:`Package.node_table`), which the package empties
    at each garbage collection.  A fold is linear, so segment ``s`` folded
    with digit ``d`` from ``(w, node)`` ends on the same node as a fold from
    any other weight on ``node``, with its weight scaled: the table maps
    ``((s, d), node)``, the state before the segment's factor, to the start
    weight and end edge of the first such fold, and a repeat applies not
    even the factor.  ``fold_hits`` counts the folds the table answered.
    """

    def __init__(self, pkg_upper: Package, pkg_lower: Package):
        self.packages = (pkg_upper, pkg_lower)
        self.cls: Classification | None = None
        self.digits: tuple[int, ...] = ()
        self.stacks: tuple[list[Edge], list[Edge]] = ([], [])
        self.tables = (pkg_upper.node_table(self), pkg_lower.node_table(self))
        self.fold_hits = 0

    def fold(self, b: int, n: int, s: int, path: tuple[int, ...], check_norm: bool) -> Edge:
        """Block ``b``'s (0 upper, 1 lower) state on ``n`` qubits after its
        segment ``s`` on ``path``: segment 0 from |0...0>, a later one from
        the top of the block's stack.  A later segment is answered from the
        fold table when the table holds its start node for the segment and
        digit.  Otherwise its factor is applied, and a state that is not
        zero is folded through the rest.  The entry is always stored: its
        key's node is the start state's, which is on the stack, a gc root,
        so a collection during the fold cannot have reused its id."""
        pkg, stack, table = self.packages[b], self.stacks[b], self.tables[b]
        factors, gates = (self.cls.upper_segments, self.cls.lower_segments)[b][s]
        if not s:
            return apply_ops(pkg, n, gates, check_norm, None, stack)
        d = path[s - 1]
        w, node = stack[-1]
        key = (s, d), node
        hit = table.get(key)
        if hit is not None:
            self.fold_hits += 1
            ref, (end_w, end_t) = hit
            return pkg._intern((end_w * (w / ref), end_t))
        end = apply_ops(pkg, n, factors[d : d + 1], check_norm, stack[-1], stack)
        if end != ZERO_EDGE:
            end = apply_ops(pkg, n, gates, check_norm, end, stack)
        table[key] = w, end
        return end


def simulate_path(
    circuit: Circuit,
    partition: Partition,
    path: tuple[int, ...],
    pkg_upper: Package,
    pkg_lower: Package,
    cls: Classification | None = None,
    check_norm: bool = False,
    walk: _Walk | None = None,
) -> tuple[Edge, Edge]:
    """Simulate both blocks for one path; results live in the given (disjoint)
    packages.  ``path`` holds one digit per decision point.

    The path resumes from the longest prefix it shares with ``walk`` (a
    fresh record when ``None``) and folds only the segments after it, both
    blocks one decision at a time, pushing each prefix state on the
    record.  A segment whose state before its decision factor sits on a
    node the record has already folded that segment and digit from is not
    folded again: the stored end state is rescaled (see :class:`_Walk`).
    With ``check_norm`` such a hit is not checked again; it repeats a fold
    that passed the check, and the norm scales with the weight.  Once
    either block's prefix state is zero, the path, and every later path
    under that prefix, returns the zero edge for both blocks without
    folding.  Each package may collect garbage during a fold, with its
    block state and the record's stack as roots, so a block state from an
    earlier call must not be needed after this one.  A record serves the
    packages and the classification (``cls`` as given, or made here) of
    its first path; handed other ones, this raises ``ValueError``."""
    if pkg_upper is pkg_lower:
        raise ValueError("the two blocks need two different packages")
    if cls is None:
        cls = classify(circuit, partition)
    if len(path) != len(cls.decisions):
        raise ValueError(f"path has {len(path)} digits, expected {len(cls.decisions)}")
    for d, dp in zip(path, cls.decisions):
        if not 0 <= d < len(dp.terms):
            raise ValueError(f"digit {d} out of range for decision at gate {dp.gate_index}")
    if walk is None:
        walk = _Walk(pkg_upper, pkg_lower)
    elif walk.packages[0] is not pkg_upper or walk.packages[1] is not pkg_lower:
        raise ValueError("the walk record belongs to other packages")
    if walk.cls is None:
        walk.cls = cls
    elif walk.cls is not cls:
        raise ValueError("the walk record serves another classification")
    k = partition.cut
    widths = (circuit.n - k, k)
    upper, lower = walk.stacks
    shared = 0
    while shared < len(walk.digits) and walk.digits[shared] == path[shared]:
        shared += 1
    del upper[shared + 1 :], lower[shared + 1 :]
    while True:
        if upper and ZERO_EDGE in (upper[-1], lower[-1]):
            return ZERO_EDGE, ZERO_EDGE
        s = len(upper)
        if s > len(path):
            return upper[-1], lower[-1]
        ends = [walk.fold(b, n, s, path, check_norm) for b, n in enumerate(widths)]
        upper.append(ends[0])
        lower.append(ends[1])
        walk.digits = path[:s]


@dataclass
class HybridResult:
    """Outcome of a path-sum run.  ``state``/``package`` are set in DD mode,
    ``vector`` in amplitude mode; ``stats`` is a JSON-ready record."""

    mode: str
    n: int
    cut: int
    decisions: int
    path_count: int
    workers: int
    state: Edge | None = None
    package: Package | None = None
    vector: np.ndarray | None = None
    stats: dict = field(default_factory=dict)


_STAGES = ("simulate", "kron", "extract", "add")


class _AmpSum:
    """Amplitude mode: each non-zero path's two block arrays are extracted
    and kept as one row each.  With cut ``k`` the state, reshaped to
    ``(2**(n-k), 2**k)`` with the upper block in the high bits, is
    ``U[:m].T @ L[:m]``, where row ``r`` of ``U`` and ``L`` holds the upper
    and lower block array of the ``r``-th of the ``m`` non-zero paths.  Both
    live in one anonymous shared mapping with a row pair per path, made here
    before any worker is forked, so a forked worker writes its paths' rows
    in place and ships only their number.  A worker writes its non-zero
    paths' rows one after another from the start of its own path range, and
    ``total`` moves each forked worker's rows down behind the ones before
    them, so the product skips the zero paths, whose rows are never
    written.

    Many paths end on the same block node.  Per block, the summer's node
    table in the block's package (:meth:`Package.node_table`) maps a node
    id to the first row extracted from that node and that row's edge
    weight, and a later path ending on the node fills its row with that row
    rescaled, without extracting again.  The package drops the map at its
    next garbage collection, since node ids are then reused."""

    mode = "hybrid-amp"

    def __init__(self, n: int, cut: int, paths: int, tol: float, amp_cap: int):
        """Rows for ``paths`` paths; ``CapacityError`` when they would exceed
        ``2**amp_cap`` amplitudes."""
        widths = 1 << (n - cut), 1 << cut
        amps = paths * sum(widths)
        if amps > 1 << amp_cap:
            raise CapacityError(
                f"amplitude mode needs block rows of {amps} amplitudes for {paths}"
                f" paths; cap is 2**{amp_cap}"
            )
        self.tol = tol
        self.amp_cap = amp_cap
        rows = np.frombuffer(mmap.mmap(-1, amps * 16), dtype=complex)
        self.upper = rows[: paths * widths[0]].reshape(paths, widths[0])
        self.lower = rows[paths * widths[0] :].reshape(paths, widths[1])
        # rows this process wrote, from the start of its range; after
        # total, the rows the product read
        self.written = 0

    def add_path(self, row: int, up: Package, ue: Edge, lo: Package, le: Edge, times: dict):
        t0 = time.perf_counter()
        self._fill(self.upper[row], up, ue)
        self._fill(self.lower[row], lo, le)
        self.written += 1
        times["extract"] += time.perf_counter() - t0

    def _fill(self, row: np.ndarray, pkg: Package, e: Edge):
        """Write the array of ``e`` into ``row``."""
        filled = pkg.node_table(self)
        hit = filled.get(e[1])
        if hit is None:
            row[:] = pkg.extract_statevector(e)
            filled[e[1]] = row, e[0]
        else:
            first, w = hit
            np.multiply(first, e[0] / w, out=row)

    def ship(self, times: dict) -> int:
        """The number of rows written: the rows are already in the shared
        mapping."""
        return self.written

    def total(self, shipped, times: dict) -> np.ndarray:
        """The state, ``U[:m].T @ L[:m]`` of the ``m`` written rows, as a
        fresh array.  Forked worker ``w``'s ``shipped[w - 1]`` rows start
        its path range, and are moved down behind the rows before them
        first.  A move copies between 1-D views of the mapping, which numpy
        does like ``memmove``, without a temporary copy where they
        overlap."""
        t0 = time.perf_counter()
        m = self.written
        for w, count in enumerate(shipped, 1):
            start = _path_range(w, len(shipped) + 1, len(self.upper)).start
            if count and start != m:
                for rows in (self.upper, self.lower):
                    flat, width = rows.reshape(-1), rows.shape[1]
                    src = flat[start * width : (start + count) * width]
                    flat[m * width : (m + count) * width] = src
            m += count
        self.written = m
        state = (self.upper[:m].T @ self.lower[:m]).ravel()
        times["kron"] += time.perf_counter() - t0
        return state


class _DDSum:
    """DD mode: the state is ``sum_p w_p U_u(p) (x) L_l(p)`` over the
    non-zero paths ``p``, where ``U_u`` and ``L_l`` are the block nodes the
    path ends on and ``w_p`` the product of their weights; it is formed as
    ``sum_u U_u (x) (sum_{p in u} w_p L_l(p))``, with one group per
    distinct upper node holding that node and the running sum of its
    paths' lower diagrams.  Each block package keeps one import memo, its
    node table owned by the run's package (:meth:`Package.node_table`),
    which maps each block node copied so far, sub-nodes included, to its
    copy there (see :meth:`Package.import_edge`).  So a block node is
    copied once per run (per gc epoch of its package), however many
    imported diagrams share it; a later path on a lower node rescales the
    memo's edge without calling ``import_edge``.  The map from an upper
    node to its group is the summer's node table in the upper package.
    The block packages drop these tables at their next garbage collection.

    ``ship``/``total`` splice each group's upper node above its lower sum,
    in creation order, and add the products by a binary counter, so the
    addition tree has logarithmic depth in the number of groups.  The run's
    package may collect garbage after each path and each splice, with the
    counter's slots, the groups not yet spliced and, until splicing starts,
    the memos' edges as roots; splicing empties the memos.  A forked worker
    ships its partial sum copied into a fresh package, with its number of
    splices; the calling process splices its own groups, imports the
    partials and adds them by the same counter."""

    mode = "hybrid-dd"

    def __init__(self, cut: int, tol: float, amp_cap: int):
        self.cut = cut
        self.tol = tol
        self.amp_cap = amp_cap
        self.pkg = Package(tol, extract_cap=amp_cap)
        self.slots: list[Edge | None] = []
        # [upper edge, lower sum] per group, in creation order
        self.groups: list[list[Edge]] = []
        # each block package's import memo (its node table owned by pkg)
        self.memos: tuple[dict[int, Edge], ...] = ()
        self.splices = 0

    def add_path(self, row: int, up: Package, ue: Edge, lo: Package, le: Edge, times: dict):
        t0 = time.perf_counter()
        pkg = self.pkg
        self.memos = up_memo, lo_memo = up.node_table(pkg), lo.node_table(pkg)
        lower = lo_memo.get(le[1])
        if lower is None:
            # the memo's raw-weight edge, the one every later path reads
            pkg.import_edge(lo, (ONE, le[1]), memo=lo_memo)
            lower = lo_memo[le[1]]
        groups = up.node_table(self)
        group = groups.get(ue[1])
        if group is None:
            upper = pkg.import_edge(up, (ONE, ue[1]), memo=up_memo)
            group = groups[ue[1]] = [upper, ZERO_EDGE]
            self.groups.append(group)
        t1 = time.perf_counter()
        group[1] = pkg.add(group[1], (ue[0] * le[0] * lower[0], lower[1]))
        times["kron"] += t1 - t0
        times["add"] += time.perf_counter() - t1
        pkg.maybe_gc(self._roots(self.groups, *(m.values() for m in self.memos)))

    def _roots(self, groups, *imported) -> Iterator[Edge]:
        """The run package's gc roots: the counter's slots, the edges of
        ``groups`` and the edges of each of the ``imported`` iterables."""
        yield from (s for s in self.slots if s is not None)
        for group in groups:
            yield from group
        for edges in imported:
            yield from edges

    def _splice(self, times: dict):
        """Splice every group and add the products by the counter.  The
        import memos are emptied first: their edges are no gc roots from
        here on."""
        for memo in self.memos:
            memo.clear()
        self.memos = ()
        pkg, groups = self.pkg, self.groups
        for i, (upper, lower) in enumerate(groups):
            t0 = time.perf_counter()
            contrib = pkg.import_edge(pkg, upper, shift=self.cut, splice=lower)
            t1 = time.perf_counter()
            self._push(contrib)
            times["kron"] += t1 - t0
            times["add"] += time.perf_counter() - t1
            pkg.maybe_gc(self._roots(itertools.islice(groups, i + 1, None)))
        self.splices += len(groups)
        self.groups = []

    def _push(self, contrib: Edge):
        slots = self.slots
        pos = 0
        while pos < len(slots) and slots[pos] is not None:
            contrib = self.pkg.add(slots[pos], contrib)
            slots[pos] = None
            pos += 1
        if pos == len(slots):
            slots.append(contrib)
        else:
            slots[pos] = contrib

    def _sum(self) -> Edge:
        """The counter's slots added up; the zero edge when all are empty."""
        live = [s for s in self.slots if s is not None]
        return functools.reduce(lambda acc, s: self.pkg.add(s, acc), live, ZERO_EDGE)

    def ship(self, times: dict):
        """A forked worker's partial: its sum copied into a fresh package,
        which holds only that diagram's nodes, the edge there, and the
        number of groups it spliced.  The splices are booked in ``times``
        as in ``total``, the sum and the copy as ``add``."""
        self._splice(times)
        t0 = time.perf_counter()
        out = Package(self.tol, extract_cap=self.amp_cap)
        edge = out.import_edge(self.pkg, self._sum())
        times["add"] += time.perf_counter() - t0
        return out, edge, self.splices

    def total(self, shipped, times: dict) -> Edge:
        self._splice(times)
        t0 = time.perf_counter()
        for pkg, edge, splices in shipped:
            self.splices += splices
            self._push(self.pkg.import_edge(pkg, edge))
        state = self._sum()
        times["add"] += time.perf_counter() - t0
        return state


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the host's CPU count.  The default worker count
    of the CLI and of the bench harness."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _path_range(w: int, workers: int, paths: int) -> range:
    """Worker ``w``'s contiguous share of ``paths`` paths over ``workers``."""
    return range(w * paths // workers, (w + 1) * paths // workers)


def _sum_paths(circuit, partition, cls, w, workers, check_norm, summer):
    """Worker ``w`` of ``workers``: walk the contiguous path range
    ``[w * P // workers, (w + 1) * P // workers)`` of the ``P`` paths in
    order, with one package per block and one walk record, and fold each
    path whose two block states are both non-zero into ``summer``, with
    its row: the path's index less the zero paths before it in the range,
    so the rows run on from the range's start.  The paths of a subtree are
    neighbours in the range, so the worker folds each of its prefix states
    once.  Returns the stage times, the two block packages' peak node
    counts added, the number of zero paths and the walk record's
    ``fold_hits``."""
    times = dict.fromkeys(_STAGES, 0.0)
    paths = _path_range(w, workers, cls.path_count)
    up = Package(summer.tol, extract_cap=summer.amp_cap)
    lo = Package(summer.tol, extract_cap=summer.amp_cap)
    walk = _Walk(up, lo)
    zero_paths = 0
    for i in paths:
        digits = path_digits(cls.decisions, i)
        t0 = time.perf_counter()
        ue, le = simulate_path(circuit, partition, digits, up, lo, cls, check_norm, walk)
        times["simulate"] += time.perf_counter() - t0
        if ZERO_EDGE in (ue, le):
            zero_paths += 1
        else:
            summer.add_path(i - zero_paths, up, ue, lo, le, times)
    return times, up.peak_nodes + lo.peak_nodes, zero_paths, walk.fold_hits


def _worker(circuit, partition, cls, w, workers, check_norm, summer, conn):
    """A forked worker: sums its paths and sends one reply through its pipe."""
    try:
        times, *counts = _sum_paths(circuit, partition, cls, w, workers, check_norm, summer)
        conn.send(("ok", summer.ship(times), times, *counts))
    except BaseException:
        conn.send(("err", traceback.format_exc()))


def _run_paths(circuit, partition, cls, workers, check_norm, summer):
    """The path sum of both modes; ``summer`` decides how paths recombine.

    Worker ``w`` of ``W`` walks the ``w``-th of ``W`` contiguous path
    ranges.  Worker 0 is this process; workers ``1..W-1`` are forked, each
    with its own pipe, before this process folds its first path, so none
    inherits its partial sum.  With one worker nothing is forked.
    Returns (sum, stats record); the record's ``zero_paths``
    counts the paths answered with a zero block state and its
    ``fold_hits`` the segment folds answered from the walk records' fold
    tables, both over all workers.

    A summer takes each non-zero path, with its row, by ``add_path``; a
    forked worker replies with ``ship(times)``, and ``total`` gives the
    run's sum from this process's paths and the list of those replies.  A
    forked worker that raises sends its traceback; one that dies without
    reporting (hard kill, out-of-memory) leaves EOF on its pipe.  Either
    way, and when worker 0's own range raises, the forked workers are
    terminated, all are joined, and the run fails instead of hanging.
    ``workers`` below 1 raises ``ValueError``; ``None`` means 1.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    total = cls.path_count
    workers = min(workers or 1, total)
    t_start = time.perf_counter()
    ctx = mp.get_context("fork")
    procs, conns, shipped = [], [], []
    try:
        for w in range(1, workers):
            conn, child_conn = ctx.Pipe(duplex=False)
            conns.append(conn)
            args = (circuit, partition, cls, w, workers, check_norm, summer, child_conn)
            proc = ctx.Process(target=_worker, args=args, daemon=True)
            proc.start()
            procs.append(proc)
            # the worker holds the only write end, so its exit means EOF here
            child_conn.close()
        replies = [_sum_paths(circuit, partition, cls, 0, workers, check_norm, summer)]
        for w, (proc, conn) in enumerate(zip(procs, conns), 1):
            try:
                reply = conn.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"worker died without reporting (exit code {proc.exitcode})"
                ) from None
            if reply[0] == "err":
                raise RuntimeError(f"worker {w} failed:\n{reply[1]}")
            shipped.append(reply[1])
            replies.append(reply[2:])
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()
    worker_times, nodes, zeros, hits = zip(*replies)
    times = {stage: sum(t[stage] for t in worker_times) for stage in _STAGES}
    result = summer.total(shipped, times)
    times["total"] = time.perf_counter() - t_start
    return result, dict(
        schema=STATS_SCHEMA, mode=summer.mode, n=circuit.n, cut=partition.cut,
        decisions=len(cls.decisions), path_count=total, workers=workers, times=times,
        max_path_nodes=max(nodes), zero_paths=sum(zeros), fold_hits=sum(hits),
    )


def _result(stats: dict, **outcome) -> HybridResult:
    return HybridResult(
        stats["mode"], stats["n"], stats["cut"], stats["decisions"], stats["path_count"],
        stats["workers"], stats=stats, **outcome,
    )


def run_hybrid_amp(
    circuit: Circuit,
    partition: Partition | None = None,
    workers: int = 1,
    tol: float = DEFAULT_TOL,
    amp_cap: int = EXTRACT_CAP,
    check_norm: bool = False,
) -> HybridResult:
    """Path-sum run recombining through dense block arrays.

    Cross-path diagrams are never added as diagrams.  Memory budget, in
    complex amplitudes: the rows, ``2**(n-k) + 2**k`` per path, zero paths
    included, allocated once in one mapping shared with the workers before
    any is forked, plus the ``2**n`` output; the product reads only the
    non-zero paths' rows.  ``CapacityError`` is raised
    up front when ``n`` exceeds ``amp_cap`` or when the rows would exceed
    ``2**amp_cap`` amplitudes.
    """
    n = circuit.n
    if n > amp_cap:
        raise CapacityError(
            f"amplitude mode needs an output of 2**{n} amplitudes; cap is 2**{amp_cap}"
        )
    # the block packages are made in the workers: check the tolerance here
    check_tolerance(tol)
    partition = partition or default_partition(n)
    cls = classify(circuit, partition)
    summer = _AmpSum(n, partition.cut, cls.path_count, tol, amp_cap)
    vector, stats = _run_paths(circuit, partition, cls, workers, check_norm, summer)
    return _result(stats, vector=vector)


def run_hybrid_dd(
    circuit: Circuit,
    partition: Partition | None = None,
    workers: int = 1,
    tol: float = DEFAULT_TOL,
    amp_cap: int = EXTRACT_CAP,
    check_norm: bool = False,
) -> HybridResult:
    """Path-sum run recombining by decision diagram addition.

    The final state lives in a package private to the run, which refuses
    dense extraction above ``amp_cap`` qubits.
    """
    partition = partition or default_partition(circuit.n)
    cls = classify(circuit, partition)
    summer = _DDSum(partition.cut, tol, amp_cap)
    edge, stats = _run_paths(circuit, partition, cls, workers, check_norm, summer)
    stats["final_nodes"] = summer.pkg.count_nodes(edge)
    stats["splices"] = summer.splices
    return _result(stats, state=edge, package=summer.pkg)
