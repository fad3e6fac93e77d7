"""Baseline full-state simulation: fold the circuit's operators into the
state diagram, one multiplication per operator, where each run of one-qubit
gates on distinct qubits is one operator (their Kronecker product).  This is
the reference engine the cutting engines are checked against, and its fold,
:func:`apply_ops`, is the one the cutting engines run on each block.

The runs are fused once, where an op list is made (:func:`fuse_runs`, which
:func:`simulate` and :func:`qcdd.hybrid.classify` call), and each op carries
its content key from there.  :func:`apply_ops` is the one reader and writer
of the package's operator cache, keyed by that content, so an operator is
built once until the package next collects garbage, however often and
from wherever it is applied; it cuts a fused run short only when the
package is near its gc limit."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .circuit import Circuit
from .dd import Edge, Package


def fuse_runs(ops: Iterable[tuple]) -> list[tuple]:
    """``(qubits, matrix, unitary)`` ops as ``(qubits, matrix, unitary,
    key)`` ops, each maximal run of consecutive one-qubit ops on distinct
    qubits as one op ``(qubits, factors, unitary, key)``: ``factors`` stacks
    their 2x2 matrices as an ``(m, 2, 2)`` array (the factor form of
    :meth:`Package.matrix_dd`), and ``unitary`` holds only if all of them
    are.  ``key`` is the op's content, its qubits and the bytes of its
    complex matrix, under which :func:`apply_ops` caches its diagram."""
    out: list[tuple] = []
    run: list[tuple] = []
    for op in ops:
        qubits = op[0]
        if run and (len(qubits) != 1 or qubits[0] in seen):
            out.append(_stack(run))
            run = []
        if len(qubits) != 1:
            out.append(_keyed(*op))
            continue
        if not run:
            seen: set[int] = set()
        run.append(op)
        seen.add(qubits[0])
    if run:
        out.append(_stack(run))
    return out


def _stack(run: list[tuple]) -> tuple:
    qubits, factors, unitary = zip(*run)
    return _keyed(tuple(q for q, in qubits), factors, all(unitary))


def _keyed(qubits, matrix, unitary: bool) -> tuple:
    # the two forms' byte counts differ for every m but 1, where they agree
    qubits, matrix = tuple(qubits), np.asarray(matrix, dtype=complex)
    return qubits, matrix, unitary, (qubits, matrix.tobytes())


def apply_ops(
    pkg: Package,
    n: int,
    ops: Iterable[tuple],
    check_norm: bool = False,
    start: Edge | None = None,
    roots: Iterable[Edge] = (),
) -> Edge:
    """Fold ops from :func:`fuse_runs` into ``start``, by default |0...0>
    on ``n`` qubits, one operator per op, so a layer of one-qubit gates
    walks the state once.

    An op's diagram is read from the package's operator cache under ``(n,
    key)``; only when the cache lacks it is it built by
    :meth:`Package.matrix_dd` and stored there.  The package empties the
    cache at each collection, so it never answers with a swept diagram.
    The package may collect garbage after every operator, with the state
    and ``roots`` (states the caller still needs) as its vector roots;
    since it cannot collect inside one, a fused run is cut into pieces of at
    most ``max(1, gc_limit // (2 * live nodes))`` factors, the bound taken
    anew before each piece, and a cut piece is cached under ``(n, (key,
    start, stop))``.  ``check_norm`` asserts that every unitary operator
    keeps the norm, which starts as the start state's; an operator with a
    non-unitary op (a decision factor, which projects; a piece counts as
    one when its run does) sets the norm the following ones must keep.
    """
    state = pkg.make_basis_state(n, "0" * n) if start is None else start
    expected = pkg.norm(state) if check_norm else 1.0
    cache = pkg._memo_op
    for i, (qubits, matrix, unitary, key) in enumerate(_pieces(pkg, ops)):
        op = cache.get((n, key))
        if op is None:
            op = cache[n, key] = pkg.matrix_dd(n, qubits, matrix)
        state = pkg.multiply(op, state)
        if check_norm:
            nrm = pkg.norm(state)
            if not unitary:
                expected = nrm
            elif abs(nrm - expected) > 1e-10:
                raise AssertionError(
                    f"norm {nrm!r} != {expected!r} after operator {i} on {qubits}"
                )
        pkg.maybe_gc([state, *roots])
    return state


def _pieces(pkg: Package, ops: Iterable[tuple]) -> Iterator[tuple]:
    """``ops`` as the operators :func:`apply_ops` applies: a fused run in
    pieces of at most the bound, a cut piece keyed ``(key, start, stop)``,
    any other op as it is.  Lazy, so each piece's bound is taken from the
    package after the operators before it have been applied."""
    for op in ops:
        qubits, matrix, unitary, key = op
        if np.ndim(matrix) != 3:
            yield op
            continue
        pos, m = 0, len(qubits)
        while pos < m:
            stop = min(m, pos + max(1, pkg.gc_limit // (2 * max(1, pkg.live_nodes()))))
            if stop - pos == m:
                yield op
            else:
                yield qubits[pos:stop], matrix[pos:stop], unitary, (key, pos, stop)
            pos = stop


def simulate(circuit: Circuit, pkg: Package, *, check_norm: bool = False) -> Edge:
    """Run ``circuit`` from |0...0> and return the final state edge.

    ``check_norm`` asserts the state stays normalized after every operator
    (all circuit gates are unitary).  Garbage collection kicks in
    automatically when the package outgrows its node limit.
    """
    ops = fuse_runs((g.qubits, g.operator(), True) for g in circuit.gates)
    return apply_ops(pkg, circuit.n, ops, check_norm)
