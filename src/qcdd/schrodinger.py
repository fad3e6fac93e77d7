"""Baseline full-state simulation: fold the circuit's operators into the
state diagram, one multiplication per operator, where each run of one-qubit
gates on distinct qubits is one operator (their Kronecker product).  This is
the reference engine the cutting engines are checked against, and its fold,
:func:`apply_ops`, is the one the cutting engines run on each block.

The runs are fused once, where an op list is made (:func:`fuse_runs`, which
:func:`simulate` and :func:`qcdd.hybrid.classify` call); :func:`apply_ops`
only cuts a fused run short when the package is near its gc limit.  A
caller that applies the same ops many times, as the cutting engines' walk
does, keys them and hands :func:`apply_ops` a table of their diagrams."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .circuit import Circuit
from .dd import Edge, Package


def fuse_runs(ops: Iterable[tuple]) -> list[tuple]:
    """``(qubits, matrix, unitary)`` ops with each maximal run of
    consecutive one-qubit ops on distinct qubits as one op
    ``(qubits, factors, unitary)``: ``factors`` stacks their 2x2 matrices
    as an ``(m, 2, 2)`` array (the factor form of
    :meth:`Package.matrix_dd`), and ``unitary`` holds only if all of them
    are.  Any other op passes as it is."""
    out: list[tuple] = []
    run: list[tuple] = []
    for op in ops:
        qubits = op[0]
        if run and (len(qubits) != 1 or qubits[0] in seen):
            out.append(_stack(run))
            run = []
        if len(qubits) != 1:
            out.append(op)
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
    return tuple(q for q, in qubits), np.array(factors, dtype=complex), all(unitary)


def apply_ops(
    pkg: Package,
    n: int,
    ops: Iterable[tuple],
    check_norm: bool = False,
    start: Edge | None = None,
    roots: Iterable[Edge] = (),
    operators: dict | None = None,
) -> Edge:
    """Fold ``(qubits, matrix, unitary)`` ops into ``start``, by default
    |0...0> on ``n`` qubits, one operator per op.

    An op from :func:`fuse_runs` is one Kronecker-product operator, so a
    layer of one-qubit gates walks the state once.  The package may collect
    garbage after every operator, with the state and ``roots`` (states the
    caller still needs) as its vector roots; since it cannot collect inside
    one, a fused run is cut into pieces of at most
    ``max(1, gc_limit // (2 * live nodes))`` factors, the bound taken anew
    before each piece.  ``check_norm`` asserts that every unitary operator
    keeps the norm, which starts as the start state's; an operator with a
    non-unitary op (a decision factor, which projects; a piece counts as
    one when its run does) sets the norm the following ones must keep.

    ``operators``, a node table of ``pkg`` (:meth:`Package.node_table`),
    holds the operator diagrams of ops that carry a hashable key as a
    fourth element: such an op (a piece of a fused run: its key with the
    piece's bounds) is built by :meth:`Package.matrix_dd` only when the
    table lacks it, and stored there.  The package empties the table at
    each collection, so it never answers with a swept diagram.
    """
    state = pkg.make_basis_state(n, "0" * n) if start is None else start
    expected = pkg.norm(state) if check_norm else 1.0
    for i, (qubits, matrix, unitary, key) in enumerate(_pieces(pkg, ops)):
        op = None if operators is None else operators.get(key)
        if op is None:
            op = pkg.matrix_dd(n, qubits, matrix)
            if operators is not None and key is not None:
                operators[key] = op
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
    """``ops`` as the operators :func:`apply_ops` applies, each with its key
    (``None`` for an op without one): a fused run in pieces of at most the
    bound, keyed ``(key, start, stop)``, any other op as it is.  Lazy, so
    each piece's bound is taken from the package after the operators
    before it have been applied."""
    for qubits, matrix, unitary, *key in ops:
        key = key[0] if key else None
        if np.ndim(matrix) != 3:
            yield qubits, matrix, unitary, key
            continue
        pos, m = 0, len(qubits)
        while pos < m:
            stop = min(m, pos + max(1, pkg.gc_limit // (2 * max(1, pkg.live_nodes()))))
            piece = (qubits, matrix) if stop - pos == m else (qubits[pos:stop], matrix[pos:stop])
            yield *piece, unitary, None if key is None else (key, pos, stop)
            pos = stop


def simulate(circuit: Circuit, pkg: Package, *, check_norm: bool = False) -> Edge:
    """Run ``circuit`` from |0...0> and return the final state edge.

    ``check_norm`` asserts the state stays normalized after every operator
    (all circuit gates are unitary).  Garbage collection kicks in
    automatically when the package outgrows its node limit.
    """
    ops = fuse_runs((g.qubits, g.operator(), True) for g in circuit.gates)
    return apply_ops(pkg, circuit.n, ops, check_norm)
