"""Baseline full-state simulation: fold the circuit's operators into the
state diagram, one multiplication per operator, where each run of one-qubit
gates on distinct qubits is one operator (their Kronecker product).  This is
the reference engine the cutting engines are checked against, and its fold,
:func:`apply_ops`, is the one the cutting engines run on each block."""

from __future__ import annotations

from typing import Iterable, Iterator

from .circuit import Circuit
from .dd import Edge, Package


def apply_ops(
    pkg: Package,
    n: int,
    ops: Iterable[tuple],
    check_norm: bool = False,
    start: Edge | None = None,
    roots: Iterable[Edge] = (),
) -> Edge:
    """Fold ``(qubits, matrix, unitary)`` ops into ``start``, by default
    |0...0> on ``n`` qubits.

    Each maximal run of consecutive one-qubit ops on distinct qubits is
    applied as one operator, the Kronecker product of their matrices
    (the factor form of :meth:`Package.matrix_dd`), so a layer of one-qubit
    gates walks the state once.  The package may collect garbage after
    every operator, with the state and ``roots`` (states the caller still
    needs) as its vector roots; since it cannot collect inside one, a run is
    cut after ``max(1, gc_limit // (2 * live nodes))`` ops, counted as the
    run starts.  ``check_norm`` asserts that every unitary operator keeps
    the norm, which starts as the start state's; an operator with a
    non-unitary op (a decision factor, which projects) sets the norm the
    following ones must keep.
    """
    state = pkg.make_basis_state(n, "0" * n) if start is None else start
    expected = pkg.norm(state) if check_norm else 1.0
    for i, (qubits, matrix, unitary) in enumerate(_operators(pkg, ops)):
        state = pkg.multiply(pkg.matrix_dd(n, qubits, matrix), state)
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


def _operators(pkg: Package, ops: Iterable[tuple]) -> Iterator[tuple]:
    """``ops`` as the operators :func:`apply_ops` applies: a run of
    one-qubit ops becomes ``(qubits, factors, unitary)``, ``unitary`` only
    if all of them are; any other op passes as it is.  Lazy, so the bound
    on a run's length is taken from the package after the operators before
    it have been applied."""
    run: list[tuple] = []
    for op in ops:
        qubits = op[0]
        if run and (len(qubits) != 1 or len(run) == cap or qubits[0] in seen):
            yield _fuse(run)
            run = []
        if len(qubits) != 1:
            yield op
            continue
        if not run:
            cap = max(1, pkg.gc_limit // (2 * max(1, pkg.live_nodes())))
            seen: set[int] = set()
        run.append(op)
        seen.add(qubits[0])
    if run:
        yield _fuse(run)


def _fuse(run: list[tuple]) -> tuple:
    qubits, factors, unitary = zip(*run)
    return tuple(q for q, in qubits), factors, all(unitary)


def simulate(circuit: Circuit, pkg: Package, *, check_norm: bool = False) -> Edge:
    """Run ``circuit`` from |0...0> and return the final state edge.

    ``check_norm`` asserts the state stays normalized after every operator
    (all circuit gates are unitary).  Garbage collection kicks in
    automatically when the package outgrows its node limit.
    """
    ops = ((g.qubits, g.operator(), True) for g in circuit.gates)
    return apply_ops(pkg, circuit.n, ops, check_norm)
