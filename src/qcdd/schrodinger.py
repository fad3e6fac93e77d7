"""Baseline full-state simulation: fold every gate's matrix diagram into the
state diagram, one multiplication per gate.  This is the reference engine the
cutting engines are checked against, and its fold, :func:`apply_ops`, is the
one the cutting engines run on each block."""

from __future__ import annotations

from typing import Iterable

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

    The package may collect garbage after every op, with the state and
    ``roots`` (states the caller still needs) as its vector roots.
    ``check_norm`` asserts that every unitary op keeps the norm, which
    starts as the start state's; a non-unitary op (a decision factor, which
    projects) sets the norm the following ops must keep.
    """
    state = pkg.make_basis_state(n, "0" * n) if start is None else start
    expected = pkg.norm(state) if check_norm else 1.0
    for i, (qubits, matrix, unitary) in enumerate(ops):
        state = pkg.multiply(pkg.matrix_dd(n, qubits, matrix), state)
        if check_norm:
            nrm = pkg.norm(state)
            if not unitary:
                expected = nrm
            elif abs(nrm - expected) > 1e-10:
                raise AssertionError(f"norm {nrm!r} != {expected!r} after op {i} on {qubits}")
        pkg.maybe_gc([state, *roots])
    return state


def simulate(circuit: Circuit, pkg: Package, *, check_norm: bool = False) -> Edge:
    """Run ``circuit`` from |0...0> and return the final state edge.

    ``check_norm`` asserts the state stays normalized after every gate (all
    circuit gates are unitary).  Garbage collection kicks in automatically
    when the package outgrows its node limit.
    """
    ops = ((g.qubits, g.operator(), True) for g in circuit.gates)
    return apply_ops(pkg, circuit.n, ops, check_norm)
