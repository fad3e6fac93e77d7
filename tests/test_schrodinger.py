from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcdd.circuit import Circuit, Gate, apply_matrix, dense_simulate, generate_random_circuit
from qcdd.dd import Package
from qcdd.schrodinger import apply_ops, fuse_runs, simulate
from qcdd.weights import ZERO
from conftest import FIG_STATE, gate_lists


def dd_columns(pkg, m_edge, n):
    """Dense expansion of a matrix diagram by applying it to every basis state."""
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        col = pkg.multiply(m_edge, pkg.make_basis_state(n, format(j, f"0{n}b")))
        out[:, j] = pkg.extract_statevector(col, n)
    return out


def padded_operator(g, n):
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[j] = 1
        out[:, j] = apply_matrix(basis, g.operator(), g.qubits, n)
    return out


def test_cz_gate_dd_structure():
    # controlled-Z on (control q1, target q0): the control level branches into
    # identity under the |0><0| successor and Z under |1><1|, nothing else
    pkg = Package()
    g = Gate("cz", controls=(1,), targets=(0,))
    e = pkg.matrix_dd(2, g.qubits, g.operator())
    level, w0, t0, w1, t1, w2, t2, w3, t3 = pkg._nodes[e[1]]
    assert level == 1
    assert w1 == ZERO and w2 == ZERO
    ident = pkg._nodes[t0]
    zgate = pkg._nodes[t3]
    assert list(ident[1::2]) == [1, 0, 0, 1]
    assert list(zgate[1::2]) == [1, 0, 0, -1]
    assert np.allclose(dd_columns(pkg, e, 2), np.diag([1, 1, 1, -1]), atol=1e-13)


def test_identity_gate_noop():
    pkg = Package()
    c = generate_random_circuit(4, 3, seed=1, cz_density=0.5)
    v = simulate(c, pkg)
    g = Gate("i", targets=(2,))
    e = pkg.matrix_dd(4, g.qubits, g.operator())
    assert pkg.multiply(e, v) == v


@pytest.mark.parametrize(
    "gate,n",
    [
        (Gate("cx", controls=(2,), targets=(0,)), 4),
        (Gate("cx", controls=(0,), targets=(3,)), 4),
        (Gate("swap", targets=(1, 3)), 4),
        (Gate("cp", (0.7,), controls=(1,), targets=(2,)), 4),
        (Gate("x", controls=(2, 1), targets=(0,)), 3),  # programmatic Toffoli
    ],
)
def test_gate_dd_matches_padded_matrix(gate, n):
    pkg = Package()
    e = pkg.matrix_dd(n, gate.qubits, gate.operator())
    assert np.abs(dd_columns(pkg, e, n) - padded_operator(gate, n)).max() < 1e-12


def test_gate_dd_index_out_of_range():
    pkg = Package()
    with pytest.raises(ValueError):
        g = Gate("h", targets=(4,))
        pkg.matrix_dd(4, g.qubits, g.operator())


def test_simulate_reference_circuit(fig4):
    pkg = Package()
    e = simulate(fig4, pkg, check_norm=True)
    assert np.abs(pkg.extract_statevector(e) - FIG_STATE).max() < 1e-12
    assert pkg.count_nodes(e) == 9


def test_simulate_empty_circuit():
    pkg = Package()
    e = simulate(Circuit(5), pkg)
    assert e == pkg.make_basis_state(5, "00000")


def test_simulate_matches_dense_oracle():
    c = generate_random_circuit(8, 12, seed=3, cz_density=0.4)
    pkg = Package()
    v = pkg.extract_statevector(simulate(c, pkg, check_norm=True))
    assert np.abs(v - dense_simulate(c)).max() < 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_simulate_corpus_with_norm_checks(seed):
    c = generate_random_circuit(6 + seed, 8, seed=seed, cz_density=0.4)
    pkg = Package()
    v = pkg.extract_statevector(simulate(c, pkg, check_norm=True))
    ref = dense_simulate(c)
    assert np.abs(v - ref).max() < 1e-10
    assert abs(np.linalg.norm(v) - 1) < 1e-10


def test_simulate_multi_controlled():
    gates = (
        Gate("x", targets=(2,)),
        Gate("x", targets=(1,)),
        Gate("x", controls=(2, 1), targets=(0,)),
    )
    c = Circuit(3, gates)
    pkg = Package()
    v = pkg.extract_statevector(simulate(c, pkg))
    assert np.abs(v - dense_simulate(c)).max() < 1e-12
    assert abs(v[0b111] - 1) < 1e-12


def test_simulate_with_gc_pressure():
    c = generate_random_circuit(9, 10, seed=8, cz_density=0.5)
    pkg = Package(gc_limit=500)
    v = pkg.extract_statevector(simulate(c, pkg))
    assert pkg.gc_runs > 0
    assert np.abs(v - dense_simulate(c)).max() < 1e-10


def fold_op_by_op(n, ops, gc_limit=200_000):
    """The fold one multiplication per op: the package, its final state."""
    pkg = Package(gc_limit=gc_limit)
    state = pkg.make_basis_state(n, "0" * n)
    for qubits, matrix, _ in ops:
        state = pkg.multiply(pkg.matrix_dd(n, qubits, matrix), state)
        pkg.maybe_gc([state])
    return pkg, state


@st.composite
def op_lists(draw):
    """A gate list's ops with non-unitary 2x2 factors mixed in (random ones
    with a zero row, as a decision factor has, or with some zero entries),
    as ``(qubits, matrix, unitary)``."""
    c = draw(gate_lists())
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    ops = []
    for g in c.gates:
        if rng.random() < 0.3:
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if rng.random() < 0.5:
                m[rng.integers(2)] = 0  # one zero row, as in a decision factor
            else:
                m = m * (rng.random((2, 2)) < 0.6)
            ops.append(((int(rng.integers(c.n)),), m, False))
        ops.append((g.qubits, g.operator(), True))
    return c.n, ops


@given(op_lists(), st.integers(0, 400))
@settings(max_examples=80, deadline=None)
def test_fused_fold_matches_op_by_op_fold(case, gc_limit):
    # runs of one-qubit ops are applied as one Kronecker-product operator;
    # a small gc_limit cuts them short, down to one op at gc_limit 0
    n, ops = case
    pkg = Package(gc_limit=gc_limit)
    fused = pkg.extract_statevector(apply_ops(pkg, n, fuse_runs(ops), check_norm=True), n)
    ref_pkg, ref = fold_op_by_op(n, ops)
    vec = np.zeros(1 << n, dtype=complex)
    vec[0] = 1
    for qubits, matrix, _ in ops:
        vec = apply_matrix(vec, matrix, qubits, n)
    # the random factors scale the state; the bounds hold relative to it
    scale = max(1.0, np.abs(vec).max())
    assert np.abs(fused - ref_pkg.extract_statevector(ref, n)).max() < 1e-12 * scale
    assert np.abs(fused - vec).max() < 1e-10 * scale


@given(gate_lists())
@settings(max_examples=30, deadline=None)
def test_fused_simulate_matches_dense_oracle(c):
    pkg = Package()
    v = pkg.extract_statevector(simulate(c, pkg, check_norm=True), c.n)
    assert np.abs(v - dense_simulate(c)).max() < 1e-10


def count_multiplies(pkg):
    calls = []
    multiply = pkg.multiply
    pkg.multiply = lambda m, v: calls.append(m) or multiply(m, v)
    return calls


@pytest.mark.parametrize("m", [1, 2, 5, 8])
def test_layer_of_one_qubit_gates_is_one_multiply(m):
    n = 8
    kinds = ["h", "sx", "t", "ry", "x", "sy", "z", "rz"]
    gates = [
        Gate(k, (0.3,) if k[0] == "r" else (), targets=(q,))
        for q, k in zip(range(n - m, n), kinds)
    ]
    pkg = Package()
    calls = count_multiplies(pkg)
    ops = fuse_runs((g.qubits, g.operator(), True) for g in gates)
    state = apply_ops(pkg, n, ops, check_norm=True)
    assert len(calls) == 1
    want = dense_simulate(Circuit(n, tuple(gates)))
    assert np.abs(pkg.extract_statevector(state, n) - want).max() < 1e-12


def test_repeated_qubit_or_two_qubit_gate_ends_a_run():
    n = 4
    gates = [Gate("h", targets=(q,)) for q in range(n)]  # one operator
    gates += [Gate("t", targets=(0,)), Gate("s", targets=(2,))]  # a second
    gates += [Gate("sx", targets=(2,))]  # q2 again: a third
    gates += [Gate("cz", controls=(3,), targets=(1,))]  # a fourth
    gates += [Gate("h", targets=(1,)), Gate("h", targets=(3,))]  # a fifth
    pkg = Package()
    calls = count_multiplies(pkg)
    state = simulate(Circuit(n, tuple(gates)), pkg, check_norm=True)
    assert len(calls) == 5
    want = dense_simulate(Circuit(n, tuple(gates)))
    assert np.abs(pkg.extract_statevector(state, n) - want).max() < 1e-12


# multiplications of the fused fold below; a run cut short ends where the
# run does, so its last piece does not join the next run
FUSED_MULTIPLIES = (93, 99, 97, 76, 71, 92)


@pytest.mark.parametrize("seed", range(6))
def test_fused_fold_peak_stays_at_op_by_op_peak_under_small_gc_limit(seed):
    # gc runs only between operators; with a gc_limit this small against
    # the state, the run length bound cuts most runs down to one op, so
    # a fused operator never grows the package past the op-by-op fold
    c = generate_random_circuit(10, 10, seed, 0.7, "grid")
    ops = [(g.qubits, g.operator(), True) for g in c.gates]
    gc_limit = 200
    pkg = Package(gc_limit=gc_limit)
    calls = count_multiplies(pkg)
    fused = apply_ops(pkg, c.n, fuse_runs(ops))
    ref_pkg, ref = fold_op_by_op(c.n, ops, gc_limit)
    assert pkg.gc_runs > 0
    assert len(calls) == FUSED_MULTIPLIES[seed] < len(ops)
    assert pkg.peak_nodes <= ref_pkg.peak_nodes
    assert np.abs(
        pkg.extract_statevector(fused) - ref_pkg.extract_statevector(ref)
    ).max() < 1e-12


def test_simulate_builds_each_operator_once_between_collections(monkeypatch):
    # a grid circuit repeats its cz pairs: each distinct (qubits, content)
    # is built once, however many times it is applied
    c = generate_random_circuit(8, 16, 0, 0.7, "grid")
    applied = Counter(
        (g.qubits, g.operator().tobytes()) for g in c.gates if g.kind == "cz"
    )
    assert max(applied.values()) > 1
    built = Counter()
    matrix_dd = Package.matrix_dd

    def counted(pkg, n, qubits, base):
        built[tuple(qubits), np.asarray(base, dtype=complex).tobytes()] += 1
        return matrix_dd(pkg, n, qubits, base)

    monkeypatch.setattr(Package, "matrix_dd", counted)
    pkg = Package()
    state = simulate(c, pkg)
    assert pkg.gc_runs == 0
    assert set(built.values()) == {1}
    assert set(applied) <= set(built)
    assert np.abs(pkg.extract_statevector(state, c.n) - dense_simulate(c)).max() < 1e-12
