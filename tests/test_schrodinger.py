import numpy as np
import pytest

from qcdd.circuit import Circuit, Gate, apply_matrix, dense_simulate, generate_random_circuit
from qcdd.dd import Package
from qcdd.schrodinger import simulate
from qcdd.weights import ZERO
from conftest import FIG_STATE


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
    level, w0, t0, w1, t1, w2, t2, w3, t3 = pkg._mnodes[e[1]]
    assert level == 1
    assert w1 == ZERO and w2 == ZERO
    ident = pkg._mnodes[t0]
    zgate = pkg._mnodes[t3]
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
