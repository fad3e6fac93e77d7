import numpy as np
import pytest
from hypothesis import strategies as st

from qcdd import Circuit, Gate
from qcdd.circuit import GATE_KINDS

# Final state of the 4-qubit reference circuit (H on all, cz(3,1), cz(2,0)).
FIG_STATE = 0.25 * np.array(
    [1, 1, 1, 1, 1, -1, 1, -1, 1, 1, -1, -1, 1, -1, -1, 1], dtype=complex
)

# Per-path amplitude arrays of that circuit under a cut at k=2, in
# lexicographic path order (00, 01, 10, 11).
FIG_PATH_ARRAYS = 0.25 * np.array(
    [
        [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, -1, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, -1, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, -1, 1],
    ],
    dtype=complex,
)


def fig_circuit() -> Circuit:
    gates = [Gate("h", targets=(q,)) for q in range(4)]
    gates.append(Gate("cz", controls=(3,), targets=(1,)))
    gates.append(Gate("cz", controls=(2,), targets=(0,)))
    return Circuit(4, tuple(gates))


@pytest.fixture
def fig4() -> Circuit:
    return fig_circuit()


@pytest.fixture
def fig4_qasm() -> str:
    return (
        "OPENQASM 2.0;\n"
        "qreg q[4];\n"
        "h q[0];\nh q[1];\nh q[2];\nh q[3];\n"
        "cz q[3],q[1];\n"
        "cz q[2],q[0];\n"
    )


@st.composite
def gate_lists(draw):
    """Up to 16 gates on 2-6 qubits over the full gate set, with operands at
    random positions (two-qubit operands need not be adjacent)."""
    n = draw(st.integers(2, 6))
    gates = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(sorted(GATE_KINDS)))
        n_params, n_controls, n_targets = GATE_KINDS[kind]
        qubits = draw(st.permutations(range(n)))[: n_controls + n_targets]
        params = tuple(draw(st.floats(-6.3, 6.3)) for _ in range(n_params))
        gates.append(Gate(kind, params, tuple(qubits[:n_controls]), tuple(qubits[n_controls:])))
    return Circuit(n, tuple(gates))
