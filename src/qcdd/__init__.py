"""Full-state quantum circuit simulation on decision diagrams.

Three engines compute the same ``2**n`` state vector:

* :func:`qcdd.schrodinger.simulate` -- gate-by-gate diagram simulation;
* :func:`qcdd.hybrid.run_hybrid_dd` -- cut the register, sum per-path
  diagrams by diagram addition;
* :func:`qcdd.hybrid.run_hybrid_amp` -- same paths, recombined through
  dense amplitude arrays.

:func:`qcdd.circuit.dense_simulate` is the brute-force oracle used to verify
all of them.
"""

from .circuit import (
    CapacityError,
    Circuit,
    Gate,
    dense_simulate,
    gate_matrix,
    generate_random_circuit,
)
from .dd import Package
from .hybrid import (
    HybridResult,
    Partition,
    TopologyError,
    classify,
    default_partition,
    run_hybrid_amp,
    run_hybrid_dd,
    schmidt_terms,
    simulate_path,
)
from .qasm import QasmError, parse, to_qasm
from .schrodinger import simulate

__all__ = [
    "CapacityError",
    "Circuit",
    "Gate",
    "HybridResult",
    "Package",
    "Partition",
    "QasmError",
    "TopologyError",
    "classify",
    "default_partition",
    "dense_simulate",
    "gate_matrix",
    "generate_random_circuit",
    "parse",
    "run_hybrid_amp",
    "run_hybrid_dd",
    "schmidt_terms",
    "simulate",
    "simulate_path",
    "to_qasm",
]

__version__ = "0.1.0"
