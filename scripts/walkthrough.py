#!/usr/bin/env python3
"""Walk the cutting pipeline on the small 4-qubit showcase circuit.

Prints the decision points, every path's block diagrams and extracted
array, the pairwise additions, and the final state, so the whole scheme can
be eyeballed in one screen.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from qcdd.circuit import Circuit, Gate  # noqa: E402
from qcdd.dd import Package  # noqa: E402
from qcdd.hybrid import Partition, classify, path_digits, simulate_path  # noqa: E402
from qcdd.schrodinger import simulate  # noqa: E402


def fmt(vec):
    return "[" + " ".join(f"{a.real:+.2f}" if abs(a.imag) < 1e-12 else f"{a:+.2f}" for a in vec) + "]"


def main():
    gates = [Gate("h", targets=(q,)) for q in range(4)]
    gates += [Gate("cz", controls=(3,), targets=(1,)), Gate("cz", controls=(2,), targets=(0,))]
    circuit = Circuit(4, tuple(gates))
    cut = Partition(2)

    cls = classify(circuit, cut)
    print(f"cut at k={cut.cut}: {len(cls.lower)} lower gates, {len(cls.upper)} upper gates, "
          f"{len(cls.decisions)} decisions -> {cls.path_count} paths")
    for dp in cls.decisions:
        names = []
        for upper, lower in dp.terms:
            i, j = np.argwhere(upper)[0]
            lo = "I" if np.allclose(lower, np.eye(2)) else "Z" if np.allclose(lower, np.diag([1, -1])) else "?"
            names.append(f"|{i}><{j}| (x) {lo}")
        print(f"  gate {dp.gate_index} (q{dp.upper_qubit}, q{dp.lower_qubit}): " + "  +  ".join(names))

    print("\nper-path simulation (upper nodes / lower nodes -> combined array):")
    pkg = Package()
    partials = []
    for i in range(cls.path_count):
        digits = path_digits(cls.decisions, i)
        up, lo = Package(), Package()
        ue, le = simulate_path(circuit, cut, digits, up, lo, cls)
        # the path's tensor product: the upper block spliced above the lower
        ke = pkg.import_edge(up, ue, shift=cut.cut, splice=pkg.import_edge(lo, le))
        arr = pkg.extract_statevector(ke, circuit.n)
        label = "".join(str(d) for d in digits)
        print(f"  path {label}: {up.count_nodes(ue)} / {lo.count_nodes(le)} nodes  {fmt(arr)}")
        partials.append(ke)

    print("\npairwise diagram additions:")
    while len(partials) > 1:
        nxt = []
        for a, b in zip(partials[0::2], partials[1::2]):
            s = pkg.add(a, b)
            print(f"  {pkg.count_nodes(a)} + {pkg.count_nodes(b)} nodes -> {pkg.count_nodes(s)} nodes")
            nxt.append(s)
        partials = nxt
    final = partials[0]
    print(f"\nfinal: {pkg.count_nodes(final)} nodes  {fmt(pkg.extract_statevector(final))}")

    ref_pkg = Package()
    ref = ref_pkg.extract_statevector(simulate(circuit, ref_pkg))
    dev = np.abs(pkg.extract_statevector(final) - ref).max()
    print(f"against the gate-by-gate engine: max deviation {dev:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
