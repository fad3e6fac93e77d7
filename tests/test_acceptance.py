"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream;
the trend check (criterion 9) takes several minutes on two cores.
"""

import math
import time
from random import Random

import numpy as np
import pytest

from qcdd.circuit import Circuit, Gate, dense_simulate, generate_random_circuit
from qcdd.dd import ZERO_EDGE, Package
from qcdd.hybrid import (
    Partition,
    classify,
    default_partition,
    path_digits,
    run_hybrid_amp,
    run_hybrid_dd,
    schmidt_terms,
    simulate_path,
)
from qcdd.schrodinger import simulate
from qcdd import bench as bench_mod
from conftest import FIG_PATH_ARRAYS, FIG_STATE

MAX_WORKERS = 2  # matches the machine this suite is tuned for; >=2 required


def report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def mixed_random_circuit(n, depth, seed):
    """Random circuit over the full gate set (rotations, cx/cz/cp/swap)."""
    rng = Random(seed)
    one_q = ["h", "t", "sx", "sy", "s", "sdg", "tdg", "x", "y", "z", "rx", "ry", "rz", "p"]
    two_q = ["cz", "cx", "cp", "swap"]
    gates = []
    for _ in range(depth):
        for q in range(n):
            kind = rng.choice(one_q)
            params = (rng.uniform(-math.pi, math.pi),) if kind in ("rx", "ry", "rz", "p") else ()
            gates.append(Gate(kind, params, (), (q,)))
        if rng.random() < 0.8:
            a, b = rng.sample(range(n), 2)
            kind = rng.choice(two_q)
            params = (rng.uniform(-math.pi, math.pi),) if kind == "cp" else ()
            if kind == "swap":
                gates.append(Gate(kind, params, (), (a, b)))
            else:
                gates.append(Gate(kind, params, (a,), (b,)))
    return Circuit(n, tuple(gates))


def test_criterion_1_reference_state_all_engines(fig4):
    t0 = time.perf_counter()
    pkg = Package()
    v_ref = pkg.extract_statevector(simulate(fig4, pkg))
    rdd = run_hybrid_dd(fig4, Partition(2))
    v_dd = rdd.package.extract_statevector(rdd.state)
    v_amp = run_hybrid_amp(fig4, Partition(2)).vector
    elapsed = time.perf_counter() - t0
    for name, v in (("schrodinger", v_ref), ("hybrid-dd", v_dd), ("hybrid-amp", v_amp)):
        assert np.abs(v - FIG_STATE).max() < 1e-12, name
    assert elapsed < 1.0
    report(1, f"all three engines reproduce the reference state (runtime {elapsed:.3f}s < 1s)")


def test_criterion_2_path_product_amplitude(fig4):
    pkg = Package()
    e = simulate(fig4, pkg)
    via_path = pkg.get_amplitude(e, "1010")
    via_extraction = pkg.extract_statevector(e)[0b1010]
    assert abs(via_path - (-0.25)) < 1e-12
    assert abs(via_extraction - (-0.25)) < 1e-12
    assert abs(via_path - via_extraction) < 1e-12
    report(2, f"|1010> amplitude {via_path.real:+.15f} by path product and extraction")


def test_criterion_3_cz_decomposition():
    g = Gate("cz", controls=(3,), targets=(1,))
    dp = schmidt_terms(g, Partition(2))
    assert len(dp.terms) == 2
    (u0, l0), (u1, l1) = dp.terms
    assert np.array_equal(u0, np.diag([1, 0]).astype(complex))
    assert np.array_equal(l0, np.eye(2, dtype=complex))
    assert np.array_equal(u1, np.diag([0, 1]).astype(complex))
    assert np.array_equal(l1, np.diag([1, -1]).astype(complex))
    rebuilt = np.kron(u0, l0) + np.kron(u1, l1)
    assert np.abs(rebuilt - np.diag([1, 1, 1, -1])).max() < 1e-12
    report(3, "controlled-Z splits into exactly (P0, I) + (P1, Z)")


def test_criterion_4_path_count_law(fig4):
    cls = classify(fig4, Partition(2))
    assert len(cls.decisions) == 2 and cls.path_count == 4
    checked = 0
    rng = Random(123)
    while checked < 100:
        n = rng.randint(3, 10)
        c = generate_random_circuit(n, rng.randint(1, 10), rng.randrange(10_000), rng.uniform(0.1, 0.8))
        k = rng.randint(1, n - 1)
        cls = classify(c, Partition(k))
        cross = sum(
            1 for g in c.gates if any(q < k for q in g.qubits) and any(q >= k for q in g.qubits)
        )
        assert cls.path_count == 2 ** cross
        checked += 1
    report(4, "reference cut gives 2 decisions / 4 paths; 2**cross law held on 100 instances")


def test_criterion_5_per_path_arrays(fig4):
    p = Partition(2)
    cls = classify(fig4, p)
    total = np.zeros(16, dtype=complex)
    for i in range(4):
        up, lo = Package(), Package()
        ue, le = simulate_path(fig4, p, path_digits(cls.decisions, i), up, lo, cls)
        ke = lo.import_edge(up, ue, shift=2, splice=le)
        arr = lo.extract_statevector(ke, 4)
        assert np.abs(arr - FIG_PATH_ARRAYS[i]).max() < 1e-12
        total += arr
    assert np.abs(total - FIG_STATE).max() < 1e-12
    report(5, "all four per-path arrays match and sum to the reference state")


def _corpus(count):
    """Deterministic mix of generator and full-gate-set circuits, path counts
    kept below 129 so the whole sweep stays inside the time budget."""
    rng = Random(2024)
    out = []
    while len(out) < count:
        seed = rng.randrange(100_000)
        if len(out) % 5 == 4:
            n = rng.randint(4, 10)
            c = mixed_random_circuit(n, rng.randint(1, 8), seed)
        else:
            n = rng.randint(2, 10)
            c = generate_random_circuit(n, rng.randint(1, 16), seed, rng.uniform(0.1, 0.6))
        try:
            cls = classify(c, default_partition(c.n))
        except ValueError:
            continue
        if cls.path_count > 128:
            continue
        out.append(c)
    return out


def test_criterion_6_oracle_equivalence_sweep():
    t0 = time.perf_counter()
    circuits = _corpus(200)
    worst = 0.0
    for c in circuits:
        ref = dense_simulate(c)
        pkg = Package()
        v_s = pkg.extract_statevector(simulate(c, pkg, check_norm=True))
        rdd = run_hybrid_dd(c)
        v_d = rdd.package.extract_statevector(rdd.state)
        v_a = run_hybrid_amp(c).vector
        for v in (v_s, v_d, v_a):
            worst = max(worst, float(np.abs(v - ref).max()))
        assert worst < 1e-9
        assert abs(np.linalg.norm(v_d) - 1) < 1e-9
        assert abs(np.linalg.norm(v_a) - 1) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report(6, f"200 circuits, 4-way agreement, worst deviation {worst:.2e}, {elapsed:.0f}s < 300s")


def test_criterion_7_parallel_determinism():
    rng = Random(77)
    worst = 0.0
    for i in range(20):
        n = rng.randint(4, 12)
        c = generate_random_circuit(n, rng.randint(2, 8), rng.randrange(10_000), 0.3)
        if classify(c, default_partition(n)).path_count > 64:
            c = generate_random_circuit(n, 3, i, 0.2)
        a = run_hybrid_amp(c, workers=1).vector
        b = run_hybrid_amp(c, workers=MAX_WORKERS).vector
        worst = max(worst, float(np.abs(a - b).max()))
        assert worst < 1e-12
    report(7, f"20 circuits, 1 vs {MAX_WORKERS} workers, worst deviation {worst:.2e} < 1e-12")


def test_criterion_8_norm_invariants():
    rng = Random(88)
    for i in range(20):
        n = rng.randint(3, 9)
        c = generate_random_circuit(n, rng.randint(1, 10), rng.randrange(10_000), 0.3)
        if classify(c, default_partition(n)).path_count > 64:
            continue
        pkg = Package()
        simulate(c, pkg, check_norm=True)  # raises if any per-gate norm drifts
        rdd = run_hybrid_dd(c, check_norm=True)
        assert abs(rdd.package.norm(rdd.state) - 1) < 1e-10
        ramp = run_hybrid_amp(c, check_norm=True)
        assert abs(np.linalg.norm(ramp.vector) - 1) < 1e-10
    report(8, "per-gate norms stayed at 1 +/- 1e-10; final hybrid states likewise")


def test_criterion_10_canonicity_1000_orders():
    rng = Random(909)
    npr = np.random.default_rng(909)
    pkg = Package()
    trials = 0
    while trials < 1000:
        n = rng.randint(2, 8)
        size = 1 << n
        nnz = rng.randint(1, min(size, 24))
        vec = np.zeros(size, dtype=complex)
        idx = npr.choice(size, size=nnz, replace=False)
        vec[idx] = npr.normal(size=nnz) + 1j * npr.normal(size=nnz)
        support = [int(i) for i in np.flatnonzero(vec)]
        order_a = support[:]
        rng.shuffle(order_a)
        order_b = support[:]
        rng.shuffle(order_b)

        def build(order):
            acc = ZERO_EDGE
            for i in order:
                # a basis state's edge is (ONE, t): scaled by w it is (w, t)
                _, t = pkg.make_basis_state(n, format(i, f"0{n}b"))
                acc = pkg.add(acc, (pkg.weights.lookup(complex(vec[i])), t))
            return acc

        ea = build(order_a)
        eb = build(order_b)
        assert ea == eb, f"trial {trials}: orders disagree"
        assert ea == pkg.from_statevector(vec)
        trials += 1
        if pkg.live_nodes() > 150_000:
            pkg = Package()
    report(10, "1000 randomized construction orders produced identical canonical edges")


# --- criterion 9 ----------------------------------------------------------
# Table I's absolute timings and the external instance files are not
# reproducible here; this is the substituted trend/smoke check on generated
# depth-limited grid circuits (seeds pre-filtered to 2..7 decisions).

TREND_N, TREND_DEPTH, TREND_DENSITY = 16, 12, 0.7


def _trend_seeds():
    """First ten seeds whose instances have 2..6 decisions (<= 64 paths)."""
    seeds = []
    seed = 0
    while len(seeds) < 10:
        c = generate_random_circuit(TREND_N, TREND_DEPTH, seed, TREND_DENSITY, "grid")
        d = len(classify(c, default_partition(TREND_N)).decisions)
        if 2 <= d <= 6:
            seeds.append(seed)
        seed += 1
    return seeds


@pytest.mark.slow
def test_criterion_9_trend_and_report_structure():
    # (a) the bench report mirrors the reference table's column structure
    rows = bench_mod.run_bench([6], [4], [0, 1], density=0.4, pairing="any",
                               workers=1, timeout=120, verify=True)
    assert bench_mod.COLUMNS == ["name", "decisions", "t_ref", "t_DD", "t_ref/t_DD",
                                 "t_amp", "t_ref/t_amp"]
    for row in rows:
        cells = row.cells()
        assert len(cells) == 7
        assert row.agree is True
        assert float(cells[2]) > 0 and float(cells[4]) > 0

    # (b) trend: amplitude-adding engine with all workers vs the reference
    # engine on ten 16-qubit depth-limited instances with <= 10 decisions
    wins = 0
    details = []
    for seed in _trend_seeds():
        c = generate_random_circuit(TREND_N, TREND_DEPTH, seed, TREND_DENSITY, "grid")
        decisions = len(classify(c, default_partition(TREND_N)).decisions)
        assert decisions <= 10
        t0 = time.perf_counter()
        run_hybrid_amp(c, workers=MAX_WORKERS)
        t_amp = time.perf_counter() - t0
        t0 = time.perf_counter()
        pkg = Package()
        simulate(c, pkg)
        t_ref = time.perf_counter() - t0
        win = t_amp <= t_ref
        wins += win
        details.append(f"s{seed}/d{decisions}: amp {t_amp:.1f}s ref {t_ref:.1f}s {'<=' if win else '>'}")
    assert wins >= 7, "\n".join(details)
    report(9, f"hybrid-amp no slower than schrodinger on {wins}/10 instances; "
              f"bench table structure verified\n  " + "\n  ".join(details))
