import json
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcdd.circuit import (
    GATE_KINDS,
    CapacityError,
    Circuit,
    Gate,
    apply_matrix,
    dense_simulate,
    gate_matrix,
    generate_random_circuit,
)
from qcdd.dd import Package
from qcdd.hybrid import (
    Partition,
    TopologyError,
    classify,
    default_partition,
    path_digits,
    run_hybrid_amp,
    run_hybrid_dd,
    schmidt_terms,
    simulate_path,
)
from qcdd.schrodinger import simulate
from conftest import FIG_PATH_ARRAYS, FIG_STATE

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
Z = np.diag([1, -1]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def reconstruct(dp, gate):
    """Rebuild the 4x4 gate matrix (listed-operand order) from the terms."""
    upper_q = dp.upper_qubit
    first_is_upper = gate.qubits[0] == upper_q
    total = np.zeros((4, 4), dtype=complex)
    for upper, lower in dp.terms:
        total += np.kron(upper, lower) if first_is_upper else np.kron(lower, upper)
    return total


# ---------------------------------------------------------------------------
# classify


def test_classify_reference_circuit(fig4):
    cls = classify(fig4, Partition(2))
    assert len(cls.lower) == 2 and len(cls.upper) == 2
    assert len(cls.decisions) == 2
    assert cls.path_count == 4
    assert [dp.gate_index for dp in cls.decisions] == [4, 5]


def test_classify_no_cross_gates():
    c = Circuit(4, (Gate("h", targets=(0,)), Gate("cz", controls=(3,), targets=(2,))))
    cls = classify(c, Partition(2))
    assert cls.path_count == 1
    assert cls.decisions == []


def test_classify_recount_oracle():
    c = generate_random_circuit(8, 10, seed=11, cz_density=0.5)
    k = 4
    cls = classify(c, Partition(k))
    expect = sum(
        1 for g in c.gates if any(q < k for q in g.qubits) and any(q >= k for q in g.qubits)
    )
    assert len(cls.decisions) == expect
    assert len(cls.lower) + len(cls.upper) + len(cls.decisions) == len(c.gates)


def test_classify_cross_three_qubit_gate_rejected():
    c = Circuit(4, (Gate("x", controls=(3, 2), targets=(0,)),))
    with pytest.raises(TopologyError, match="gate 0"):
        classify(c, Partition(2))
    # entirely inside one block is fine
    c2 = Circuit(4, (Gate("x", controls=(3, 2), targets=(1,)),))
    assert classify(c2, Partition(1)).path_count == 1


def test_classify_invalid_cut():
    c = Circuit(4)
    for k in (0, 4, 7):
        with pytest.raises(ValueError):
            classify(c, Partition(k))


# ---------------------------------------------------------------------------
# decomposition terms


def test_cz_terms_upper_control():
    g = Gate("cz", controls=(3,), targets=(1,))
    dp = schmidt_terms(g, Partition(2))
    assert len(dp.terms) == 2
    (u0, l0), (u1, l1) = dp.terms
    assert np.array_equal(u0, P0) and np.array_equal(l0, I2)
    assert np.array_equal(u1, P1) and np.array_equal(l1, Z)
    assert dp.upper_qubit == 3 and dp.lower_qubit == 1
    assert np.abs(reconstruct(dp, g) - gate_matrix("cz")).max() < 1e-12


def test_cz_terms_lower_control():
    g = Gate("cz", controls=(1,), targets=(3,))
    dp = schmidt_terms(g, Partition(2))
    assert len(dp.terms) == 2
    (u0, l0), (u1, l1) = dp.terms
    assert np.array_equal(u0, P0) and np.array_equal(l0, I2)
    assert np.array_equal(u1, P1) and np.array_equal(l1, Z)


def test_cx_terms_upper_control():
    g = Gate("cx", controls=(2,), targets=(0,))
    dp = schmidt_terms(g, Partition(2))
    assert len(dp.terms) == 2
    (u0, l0), (u1, l1) = dp.terms
    assert np.array_equal(u0, P0) and np.array_equal(l0, I2)
    assert np.array_equal(u1, P1) and np.array_equal(l1, X)


def test_cx_terms_lower_control_has_four():
    g = Gate("cx", controls=(0,), targets=(2,))
    dp = schmidt_terms(g, Partition(2))
    assert len(dp.terms) == 4
    assert np.abs(reconstruct(dp, g) - gate_matrix("cx")).max() < 1e-12


def test_swap_terms_reconstruct():
    g = Gate("swap", targets=(1, 2))
    dp = schmidt_terms(g, Partition(2))
    assert len(dp.terms) == 4
    assert np.abs(reconstruct(dp, g) - gate_matrix("swap")).max() < 1e-12


def test_terms_are_operator_basis_on_upper():
    g = Gate("cp", (0.9,), controls=(2,), targets=(1,))
    dp = schmidt_terms(g, Partition(2))
    for upper, _ in dp.terms:
        assert np.count_nonzero(upper) == 1 and upper.max() == 1


@given(st.sampled_from(["cx", "cz", "cp", "swap"]), st.floats(-6.3, 6.3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_terms_reconstruction_property(kind, angle, control_upper):
    n_params, intrinsic, n_targets = (1, 1, 1) if kind == "cp" else (0, 1 if kind != "swap" else 0, 1 if kind != "swap" else 2)
    params = (angle,) if kind == "cp" else ()
    if kind == "swap":
        g = Gate(kind, params, (), (2, 1) if control_upper else (1, 2))
    elif control_upper:
        g = Gate(kind, params, (2,), (1,))
    else:
        g = Gate(kind, params, (1,), (2,))
    dp = schmidt_terms(g, Partition(2))
    assert 1 <= len(dp.terms) <= 4
    assert np.abs(reconstruct(dp, g) - g.operator()).max() < 1e-12


def test_schmidt_terms_errors():
    with pytest.raises(ValueError):
        schmidt_terms(Gate("cz", controls=(3,), targets=(2,)), Partition(2))
    with pytest.raises(TopologyError):
        schmidt_terms(Gate("x", controls=(3, 2), targets=(0,)), Partition(2))


# ---------------------------------------------------------------------------
# paths


def test_path_digits_lexicographic(fig4):
    decisions = classify(fig4, Partition(2)).decisions
    digits = [path_digits(decisions, i) for i in range(4)]
    assert digits == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(ValueError):
        path_digits(decisions, 4)


def test_simulate_path_reference_blocks_are_tiny(fig4):
    up, lo = Package(), Package()
    ue, le = simulate_path(fig4, Partition(2), (0, 0), up, lo)
    assert up.count_nodes(ue) <= 2
    assert lo.count_nodes(le) <= 2
    upper = up.extract_statevector(ue, 2)
    lower = lo.extract_statevector(le, 2)
    assert np.abs(np.kron(upper, lower) - FIG_PATH_ARRAYS[0]).max() < 1e-12


def test_reference_path_arrays(fig4):
    # every path's combined extraction matches the frozen per-path arrays
    p = Partition(2)
    cls = classify(fig4, p)
    for i in range(4):
        up, lo = Package(), Package()
        ue, le = simulate_path(fig4, p, path_digits(cls.decisions, i), up, lo, cls)
        ke = lo.import_edge(up, ue, shift=2, splice=le)
        assert np.abs(lo.extract_statevector(ke, 4) - FIG_PATH_ARRAYS[i]).max() < 1e-12
    assert np.abs(FIG_PATH_ARRAYS.sum(axis=0) - FIG_STATE).max() < 1e-15


def test_zero_decision_path_equals_block_simulation():
    c = Circuit(4, (Gate("h", targets=(0,)), Gate("h", targets=(3,)),
                    Gate("cz", controls=(1,), targets=(0,))))
    p = Partition(2)
    up, lo = Package(), Package()
    ue, le = simulate_path(c, p, (), up, lo)
    lo2 = Package()
    le2 = simulate(Circuit(2, (Gate("h", targets=(0,)), Gate("cz", controls=(1,), targets=(0,)))), lo2)
    up2 = Package()
    ue2 = simulate(Circuit(2, (Gate("h", targets=(1,)),)), up2)
    assert np.array_equal(lo.extract_statevector(le, 2), lo2.extract_statevector(le2, 2))
    assert np.array_equal(up.extract_statevector(ue, 2), up2.extract_statevector(ue2, 2))


def dense_path_oracle(circuit, partition, cls, digits):
    """Dense simulation of the path-substituted circuit."""
    n = circuit.n
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1
    by_gate = {dp.gate_index: j for j, dp in enumerate(cls.decisions)}
    for idx, g in enumerate(circuit.gates):
        j = by_gate.get(idx)
        if j is None:
            state = apply_matrix(state, g.operator(), g.qubits, n)
        else:
            dp = cls.decisions[j]
            upper, lower = dp.terms[digits[j]]
            state = apply_matrix(state, upper, (dp.upper_qubit,), n)
            state = apply_matrix(state, lower, (dp.lower_qubit,), n)
    return state


def test_simulate_path_matches_dense_oracle():
    c = generate_random_circuit(8, 6, seed=5, cz_density=0.4)
    p = default_partition(8)
    cls = classify(c, p)
    rng = Random(3)
    for _ in range(min(6, cls.path_count)):
        i = rng.randrange(cls.path_count)
        digits = path_digits(cls.decisions, i)
        up, lo = Package(), Package()
        ue, le = simulate_path(c, p, digits, up, lo, cls)
        ke = lo.import_edge(up, ue, shift=p.cut, splice=le)
        got = lo.extract_statevector(ke, 8)
        want = dense_path_oracle(c, p, cls, digits)
        assert np.abs(got - want).max() < 1e-10


def test_simulate_path_validates_digits(fig4):
    p = Partition(2)
    with pytest.raises(ValueError):
        simulate_path(fig4, p, (0,), Package(), Package())
    with pytest.raises(ValueError):
        simulate_path(fig4, p, (0, 5), Package(), Package())


def test_simulate_path_needs_two_packages(fig4):
    # one package for both blocks would let the lower fold's gc sweep the
    # upper block's state
    pkg = Package()
    with pytest.raises(ValueError, match="two different packages"):
        simulate_path(fig4, Partition(2), (0, 0), pkg, pkg)


def test_block_packages_stay_bounded_over_1024_paths():
    gates = [Gate("h", targets=(q,)) for q in range(4)]
    for i in range(10):
        gates.append(Gate("cz", controls=(i % 2,), targets=(2 + (i // 2) % 2,)))
        gates.append(Gate("rx", (0.3 + 0.1 * i,), targets=(i % 4,)))
        gates.append(Gate("t", targets=((i + 1) % 4,)))
    c = Circuit(4, tuple(gates))
    p = Partition(2)
    cls = classify(c, p)
    assert cls.path_count == 1024
    limit = 100
    up, lo = Package(gc_limit=limit), Package(gc_limit=limit)

    def pressure(pkg):
        return (pkg.live_nodes() + len(pkg._memo_add) + len(pkg._memo_mul)
                + pkg.weights.cached())

    acc = np.zeros(16, dtype=complex)
    for i in range(cls.path_count):
        ue, le = simulate_path(c, p, path_digits(cls.decisions, i), up, lo, cls, check_norm=True)
        for pkg in (up, lo):
            assert pressure(pkg) <= limit
            assert len(pkg.weights) <= limit
        acc += np.kron(up.extract_statevector(ue, 2), lo.extract_statevector(le, 2))
    assert up.gc_runs > 0 and lo.gc_runs > 0
    assert np.abs(acc - dense_simulate(c)).max() < 1e-12


# ---------------------------------------------------------------------------
# whole-circuit engines


def test_hybrid_dd_reference_circuit(fig4):
    res = run_hybrid_dd(fig4, Partition(2))
    assert res.path_count == 4 and res.decisions == 2
    got = res.package.extract_statevector(res.state)
    assert np.abs(got - FIG_STATE).max() < 1e-12
    assert res.stats["final_nodes"] == 9


def test_hybrid_dd_first_addition_level(fig4):
    # adding the 4-node path diagrams pairwise gives two six-node diagrams,
    # and their sum is the nine-node final diagram
    p = Partition(2)
    cls = classify(fig4, p)
    pkg = Package()
    contribs = []
    for i in range(4):
        up, lo = Package(), Package()
        ue, le = simulate_path(fig4, p, path_digits(cls.decisions, i), up, lo, cls)
        ke = lo.import_edge(up, ue, shift=2, splice=le)
        assert lo.count_nodes(ke) == 4
        contribs.append(pkg.import_edge(lo, ke))
    s01 = pkg.add(contribs[0], contribs[1])
    s23 = pkg.add(contribs[2], contribs[3])
    assert pkg.count_nodes(s01) == 6
    assert pkg.count_nodes(s23) == 6
    final = pkg.add(s01, s23)
    assert pkg.count_nodes(final) == 9
    assert np.abs(pkg.extract_statevector(final) - FIG_STATE).max() < 1e-12


def test_hybrid_dd_single_path_equals_kron():
    c = Circuit(4, (Gate("h", targets=(0,)), Gate("h", targets=(2,))))
    p = Partition(2)
    res = run_hybrid_dd(c, p)
    up, lo = Package(), Package()
    ue, le = simulate_path(c, p, (), up, lo)
    ke = lo.import_edge(up, ue, shift=2, splice=le)
    manual = res.package.import_edge(lo, ke)
    assert res.state == manual


def test_hybrid_amp_reference_circuit(fig4):
    res = run_hybrid_amp(fig4, Partition(2))
    assert np.abs(res.vector - FIG_STATE).max() < 1e-12
    assert res.path_count == 4


def test_hybrid_amp_zero_decisions():
    c = Circuit(4, (Gate("h", targets=(1,)), Gate("t", targets=(3,))))
    res = run_hybrid_amp(c, Partition(2))
    assert res.path_count == 1
    assert np.abs(res.vector - dense_simulate(c)).max() < 1e-12


def test_hybrid_amp_capacity_error():
    c = Circuit(6)
    with pytest.raises(CapacityError):
        run_hybrid_amp(c, Partition(3), amp_cap=5)


def test_zero_contribution_paths():
    # a cross-cut CX from the all-zero state: the P1-branch path annihilates
    # the upper block, so one of the two contributions is the zero vector
    c = Circuit(4, (Gate("cx", controls=(2,), targets=(0,)),))
    ref = dense_simulate(c)
    rdd = run_hybrid_dd(c, Partition(2))
    ramp = run_hybrid_amp(c, Partition(2))
    assert rdd.path_count == 2
    assert np.abs(rdd.package.extract_statevector(rdd.state, 4) - ref).max() < 1e-12
    assert np.abs(ramp.vector - ref).max() < 1e-12


def test_cross_cut_swap_four_term_paths():
    gates = tuple(Gate("h", targets=(q,)) for q in range(4)) + (
        Gate("t", targets=(1,)),
        Gate("swap", targets=(2, 1)),
        Gate("sx", targets=(2,)),
    )
    c = Circuit(4, gates)
    ref = dense_simulate(c)
    rdd = run_hybrid_dd(c, Partition(2), workers=2)
    ramp = run_hybrid_amp(c, Partition(2), workers=2)
    assert rdd.path_count == 4  # one SWAP decision, four operator-basis terms
    assert np.abs(rdd.package.extract_statevector(rdd.state, 4) - ref).max() < 1e-12
    assert np.abs(ramp.vector - ref).max() < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engines_agree_with_oracle(seed):
    c = generate_random_circuit(8, 5, seed=seed, cz_density=0.3)
    ref = dense_simulate(c)
    rdd = run_hybrid_dd(c)
    ramp = run_hybrid_amp(c)
    assert np.abs(rdd.package.extract_statevector(rdd.state) - ref).max() < 1e-9
    assert np.abs(ramp.vector - ref).max() < 1e-9
    assert abs(np.linalg.norm(ramp.vector) - 1) < 1e-9


def test_drift_over_4096_paths():
    # add and multiply carry raw intermediate weights and snap only stored
    # ones to the table (each snap moves a value by up to tol = 1e-13), so
    # measure the drift of a sum of 4096 path states against the oracle
    c = generate_random_circuit(10, 12, 0, 0.7, "grid")
    ref = dense_simulate(c)
    rdd = run_hybrid_dd(c)
    ramp = run_hybrid_amp(c)
    assert rdd.path_count == ramp.path_count == 4096
    assert np.abs(rdd.package.extract_statevector(rdd.state) - ref).max() < 1e-12
    assert np.abs(ramp.vector - ref).max() < 1e-12


def test_cross_engine_fidelity():
    c = generate_random_circuit(10, 5, seed=9, cz_density=0.25)
    pkg = Package()
    schrod = simulate(c, pkg)
    rdd = run_hybrid_dd(c)
    fid = abs(np.vdot(pkg.extract_statevector(schrod), rdd.package.extract_statevector(rdd.state)))
    assert abs(fid - 1) < 1e-9


def test_amp_workers_deterministic():
    c = generate_random_circuit(9, 6, seed=13, cz_density=0.3)
    r1 = run_hybrid_amp(c, workers=1)
    r2 = run_hybrid_amp(c, workers=2)
    assert r1.path_count == r2.path_count
    assert np.abs(r1.vector - r2.vector).max() < 1e-12


def test_dd_workers_canonical_equal():
    c = generate_random_circuit(9, 6, seed=13, cz_density=0.3)
    r1 = run_hybrid_dd(c, workers=1)
    r2 = run_hybrid_dd(c, workers=2)
    fresh = Package()
    e1 = fresh.import_edge(r1.package, r1.state)
    e2 = fresh.import_edge(r2.package, r2.state)
    assert e1 == e2  # same canonical edge after re-canonicalization


def test_dd_sum_is_maximally_shared():
    # re-importing into a fresh package re-canonicalizes every node; a sum
    # whose node normalization is canonical is already as small
    c = generate_random_circuit(14, 8, 13, 0.7, "grid")
    res = run_hybrid_dd(c, workers=1)
    fresh = Package()
    again = fresh.import_edge(res.package, res.state)
    assert res.package.count_nodes(res.state) == fresh.count_nodes(again)


def test_dd_takes_amp_cap_like_amp():
    import inspect

    assert inspect.signature(run_hybrid_dd) == inspect.signature(run_hybrid_amp)
    c = generate_random_circuit(8, 3, seed=4, cz_density=0.4)
    for workers in (1, 2):
        res = run_hybrid_dd(c, workers=workers, amp_cap=6)
        with pytest.raises(CapacityError):
            res.package.extract_statevector(res.state)
    res = run_hybrid_dd(c, workers=2, amp_cap=8)
    assert np.abs(res.package.extract_statevector(res.state) - dense_simulate(c)).max() < 1e-9


def test_paths_independent_of_order():
    c = generate_random_circuit(6, 4, seed=21, cz_density=0.6)
    p = default_partition(6)
    cls = classify(c, p)
    order = list(range(cls.path_count))
    Random(5).shuffle(order)
    acc = np.zeros(1 << 6, dtype=complex)
    for i in order:
        up, lo = Package(), Package()
        ue, le = simulate_path(c, p, path_digits(cls.decisions, i), up, lo, cls)
        ke = lo.import_edge(up, ue, shift=p.cut, splice=le)
        acc += lo.extract_statevector(ke, 6)
    assert np.abs(acc - run_hybrid_amp(c, p).vector).max() < 1e-12


@st.composite
def cut_circuits(draw):
    """A circuit of up to 8 qubits over the full gate set, a cut in 1..n-1,
    and at most 64 paths (a cross-cut gate that would exceed it is dropped)."""
    n = draw(st.integers(2, 8))
    cut = draw(st.integers(1, n - 1))
    gates = []
    paths = 1
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(sorted(GATE_KINDS)))
        n_params, n_controls, n_targets = GATE_KINDS[kind]
        qubits = draw(st.permutations(range(n)))[: n_controls + n_targets]
        params = tuple(draw(st.floats(-6.3, 6.3)) for _ in range(n_params))
        g = Gate(kind, params, tuple(qubits[:n_controls]), tuple(qubits[n_controls:]))
        if min(g.qubits) < cut <= max(g.qubits):
            terms = len(schmidt_terms(g, Partition(cut)).terms)
            if paths * terms > 64:
                continue
            paths *= terms
        gates.append(g)
    return Circuit(n, tuple(gates)), cut


def _after_one_qubit_layer(n, *gates):
    layer = tuple(Gate(kind, targets=(q,)) for q, kind in enumerate("hyhxhshh"[:n]))
    return Circuit(n, layer + gates)


# cut 1 and cut n-1: outer products of shape (2**(n-1), 2) and (2, 2**(n-1)),
# each with a lower-control cx across the cut (four terms per decision)
CUT_FIRST = _after_one_qubit_layer(
    5, Gate("cx", controls=(0,), targets=(3,)), Gate("cp", (0.7,), (4,), (0,))
)
CUT_LAST = _after_one_qubit_layer(
    5, Gate("cx", controls=(2,), targets=(4,)), Gate("swap", targets=(4, 1))
)
# from |0..0>, the lower-control cx has paths whose block states are zero
ZERO_PATHS = Circuit(4, (Gate("cx", controls=(0,), targets=(2,)), Gate("h", targets=(3,))))


@given(cut_circuits())
@example((CUT_FIRST, 1))
@example((CUT_LAST, 4))
@example((ZERO_PATHS, 2))
@settings(max_examples=120, deadline=None)
def test_engines_match_oracle_over_random_cuts(case):
    c, cut = case
    p = Partition(cut)
    assert classify(c, p).path_count <= 64
    ref = dense_simulate(c)
    ramp = run_hybrid_amp(c, p)
    rdd = run_hybrid_dd(c, p)
    assert np.abs(ramp.vector - ref).max() < 1e-9
    assert np.abs(rdd.package.extract_statevector(rdd.state, c.n) - ref).max() < 1e-9


def test_amp_extracts_only_block_arrays(monkeypatch):
    c = generate_random_circuit(8, 5, seed=0, cz_density=0.5)
    p = Partition(3)
    assert classify(c, p).path_count > 1
    sizes = []
    extract = Package.extract_statevector

    def recording(pkg, e, n=None):
        out = extract(pkg, e, n)
        sizes.append(out.size.bit_length() - 1)
        return out

    monkeypatch.setattr(Package, "extract_statevector", recording)
    res = run_hybrid_amp(c, p, workers=1)
    assert sizes and max(sizes) <= max(p.cut, c.n - p.cut)
    assert np.abs(res.vector - dense_simulate(c)).max() < 1e-9


@pytest.mark.parametrize(
    "engine", ["run_hybrid_amp", "run_hybrid_dd"], ids=["hybrid-amp", "hybrid-dd"]
)
def test_worker_hard_death_detected(monkeypatch, engine):
    import os
    import signal

    import qcdd.hybrid as hybrid_mod

    c = generate_random_circuit(6, 4, seed=2, cz_density=0.6)

    def die(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(hybrid_mod, "simulate_path", die)
    with pytest.raises(RuntimeError, match="died without reporting"):
        getattr(hybrid_mod, engine)(c, workers=2)


def test_worker_failure_surfaces(monkeypatch):
    c = generate_random_circuit(8, 4, seed=2, cz_density=0.6)
    assert classify(c, Partition(4)).path_count >= 2

    import qcdd.hybrid as hybrid_mod

    def boom(*args, **kwargs):
        raise RuntimeError("injected path failure")

    # forked workers inherit the patched module, so the failure happens there
    monkeypatch.setattr(hybrid_mod, "simulate_path", boom)
    with pytest.raises(RuntimeError, match="worker .* failed|injected"):
        hybrid_mod.run_hybrid_amp(c, workers=2)
    with pytest.raises(RuntimeError, match="worker .* failed|injected"):
        hybrid_mod.run_hybrid_dd(c, workers=2)


@pytest.mark.parametrize("dying_path", [0, 1], ids=["worker-0", "worker-1"])
@pytest.mark.parametrize(
    "engine", ["run_hybrid_amp", "run_hybrid_dd"], ids=["hybrid-amp", "hybrid-dd"]
)
def test_one_worker_dies_the_other_finishes(monkeypatch, engine, dying_path):
    import multiprocessing as mp
    import os
    import signal
    import time

    import qcdd.hybrid as hybrid_mod

    c = generate_random_circuit(8, 4, seed=2, cz_density=0.6)
    cls = classify(c, default_partition(8))
    assert cls.path_count >= 4
    fatal = path_digits(cls.decisions, dying_path)
    real = hybrid_mod.simulate_path

    def die_on_one_path(circuit, partition, path, *args, **kwargs):
        if path == fatal:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(circuit, partition, path, *args, **kwargs)

    # path i goes to worker i % 2: only that worker dies
    monkeypatch.setattr(hybrid_mod, "simulate_path", die_on_one_path)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"died without reporting \(exit code -9\)"):
        getattr(hybrid_mod, engine)(c, workers=2)
    assert time.perf_counter() - t0 < 10
    assert mp.active_children() == []


def test_amp_workers_send_no_array():
    import qcdd.hybrid as hybrid_mod

    c = generate_random_circuit(8, 4, seed=2, cz_density=0.6)
    p = default_partition(8)
    summer = hybrid_mod._AmpSum(8, p.cut, 1e-13, 30)
    summer.open(2)
    replies = hybrid_mod._fork_workers(c, p, classify(c, p), 2, False, summer)
    assert [partial for partial, _, _ in replies] == [None, None]
    # the workers added into their rows of the shared mapping
    assert np.abs(summer.total([None, None]) - dense_simulate(c)).max() < 1e-9


def test_dd_ship_sends_only_live_nodes():
    import qcdd.hybrid as hybrid_mod

    c = generate_random_circuit(8, 5, seed=0, cz_density=0.5)
    p = Partition(4)
    cls = classify(c, p)
    summer = hybrid_mod._DDSum(p.cut, 1e-13, 30)
    summer.pkg.gc_limit = 0  # sweep after every path, leaving freed slots behind
    hybrid_mod._sum_paths(c, p, cls, 0, 1, False, summer)
    assert None in summer.pkg._nodes[1:]
    pkg, edge = summer.ship()
    assert None not in pkg._nodes[1:]
    assert len(pkg._nodes) - 1 == pkg.count_nodes(edge)
    assert np.abs(pkg.extract_statevector(edge, 8) - dense_simulate(c)).max() < 1e-9


def test_five_workers_match_oracle():
    # five workers oversubscribe the two cores this suite is tuned for
    c = generate_random_circuit(8, 5, seed=0, cz_density=0.5)
    workers = 5
    assert classify(c, default_partition(8)).path_count >= workers
    ref = dense_simulate(c)
    ramp = run_hybrid_amp(c, workers=workers)
    rdd = run_hybrid_dd(c, workers=workers)
    assert ramp.workers == rdd.workers == workers
    assert np.abs(ramp.vector - ref).max() < 1e-9
    assert np.abs(rdd.package.extract_statevector(rdd.state, 8) - ref).max() < 1e-9


@given(cut_circuits())
@settings(max_examples=25, deadline=None)
def test_one_vs_two_workers_over_random_cuts(case):
    c, cut = case
    p = Partition(cut)
    a1 = run_hybrid_amp(c, p, workers=1)
    a2 = run_hybrid_amp(c, p, workers=2)
    assert np.abs(a1.vector - a2.vector).max() < 1e-12
    d1 = run_hybrid_dd(c, p, workers=1)
    d2 = run_hybrid_dd(c, p, workers=2)
    fresh = Package()
    assert fresh.import_edge(d1.package, d1.state) == fresh.import_edge(d2.package, d2.state)


def test_stats_record_is_json_ready(fig4):
    for res in (run_hybrid_dd(fig4, workers=2), run_hybrid_amp(fig4, workers=2)):
        rec = json.loads(json.dumps(res.stats))
        for key in ("mode", "n", "cut", "decisions", "path_count", "workers", "times", "max_path_nodes"):
            assert key in rec
        for stage in ("simulate", "kron", "extract", "add", "total"):
            assert stage in rec["times"]
        assert rec["decisions"] == 2 and rec["path_count"] == 4


def test_path_count_law_cz_only():
    # CZ is the only two-qubit kind the generator emits, so the number of
    # paths is exactly 2**(cross-block gate count)
    for seed in range(10):
        c = generate_random_circuit(7, 5, seed=seed, cz_density=0.5)
        cls = classify(c, Partition(3))
        assert cls.path_count == 2 ** len(cls.decisions)
