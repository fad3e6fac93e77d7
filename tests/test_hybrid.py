import json
from collections import Counter
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
from qcdd.dd import ZERO_EDGE, Package
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


def circuit_1024_paths() -> Circuit:
    """4 qubits, ten cross-cut CZs at cut 2: 1024 paths."""
    gates = [Gate("h", targets=(q,)) for q in range(4)]
    for i in range(10):
        gates.append(Gate("cz", controls=(i % 2,), targets=(2 + (i // 2) % 2,)))
        gates.append(Gate("rx", (0.3 + 0.1 * i,), targets=(i % 4,)))
        gates.append(Gate("t", targets=((i + 1) % 4,)))
    return Circuit(4, tuple(gates))


def test_block_packages_stay_bounded_over_1024_paths():
    c = circuit_1024_paths()
    p = Partition(2)
    cls = classify(c, p)
    assert cls.path_count == 1024
    limit = 100
    up, lo = Package(gc_limit=limit), Package(gc_limit=limit)

    def pressure(pkg):
        return (pkg.live_nodes() + len(pkg._memo_op) + len(pkg._memo_add)
                + len(pkg._memo_mul) + pkg.weights.cached())

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


def test_hybrid_amp_budgets_rows_before_forking(monkeypatch):
    import qcdd.hybrid as hybrid_mod

    # 1024 paths of two 2-qubit block rows each: 8192 = 2**13 row amplitudes
    c = circuit_1024_paths()

    def never(*args, **kwargs):
        raise AssertionError("a path was simulated")

    monkeypatch.setattr(hybrid_mod, "simulate_path", never)
    with pytest.raises(CapacityError, match="block rows of 8192 amplitudes"):
        run_hybrid_amp(c, Partition(2), workers=2, amp_cap=12)
    monkeypatch.undo()
    res = run_hybrid_amp(c, Partition(2), workers=2, amp_cap=13)
    assert np.abs(res.vector - dense_simulate(c)).max() < 1e-12


@pytest.mark.parametrize("workers", [1, 2], ids=["workers-1", "workers-2"])
def test_zero_contribution_paths(workers):
    # a cross-cut CX from the all-zero state: the P1-branch path annihilates
    # the upper block, so one of the two contributions is the zero vector;
    # with two workers, the worker given that path sums no path at all
    c = Circuit(4, (Gate("cx", controls=(2,), targets=(0,)),))
    ref = dense_simulate(c)
    rdd = run_hybrid_dd(c, Partition(2), workers=workers)
    ramp = run_hybrid_amp(c, Partition(2), workers=workers)
    assert rdd.workers == ramp.workers == workers
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


# from |0..0>, only the first term of the lower-control cx keeps both blocks
# non-zero, so three of the four subtrees below decision 0 are zero; the
# cross-cut swap makes the last decision a 4-term one (32 paths in all)
ZERO_SUBTREES = Circuit(4, (
    Gate("h", targets=(1,)),
    Gate("h", targets=(3,)),
    Gate("cx", controls=(0,), targets=(2,)),
    Gate("cz", controls=(1,), targets=(3,)),
    Gate("rx", (0.4,), targets=(2,)),
    Gate("swap", targets=(3, 0)),
    Gate("t", targets=(0,)),
))


def _path_term(c, cut, up, lo, edges):
    """The summand of one path: the tensor product of its block arrays."""
    ue, le = edges
    if ZERO_EDGE in (ue, le):
        return np.zeros(1 << c.n, dtype=complex)
    return np.kron(up.extract_statevector(ue, c.n - cut), lo.extract_statevector(le, cut))


# every cz has its control on qubit 2, which an h puts back in |+> before
# each decision: past decision j's projector the upper block is |d_j> on
# qubit 2 whatever the earlier digits, and a Z on a lower qubit still in
# |0> leaves the state as it is, so post-decision block states repeat, and
# with them the block states the next decision starts from
REPEATS = Circuit(4, (
    Gate("h", targets=(2,)),
    Gate("h", targets=(0,)),
    Gate("ry", (0.3,), targets=(3,)),
    Gate("cz", controls=(2,), targets=(0,)),
    Gate("h", targets=(2,)),
    Gate("cz", controls=(2,), targets=(1,)),
    Gate("h", targets=(2,)),
    Gate("rx", (0.8,), targets=(1,)),
    Gate("cz", controls=(2,), targets=(0,)),
    Gate("t", targets=(3,)),
    Gate("h", targets=(0,)),
))


def _check_walk_against_fresh_folds(case, workers, w, **package_args):
    """One walk record folds worker ``w``'s range in order; each fresh fold
    starts from |0..0> with a record of its own, so it never meets a fold
    table entry."""
    import qcdd.hybrid as hybrid_mod

    c, cut = case
    p = Partition(cut)
    cls = classify(c, p)
    w %= workers
    up, lo = Package(**package_args), Package(**package_args)
    fresh_up, fresh_lo = Package(**package_args), Package(**package_args)
    walk = hybrid_mod._Walk(up, lo)
    total = cls.path_count
    for i in range(w * total // workers, (w + 1) * total // workers):
        digits = path_digits(cls.decisions, i)
        walked = simulate_path(c, p, digits, up, lo, cls, walk=walk)
        fresh = simulate_path(c, p, digits, fresh_up, fresh_lo, cls)
        got = _path_term(c, cut, up, lo, walked)
        want = _path_term(c, cut, fresh_up, fresh_lo, fresh)
        assert np.abs(got - want).max() < 1e-12


@given(cut_circuits(), st.integers(1, 3), st.integers(0, 2))
@example((CUT_LAST, 4), 1, 0)
@example((ZERO_PATHS, 2), 2, 1)
@example((ZERO_SUBTREES, 2), 1, 0)
@example((ZERO_SUBTREES, 2), 3, 1)
@settings(max_examples=80, deadline=None)
def test_walk_matches_fresh_folds(case, workers, w):
    # gc runs after every op, so a prefix state the walk resumes from
    # survives only as a gc root, and the fold tables are dropped at every op
    _check_walk_against_fresh_folds(case, workers, w, gc_limit=0)


@given(cut_circuits(), st.integers(1, 3), st.integers(0, 2), st.integers(1, 120))
@example((REPEATS, 2), 1, 0, Package().gc_limit)
@example((REPEATS, 2), 2, 1, Package().gc_limit)
@example((ZERO_SUBTREES, 2), 1, 0, Package().gc_limit)
# limits at which a collection reuses a node id the tables would otherwise
# still hold, both as a key stored across a collection and as a table that
# outlived one
@example((REPEATS, 2), 1, 0, 24)
@example((generate_random_circuit(6, 5, seed=2, cz_density=0.6), 3), 1, 0, 30)
@settings(max_examples=60, deadline=None)
def test_walk_with_fold_tables_matches_fresh_folds(case, workers, w, gc_limit):
    # at the default gc limit these circuits never collect, so the fold
    # tables answer every segment fold whose start state, before its
    # decision factor, repeats; a small limit collects now and then, also in
    # the middle of a fold, and the tables must never answer from a node id
    # that a collection freed
    _check_walk_against_fresh_folds(case, workers, w, gc_limit=gc_limit)


def test_walk_record_belongs_to_its_packages(fig4):
    import qcdd.hybrid as hybrid_mod

    up, lo = Package(), Package()
    walk = hybrid_mod._Walk(up, lo)
    with pytest.raises(ValueError, match="other packages"):
        simulate_path(fig4, Partition(2), (0, 0), up, Package(), walk=walk)


def test_walk_prunes_zero_subtrees(monkeypatch):
    import qcdd.hybrid as hybrid_mod

    c, p = ZERO_SUBTREES, Partition(2)
    cls = classify(c, p)
    assert [len(dp.terms) for dp in cls.decisions] == [4, 2, 4]
    # every gate is one op on a path, a decision one op in each block
    ops = len(c.gates) + len(cls.decisions)
    paths = []  # [digits, multiply calls] per simulate_path call
    multiply = Package.multiply
    real = hybrid_mod.simulate_path

    def counted_multiply(pkg, m, v):
        paths[-1][1] += 1
        return multiply(pkg, m, v)

    def recording(circuit, partition, path, *args, **kwargs):
        paths.append([path, 0])
        return real(circuit, partition, path, *args, **kwargs)

    monkeypatch.setattr(Package, "multiply", counted_multiply)
    monkeypatch.setattr(hybrid_mod, "simulate_path", recording)
    res = run_hybrid_amp(c, p, workers=1)
    assert np.abs(res.vector - dense_simulate(c)).max() < 1e-12
    assert [digits for digits, _ in paths] == [
        path_digits(cls.decisions, i) for i in range(cls.path_count)
    ]
    # the first path below a zero prefix finds it; the others fold nothing
    for digits, calls in paths:
        if digits[0] != 0 and any(digits[1:]):
            assert calls == 0, digits
    assert sum(calls for _, calls in paths) < cls.path_count * ops


def test_walk_folds_a_repeated_segment_once(monkeypatch):
    # without the fold tables the walk folds each segment once per prefix;
    # with them, a start state the record has folded that segment and digit
    # from, before the decision factor, costs no multiplication at all
    c, p = REPEATS, Partition(2)
    cls = classify(c, p)
    assert cls.path_count == 8
    once_per_prefix = 0
    prefixes = 1
    for s, segs in enumerate(zip(cls.upper_segments, cls.lower_segments)):
        if s:
            prefixes *= len(cls.decisions[s - 1].terms)
        once_per_prefix += prefixes * sum(bool(factors) + len(gates) for factors, gates in segs)
    calls = 0
    multiply = Package.multiply

    def counted_multiply(pkg, m, v):
        nonlocal calls
        calls += 1
        return multiply(pkg, m, v)

    monkeypatch.setattr(Package, "multiply", counted_multiply)
    res = run_hybrid_amp(c, p, workers=1)
    assert res.stats["zero_paths"] == 0 and res.stats["fold_hits"] > 0
    assert calls < once_per_prefix
    assert np.abs(res.vector - dense_simulate(c)).max() < 1e-12


def test_walk_record_serves_one_classification(fig4):
    # the record's stacks and fold tables hold one classification's states,
    # keyed by its segment positions; handed another, it must not fold from them
    import qcdd.hybrid as hybrid_mod

    p = Partition(2)
    other = Circuit(4, fig4.gates + (Gate("x", targets=(3,)),))
    up, lo = Package(), Package()
    walk = hybrid_mod._Walk(up, lo)
    simulate_path(fig4, p, (0, 0), up, lo, classify(fig4, p), walk=walk)
    with pytest.raises(ValueError, match="another classification"):
        simulate_path(other, p, (0, 1), up, lo, classify(other, p), walk=walk)


def _rotation_circuit(n, depth, seed):
    """Random-angle rotations with random cz/cp pairs: no two ops of a block,
    nor two pieces of its fused runs, have the same matrix on the same
    qubits unless they are the same gates or the same decision factor."""
    rng = Random(seed)
    gates = []
    for _ in range(depth):
        for q in range(n):
            gates.append(Gate("r" + rng.choice("xyz"), (rng.uniform(-3, 3),), targets=(q,)))
        a, b = rng.sample(range(n), 2)
        kind = rng.choice(["cz", "cp"])
        gates.append(Gate(kind, (rng.uniform(-3, 3),) if kind == "cp" else (), (a,), (b,)))
    return Circuit(n, tuple(gates))


def _block_op_counts(cls):
    """Per block (upper, lower), how many ops of the classification, gates
    and decision factors, have each (qubits, matrix bytes)."""
    out = []
    for segments in (cls.upper_segments, cls.lower_segments):
        counts = Counter()
        for factors, gates in segments:
            for qs, m, *_ in (*factors, *gates):
                counts[tuple(qs), np.asarray(m, dtype=complex).tobytes()] += 1
        out.append(counts)
    return out


@pytest.mark.parametrize("gc_limit", [40, 150, 250])
def test_walk_builds_each_operator_once_between_collections(monkeypatch, gc_limit):
    # small limits collect inside segments and between them; the operator
    # cache must then drop its diagrams and build each at most once again,
    # once per content however many ops of the block carry it
    import qcdd.hybrid as hybrid_mod

    c, p = _rotation_circuit(6, 6, 3), Partition(3)
    cls = classify(c, p)
    assert 16 <= cls.path_count <= 256
    up, lo = Package(gc_limit=gc_limit), Package(gc_limit=gc_limit)
    calls = Counter()
    matrix_dd = Package.matrix_dd

    def counted(pkg, n, qubits, base):
        if pkg is up or pkg is lo:
            content = tuple(qubits), np.asarray(base, dtype=complex).tobytes()
            calls[pkg is lo, pkg.gc_runs, content] += 1
        return matrix_dd(pkg, n, qubits, base)

    monkeypatch.setattr(Package, "matrix_dd", counted)
    walk = hybrid_mod._Walk(up, lo)
    fresh = hybrid_mod._Walk(Package(), Package())
    acc = np.zeros(1 << c.n, dtype=complex)
    for i in range(cls.path_count):
        digits = path_digits(cls.decisions, i)
        got = _path_term(c, p.cut, up, lo, simulate_path(c, p, digits, up, lo, cls, walk=walk))
        edges = simulate_path(c, p, digits, *fresh.packages, cls, walk=fresh)
        assert np.abs(got - _path_term(c, p.cut, *fresh.packages, edges)).max() < 1e-12
        acc += got
    assert np.abs(acc - dense_simulate(c)).max() < 1e-12
    assert up.gc_runs > 1 and lo.gc_runs > 1
    ops = _block_op_counts(cls)
    assert any(k > 1 for counts in ops for k in counts.values())
    for (b, _, content), k in calls.items():
        assert k == 1
        # an op of the block, or a piece of one of its cut runs
        assert content in ops[b] or any(set(content[0]) < set(qs) for qs, _ in ops[b])


# the lower block's qubit 0 stays |0>, on which both lower factors of a cz
# (I and Z) act alike, so the lower state before decision 1 sits on one
# node whichever digit decision 0 took
PRE_REPEATS = Circuit(4, (
    Gate("h", targets=(2,)),
    Gate("cz", controls=(2,), targets=(0,)),
    Gate("rx", (0.4,), targets=(1,)),
    Gate("h", targets=(2,)),
    Gate("cz", controls=(2,), targets=(0,)),
    Gate("ry", (0.9,), targets=(1,)),
))


def test_walk_answers_a_repeated_state_before_its_factor(monkeypatch):
    import qcdd.hybrid as hybrid_mod

    c, p = PRE_REPEATS, Partition(2)
    cls = classify(c, p)
    assert cls.path_count == 4
    folds = []  # (block, segment, digits, multiply calls, fold hits) per fold
    multiplies = 0
    multiply = Package.multiply
    fold = hybrid_mod._Walk.fold

    def counted_multiply(pkg, m, v):
        nonlocal multiplies
        multiplies += 1
        return multiply(pkg, m, v)

    def recording(walk, b, n, s, path, check_norm):
        before, hits = multiplies, walk.fold_hits
        end = fold(walk, b, n, s, path, check_norm)
        folds.append((b, s, path, multiplies - before, walk.fold_hits - hits))
        return end

    monkeypatch.setattr(Package, "multiply", counted_multiply)
    monkeypatch.setattr(hybrid_mod._Walk, "fold", recording)
    res = run_hybrid_amp(c, p, workers=1)
    assert np.abs(res.vector - dense_simulate(c)).max() < 1e-12
    lower_last = {path: (calls, hits) for b, s, path, calls, hits in folds if (b, s) == (1, 2)}
    # the first prefix folds the segment, factor included; the second one
    # reaches the same node before the factor and applies nothing
    assert lower_last[0, 0][0] > 0 and lower_last[0, 1][0] > 0
    assert lower_last[1, 0] == (0, 1) and lower_last[1, 1] == (0, 1)
    assert res.stats["fold_hits"] == sum(hits for *_, hits in folds)


def test_walk_builds_a_shared_decision_factor_once(monkeypatch):
    # both decisions of PRE_REPEATS act on lower qubit 0 with the factors I
    # and Z, and on upper qubit 0 with the same projectors: each of these
    # four contents is built once per block, not once per decision
    import qcdd.hybrid as hybrid_mod

    c, p = PRE_REPEATS, Partition(2)
    cls = classify(c, p)
    built = Counter()
    matrix_dd = Package.matrix_dd

    def counted(pkg, n, qubits, base):
        built[id(pkg), tuple(qubits), np.asarray(base, dtype=complex).tobytes()] += 1
        return matrix_dd(pkg, n, qubits, base)

    monkeypatch.setattr(Package, "matrix_dd", counted)
    up, lo = Package(), Package()
    walk = hybrid_mod._Walk(up, lo)
    for i in range(cls.path_count):
        simulate_path(c, p, path_digits(cls.decisions, i), up, lo, cls, walk=walk)
    assert up.gc_runs == 0 and lo.gc_runs == 0
    assert set(built.values()) == {1}
    for pkg, segments in ((up, cls.upper_segments), (lo, cls.lower_segments)):
        (f1, _), (f2, _) = segments[1:]
        for first, second in zip(f1, f2):
            assert first[3] == second[3]
            assert built[id(pkg), first[0], first[1].tobytes()] == 1


@pytest.mark.parametrize("seed", range(6))
def test_walk_check_norm_passes_on_mixed_circuits(seed):
    from test_acceptance import mixed_random_circuit

    import qcdd.hybrid as hybrid_mod

    c = mixed_random_circuit(6, 4, seed)
    p = default_partition(c.n)
    cls = classify(c, p)
    walk = hybrid_mod._Walk(Package(), Package())
    acc = np.zeros(1 << c.n, dtype=complex)
    for i in range(cls.path_count):
        digits = path_digits(cls.decisions, i)
        edges = simulate_path(c, p, digits, *walk.packages, cls, check_norm=True, walk=walk)
        acc += _path_term(c, p.cut, *walk.packages, edges)
    assert np.abs(acc - dense_simulate(c)).max() < 1e-12


def test_amp_extracts_each_block_node_once(monkeypatch):
    c, p = REPEATS, Partition(2)
    extracted = []
    extract = Package.extract_statevector

    def recording(pkg, e, n=None):
        extracted.append((id(pkg), e[1]))
        return extract(pkg, e, n)

    monkeypatch.setattr(Package, "extract_statevector", recording)
    res = run_hybrid_amp(c, p, workers=1)
    # two block arrays per path without reuse, one per distinct node with it
    assert len(extracted) == len(set(extracted)) < 2 * res.path_count
    assert np.abs(res.vector - dense_simulate(c)).max() < 1e-12


def test_amp_row_reuse_survives_gc(monkeypatch):
    # block packages that collect garbage after every op reuse node ids from
    # path to path, so a row kept for a node id must not outlive a gc
    import functools

    import qcdd.hybrid as hybrid_mod

    monkeypatch.setattr(hybrid_mod, "Package", functools.partial(Package, gc_limit=0))
    cases = [(REPEATS, 2), (ZERO_SUBTREES, 2)] + [
        (generate_random_circuit(6, 5, seed=seed, cz_density=0.6), 3) for seed in range(4)
    ]
    for c, cut in cases:
        res = run_hybrid_amp(c, Partition(cut), workers=1)
        assert np.abs(res.vector - dense_simulate(c)).max() < 1e-12


@pytest.mark.parametrize("workers", [1, 2], ids=["workers-1", "workers-2"])
def test_stats_sum_fold_hits_over_workers(workers):
    import qcdd.hybrid as hybrid_mod

    c, p = REPEATS, Partition(2)
    cls = classify(c, p)
    hits = 0
    for w in range(workers):
        walk = hybrid_mod._Walk(Package(), Package())
        for i in range(w * cls.path_count // workers, (w + 1) * cls.path_count // workers):
            simulate_path(c, p, path_digits(cls.decisions, i), *walk.packages, cls, walk=walk)
        hits += walk.fold_hits
    assert hits > 0
    for res in (run_hybrid_amp(c, p, workers=workers), run_hybrid_dd(c, p, workers=workers)):
        assert res.stats["fold_hits"] == hits


@pytest.mark.parametrize("workers", [1, 2], ids=["workers-1", "workers-2"])
def test_stats_count_zero_paths(workers):
    cases = [(ZERO_SUBTREES, 2), (generate_random_circuit(8, 4, seed=2, cz_density=0.6), 4)]
    for c, cut in cases:
        p = Partition(cut)
        cls = classify(c, p)
        zero = 0
        for i in range(cls.path_count):
            ue, le = simulate_path(c, p, path_digits(cls.decisions, i), Package(), Package(), cls)
            zero += ZERO_EDGE in (ue, le)
        assert 0 < zero < cls.path_count
        for res in (run_hybrid_amp(c, p, workers=workers), run_hybrid_dd(c, p, workers=workers)):
            assert res.workers == workers
            assert res.stats["zero_paths"] == zero


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
    parent = os.getpid()
    real = hybrid_mod.simulate_path

    def die(*args, **kwargs):
        # worker 0 is this process: only the forked worker dies
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(hybrid_mod, "simulate_path", die)
    with pytest.raises(RuntimeError, match="died without reporting"):
        getattr(hybrid_mod, engine)(c, workers=2)


def test_worker_failure_surfaces(monkeypatch):
    c = generate_random_circuit(8, 4, seed=2, cz_density=0.6)
    assert classify(c, Partition(4)).path_count >= 2

    import qcdd.hybrid as hybrid_mod

    def boom(*args, **kwargs):
        raise RuntimeError("injected path failure")

    # worker 0, this process, fails in its own range and the forked worker
    # inherits the patched module, so the failure happens in both
    monkeypatch.setattr(hybrid_mod, "simulate_path", boom)
    with pytest.raises(RuntimeError, match="worker .* failed|injected"):
        hybrid_mod.run_hybrid_amp(c, workers=2)
    with pytest.raises(RuntimeError, match="worker .* failed|injected"):
        hybrid_mod.run_hybrid_dd(c, workers=2)


@pytest.mark.parametrize("dying_worker", [1, 2], ids=["worker-1", "worker-2"])
@pytest.mark.parametrize(
    "engine", ["run_hybrid_amp", "run_hybrid_dd"], ids=["hybrid-amp", "hybrid-dd"]
)
def test_one_worker_dies_the_other_finishes(monkeypatch, engine, dying_worker):
    import multiprocessing as mp
    import os
    import signal
    import time

    import qcdd.hybrid as hybrid_mod

    c = generate_random_circuit(8, 4, seed=2, cz_density=0.6)
    cls = classify(c, default_partition(8))
    assert cls.path_count >= 4
    # the first path of the dying worker's range [w * P // 3, (w + 1) * P // 3);
    # worker 0 is this process, so the first and the last forked worker die
    fatal = path_digits(cls.decisions, dying_worker * cls.path_count // 3)
    real = hybrid_mod.simulate_path

    def die_on_one_path(circuit, partition, path, *args, **kwargs):
        if path == fatal:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(circuit, partition, path, *args, **kwargs)

    # only the worker whose range holds the fatal path dies
    monkeypatch.setattr(hybrid_mod, "simulate_path", die_on_one_path)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"died without reporting \(exit code -9\)"):
        getattr(hybrid_mod, engine)(c, workers=3)
    assert time.perf_counter() - t0 < 10
    assert mp.active_children() == []


@pytest.mark.parametrize(
    "engine, summer",
    [("run_hybrid_amp", "_AmpSum"), ("run_hybrid_dd", "_DDSum")],
    ids=["hybrid-amp", "hybrid-dd"],
)
def test_caller_walks_range_zero(monkeypatch, engine, summer):
    # of two workers, worker 0 is this process: it walks the first half of
    # the paths itself, and its sum meets the one forked worker's reply
    import qcdd.hybrid as hybrid_mod

    c = generate_random_circuit(8, 4, seed=2, cz_density=0.6)
    cls = classify(c, default_partition(8))
    calls, shipped = [], []
    real = hybrid_mod.simulate_path
    total = getattr(hybrid_mod, summer).total

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    def recording(self, replies, times):
        shipped.append(len(replies))
        return total(self, replies, times)

    monkeypatch.setattr(hybrid_mod, "simulate_path", counted)
    monkeypatch.setattr(getattr(hybrid_mod, summer), "total", recording)
    res = getattr(hybrid_mod, engine)(c, workers=2)
    assert calls == [path_digits(cls.decisions, i) for i in range(cls.path_count // 2)]
    assert shipped == [1]
    assert res.workers == 2
    got = res.vector if res.vector is not None else res.package.extract_statevector(res.state, 8)
    assert np.abs(got - dense_simulate(c)).max() < 1e-9


def test_amp_workers_write_rows_in_place():
    # this process and a forked worker write their non-zero paths' rows
    # into the summer's shared mapping, one after another from the start of
    # their ranges, and the forked worker replies with only their number;
    # the caller moves them down behind its own, so the product's rows are
    # the non-zero paths' rows in path order
    import qcdd.hybrid as hybrid_mod

    c = generate_random_circuit(8, 4, seed=2, cz_density=0.6)
    p = default_partition(8)
    cls = classify(c, p)
    summer = hybrid_mod._AmpSum(8, p.cut, cls.path_count, 1e-13, 30)
    shipped = []
    total = summer.total

    def recording(replies, times):
        shipped.extend(replies)
        return total(replies, times)

    summer.total = recording
    vector, stats = hybrid_mod._run_paths(c, p, cls, 2, False, summer)
    assert stats["workers"] == 2
    half = cls.path_count // 2
    nonzero = []
    for i in range(cls.path_count):
        up, lo = Package(), Package()
        ue, le = simulate_path(c, p, path_digits(cls.decisions, i), up, lo, cls)
        if ZERO_EDGE not in (ue, le):
            u, v = up.extract_statevector(ue, 8 - p.cut), lo.extract_statevector(le, p.cut)
            nonzero.append((i, u, v))
    assert 0 < len(nonzero) < cls.path_count
    assert shipped == [sum(i >= half for i, _, _ in nonzero)]
    assert summer.written == len(nonzero) == cls.path_count - stats["zero_paths"]
    for row, (_, u, v) in enumerate(nonzero):
        assert np.abs(summer.upper[row] - u).max() < 1e-12
        assert np.abs(summer.lower[row] - v).max() < 1e-12
    assert np.abs(vector - dense_simulate(c)).max() < 1e-9


@pytest.mark.parametrize("workers", [1, 2, 3], ids=["workers-1", "workers-2", "workers-3"])
def test_amp_product_skips_zero_paths(workers):
    # the product reads one row pair per non-zero path, at every worker
    # count, a forked range with no non-zero path included
    import qcdd.hybrid as hybrid_mod

    cases = [(ZERO_SUBTREES, 2), (generate_random_circuit(8, 4, seed=2, cz_density=0.6), 4)]
    for c, cut in cases:
        p = Partition(cut)
        cls = classify(c, p)
        summer = hybrid_mod._AmpSum(c.n, cut, cls.path_count, 1e-13, 30)
        vector, stats = hybrid_mod._run_paths(c, p, cls, workers, False, summer)
        assert stats["workers"] == workers
        assert 0 < stats["zero_paths"] < cls.path_count
        assert summer.written == cls.path_count - stats["zero_paths"]
        assert np.abs(vector - dense_simulate(c)).max() < 1e-12


def test_amp_total_allocates_only_the_output():
    # synthetic rows at n = 16 written into a summer's mapping as two
    # workers of 512 paths write them: this process 200 rows from row 0,
    # the forked worker 256 rows from row 256, its range's start; moving
    # those down behind row 200 overlaps them, and the product reads the
    # 456 rows in place, so forming the state allocates the output and no
    # copy of the rows
    import tracemalloc

    import qcdd.hybrid as hybrid_mod

    n, cut, paths = 16, 8, 512
    rng = np.random.default_rng(7)
    summer = hybrid_mod._AmpSum(n, cut, paths, 1e-13, 30)
    for rows in (summer.upper, summer.lower):
        rows[:] = rng.normal(size=rows.shape) + 1j * rng.normal(size=rows.shape)
    kept = np.r_[0:200, 256:512]
    want = (summer.upper[kept].T @ summer.lower[kept]).ravel()
    summer.written = 200
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state = summer.total([256], dict.fromkeys(hybrid_mod._STAGES, 0.0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert summer.written == 456
    assert np.abs(state - want).max() < 1e-9
    assert peak < state.nbytes + (64 << 10)


def test_amp_row_allocation_failure_surfaces_before_any_path(monkeypatch):
    import qcdd.hybrid as hybrid_mod

    def no_memory(*args, **kwargs):
        raise MemoryError("injected")

    def never(*args, **kwargs):
        raise AssertionError("a path was simulated")

    monkeypatch.setattr(hybrid_mod.mmap, "mmap", no_memory)
    monkeypatch.setattr(hybrid_mod, "simulate_path", never)
    for workers in (1, 2):
        with pytest.raises(MemoryError, match="injected"):
            run_hybrid_amp(generate_random_circuit(8, 4, seed=2, cz_density=0.6), workers=workers)


@pytest.mark.parametrize("workers", [1, 2], ids=["workers-1", "workers-2"])
def test_amp_vector_does_not_view_the_mapping(monkeypatch, workers):
    import gc

    import qcdd.hybrid as hybrid_mod

    maps = []
    real = hybrid_mod.mmap.mmap

    def recorded(*args, **kwargs):
        maps.append(real(*args, **kwargs))
        return maps[-1]

    monkeypatch.setattr(hybrid_mod.mmap, "mmap", recorded)
    c = generate_random_circuit(8, 4, seed=2, cz_density=0.6)
    res = run_hybrid_amp(c, workers=workers)
    (mapping,) = maps
    assert not np.shares_memory(res.vector, np.frombuffer(mapping, dtype=complex))
    gc.collect()
    mapping.close()  # a BufferError here: some array still views the mapping
    assert np.abs(res.vector - dense_simulate(c)).max() < 1e-12


def test_dd_ship_sends_only_live_nodes():
    import qcdd.hybrid as hybrid_mod

    c = generate_random_circuit(8, 5, seed=0, cz_density=0.5)
    p = Partition(4)
    cls = classify(c, p)
    summer = hybrid_mod._DDSum(p.cut, 1e-13, 30)
    summer.pkg.gc_limit = 0  # sweep after every path and splice, leaving freed slots behind
    hybrid_mod._sum_paths(c, p, cls, 0, 1, False, summer)
    assert summer.groups
    times = dict.fromkeys(hybrid_mod._STAGES, 0.0)
    pkg, edge, splices = summer.ship(times)
    # a forked worker books its splices as the calling process does
    assert times["kron"] > 0 and times["add"] > 0
    assert None in summer.pkg._nodes[1:]
    assert splices > 0
    assert None not in pkg._nodes[1:]
    assert len(pkg._nodes) - 1 == pkg.count_nodes(edge)
    assert np.abs(pkg.extract_statevector(edge, 8) - dense_simulate(c)).max() < 1e-9


def _distinct_block_nodes(c, p, cls, paths):
    """The upper and the lower nodes that the non-zero ones of ``paths`` end
    on, walked in order with one pair of packages as a worker does."""
    import qcdd.hybrid as hybrid_mod

    walk = hybrid_mod._Walk(Package(), Package())
    uppers, lowers = set(), set()
    for i in paths:
        ue, le = simulate_path(c, p, path_digits(cls.decisions, i), *walk.packages, cls, walk=walk)
        if ZERO_EDGE not in (ue, le):
            uppers.add(ue[1])
            lowers.add(le[1])
    return uppers, lowers


@pytest.mark.parametrize("workers", [1, 2], ids=["workers-1", "workers-2"])
def test_dd_imports_each_block_node_once(monkeypatch, workers):
    # REPEATS' 8 non-zero paths end on 2 upper and 2 lower nodes
    c, p = REPEATS, Partition(2)
    cls = classify(c, p)
    ranges = [
        range(w * cls.path_count // workers, (w + 1) * cls.path_count // workers)
        for w in range(workers)
    ]
    distinct = [_distinct_block_nodes(c, p, cls, r) for r in ranges]
    assert all(len(u) < len(r) and len(lo) < len(r) for (u, lo), r in zip(distinct, ranges))
    imports, splices = [], 0
    import_edge = Package.import_edge

    def counted(pkg, src, e, shift=0, splice=None, memo=None):
        nonlocal splices
        if splice is None:
            imports.append((src, e[1]))
        else:
            assert src is pkg  # the run's package splices into itself
            splices += 1
        return import_edge(pkg, src, e, shift, splice, memo)

    monkeypatch.setattr(Package, "import_edge", counted)
    res = run_hybrid_dd(c, p, workers=workers)
    if workers == 1:
        # one import per distinct node of each block package; the forked
        # workers' calls would be counted in their own processes
        (uppers, lowers), = distinct
        per_package = {}
        for src, node in imports:
            per_package.setdefault(id(src), set()).add(node)
        assert len(imports) == len(uppers) + len(lowers)
        assert sorted(map(len, per_package.values())) == sorted([len(uppers), len(lowers)])
        assert splices == len(uppers)
    assert res.stats["splices"] == sum(len(u) for u, _ in distinct)
    assert np.abs(res.package.extract_statevector(res.state, c.n) - dense_simulate(c)).max() < 1e-12


@pytest.mark.parametrize("block_gc_limit", [0, 30, Package().gc_limit])
def test_dd_groups_survive_gc(monkeypatch, block_gc_limit):
    # block packages that collect garbage within and between paths reuse
    # node ids, so an upper node id may come back on another node after
    # its group was opened, and an upper node that comes back after a
    # collection is copied again; the run's package collects after every
    # path and every splice, with only the groups and the counter's slots
    # as roots, so it must empty the import memos when it frees nodes,
    # and the copy that comes back must join its group, not open another
    import qcdd.hybrid as hybrid_mod

    cases = [(REPEATS, 2), (ZERO_SUBTREES, 2)] + [
        (generate_random_circuit(6, 5, seed=seed, cz_density=0.6), 3) for seed in (1, 2, 5)
    ]
    for c, cut in cases:
        p = Partition(cut)
        cls = classify(c, p)
        plain = run_hybrid_dd(c, p)
        summer = hybrid_mod._DDSum(cut, 1e-13, 30)
        summer.pkg.gc_limit = 0
        blocks = []

        def block_package(*args, **kwargs):
            blocks.append(Package(*args, **kwargs, gc_limit=block_gc_limit))
            return blocks[-1]

        monkeypatch.setattr(hybrid_mod, "Package", block_package)
        hybrid_mod._sum_paths(c, p, cls, 0, 1, False, summer)
        monkeypatch.undo()
        # no memo edge outlives the collection after the last path
        roots = summer._roots(summer.groups.values())
        assert summer.pkg.live_nodes() == len(summer.pkg.reachable(roots))
        state = summer.total([], dict.fromkeys(hybrid_mod._STAGES, 0.0))
        assert summer.pkg.gc_runs
        assert summer.splices == plain.stats["splices"]
        assert all(b.gc_runs for b in blocks) == (block_gc_limit < Package().gc_limit)
        got = summer.pkg.extract_statevector(state, c.n)
        assert np.abs(got - dense_simulate(c)).max() < 1e-12
        fresh = Package()
        assert fresh.import_edge(summer.pkg, state) == fresh.import_edge(plain.package, plain.state)


@given(cut_circuits(), st.data())
@settings(max_examples=40, deadline=None)
def test_import_into_own_package_is_kron(case, data):
    # the splice of _DDSum: both block states imported into one package,
    # then the upper one imported from that package into itself above the
    # lower one; also a diagram spliced above itself, so that the source
    # and the splice share nodes
    c, cut = case
    p = Partition(cut)
    cls = classify(c, p)
    i = data.draw(st.integers(0, cls.path_count - 1))
    up, lo = Package(), Package()
    ue, le = simulate_path(c, p, path_digits(cls.decisions, i), up, lo, cls)
    pkg = Package()
    upper, lower = pkg.import_edge(up, ue), pkg.import_edge(lo, le)
    u = pkg.extract_statevector(upper, c.n - cut)
    v = pkg.extract_statevector(lower, cut)
    k = pkg.import_edge(pkg, upper, shift=cut, splice=lower)
    assert np.abs(pkg.extract_statevector(k, c.n) - np.kron(u, v)).max() < 1e-12
    k = pkg.import_edge(pkg, lower, shift=cut, splice=lower)
    assert np.abs(pkg.extract_statevector(k, 2 * cut) - np.kron(v, v)).max() < 1e-12


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
        for key in (
            "mode", "n", "cut", "decisions", "path_count", "workers", "times", "max_path_nodes",
            "zero_paths", "fold_hits",
        ):
            assert key in rec
        for stage in ("simulate", "kron", "extract", "add", "total"):
            assert stage in rec["times"]
        assert rec["decisions"] == 2 and rec["path_count"] == 4
        dd_only = {"final_nodes", "splices"}
        if rec["mode"] == "hybrid-dd":
            assert dd_only <= rec.keys()
            # each worker's two paths end on distinct upper nodes
            assert rec["splices"] == 4
        else:
            assert not dd_only & rec.keys()


def test_path_count_law_cz_only():
    # CZ is the only two-qubit kind the generator emits, so the number of
    # paths is exactly 2**(cross-block gate count)
    for seed in range(10):
        c = generate_random_circuit(7, 5, seed=seed, cz_density=0.5)
        cls = classify(c, Partition(3))
        assert cls.path_count == 2 ** len(cls.decisions)
