import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcdd.circuit import (
    CapacityError, Circuit, Gate, apply_matrix, dense_simulate,
    gate_matrix, generate_random_circuit,
)
from qcdd.dd import ONE_EDGE, ZERO_EDGE, Package
from qcdd.schrodinger import apply_ops, fuse_runs, simulate
from qcdd.weights import ONE, ZERO
from conftest import FIG_STATE, gate_lists

SQ2 = 1 / math.sqrt(2)


def rand_vec(rng, n, sparsity=1.0):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    if sparsity < 1.0:
        v = v * (rng.random(1 << n) < sparsity)
    return v


# ---------------------------------------------------------------------------
# basis states


def test_basis_state_all_zero():
    pkg = Package()
    e = pkg.make_basis_state(4, "0000")
    want = np.zeros(16, dtype=complex)
    want[0] = 1
    assert np.array_equal(pkg.extract_statevector(e), want)
    assert pkg.count_nodes(e) == 4
    assert e[0] == ONE


def test_basis_state_single_one():
    pkg = Package()
    e = pkg.make_basis_state(1, "1")
    assert pkg.count_nodes(e) == 1
    level, w0, t0, w1, t1 = pkg._nodes[e[1]]
    assert (w0, t0) == ZERO_EDGE
    assert (w1, t1) == ONE_EDGE


def test_basis_state_bit_order():
    pkg = Package()
    e = pkg.make_basis_state(3, "101")
    v = pkg.extract_statevector(e)
    assert v[5] == 1 and np.count_nonzero(v) == 1


def test_basis_state_errors():
    pkg = Package()
    with pytest.raises(ValueError):
        pkg.make_basis_state(0, "")
    with pytest.raises(ValueError):
        pkg.make_basis_state(3, "01")
    with pytest.raises(ValueError):
        pkg.make_basis_state(2, "02")


# ---------------------------------------------------------------------------
# normalization


def test_normalize_uniform_pair():
    pkg = Package()
    h = pkg.weights.lookup(complex(SQ2, 0))
    e = pkg.make_vector_node(0, (h, 0), (h, 0))
    assert e[0] == pytest.approx(SQ2)
    _, w0, _, w1, _ = pkg._nodes[e[1]]
    assert w0 == ONE and w1 == ONE


def test_normalize_zero_pair_collapses():
    pkg = Package()
    assert pkg.make_vector_node(0, ZERO_EDGE, ZERO_EDGE) == ZERO_EDGE


def test_normalize_reconstructs_values():
    pkg = Package()
    a = pkg.weights.lookup(0.6 + 0j)
    b = pkg.weights.lookup(0.8j)
    e = pkg.make_vector_node(0, (a, 0), (b, 0))
    v = pkg.extract_statevector(e, 1)
    assert abs(v[0] - 0.6) < 1e-14
    assert abs(v[1] - 0.8j) < 1e-14
    # normalization divides by the largest-magnitude successor weight
    _, w0, _, w1, _ = pkg._nodes[e[1]]
    assert w1 == ONE
    assert abs(e[0] - 0.8j) < 1e-14


def test_normalized_weights_bounded():
    rng = np.random.default_rng(11)
    pkg = Package()
    for _ in range(20):
        e = pkg.from_statevector(rand_vec(rng, 5, sparsity=0.6))
        assert e == ZERO_EDGE or pkg._nodes[e[1]] is not None
    for entry in pkg._table:
        _, w0, t0, w1, t1 = entry
        assert ONE in (w0, w1)
        for w, t in ((w0, t0), (w1, t1)):
            if w == ZERO:
                assert t == 0
            else:
                assert abs(w) <= 1 + 1e-12


def test_normalize_near_tie_is_one_node():
    # |z| == 0.9999999999999999: magnitudes within tol tie, and the left wins,
    # so [z, 1] and [1, 1/z] (equal up to the factor z) share one node
    pkg = Package()
    z = 0.7071067811865475 * (1 + 1j)
    assert abs(z) < 1.0
    hz, hinv = pkg.weights.lookup(z), pkg.weights.lookup(1 / z)
    a = pkg.make_vector_node(0, (hz, 0), ONE_EDGE)
    b = pkg.make_vector_node(0, ONE_EDGE, (hinv, 0))
    assert a[1] == b[1]
    ma = pkg.make_matrix_node(0, [(hz, 0), ONE_EDGE, ZERO_EDGE, ZERO_EDGE])
    mb = pkg.make_matrix_node(0, [ONE_EDGE, (hinv, 0), ZERO_EDGE, ZERO_EDGE])
    assert ma[1] == mb[1]


def test_matrix_node_zero_collapses():
    pkg = Package()
    assert pkg.make_matrix_node(0, [ZERO_EDGE] * 4) == ZERO_EDGE


# ---------------------------------------------------------------------------
# amplitudes and extraction


def test_amplitude_of_reference_state(fig4):
    pkg = Package()
    e = simulate(fig4, pkg)
    assert abs(pkg.get_amplitude(e, "1010") - (-0.25)) < 1e-12
    assert abs(pkg.get_amplitude(e, "0000") - 0.25) < 1e-12


def test_amplitude_of_basis_state():
    pkg = Package()
    e = pkg.make_basis_state(4, "0000")
    assert pkg.get_amplitude(e, "0000") == 1


def test_amplitude_matches_dense_oracle():
    c = generate_random_circuit(6, 8, seed=2, cz_density=0.4)
    ref = dense_simulate(c)
    pkg = Package()
    e = simulate(c, pkg)
    for idx in (0, 5, 17, 40, 63):
        bits = format(idx, "06b")
        assert abs(pkg.get_amplitude(e, bits) - ref[idx]) < 1e-10


def test_amplitude_length_mismatch():
    pkg = Package()
    e = pkg.make_basis_state(3, "000")
    with pytest.raises(ValueError):
        pkg.get_amplitude(e, "00")


def test_extract_basis_one_hot():
    pkg = Package()
    v = pkg.extract_statevector(pkg.make_basis_state(5, "01011"))
    assert v[0b01011] == 1 and np.count_nonzero(v) == 1


def test_extract_matches_dense_oracle():
    c = generate_random_circuit(8, 8, seed=4, cz_density=0.3)
    ref = dense_simulate(c)
    pkg = Package()
    v = pkg.extract_statevector(simulate(c, pkg))
    assert np.abs(v - ref).max() < 1e-10


def test_extract_capacity_error():
    pkg = Package(extract_cap=4)
    e = pkg.make_basis_state(5, "00000")
    with pytest.raises(CapacityError):
        pkg.extract_statevector(e)


def test_extract_peak_memory_is_one_output():
    import tracemalloc

    rng = np.random.default_rng(21)
    pkg = Package()
    vec = rand_vec(rng, 12)
    e = pkg.from_statevector(vec)
    tracemalloc.start()
    try:
        out = pkg.extract_statevector(e, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(out - vec).max() < 1e-10
    assert peak < 2 * out.nbytes


def test_extract_refills_a_shared_node_first_reached_with_factor_zero():
    # 1e-200 * 1e-200 underflows to 0, so the first fill of the shared level-0
    # node writes zeros; its second visit must refill, not rescale by x / 0
    pkg = Package(tol=1e-300)
    tiny = pkg.weights.lookup(1e-200)
    leaf = pkg.make_vector_node(0, ONE_EDGE, (pkg.weights.lookup(0.5), 0))
    node = pkg.make_vector_node(1, (tiny, leaf[1]), (ONE, leaf[1]))
    v = pkg.extract_statevector((tiny, node[1]), 2)
    assert np.array_equal(v, np.array([0, 0, 1e-200, 0.5e-200], dtype=complex))


def test_extract_zero_edge():
    pkg = Package()
    assert np.array_equal(pkg.extract_statevector(ZERO_EDGE, 3), np.zeros(8, dtype=complex))


# ---------------------------------------------------------------------------
# add / multiply / Kronecker product (import_edge with shift and splice)


def test_add_zero_is_identity():
    rng = np.random.default_rng(0)
    pkg = Package()
    x = pkg.from_statevector(rand_vec(rng, 4))
    assert pkg.add(x, ZERO_EDGE) == x
    assert pkg.add(ZERO_EDGE, x) == x


def test_add_cancellation_gives_zero_edge():
    rng = np.random.default_rng(1)
    pkg = Package()
    vec = rand_vec(rng, 3)
    x = pkg.from_statevector(vec)
    y = pkg.from_statevector(-vec)
    assert pkg.add(x, y) == ZERO_EDGE


def test_add_matches_dense_oracle():
    rng = np.random.default_rng(2)
    pkg = Package()
    for _ in range(10):
        a = rand_vec(rng, 6, sparsity=0.7)
        b = rand_vec(rng, 6, sparsity=0.7)
        s = pkg.add(pkg.from_statevector(a), pkg.from_statevector(b))
        assert np.abs(pkg.extract_statevector(s, 6) - (a + b)).max() < 1e-10


def test_add_qubit_mismatch():
    pkg = Package()
    a = pkg.make_basis_state(3, "000")
    b = pkg.make_basis_state(4, "0000")
    with pytest.raises(ValueError):
        pkg.add(a, b)


def test_multiply_identity_is_noop():
    rng = np.random.default_rng(3)
    pkg = Package()
    v = pkg.from_statevector(rand_vec(rng, 4))
    assert pkg.multiply(pkg.matrix_dd(4, (), np.ones((1, 1))), v) == v


def test_multiply_matches_dense_oracle():
    rng = np.random.default_rng(4)
    for seed in range(5):
        c = generate_random_circuit(5, 3, seed=seed, cz_density=0.5)
        pkg = Package()
        vec = rand_vec(rng, 5)
        vec /= np.linalg.norm(vec)
        e = pkg.from_statevector(vec)
        for g in c.gates:
            e = pkg.multiply(pkg.matrix_dd(5, g.qubits, g.operator()), e)
            vec = apply_matrix(vec, g.operator(), g.qubits, 5)
        assert np.abs(pkg.extract_statevector(e, 5) - vec).max() < 1e-10


def test_multiply_qubit_mismatch():
    pkg = Package()
    m = pkg.matrix_dd(3, (), np.ones((1, 1)))
    v = pkg.make_basis_state(4, "0000")
    with pytest.raises(ValueError):
        pkg.multiply(m, v)


def identity_ids(pkg):
    """Ids of the live matrix nodes whose dense matrix is exactly the
    identity."""
    dense = {0: np.ones((1, 1), dtype=complex)}

    def expand(node):
        if node not in dense:
            level, *succ = pkg._nodes[node]
            size = 1 << level
            blocks = [w * expand(t) if w != ZERO else np.zeros((size, size))
                      for w, t in zip(succ[::2], succ[1::2])]
            dense[node] = np.block([blocks[:2], blocks[2:]])
        return dense[node]

    return {node for key, node in pkg._table.items()
            if len(key) == 9 and np.array_equal(expand(node), np.eye(2 << key[0]))}


def assert_identity_record(pkg):
    assert pkg._identity == identity_ids(pkg)
    levels = [pkg._nodes[node][0] for node in pkg._identity]
    assert len(levels) == len(set(levels))


def test_gate_on_top_qubit_does_not_walk_the_state_below():
    rng = np.random.default_rng(30)
    n = 8
    pkg = Package()
    vec = rand_vec(rng, n)
    v = pkg.from_statevector(vec)
    h = np.array([[1, 1], [1, -1]], dtype=complex) * SQ2
    e = pkg.multiply(pkg.matrix_dd(n, (n - 1,), h), v)
    assert len(pkg._memo_mul) == 1
    want = apply_matrix(vec, h, (n - 1,), n)
    assert np.abs(pkg.extract_statevector(e, n) - want).max() < 1e-10


def test_identity_record_holds_one_id_per_level():
    pkg = Package()
    state = pkg.make_basis_state(6, "000000")
    for g in generate_random_circuit(6, 5, seed=3, cz_density=0.6).gates:
        state = pkg.multiply(pkg.matrix_dd(6, g.qubits, g.operator()), state)
        assert_identity_record(pkg)
    # the identity below qubit q sits at level q - 1, for every q > 0 used
    assert len(pkg._identity) == 5
    pkg.gc([state])
    assert pkg._identity == set()
    pkg.matrix_dd(6, (), np.ones((1, 1)))
    assert len(pkg._identity) == 6
    assert_identity_record(pkg)


@given(gate_lists(), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_identity_skip_survives_id_reuse(c, gc_limit):
    # a tiny gc_limit sweeps after nearly every gate, so freed ids, identity
    # ones included, come back as other nodes
    pkg = Package(gc_limit=gc_limit)
    state = pkg.make_basis_state(c.n, "0" * c.n)
    for g in c.gates:
        state = pkg.multiply(pkg.matrix_dd(c.n, g.qubits, g.operator()), state)
        assert_identity_record(pkg)
        pkg.maybe_gc([state])
        assert_identity_record(pkg)
    assert np.abs(pkg.extract_statevector(state, c.n) - dense_simulate(c)).max() < 1e-10


def matrix_columns(pkg, m_edge, n, columns):
    """The listed columns of a matrix diagram, each the product with a
    basis state."""
    for j in columns:
        basis = pkg.make_basis_state(n, format(j, f"0{n}b"))
        yield j, pkg.extract_statevector(pkg.multiply(m_edge, basis), n)


def kron_operator(n, qubits, factors):
    """Dense operator of the factors on their qubits, identity elsewhere."""
    by_qubit = dict(zip(qubits, factors))
    op = np.ones((1, 1), dtype=complex)
    for q in reversed(range(n)):
        op = np.kron(op, by_qubit.get(q, np.eye(2)))
    return op


def two_by_two(rng):
    """A 2x2 factor: a gate, a projector-like decision factor, or a random
    non-unitary matrix, some entries exactly zero."""
    pick = rng.integers(4)
    if pick == 0:
        kind = rng.choice(["h", "x", "y", "z", "s", "t", "sx", "sy"])
        return Gate(str(kind), targets=(0,)).operator()
    if pick == 1:
        return Gate("rx", (float(rng.uniform(-7, 7)),), targets=(0,)).operator()
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    if pick == 2:
        m = m * (rng.random((2, 2)) < 0.5)
    return m


@given(st.integers(0, 10_000), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_factor_form_matches_numpy_kron(seed, n):
    rng = np.random.default_rng(seed)
    qubits = tuple(int(q) for q in rng.permutation(n)[: rng.integers(1, n + 1)])
    factors = [two_by_two(rng) for _ in qubits]
    pkg = Package()
    e = pkg.matrix_dd(n, qubits, factors)
    want = kron_operator(n, qubits, factors)
    for j, col in matrix_columns(pkg, e, n, range(1 << n)):
        assert np.abs(col - want[:, j]).max() < 1e-12
    # below the lowest factor the operator is the recorded identity
    assert_identity_record(pkg)


def test_factor_form_of_one_qubit_is_its_matrix():
    pkg = Package()
    h = np.array([[1, 1], [1, -1]], dtype=complex) * SQ2
    e = pkg.matrix_dd(5, (2,), h)
    assert pkg.matrix_dd(5, (2,), [h]) == e
    assert pkg.matrix_dd(5, (2,), np.stack([h])) == e


def test_sx_chain_keeps_its_weights_raw():
    # the chain's partial products ((1+i)/2)**k are raw: a table that already
    # holds a value within tol of each of them, as a package in use may, must
    # not pull them off.  Only the root, ((1+i)/2)**12 of magnitude
    # 0.707**12 = 2**-6, is looked up
    n = 12
    sx = Gate("sx", targets=(0,)).operator()
    pkg = Package()
    for k in range(2, n):
        pkg.weights.lookup(((1 + 1j) / 2) ** k + 0.9e-13 * (1 + 1j))
    e = pkg.matrix_dd(n, tuple(range(n)), [sx] * n)
    assert abs(e[0] - ((1 + 1j) / 2) ** n) < 1e-17
    assert abs(abs(e[0]) - 2.0**-6) < 1e-17
    assert pkg.count_nodes(e) == n
    want = kron_operator(n, range(n), [sx] * n)
    for j, col in matrix_columns(pkg, e, n, range(0, 1 << n, 13)):
        assert np.abs(col - want[:, j]).max() < 1e-15


def dense_operand(rng, m, tol=1e-13):
    """A random ``2**m x 2**m`` matrix with zero rows, zero columns, zero
    2x2 blocks and entries within ``tol`` of zero mixed in."""
    d = 1 << m
    mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for _ in range(rng.integers(4)):
        i, j = rng.integers(d, size=2)
        kind = rng.integers(4)
        if kind == 0:
            mat[i] = 0
        elif kind == 1:
            mat[:, j] = 0
        elif kind == 2 and m:
            mat[i & ~1 : (i & ~1) + 2, j & ~1 : (j & ~1) + 2] = 0
        else:
            mat[i, j] = complex(*rng.uniform(-0.9, 0.9, size=2)) * tol
    return mat


@given(st.integers(0, 10_000), st.integers(0, 3), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_dense_form_matches_apply_matrix(seed, m, n):
    rng = np.random.default_rng(seed)
    m = min(m, n)
    qubits = tuple(int(q) for q in rng.permutation(n)[:m])
    mat = dense_operand(rng, m)
    pkg = Package()
    e = pkg.matrix_dd(n, qubits, mat)
    for j, col in matrix_columns(pkg, e, n, range(1 << n)):
        basis = np.zeros(1 << n, dtype=complex)
        basis[j] = 1
        assert np.abs(col - apply_matrix(basis, mat, qubits, n)).max() < 1e-12
    assert_identity_record(pkg)


def test_operator_builds_call_make_matrix_node_only_at_operand_levels(monkeypatch):
    calls = []
    make = Package.make_matrix_node

    def counted(pkg, level, succ):
        calls.append(level)
        return make(pkg, level, succ)

    monkeypatch.setattr(Package, "make_matrix_node", counted)
    cz = Gate("cz", controls=(0,), targets=(1,)).operator()
    for n, qubits in ((14, (13, 12)), (14, (1, 0)), (20, (10, 9))):
        pkg = Package()
        calls.clear()
        e = pkg.matrix_dd(n, qubits, cz)
        assert len(calls) == 5 and set(calls) == set(qubits)
        assert pkg.live_nodes() == pkg.count_nodes(e) == n + 1
    rng = np.random.default_rng(19)
    for m in (1, 2, 3):
        for _ in range(5):
            qubits = tuple(int(q) for q in rng.permutation(7)[:m])
            calls.clear()
            Package().matrix_dd(7, qubits, dense_operand(rng, m))
            assert 0 < len(calls) <= (4**m - 1) // 3
            calls.clear()
            Package().matrix_dd(7, qubits, [two_by_two(rng) for _ in qubits])
            assert sorted(calls) == sorted(qubits)


def test_factor_form_rejects_repeated_qubits_and_bad_shapes():
    pkg = Package()
    x = Gate("x", targets=(0,)).operator()
    with pytest.raises(ValueError):
        pkg.matrix_dd(3, (1, 1), [x, x])
    with pytest.raises(ValueError):
        pkg.matrix_dd(3, (0, 1), [x, x, x])


def test_kron_with_scalar_one_is_identity():
    rng = np.random.default_rng(5)
    pkg = Package()
    v = pkg.from_statevector(rand_vec(rng, 3))
    assert pkg.import_edge(pkg, v, shift=0, splice=ONE_EDGE) == v


def test_kron_matches_numpy():
    rng = np.random.default_rng(6)
    pkg = Package()
    for _ in range(5):
        a = rand_vec(rng, 3, sparsity=0.8)
        b = rand_vec(rng, 3, sparsity=0.8)
        k = pkg.import_edge(pkg, pkg.from_statevector(a), shift=3, splice=pkg.from_statevector(b))
        assert np.abs(pkg.extract_statevector(k, 6) - np.kron(a, b)).max() < 1e-10


def test_kron_root_weight_is_product():
    pkg = Package()
    a = pkg.from_statevector(np.array([0.5, 0.5]))
    b = pkg.from_statevector(np.array([0.25, 0.25]))
    k = pkg.import_edge(pkg, a, shift=1, splice=b)
    assert abs(k[0] - a[0] * b[0]) < 1e-13


def test_norm_matches_numpy():
    rng = np.random.default_rng(8)
    pkg = Package()
    v = rand_vec(rng, 6, sparsity=0.5)
    assert pkg.norm(pkg.from_statevector(v)) == pytest.approx(np.linalg.norm(v))


# ---------------------------------------------------------------------------
# structural invariants


def test_node_sharing_reference_state(fig4):
    pkg = Package()
    e = simulate(fig4, pkg)
    assert pkg.count_nodes(e) == 9


def test_no_zero_weight_edges_to_nodes():
    rng = np.random.default_rng(9)
    pkg = Package()
    for _ in range(10):
        pkg.from_statevector(rand_vec(rng, 5, sparsity=0.4))
    for entry in pkg._table:
        _, w0, t0, w1, t1 = entry
        if w0 == ZERO:
            assert t0 == 0
        if w1 == ZERO:
            assert t1 == 0


def test_levels_decrease_by_one():
    rng = np.random.default_rng(10)
    pkg = Package()
    pkg.from_statevector(rand_vec(rng, 6))
    for entry in pkg._table:
        level, _, t0, _, t1 = entry
        for t in (t0, t1):
            if t:
                assert pkg._nodes[t][0] == level - 1
            else:
                pass
        if level == 0:
            assert t0 == 0 and t1 == 0


def build_by_basis_sum(pkg, vec, order):
    n = (len(vec)).bit_length() - 1
    acc = ZERO_EDGE
    for idx in order:
        if vec[idx] == 0:
            continue
        # a basis state's edge is (ONE, t): scaled by w it is (w, t)
        _, t = pkg.make_basis_state(n, format(idx, f"0{n}b"))
        acc = pkg.add(acc, (pkg.weights.lookup(complex(vec[idx])), t))
    return acc


@given(st.integers(0, 10_000), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_canonicity_construction_order(seed, n):
    rng = np.random.default_rng(seed)
    vec = rand_vec(rng, n, sparsity=0.6)
    pkg = Package()
    order = list(range(1 << n))
    a = build_by_basis_sum(pkg, vec, order)
    rng.shuffle(order)
    b = build_by_basis_sum(pkg, vec, order)
    assert a == b
    c = pkg.from_statevector(vec)
    assert a == c


@given(st.integers(0, 10_000), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_reconstruction_roundtrip(seed, n):
    rng = np.random.default_rng(seed)
    vec = rand_vec(rng, n, sparsity=0.8)
    pkg = Package()
    back = pkg.extract_statevector(pkg.from_statevector(vec), n)
    assert np.abs(back - vec).max() < 1e-10


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=25, deadline=None)
def test_homomorphism_add_kron(seed, n):
    rng = np.random.default_rng(seed)
    pkg = Package()
    a = rand_vec(rng, n, sparsity=0.7)
    b = rand_vec(rng, n, sparsity=0.7)
    ea, eb = pkg.from_statevector(a), pkg.from_statevector(b)
    assert np.abs(pkg.extract_statevector(pkg.add(ea, eb), n) - (a + b)).max() < 1e-10
    m = min(n, 4)
    c = rand_vec(rng, m)
    ec = pkg.from_statevector(c)
    got = pkg.extract_statevector(pkg.import_edge(pkg, ea, shift=m, splice=ec), n + m)
    assert np.abs(got - np.kron(a, c)).max() < 1e-10


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_homomorphism_multiply(seed):
    c = generate_random_circuit(6, 4, seed=seed, cz_density=0.5)
    ref = dense_simulate(c)
    pkg = Package()
    v = pkg.extract_statevector(simulate(c, pkg))
    assert np.abs(v - ref).max() < 1e-10


@pytest.mark.parametrize("n,depth,seed", [(10, 8, 0), (12, 10, 1)])
def test_only_stored_weights_are_interned(n, depth, seed):
    # add and multiply keep intermediate weights raw: besides the weights
    # that nodes and edges store, the table holds only the add-memo ratios
    # (a table that interned every intermediate value held about 6x as many)
    c = generate_random_circuit(n, depth, seed, 0.7, "grid")
    pkg = Package(gc_limit=10**9)
    state = simulate(c, pkg)
    assert pkg.gc_runs == 0
    stored = {state[0]}
    for key in pkg._table:
        stored.update(key[1::2])
    stored.update(w for w, _ in pkg._memo_op.values())  # apply_ops' cached operators
    assert len(pkg.weights) <= 3 * len(stored)


# entries that make sharing, cancellation and near-ties likely
PALETTE = (0, 0, 1, -1, 0.5, SQ2, -SQ2 * 1j, 0.6 + 0.8j, 0.3 - 0.1j)
GATES_1Q = (
    np.array([[1, 1], [1, -1]]) * SQ2,
    np.array([[0, 1], [1, 0]]),
    np.array([[1, 0], [0, 1j]]),
    np.array([[1, 0], [0, np.exp(0.25j * np.pi)]]),
)


def assert_representatives(pkg, edges):
    """Every weight a live node stores, and every edge weight given, looks
    up as itself without adding a representative."""
    size = len(pkg.weights)
    lookup = pkg.weights.lookup
    for entry in pkg._table:
        for w in entry[1::2]:
            assert lookup(w) == w
    for w, _ in edges:
        assert lookup(w) == w
    assert len(pkg.weights) == size


def test_factor_form_looks_up_ratios_over_a_divisor_of_one():
    # the chain's weights are raw products; at level 1 the divisor is
    # e^{-i t/2} e^{i t/2}, exactly ONE, and the other ratio must still be
    # looked up before the node stores it
    pkg = Package()
    e = pkg.matrix_dd(2, (0, 1), [gate_matrix("rz", (0.0274,)), gate_matrix("rz", (-0.0274,))])
    assert_representatives(pkg, [e])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_stored_weights_are_representatives(data):
    n = data.draw(st.integers(1, 4))

    def vector(k):
        return np.array(data.draw(st.lists(st.sampled_from(PALETTE), min_size=1 << k,
                                           max_size=1 << k)), dtype=complex)

    pkg = Package(gc_limit=30)
    src = Package(gc_limit=30)
    live = []  # (edge, dense vector) pairs; every root of pkg
    for op in data.draw(st.lists(st.sampled_from(["vec", "add", "mul", "import"]),
                                 min_size=1, max_size=10)):
        if op == "vec" or not live:
            v = vector(n)
            e = pkg.from_statevector(v)
        elif op == "add":
            (a, va), (b, vb) = data.draw(st.sampled_from(live)), data.draw(st.sampled_from(live))
            e, v = pkg.add(a, b), va + vb
        elif op == "mul":
            # a factor-form run on distinct qubits; rz(t) beside rz(-t)
            # makes a level whose divisor is exactly ONE likely
            a, va = data.draw(st.sampled_from(live))
            qs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
            t = 0.0137 * data.draw(st.integers(1, 399))
            rz = (gate_matrix("rz", (t,)), gate_matrix("rz", (-t,)))
            gates = [data.draw(st.sampled_from(GATES_1Q + rz)) for _ in qs]
            e, v = pkg.multiply(pkg.matrix_dd(n, tuple(qs), gates), a), va
            for q, gate in zip(qs, gates):
                v = apply_matrix(v, gate, (q,), n)
        else:
            m = data.draw(st.integers(1, n))
            vu = vector(m)
            vl = vector(n - m) if m < n else np.ones(1)
            upper = src.from_statevector(vu)
            lower = pkg.from_statevector(vl) if m < n else None
            e, v = pkg.import_edge(src, upper, shift=n - m, splice=lower), np.kron(vu, vl)
            src.maybe_gc()
        live.append((e, v))
        assert_representatives(pkg, [e])
        pkg.maybe_gc([e for e, _ in live])
        assert_representatives(pkg, [e for e, _ in live])
    for e, v in live:
        assert np.abs(pkg.extract_statevector(e, n) - v).max() < 1e-10


# ---------------------------------------------------------------------------
# garbage collection


def test_gc_reclaims_everything_without_roots():
    rng = np.random.default_rng(12)
    pkg = Package()
    for _ in range(5):
        pkg.from_statevector(rand_vec(rng, 5))
    assert pkg.live_nodes() > 0
    reclaimed = pkg.gc()
    assert reclaimed > 0
    assert pkg.live_nodes() == 0
    assert len(pkg._memo_add) == 0


def test_gc_preserves_live_root():
    rng = np.random.default_rng(13)
    pkg = Package()
    vec = rand_vec(rng, 5)
    keep = pkg.from_statevector(vec)
    for _ in range(5):
        pkg.from_statevector(rand_vec(rng, 5))
    before = pkg.extract_statevector(keep, 5)
    pkg.gc([keep])
    after = pkg.extract_statevector(keep, 5)
    assert np.array_equal(before, after)
    assert np.abs(after - vec).max() < 1e-10


def test_node_tables_last_until_gc_per_owner():
    class Owner:
        pass

    pkg = Package()
    a, b = Owner(), Owner()
    held = pkg.node_table(a)
    held[1] = "a"
    assert pkg.node_table(a) == {1: "a"} and pkg.node_table(b) == {}
    pkg.gc()
    # node ids are reused after a collection, so no entry survives one, not
    # even in a table held across it
    assert held == {} and pkg.node_table(a) is held
    pkg.node_table(b)[1] = "b"
    del b
    # the package holds its owners weakly, and a copy starts without tables
    assert len(pkg._node_tables) == 1
    assert pickle.loads(pickle.dumps(pkg)).node_table(a) == {}


def test_gc_interleaved_simulation_deterministic(fig4):
    plain = Package()
    want = plain.extract_statevector(simulate(fig4, plain))
    pkg = Package()
    state = pkg.make_basis_state(4, "0000")
    for g in fig4.gates:
        state = pkg.multiply(pkg.matrix_dd(4, g.qubits, g.operator()), state)
        pkg.gc([state])
    got = pkg.extract_statevector(state)
    assert np.abs(got - want).max() < 1e-13
    assert np.abs(got - FIG_STATE).max() < 1e-12


def test_gc_then_rebuild_reuses_ids():
    rng = np.random.default_rng(14)
    pkg = Package()
    vec = rand_vec(rng, 4)
    pkg.from_statevector(vec)
    pkg.gc()
    e = pkg.from_statevector(vec)
    assert np.abs(pkg.extract_statevector(e, 4) - vec).max() < 1e-10


def test_gc_drops_operator_diagrams():
    # matrix nodes share the vector nodes' table: gc without roots frees
    # every node and empties the operator cache, and a rebuilt operator
    # still works; matrix_dd itself caches nothing
    pkg = Package()
    x_low = np.kron(np.eye(2), [[0, 1], [1, 0]]).astype(complex)
    pkg.matrix_dd(3, (2, 0), x_low)
    assert len(pkg._memo_op) == 0
    ops = fuse_runs([((2, 0), x_low, True)])
    apply_ops(pkg, 3, ops)
    assert len(pkg._memo_op) == 1
    pkg.gc()
    assert pkg.live_nodes() == 0
    assert len(pkg._memo_op) == 0
    v = pkg.extract_statevector(apply_ops(pkg, 3, ops))
    assert v[0b001] == 1 and np.count_nonzero(v) == 1


def test_package_reused_across_many_circuits_stays_bounded():
    # 300 small circuits with distinct operators in one package: the
    # operator diagrams are swept with everything else, so gc runs rarely
    # and the package never outgrows its limit (a package that kept every
    # operator ran a gc after each op once they alone passed the limit)
    rng = np.random.default_rng(0)
    pkg = Package(gc_limit=2000)
    for _ in range(300):
        gates = tuple(Gate("rx", (float(rng.uniform(0, 2 * np.pi)),), targets=(int(q),))
                      for q in rng.integers(0, 4, size=10))
        c = Circuit(4, gates)
        state = simulate(c, pkg)
        assert np.abs(pkg.extract_statevector(state, 4) - dense_simulate(c)).max() < 1e-12
        assert pkg.live_nodes() <= 2000
    assert pkg.gc_runs < 100


def test_wrong_node_kind_is_rejected():
    pkg = Package()
    for q in range(3):
        for gate in ([[0, 1], [1, 0]], [[1, 0], [0, -1]]):
            op = pkg.matrix_dd(3, (q,), np.array(gate, dtype=complex))
    v = pkg.make_basis_state(3, "000")
    with pytest.raises(ValueError, match="expected a matrix diagram"):
        pkg.multiply(v, v)
    with pytest.raises(ValueError, match="expected a vector diagram"):
        pkg.multiply(op, op)
    with pytest.raises(ValueError, match="expected a vector diagram"):
        pkg.get_amplitude(op, "000")
    with pytest.raises(ValueError, match="expected a vector diagram"):
        pkg.extract_statevector(op)


def test_add_and_import_reject_matrix_diagrams():
    pkg = Package()
    op = pkg.matrix_dd(3, (1,), np.array([[0, 1], [1, 0]], dtype=complex))
    v = pkg.make_basis_state(3, "000")
    for a, b in ((op, op), (v, op), (op, v)):
        with pytest.raises(ValueError, match="expected a vector diagram"):
            pkg.add(a, b)
    with pytest.raises(ValueError, match="expected a vector diagram"):
        Package().import_edge(pkg, op)
    # a vector spliced above a matrix, and the norm of a matrix
    op2 = pkg.matrix_dd(2, (0,), np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(ValueError, match="expected a vector diagram"):
        pkg.import_edge(pkg, v, shift=2, splice=op2)
    with pytest.raises(ValueError, match="expected a vector diagram"):
        pkg.norm(op)


# ---------------------------------------------------------------------------
# import between packages


def test_import_edge_between_packages():
    rng = np.random.default_rng(16)
    src = Package()
    vec = rand_vec(rng, 5)
    e = src.from_statevector(vec)
    dst = Package()
    e2 = dst.import_edge(src, e)
    assert np.abs(dst.extract_statevector(e2, 5) - vec).max() < 1e-10


def test_import_edge_shift_and_splice_is_kron():
    rng = np.random.default_rng(17)
    src = Package()
    a = rand_vec(rng, 3)
    b = rand_vec(rng, 2)
    ea = src.from_statevector(a)
    dst = Package()
    eb = dst.from_statevector(b)
    k = dst.import_edge(src, ea, shift=2, splice=eb)
    assert np.abs(dst.extract_statevector(k, 5) - np.kron(a, b)).max() < 1e-10


def test_import_edge_rejects_bad_shift():
    pkg = Package()
    two = pkg.from_statevector(np.array([0.5, 0.5, 0.5, 0.5]))
    one = pkg.from_statevector(np.array([0.6, 0.8]))
    for shift, splice in ((3, one), (0, one), (1, None), (1, ONE_EDGE), (-1, None)):
        with pytest.raises(ValueError, match="shift"):
            pkg.import_edge(pkg, two, shift=shift, splice=splice)
    # a zero splice fits any shift: the product is the zero vector
    assert pkg.import_edge(pkg, two, shift=2, splice=ZERO_EDGE) == ZERO_EDGE
    k = pkg.import_edge(pkg, two, shift=1, splice=one)
    assert np.abs(pkg.extract_statevector(k, 3) - np.kron([0.5] * 4, [0.6, 0.8])).max() < 1e-13


def test_reachable_vector_and_matrix_spaces():
    rng = np.random.default_rng(19)
    pkg = Package()
    a = pkg.from_statevector(rand_vec(rng, 3))
    b = pkg.make_basis_state(3, "000")
    ra, rb = pkg.reachable([a]), pkg.reachable([b])
    assert len(ra) == pkg.count_nodes(a) and len(rb) == 3
    assert pkg.reachable([a, b]) == ra | rb
    assert pkg.reachable([ZERO_EDGE]) == set()
