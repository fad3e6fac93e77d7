"""Edge-weighted decision diagrams for state vectors and gate operators.

A vector diagram node at level ``l`` decides qubit ``q_l`` and has two
successor edges (``q_l = 0`` / ``q_l = 1``); the root of an ``n``-qubit
vector sits at level ``n - 1``.  A matrix node has four successors ordered
by the operator basis positions ``|0><0|, |0><1|, |1><0|, |1><1|``.
Diagrams are fully expanded: a non-zero edge from level ``l`` always points
to a node at level ``l - 1``, or to the terminal when ``l == 0``.

Edges are plain ``(weight, node_id)`` tuples.  Vector and matrix nodes
share one unique table and one id space; a node's kind is the length of its
key (5 for a vector node, 9 for a matrix node).  Node id 0 is the terminal;
the canonical zero edge is ``(ZERO, 0)``.  A weight that a node stores, or
that an edge handed back to a caller carries, is a representative of the
package's :class:`~qcdd.weights.ComplexTable`, so weights compare by plain
equality.
Nodes are normalized by dividing the successor weights by the one of
largest magnitude, leftmost among magnitudes within ``tol`` of each other
(the factor is pulled into the incoming edge), and uniqued in a hash table,
so equal sub-vectors share one node and equal diagrams compare equal as
edge tuples.

Inside ``add``, ``multiply`` and ``import_edge``, and along the chain of a
Kronecker-product operator in ``matrix_dd``, intermediate weights stay raw:
the recursions pass and return edges whose weights are plain products and
sums, never rounded through the weight table.  Only three kinds of value are
looked up: a node's successor ratio (in :meth:`Package._normalize` and
:meth:`Package.make_matrix_node`), the ratio of two operands that keys the
add memo, and the weight of the edge handed back to the caller.  A raw value
within ``tol`` of 0 in both components counts as zero, as it would after a
lookup.

``matrix_dd`` builds an operator from one dense ``2**m x 2**m`` matrix, or
from 2x2 factors on distinct qubits, whose Kronecker product it is, in one
bottom-up pass over the levels.  A level without an operand is the node
that repeats the edge below on its diagonal, made directly, so
:meth:`Package.make_matrix_node` runs only at operand levels.
The factor form has one node per level, however many qubits it acts on, so
a layer of one-qubit gates is one operator and one ``multiply``.

A :class:`Package` owns the unique table, the memoization caches, and the
weight table, and is strictly single-writer.  ``matrix_dd`` builds anew on
every call; the one operator cache is
:func:`qcdd.schrodinger.apply_ops`'s, kept in the package under the ops'
content keys until the next garbage collection, which sweeps matrix nodes
like vector nodes and drops that cache with the compute tables.
The table records its identity matrix nodes, and ``multiply`` stops at
them, so a gate costs work only down to its lowest operand.
Parallel simulation runs one package per block per worker and never shares
one across workers; node ids mean nothing outside their package, so results
are moved between packages with :meth:`Package.import_edge`, one memoized
recursive copy.  A caller that moves many diagrams from one package keeps
one memo for them, the source's node table owned by the destination, so a
node is copied once, however many of the diagrams share it, until either
package frees nodes.
"""

from __future__ import annotations

import weakref
from typing import Iterable

import numpy as np

from .circuit import CapacityError
from .weights import DEFAULT_TOL, ONE, ZERO, ComplexTable

Edge = tuple[complex, int]

ZERO_EDGE: Edge = (ZERO, 0)
ONE_EDGE: Edge = (ONE, 0)

# The default largest qubit count of a dense extraction, and in hybrid-amp
# mode the default log2 of the block-row amplitudes of all paths.
EXTRACT_CAP = 30


class Package:
    """One self-contained decision diagram manager (single-writer)."""

    def __init__(
        self, tol: float = DEFAULT_TOL, extract_cap: int = EXTRACT_CAP, gc_limit: int = 200_000
    ):
        self.weights = ComplexTable(tol)
        self.extract_cap = extract_cap
        self.gc_limit = gc_limit
        # id -> (level, w0, t0, w1, t1) for a vector node or
        # (level, w0, t0, w1, t1, w2, t2, w3, t3) for a matrix node; id 0 is the terminal
        self._nodes: list[tuple | None] = [None]
        self._table: dict[tuple, int] = {}
        self._free: list[int] = []
        # ids of the identity matrix nodes, at most one per level: diagonal
        # successors (ONE, t) with t the terminal or an identity, zeros elsewhere
        self._identity: set[int] = set()
        # (n, op content key) -> operator diagram, read and written only by
        # schrodinger.apply_ops, and the compute tables of raw-weight
        # results; all dropped wholesale on gc
        self._memo_op: dict[tuple, Edge] = {}
        self._memo_add: dict = {}
        self._memo_mul: dict = {}
        # owner -> its dict keyed by node ids (see node_table); emptied on gc
        self._node_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.peak_nodes = 0
        self.gc_runs = 0

    def __getstate__(self) -> dict:
        # the node tables are keyed by owners in this process; a copy of the
        # package starts without them
        state = self.__dict__.copy()
        del state["_node_tables"]
        return state

    def __setstate__(self, state: dict):
        self.__dict__.update(state)
        self._node_tables = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # node construction (the normalization scheme lives here)

    def live_nodes(self) -> int:
        return len(self._table)

    def _unique(self, key: tuple) -> int:
        """Id of the node ``key`` (vector or matrix), made if it is new; a
        new identity matrix node is recorded in ``_identity``."""
        node = self._table.get(key)
        if node is None:
            if self._free:
                node = self._free.pop()
                self._nodes[node] = key
            else:
                node = len(self._nodes)
                self._nodes.append(key)
            self._table[key] = node
            if len(key) == 9:
                t = key[2]
                if key[1:] == (ONE, t, ZERO, 0, ZERO, 0, ONE, t) and (not t or t in self._identity):
                    self._identity.add(node)
            if len(self._table) > self.peak_nodes:
                self.peak_nodes = len(self._table)
        return node

    def _vector_root(self, t: int) -> tuple:
        """The node a caller's edge points to, checked to be a vector node."""
        entry = self._nodes[t]
        if len(entry) != 5:
            raise ValueError("expected a vector diagram, got a matrix one")
        return entry

    def _normalize(self, level: int, w0: complex, t0: int, w1: complex, t1: int) -> Edge:
        """Normalize and unique a prospective node given raw successor
        weights; returns its edge, whose weight is still raw.

        A weight within ``tol`` of 0 counts as zero, and an all-zero node
        collapses to the zero edge.  Otherwise the successor weight of
        largest magnitude is returned as the edge weight, and the other one
        is divided by it; that ratio is the only value looked up.  Magnitudes
        within ``tol`` are a tie, which the left successor wins, so a
        last-bit rounding difference cannot pick another divisor for the
        same sub-vector.  Stored weights thus stay at magnitude 1 up to a tie
        (below 2), which the absolute-tolerance weight uniquing relies on: a
        successor whose ratio canonicalizes to zero really does carry
        negligible mass relative to its sibling.
        """
        tol = self.weights.tol
        if -tol <= w0.real <= tol and -tol <= w0.imag <= tol:
            if -tol <= w1.real <= tol and -tol <= w1.imag <= tol:
                return ZERO_EDGE
            return (w1, self._unique((level, ZERO, 0, ONE, t1)))
        if -tol <= w1.real <= tol and -tol <= w1.imag <= tol:
            return (w0, self._unique((level, ONE, t0, ZERO, 0)))
        if abs(w1) - abs(w0) > tol:
            r = self.weights.lookup(w0 / w1)
            key = (level, ZERO, 0, ONE, t1) if r == ZERO else (level, r, t0, ONE, t1)
            return (w1, self._unique(key))
        r = self.weights.lookup(w1 / w0)
        key = (level, ONE, t0, ZERO, 0) if r == ZERO else (level, ONE, t0, r, t1)
        return (w0, self._unique(key))

    def _intern(self, e: Edge) -> Edge:
        """The edge with its weight replaced by the representative (a weight
        that looks up as ZERO gives the canonical zero edge)."""
        w = self.weights.lookup(e[0])
        return (w, e[1]) if w != ZERO else ZERO_EDGE

    def make_vector_node(self, level: int, e0: Edge, e1: Edge) -> Edge:
        """Normalize and unique a prospective node given its successor edges;
        returns its canonical edge (see :meth:`_normalize`)."""
        return self._intern(self._normalize(level, *e0, *e1))

    def make_matrix_node(self, level: int, succ: Iterable[Edge]) -> Edge:
        """Matrix-node analog of :meth:`_normalize` (four successors; the
        leftmost within ``tol`` of the largest magnitude is divided out, and
        a weight within ``tol`` of 0 counts as zero).  The successor weights
        may be raw, and the returned edge's weight is the divisor as given;
        only the ratios are looked up, each one even where the divisor is
        exactly ONE, since a raw successor weight is no representative."""
        succ = list(succ)
        lookup = self.weights.lookup
        tol = self.weights.tol
        mags = [
            -1.0 if -tol <= w.real <= tol and -tol <= w.imag <= tol else abs(w)
            for w, _ in succ
        ]
        best = max(mags)
        if best < 0:
            return ZERO_EDGE
        pick = next(i for i, mag in enumerate(mags) if best - mag <= tol)
        norm = succ[pick][0]
        parts = []
        for i, (w, t) in enumerate(succ):
            if mags[i] < 0:
                parts.extend((ZERO, 0))
            elif i == pick:
                parts.extend((ONE, t))
            else:
                nw = lookup(w / norm)
                parts.extend((ZERO, 0) if nw == ZERO else (nw, t))
        return (norm, self._unique((level, *parts)))

    # ------------------------------------------------------------------
    # vector constructors

    def make_basis_state(self, n: int, bits: str) -> Edge:
        """Diagram of the computational basis state |bits> (exactly n nodes)."""
        if n < 1:
            raise ValueError("need at least one qubit")
        if len(bits) != n:
            raise ValueError(f"bit string length {len(bits)} != n = {n}")
        t = 0
        for level in range(n):
            bit = bits[n - 1 - level]
            if bit == "0":
                t = self._unique((level, ONE, t, ZERO, 0))
            elif bit == "1":
                t = self._unique((level, ZERO, 0, ONE, t))
            else:
                raise ValueError(f"bad bit {bit!r} in {bits!r}")
        return (ONE, t)

    def from_statevector(self, vec: np.ndarray) -> Edge:
        """Build the canonical diagram of a dense vector (length a power of two)."""
        size = len(vec)
        n = size.bit_length() - 1
        if size != 1 << n:
            raise ValueError(f"length {size} is not a power of two")

        def build(lo: int, hi: int, level: int) -> Edge:
            if level < 0:
                return (complex(vec[lo]), 0)
            mid = (lo + hi) // 2
            return self._normalize(
                level, *build(lo, mid, level - 1), *build(mid, hi, level - 1)
            )

        return self._intern(build(0, size, n - 1))

    # ------------------------------------------------------------------
    # queries

    def get_amplitude(self, e: Edge, bits: str) -> complex:
        """Product of edge weights along the path selected by ``bits``
        (``bits[0]`` picks the root-level successor, i.e. qubit ``q_{n-1}``).
        """
        w, t = e
        if w == ZERO:
            return 0j
        if t == 0:
            if bits:
                raise ValueError("bit string given for a scalar edge")
            return w
        entry = self._vector_root(t)
        if entry[0] != len(bits) - 1:
            raise ValueError(f"bit string length {len(bits)} != {entry[0] + 1} qubits")
        amp = w
        for ch in bits:
            if ch == "0":
                wc, tc = entry[1], entry[2]
            elif ch == "1":
                wc, tc = entry[3], entry[4]
            else:
                raise ValueError(f"bad bit {ch!r} in {bits!r}")
            if wc == ZERO:
                return 0j
            amp *= wc
            if tc == 0:
                break
            entry = self._nodes[tc]
        return amp

    def extract_statevector(self, e: Edge, n: int | None = None) -> np.ndarray:
        """Full ``2**n`` amplitude array, filled in place depth-first.

        A node's first visit fills its slice of the output; a later visit
        copies that slice, rescaled by the ratio of the two incoming factors,
        so every amplitude is written once.  The first factor is read back
        from the slice: following successors of weight ONE (every node has
        one) leads to an amplitude equal to it.  Besides the output, this
        keeps one offset per node slot.  Refuses ``n`` above ``extract_cap``.
        """
        w, t = e
        width = self._vector_root(t)[0] + 1 if t else 0
        if n is None:
            n = width
        if n > self.extract_cap:
            raise CapacityError(
                f"extraction of 2**{n} amplitudes exceeds the cap of 2**{self.extract_cap}"
            )
        out = np.zeros(1 << n, dtype=complex)
        if t == 0:
            if w != ZERO:
                if n != 0:
                    raise ValueError("scalar edge extracted with n > 0")
                out[0] = w
            return out
        if width != n:
            raise ValueError(f"edge has {width} qubits, asked for {n}")
        nodes = self._nodes
        first = np.full(len(nodes), -1, dtype=np.int64)  # offset of each node's first slice

        def pivot(node: int) -> int:
            idx = 0
            while node:
                level, w0, t0, _, t1 = nodes[node]
                if w0 == ONE:
                    node = t0
                else:
                    idx += 1 << level
                    node = t1
            return idx

        def fill(node: int, off: int, f: complex):
            level, w0, t0, w1, t1 = nodes[node]
            size = 2 << level
            src = first[node]
            if src >= 0:
                g = out[src + pivot(node)]
                if g != 0:
                    np.multiply(out[src : src + size], f / g, out=out[off : off + size])
                    return
            first[node] = off
            half = 1 << level
            if w0 != ZERO:
                if t0:
                    fill(t0, off, f * w0)
                else:
                    out[off] = f * w0
            if w1 != ZERO:
                if t1:
                    fill(t1, off + half, f * w1)
                else:
                    out[off + half] = f * w1

        fill(t, 0, w)
        return out

    def reachable(self, roots: Iterable[Edge]) -> set[int]:
        """Ids of the nodes reachable from ``roots`` (terminal excluded)."""
        nodes = self._nodes
        seen = {0}
        stack = [t for _, t in roots]
        while stack:
            t = stack.pop()
            if t not in seen:
                seen.add(t)
                stack.extend(nodes[t][2::2])
        seen.discard(0)
        return seen

    def count_nodes(self, e: Edge) -> int:
        """Distinct nodes reachable from ``e`` (terminal excluded)."""
        return len(self.reachable([e]))

    def norm(self, e: Edge) -> float:
        """L2 norm of the represented vector, one O(nodes) pass that visits
        each node after its successors (ascending level)."""
        w, t = e
        if t:
            self._vector_root(t)
        if w == ZERO:
            return 0.0
        nodes = self._nodes
        n2 = {0: 1.0}
        for node in sorted(self.reachable([e]), key=lambda u: nodes[u][0]):
            _, w0, t0, w1, t1 = nodes[node]
            n2[node] = abs(w0) ** 2 * n2[t0] + abs(w1) ** 2 * n2[t1]
        return abs(w) * n2[t] ** 0.5

    # ------------------------------------------------------------------
    # algebra

    def add(self, a: Edge, b: Edge) -> Edge:
        """Elementwise sum of two vector diagrams of equal qubit count."""
        levels = [self._vector_root(t)[0] for _, t in (a, b) if t]
        if len(levels) == 2 and levels[0] != levels[1]:
            raise ValueError(f"qubit count mismatch: {levels[0] + 1} vs {levels[1] + 1}")
        return self._intern(self._add(a, b))

    def _add(self, a: Edge, b: Edge) -> Edge:
        wa, ta = a
        wb, tb = b
        tol = self.weights.tol
        if -tol <= wa.real <= tol and -tol <= wa.imag <= tol:
            return b
        if -tol <= wb.real <= tol and -tol <= wb.imag <= tol:
            return a
        if ta == tb:
            return (wa + wb, ta)
        if ta == 0 or tb == 0:
            raise ValueError("adding vectors of different qubit counts")
        if ta > tb:
            wa, ta, wb, tb = wb, tb, wa, ta
        # a + b = wa * (A + r B): the memo holds A + r B under the representative r
        r = self.weights.lookup(wb / wa)
        if r == ZERO:
            return (wa, ta)
        key = (ta, tb, r)
        res = self._memo_add.get(key)
        if res is None:
            la, a0w, a0t, a1w, a1t = self._nodes[ta]
            lb, b0w, b0t, b1w, b1t = self._nodes[tb]
            if la != lb:
                raise ValueError("adding vectors of different qubit counts")
            w0, t0 = self._add((a0w, a0t), (r * b0w, b0t))
            w1, t1 = self._add((a1w, a1t), (r * b1w, b1t))
            res = self._normalize(la, w0, t0, w1, t1)
            self._memo_add[key] = res
        return (wa * res[0], res[1])

    def multiply(self, m: Edge, v: Edge) -> Edge:
        """Matrix-vector product: the block recursion
        ``(U00*v0 + U01*v1, U10*v0 + U11*v1)`` with memoization."""
        tm, tv = m[1], v[1]
        nodes = self._nodes
        if tm and len(nodes[tm]) != 9:
            raise ValueError("expected a matrix diagram as the first operand, got a vector one")
        if tv and len(nodes[tv]) != 5:
            raise ValueError("expected a vector diagram as the second operand, got a matrix one")
        if tm and tv and nodes[tm][0] != nodes[tv][0]:
            raise ValueError(
                f"qubit count mismatch: matrix {nodes[tm][0] + 1} vs vector {nodes[tv][0] + 1}"
            )
        return self._intern(self._mv(m, v))

    def _mv(self, m: Edge, v: Edge) -> Edge:
        """Product of two stored edges as an edge with a raw weight.  An
        identity matrix node returns the vector operand as it is, before the
        memo, so a gate's product stops at its lowest operand's level."""
        wm, tm = m
        wv, tv = v
        if wm == ZERO or wv == ZERO:
            return ZERO_EDGE
        w = wm * wv
        if tm == 0 and tv == 0:
            return (w, 0)
        if tm == 0 or tv == 0:
            raise ValueError("matrix/vector level mismatch")
        if tm in self._identity:
            return (w, tv)
        key = (tm, tv)
        res = self._memo_mul.get(key)
        if res is None:
            lm, m0w, m0t, m1w, m1t, m2w, m2t, m3w, m3t = self._nodes[tm]
            lv, v0w, v0t, v1w, v1t = self._nodes[tv]
            if lm != lv:
                raise ValueError("matrix/vector level mismatch")
            v0 = (v0w, v0t)
            v1 = (v1w, v1t)
            # a block product with a zero factor is the zero edge and is not
            # computed; a row with one non-zero product is that product,
            # which _add would return as it is
            if v0w == ZERO:
                m0w = m2w = ZERO
            if v1w == ZERO:
                m1w = m3w = ZERO
            if m0w == ZERO:
                w0, t0 = self._mv((m1w, m1t), v1) if m1w != ZERO else ZERO_EDGE
            elif m1w == ZERO:
                w0, t0 = self._mv((m0w, m0t), v0)
            else:
                w0, t0 = self._add(self._mv((m0w, m0t), v0), self._mv((m1w, m1t), v1))
            if m2w == ZERO:
                w1, t1 = self._mv((m3w, m3t), v1) if m3w != ZERO else ZERO_EDGE
            elif m3w == ZERO:
                w1, t1 = self._mv((m2w, m2t), v0)
            else:
                w1, t1 = self._add(self._mv((m2w, m2t), v0), self._mv((m3w, m3t), v1))
            res = self._normalize(lm, w0, t0, w1, t1)
            self._memo_mul[key] = res
        return (w * res[0], res[1])

    def import_edge(
        self, src: "Package", e: Edge, shift: int = 0, splice: Edge | None = None,
        memo: dict[int, Edge] | None = None,
    ) -> Edge:
        """Copy a vector diagram from ``src`` into this package.

        ``shift`` raises every level by that amount; ``splice`` (an edge of
        this package) replaces the terminal, which gives the Kronecker
        product.  ``shift`` must therefore equal the splice's qubit count (0
        for a scalar or absent splice; a zero splice fits any shift).
        Every node is normalized again here, so the weights it stores are
        representatives of this package's table; this is the one sanctioned
        way to move results between per-worker packages.

        The copy recurses from the root, and ``memo`` maps each ``src`` node
        id it has copied to the copy's edge here, with the raw weight
        :meth:`_normalize` returned, so a node is normalized once however
        many times it is reached.  A memo the caller passes persists across
        calls: a node shared by several imported diagrams is copied once.
        Such a memo serves one ``(shift, splice)``, and it is the caller's
        to keep valid: it must be emptied when ``src`` collects garbage (a
        node table of ``src`` is, see :meth:`node_table`), and either its
        values are roots of every collection here, or the memo is emptied
        when a collection here frees nodes.  Without one, each call copies
        into a fresh dict.
        """
        if e[1]:
            src._vector_root(e[1])
        sw, st = ONE_EDGE if splice is None else splice
        width = self._vector_root(st)[0] + 1 if st else 0
        if shift < 0 or (sw != ZERO and width != shift):
            raise ValueError(f"shift {shift} does not match a splice of {width} qubit(s)")
        nodes = src._nodes
        normalize = self._normalize
        if memo is None:
            memo = {}

        def copy(w: complex, t: int) -> Edge:
            if w == ZERO:
                return ZERO_EDGE
            if t == 0:
                return (sw * w, st)
            res = memo.get(t)
            if res is None:
                level, w0, t0, w1, t1 = nodes[t]
                res = memo[t] = normalize(level + shift, *copy(w0, t0), *copy(w1, t1))
            return (w * res[0], res[1])

        return self._intern(copy(*e))

    # ------------------------------------------------------------------
    # gate operators

    def matrix_dd(self, n: int, qubits: tuple[int, ...], base) -> Edge:
        """Matrix diagram of an operator on the listed qubits, identity on
        all other qubits.

        ``base`` is either one ``2**m x 2**m`` matrix on the ``m`` listed
        qubits (first listed = most significant matrix bit), or ``m`` 2x2
        factors, one per listed qubit (distinct), whose Kronecker product is
        the operator; a 2x2 matrix is both.  The diagram is built from the
        bottom up, in one pass over the levels.  A level without an operand
        repeats the edge below on its diagonal and is made directly
        (:meth:`_diagonal`); only an operand level goes through
        :meth:`make_matrix_node`, so a CZ makes five such calls on any
        qubits of any register.

        The factor form has one node per level: a factor's level scales the
        edge below by each of its entries.  The entries are looked up, the
        weights along the chain stay raw (:meth:`make_matrix_node` looks up
        only the ratios), and the root's weight is looked up last.  The
        dense form builds the identity below its lowest operand once; each
        1x1 block of the matrix scales it by the block's looked-up value (a
        value that looks up as ZERO gives the zero edge), and each operand
        level joins four sub-blocks, zero blocks included.

        Every call builds; :func:`~qcdd.schrodinger.apply_ops` caches the
        diagrams it applies.  Like any edge that is not a gc root, the
        returned one is invalid after a collection.
        """
        m = len(qubits)
        base = np.asarray(base, dtype=complex)
        if m == 1 and base.shape == (2, 2):
            base = base.reshape(1, 2, 2)
        factors = base.shape == (m, 2, 2)
        if not factors and base.shape != (1 << m, 1 << m):
            raise ValueError(f"operator shape {base.shape} does not match {m} qubit(s)")
        if any(q < 0 or q >= n for q in qubits):
            raise ValueError(f"operand {qubits} out of range for n={n}")
        if factors and len(set(qubits)) != m:
            raise ValueError(f"factors on repeated qubits {qubits}")
        lookup = self.weights.lookup
        diagonal = self._diagonal
        if factors:
            by_level = dict(zip(qubits, base.tolist()))
            e = ONE_EDGE
            for level in range(n):
                f = by_level.get(level)
                if f is None:
                    e = diagonal(level, e)
                else:
                    w, t = e
                    (a, b), (c, d) = f
                    e = self.make_matrix_node(level, [(lookup(x) * w, t) for x in (a, b, c, d)])
            return self._intern(e)
        order = sorted(range(m), key=lambda i: -qubits[i])
        if order != list(range(m)):
            t = base.reshape((2,) * (2 * m))
            axes = order + [m + i for i in order]
            base = np.ascontiguousarray(t.transpose(axes)).reshape(1 << m, 1 << m)
        qs = [qubits[i] for i in order]  # descending
        rows = base.tolist()
        below = ONE_EDGE  # the identity below the lowest operand
        for level in range(qs[-1] if qs else n):
            below = diagonal(level, below)
        chain = below[1]

        def build(top: int, k: int, r: int, c: int, size: int) -> Edge:
            # the levels top..qs[k] of the block at row r, column c
            if k == m:
                v = rows[r][c]
                w = lookup(v) if v != 0 else ZERO
                return (w, chain) if w != ZERO else ZERO_EDGE
            q, h = qs[k], size // 2
            succ = [
                build(q - 1, k + 1, r + i * h, c + j * h, h) for i in (0, 1) for j in (0, 1)
            ]
            e = self.make_matrix_node(q, succ)
            for level in range(q + 1, top + 1):
                e = diagonal(level, e)
            return e

        return build(n - 1, 0, 0, 0, 1 << m)

    def _diagonal(self, level: int, e: Edge) -> Edge:
        """The edge of the node at ``level`` that repeats ``e`` on its
        diagonal, weight ``e``'s as it is: what :meth:`make_matrix_node`
        gives for ``(e, 0, 0, e)``, without its lookups."""
        w, t = e
        tol = self.weights.tol
        if -tol <= w.real <= tol and -tol <= w.imag <= tol:
            return ZERO_EDGE
        return (w, self._unique((level, ONE, t, ZERO, 0, ZERO, 0, ONE, t)))

    # ------------------------------------------------------------------
    # garbage collection

    def gc(self, roots: Iterable[Edge] = ()) -> int:
        """Mark-and-sweep from the given roots.

        Every node the roots cannot reach, vector or matrix, is reclaimed and
        leaves ``_identity``; the operator cache, the compute tables and the
        node tables are emptied (operand ids may be reused), and weight-table
        entries no longer referenced by live nodes or roots are released.  Reachable
        diagrams are untouched: their edges stay valid and mean the same
        vectors.  Any other edge, an operator diagram from :meth:`matrix_dd`
        included, is invalid afterwards.
        """
        roots = list(roots)
        live = self.reachable(roots)
        reclaimed = 0
        for node in range(1, len(self._nodes)):
            entry = self._nodes[node]
            if entry is not None and node not in live:
                del self._table[entry]
                self._nodes[node] = None
                self._free.append(node)
                reclaimed += 1
        self._identity &= live
        self._memo_op.clear()
        self._memo_add.clear()
        self._memo_mul.clear()
        for table in self._node_tables.values():
            table.clear()
        live_w = {w for w, _ in roots}
        for entry in self._table:
            live_w.update(entry[1::2])
        self.weights.gc(live_w)
        self.gc_runs += 1
        return reclaimed

    def node_table(self, owner) -> dict:
        """``owner``'s dict for results keyed by, or holding, this package's
        node ids, kept while ``owner`` lives (the package holds it weakly).

        Every node table roots nothing and is emptied by every collection
        that could reuse an id it holds: :meth:`gc` empties each one in
        place, so a dict held across a collection never answers from a
        freed id (a key taken before it must be stored nowhere after it),
        and an import memo, whose values hold the destination's ids, is
        also emptied by its owner when the destination frees nodes.
        :meth:`maybe_gc` counts none of them.  Their bounds: a walk record's
        fold table (:class:`qcdd.hybrid._Walk`) holds one entry per
        decision-tree prefix it folds, fewer than ``2 * (P + D)`` over ``P``
        contiguous paths of ``D`` decisions, since each decision has two
        terms or more; an amplitude summer's extraction table one per
        non-zero path; an import memo at most this package's live nodes.
        """
        table = self._node_tables.get(owner)
        if table is None:
            table = self._node_tables[owner] = {}
        return table

    def maybe_gc(self, roots: Iterable[Edge] = ()) -> int:
        """Run :meth:`gc` when the nodes and every cache, the operator cache
        included, together have outgrown ``gc_limit``."""
        pressure = (
            self.live_nodes() + len(self._memo_op) + len(self._memo_add)
            + len(self._memo_mul) + self.weights.cached()
        )
        if pressure > self.gc_limit:
            return self.gc(roots)
        return 0
