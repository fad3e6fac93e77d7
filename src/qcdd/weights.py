"""Tolerance-canonicalized storage for complex edge weights.

Every decision diagram hands the edge weights it stores to a
:class:`ComplexTable`, which maps numerically indistinguishable values
(per-component absolute difference within ``tol``) onto one canonical value,
their *representative*.  Distinct representatives differ by more than
``tol``, so equality of stored weights doubles as equality up to tolerance,
which is what makes node uniquing work: two structurally equal diagrams end
up pointer-equal.

Only stored weights need a representative.  The diagram algebra keeps its
intermediate values raw (any Python ``complex``) and looks a value up only
when a node stores it, when it keys a compute table, or when an edge is
handed back to a caller (see :mod:`qcdd.dd`).  The arithmetic below
(:meth:`ComplexTable.add`, :meth:`~ComplexTable.mul`,
:meth:`~ComplexTable.div`) is one lookup of the plain result each, so it
is closed over representatives.  The diagram algebra calls none of it;
the three stay because ``benchmark/tracer.py`` wraps them by name, as it
does :meth:`qcdd.dd.Package.make_vector_node`.

A table is single-writer; concurrent simulations each own a private table
and re-canonicalize weights when results are combined (see
:meth:`qcdd.dd.Package.import_edge`).
"""

from __future__ import annotations

import math

# The exact constants.  The ComplexTable constructor makes them its first
# representatives, so anything within tol of 0 or 1 looks up as exactly these.
ZERO = 0j
ONE = 1 + 0j

# The default tolerance of every table, and so of every package and engine.
DEFAULT_TOL = 1e-13

# Probe order for neighbouring tolerance buckets; the home bucket comes first
# because nearly all hits land there.
_PROBES = ((0, 0), (0, -1), (0, 1), (-1, 0), (-1, -1), (-1, 1), (1, 0), (1, -1), (1, 1))


def check_tolerance(tol: float) -> float:
    """``tol`` itself if it can serve as a table's tolerance, strictly
    between 0 and 1; ``ValueError`` otherwise.  At 1 or above, ONE lies
    within ``tol`` of ZERO and looks up as it, which collapses every state
    to zero."""
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must be between 0 and 1 (exclusive), got {tol}")
    return tol


class ComplexTable:
    """Append-only table of canonical complex values.

    Representatives are dropped only by :meth:`gc`, which the owning DD
    package calls during its own garbage collection sweeps with every weight
    its live nodes store.
    """

    def __init__(self, tol: float = DEFAULT_TOL):
        self.tol = check_tolerance(tol)
        self._buckets: dict[tuple[int, int], list[complex]] = {}
        self._size = 0
        # value -> representative of every value looked up since the last
        # gc.  Only node ratios and root weights are looked up, and they recur
        # bit for bit: 78-99% of lookups hit here on the benchmark workloads.
        # Its size counts in the owning package's gc pressure.
        self._exact: dict[complex, complex] = {}
        self.lookup(ZERO)
        self.lookup(ONE)

    def __len__(self) -> int:
        return self._size

    def lookup(self, z: complex) -> complex:
        """Return the representative of ``z``, inserting if necessary.

        Values within ``tol`` (componentwise) of a stored representative
        return that representative; in particular anything that close to 0
        or 1 canonicalizes to exactly ZERO/ONE.  A value looked up before
        (exactly equal) gets the same representative again without a probe.
        """
        rep = self._exact.get(z)
        if rep is not None:
            return rep
        re = z.real
        im = z.imag
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"non-finite weight {z!r}")
        tol = self.tol
        bx = round(re / tol)
        by = round(im / tol)
        buckets = self._buckets
        for dx, dy in _PROBES:
            got = buckets.get((bx + dx, by + dy))
            if got:
                for v in got:
                    if abs(v.real - re) <= tol and abs(v.imag - im) <= tol:
                        self._exact[z] = v
                        return v
        rep = complex(re, im)
        self._size += 1
        home = (bx, by)
        if home in buckets:
            buckets[home].append(rep)
        else:
            buckets[home] = [rep]
        self._exact[z] = rep
        return rep

    def add(self, a: complex, b: complex) -> complex:
        return self.lookup(a + b)

    def mul(self, a: complex, b: complex) -> complex:
        return self.lookup(a * b)

    def div(self, a: complex, b: complex) -> complex:
        return self.lookup(a / b)

    def cached(self) -> int:
        """Entries in the exact-value cache of :meth:`lookup` (dropped by :meth:`gc`)."""
        return len(self._exact)

    def gc(self, live: set[complex]) -> int:
        """Drop every representative outside ``live`` (0 and 1 always stay);
        returns how many were dropped."""
        keep = {ZERO, ONE}
        keep.update(live)
        before = self._size
        buckets = {}
        for home, reps in self._buckets.items():
            kept = [v for v in reps if v in keep]
            if kept:
                buckets[home] = kept
        self._buckets = buckets
        self._size = sum(map(len, buckets.values()))
        self._exact.clear()
        return before - self._size
