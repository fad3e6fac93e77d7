"""Tolerance-canonicalized storage for complex edge weights.

Every decision diagram hands the edge weights it stores to a
:class:`ComplexTable`, which maps numerically indistinguishable values
(per-component absolute difference within ``tol``) onto one integer handle.
Handle equality then doubles as value equality, which is what makes node
uniquing work: two structurally equal diagrams end up pointer-equal.

Only stored weights need a handle.  The diagram algebra keeps its
intermediate values raw (plain Python ``complex``) and looks a value up only
when a node stores it, when it keys a compute table, or when an edge is
handed back to a caller (see :mod:`qcdd.dd`).  The handle arithmetic below
(:meth:`ComplexTable.add`, :meth:`~ComplexTable.mul`,
:meth:`~ComplexTable.div`) interns every result and serves the operator
builder and the tests.

Handles are only meaningful within the table that issued them.  A table is
single-writer; concurrent simulations each own a private table and convert
weights by value when results are combined (see :meth:`qcdd.dd.Package.import_edge`).
"""

from __future__ import annotations

import math

# Reserved handles for the exact constants.  They are created first, in this
# order, by the ComplexTable constructor.
ZERO = 0
ONE = 1

# Probe order for neighbouring tolerance buckets; the home bucket comes first
# because nearly all hits land there.
_PROBES = ((0, 0), (0, -1), (0, 1), (-1, 0), (-1, -1), (-1, 1), (1, 0), (1, -1), (1, 1))


class ComplexTable:
    """Append-only table of canonical complex values.

    Entries are reclaimed only by :meth:`gc`, which the owning DD package
    calls during its own garbage collection sweeps, so live handles are never
    invalidated mid-computation.
    """

    def __init__(self, tol: float = 1e-13):
        if not tol > 0:
            raise ValueError(f"tolerance must be positive, got {tol}")
        self.tol = tol
        self._vals: dict[int, complex] = {}
        self._buckets: dict[tuple[int, int], list[int]] = {}
        self._next = 0
        # value -> handle of every value looked up since the last gc.  Only
        # node ratios and root weights are looked up, and they recur bit for
        # bit: 78-99% of lookups hit here on the benchmark workloads.  Its
        # size counts in the owning package's gc pressure.
        self._exact: dict[complex, int] = {}
        if self.lookup(0j) != ZERO or self.lookup(1 + 0j) != ONE:
            raise AssertionError("reserved constants not first in table")

    def __len__(self) -> int:
        return len(self._vals)

    def lookup(self, z: complex) -> int:
        """Return the canonical handle for ``z``, inserting if necessary.

        Values within ``tol`` (componentwise) of a stored representative
        return that representative's handle; in particular anything that
        close to 0 or 1 canonicalizes to the reserved ZERO/ONE handles.
        A value looked up before (exactly equal) gets the same handle again
        without a probe.
        """
        h = self._exact.get(z)
        if h is not None:
            return h
        re = z.real
        im = z.imag
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"non-finite weight {z!r}")
        tol = self.tol
        bx = round(re / tol)
        by = round(im / tol)
        buckets = self._buckets
        vals = self._vals
        for dx, dy in _PROBES:
            got = buckets.get((bx + dx, by + dy))
            if got:
                for h in got:
                    v = vals[h]
                    if abs(v.real - re) <= tol and abs(v.imag - im) <= tol:
                        self._exact[z] = h
                        return h
        h = self._next
        self._next = h + 1
        vals[h] = complex(re, im)
        home = (bx, by)
        if home in buckets:
            buckets[home].append(h)
        else:
            buckets[home] = [h]
        self._exact[z] = h
        return h

    def val(self, h: int) -> complex:
        """Stored value of a handle."""
        return self._vals[h]

    # Field arithmetic on handles.  Results are re-canonicalized, so closure
    # under these operations is automatic.

    def add(self, a: int, b: int) -> int:
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        return self.lookup(self._vals[a] + self._vals[b])

    def mul(self, a: int, b: int) -> int:
        if a == ZERO or b == ZERO:
            return ZERO
        if a == ONE:
            return b
        if b == ONE:
            return a
        return self.lookup(self._vals[a] * self._vals[b])

    def div(self, a: int, b: int) -> int:
        if b == ZERO:
            raise ZeroDivisionError("division by the canonical zero weight")
        if a == ZERO:
            return ZERO
        if b == ONE:
            return a
        return self.lookup(self._vals[a] / self._vals[b])

    def cached(self) -> int:
        """Entries in the exact-value cache of :meth:`lookup` (dropped by :meth:`gc`)."""
        return len(self._exact)

    def gc(self, live: set[int]) -> int:
        """Drop all entries outside ``live`` (reserved handles always stay)."""
        keep = {ZERO, ONE}
        keep.update(live)
        dead = [h for h in self._vals if h not in keep]
        for h in dead:
            del self._vals[h]
        if dead:
            tol = self.tol
            self._buckets = {}
            for h, v in self._vals.items():
                key = (round(v.real / tol), round(v.imag / tol))
                self._buckets.setdefault(key, []).append(h)
        self._exact.clear()
        return len(dead)
