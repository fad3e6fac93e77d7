"""Tolerance-canonicalized storage for complex edge weights.

Every decision diagram hands its edge weights to a :class:`ComplexTable`,
which maps numerically indistinguishable values (per-component absolute
difference within ``tol``) onto one integer handle.  Handle equality then
doubles as value equality, which is what makes node uniquing work: two
structurally equal diagrams end up pointer-equal.

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
        # handle-pair result caches; weight pairs recur heavily during
        # diagram traversals, so this skips most bucket probing
        self._mul_cache: dict[tuple[int, int], int] = {}
        self._div_cache: dict[tuple[int, int], int] = {}
        self._add_cache: dict[tuple[int, int], int] = {}
        if self.lookup(0j) != ZERO or self.lookup(1 + 0j) != ONE:
            raise AssertionError("reserved constants not first in table")

    def __len__(self) -> int:
        return len(self._vals)

    def lookup(self, z: complex) -> int:
        """Return the canonical handle for ``z``, inserting if necessary.

        Values within ``tol`` (componentwise) of a stored representative
        return that representative's handle; in particular anything that
        close to 0 or 1 canonicalizes to the reserved ZERO/ONE handles.
        """
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
                        return h
        h = self._next
        self._next = h + 1
        vals[h] = complex(re, im)
        home = (bx, by)
        if home in buckets:
            buckets[home].append(h)
        else:
            buckets[home] = [h]
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
        if a > b:
            a, b = b, a
        key = (a, b)
        r = self._add_cache.get(key)
        if r is None:
            r = self.lookup(self._vals[a] + self._vals[b])
            self._add_cache[key] = r
        return r

    def mul(self, a: int, b: int) -> int:
        if a == ZERO or b == ZERO:
            return ZERO
        if a == ONE:
            return b
        if b == ONE:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        r = self._mul_cache.get(key)
        if r is None:
            r = self.lookup(self._vals[a] * self._vals[b])
            self._mul_cache[key] = r
        return r

    def div(self, a: int, b: int) -> int:
        if b == ZERO:
            raise ZeroDivisionError("division by the canonical zero weight")
        if a == ZERO:
            return ZERO
        if b == ONE:
            return a
        key = (a, b)
        r = self._div_cache.get(key)
        if r is None:
            r = self.lookup(self._vals[a] / self._vals[b])
            self._div_cache[key] = r
        return r

    def cached(self) -> int:
        """Entries in the arithmetic result caches (dropped by :meth:`gc`)."""
        return len(self._mul_cache) + len(self._div_cache) + len(self._add_cache)

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
        self._mul_cache.clear()
        self._div_cache.clear()
        self._add_cache.clear()
        return len(dead)
