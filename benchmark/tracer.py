"""Outside-in tracing of the qcdd layers.

``Tracer.install()`` replaces public methods of ``Package`` and
``ComplexTable`` (and the module attribute ``qcdd.hybrid.simulate_path``,
which the path loops look up as a global) with wrappers defined here; the
program itself is not changed.  Hot methods only count calls.  Coarse calls
record a span ``(name, start, end, parent)`` in memory; self times are
computed from the spans at the end.  Install it in a process that runs one
engine with ``workers=1``, so that every call happens where it is counted.
"""

from __future__ import annotations

import time

import qcdd.hybrid
from qcdd import Package
from qcdd.weights import ZERO, ComplexTable

# coarse calls, timed as spans: (owner, attribute, span name)
SPANNED = (
    (Package, "matrix_dd", "matrix_dd"),
    (Package, "multiply", "multiply"),
    (Package, "add", "add"),
    (Package, "import_edge", "import_edge"),
    (Package, "extract_statevector", "extract"),
    (Package, "gc", "gc"),
    (qcdd.hybrid, "simulate_path", "simulate_path"),
)

# counter slots
LOOKUPS, INSERTS, ARITH, ARITH_HITS, PACKAGES, NODES, ZERO_PATHS = range(7)


class Tracer:
    def __init__(self):
        self.counts = [0] * (ZERO_PATHS + 1)
        self.spans: list = []
        self._stack = [-1]
        self._saved: list = []

    # -- wrappers ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, name, orig):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return wrapper

    def install(self):
        counts = self.counts
        lookup = ComplexTable.lookup

        def counted_lookup(table, z):
            before = len(table)
            h = lookup(table, z)
            counts[LOOKUPS] += 1
            if len(table) != before:
                counts[INSERTS] += 1
            return h

        self._patch(ComplexTable, "lookup", counted_lookup)

        def arith(orig):
            def counted(table, a, b):
                before = counts[LOOKUPS]
                r = orig(table, a, b)
                counts[ARITH] += 1
                if counts[LOOKUPS] == before:
                    counts[ARITH_HITS] += 1
                return r

            return counted

        for attr in ("add", "mul", "div"):
            self._patch(ComplexTable, attr, arith(ComplexTable.__dict__[attr]))

        def node_maker(orig):
            def counted(pkg, level, *succ):
                counts[NODES] += 1
                return orig(pkg, level, *succ)

            return counted

        for attr in ("make_vector_node", "make_matrix_node"):
            self._patch(Package, attr, node_maker(Package.__dict__[attr]))

        init = Package.__init__

        def counted_init(pkg, *args, **kwargs):
            counts[PACKAGES] += 1
            init(pkg, *args, **kwargs)

        self._patch(Package, "__init__", counted_init)

        for owner, attr, name in SPANNED:
            orig = getattr(owner, attr)
            if attr == "simulate_path":
                orig = self._zero_counting(orig)
            self._patch(owner, attr, self._span(name, orig))

    def _zero_counting(self, simulate_path):
        counts = self.counts

        def counted(*args, **kwargs):
            upper, lower = simulate_path(*args, **kwargs)
            if upper[0] == ZERO or lower[0] == ZERO:
                counts[ZERO_PATHS] += 1
            return upper, lower

        return counted

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, tuple[int, float]] = {}
        for (name, t0, t1, _), covered in zip(spans, child):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (t1 - t0) - covered)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, ratios and self times, named without engine prefix."""
        c = self.counts
        spans = self.span_totals()

        def calls(name):
            return spans.get(name, (0, 0.0))[0]

        def self_s(name):
            return spans.get(name, (0, 0.0))[1]

        return {
            "weights.lookups": c[LOOKUPS],
            "weights.insert_ratio": c[INSERTS] / c[LOOKUPS] if c[LOOKUPS] else 0.0,
            "weights.arith_calls": c[ARITH],
            "weights.arith_hit_ratio": c[ARITH_HITS] / c[ARITH] if c[ARITH] else 0.0,
            "dd.packages": c[PACKAGES],
            "dd.matrix_dd_calls": calls("matrix_dd"),
            "dd.multiply_calls": calls("multiply"),
            "dd.add_calls": calls("add"),
            "dd.gc_runs": calls("gc"),
            "dd.nodes_made": c[NODES],
            "dd.matrix_dd_s": self_s("matrix_dd"),
            "dd.multiply_s": self_s("multiply"),
            "dd.add_s": self_s("add"),
            "dd.import_edge_s": self_s("import_edge"),
            "dd.extract_s": self_s("extract"),
            "dd.gc_s": self_s("gc"),
            "hybrid.paths": calls("simulate_path"),
            "hybrid.zero_paths": c[ZERO_PATHS],
            "hybrid.simulate_path_s": self_s("simulate_path"),
        }
