import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcdd.weights import ONE, ZERO, ComplexTable

SQ2 = 1 / math.sqrt(2)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
values = st.builds(complex, finite, finite)


def test_reserved_handles():
    t = ComplexTable()
    assert t.lookup(0j) == ZERO
    assert t.lookup(1 + 0j) == ONE
    assert ZERO == 0
    assert ONE == 1


def test_tolerance_canonicalization():
    t = ComplexTable(tol=1e-13)
    h = t.lookup(complex(SQ2, 0.0))
    assert t.lookup(complex(SQ2 + 1e-15, 0.0)) == h
    assert t.lookup(complex(SQ2 - 9e-14, 0.0)) == h
    assert t.lookup(complex(SQ2 + 1, 0.0)) != h


def test_near_constants_snap_to_reserved():
    t = ComplexTable(tol=1e-13)
    assert t.lookup(complex(4e-14, -8e-14)) == ZERO
    assert t.lookup(complex(1 + 5e-14, 1e-14)) == ONE
    assert t.lookup(complex(-0.0, 0.0)) == ZERO


@pytest.mark.parametrize("tol", [0.0, -1e-13, 1.0, 1e300, math.inf, math.nan])
def test_rejects_a_tolerance_outside_zero_one(tol):
    # at tol >= 1 ONE lies within tol of ZERO and would look up as it
    with pytest.raises(ValueError, match="tolerance"):
        ComplexTable(tol)


def test_rejects_non_finite():
    t = ComplexTable()
    for bad in (complex(float("nan"), 0), complex(0, float("inf")), complex(float("-inf"), 1)):
        with pytest.raises(ValueError):
            t.lookup(bad)


def test_arithmetic_examples():
    t = ComplexTable()
    h = t.lookup(complex(SQ2, 0))
    assert t.mul(h, h) == t.lookup(0.5 + 0j)
    x = t.lookup(0.25 - 0.5j)
    assert t.mul(ONE, x) == x
    assert t.add(ZERO, x) == x


def test_division():
    t = ComplexTable()
    a = t.lookup(0.8j)
    b = t.lookup(0.6 + 0j)
    q = t.div(a, b)
    assert q == pytest.approx(0.8j / 0.6)
    assert t.div(a, ONE) == a
    with pytest.raises(ZeroDivisionError):
        t.div(a, ZERO)


@given(values)
@settings(max_examples=200)
def test_lookup_idempotent(z):
    t = ComplexTable()
    h = t.lookup(z)
    assert t.lookup(h) == h


@given(values, values)
@settings(max_examples=200)
def test_arithmetic_closure(a, b):
    t = ComplexTable()
    ha, hb = t.lookup(a), t.lookup(b)
    for h in (t.add(ha, hb), t.mul(ha, hb)):
        # result is a representative: looking it up returns itself
        assert t.lookup(h) == h


@given(values)
@settings(max_examples=100)
def test_identity_laws(z):
    t = ComplexTable()
    h = t.lookup(z)
    assert t.mul(ONE, h) == h
    assert t.add(ZERO, h) == h


def test_gc_keeps_live_and_reserved():
    t = ComplexTable()
    keep = t.lookup(0.5 + 0j)
    drop = t.lookup(0.25 + 0j)
    reclaimed = t.gc({keep})
    assert reclaimed == 1
    assert len(t) == 3  # 0, 1 and keep
    assert t.lookup(0j) == ZERO and t.lookup(1 + 0j) == ONE
    # a value within tol of the dropped representative becomes a new one
    near = drop + 5e-14
    assert t.lookup(near) == near != drop
    assert len(t) == 4
    # table still canonicalizes correctly after the sweep
    assert t.lookup(0.5 + 1e-15 + 0j) == keep
    h2 = t.lookup(0.25 + 0j)
    assert t.lookup(t.mul(h2, h2)) == t.mul(h2, h2)


def test_exact_value_cache_is_counted_and_dropped_by_gc():
    t = ComplexTable(tol=1e-13)
    h = t.lookup(0.5 + 0j)
    assert t.lookup(0.5 + 1e-15j) == h  # within tol: a probe, then cached
    assert t.lookup(0.5 + 0j) == h  # exactly equal: from the cache
    assert t.cached() == 4  # 0, 1 and the two values above
    t.gc({h})
    assert t.cached() == 0
    assert t.lookup(0.5 + 1e-15j) == h
