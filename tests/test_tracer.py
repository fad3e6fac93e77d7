"""Smoke test of ``benchmark/tracer.py``, which wraps package methods by name:
renaming or deleting one of them must fail here, not only in a traced
benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import qcdd.hybrid
from qcdd import Package, run_hybrid_amp, run_hybrid_dd, simulate
from qcdd.weights import ComplexTable
from conftest import FIG_STATE

TRACER_PY = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_mod():
    spec = importlib.util.spec_from_file_location("qcdd_bench_tracer", TRACER_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _schrodinger(c):
    pkg = Package()
    return pkg.extract_statevector(simulate(c, pkg)), 0


def _hybrid_dd(c):
    r = run_hybrid_dd(c, workers=1)
    return r.package.extract_statevector(r.state), r.path_count


def _hybrid_amp(c):
    r = run_hybrid_amp(c, workers=1)
    return r.vector, r.path_count


@pytest.mark.parametrize("engine", [_schrodinger, _hybrid_dd, _hybrid_amp])
def test_tracer_counts_layers_and_restores_patches(tracer_mod, fig4, engine):
    owners = (Package, ComplexTable, qcdd.hybrid)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert tracer._saved
        vec, paths = engine(fig4)
    finally:
        tracer.uninstall()
    for owner, attrs in zip(owners, before):
        after = vars(owner)
        assert after.keys() == attrs.keys()
        assert all(after[k] is v for k, v in attrs.items())
    assert np.abs(vec - FIG_STATE).max() < 1e-12
    m = tracer.layer_metrics()
    assert m["weights.lookups"] > 0
    assert m["dd.packages"] > 0 and m["dd.matrix_dd_calls"] > 0
    assert m["hybrid.paths"] == paths
