"""The names the benchmark's tracer reaches into the package by.

``bench/tracing.py`` rebinds the functions in its ``REBIND`` table and
calls a few more directly as probes.  A name it cannot find turns its
metric into null while the benchmark run still succeeds, so a rename in
the package has to fail here instead.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fdrdist import SimConfig, ThetaParams, simulate

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# (module, name) of every direct call in tracing.probes
PROBES = (
    ("fdrdist.psi_dist", "ThetaParams"),
    ("fdrdist.psi_dist", "cdf"),
    ("fdrdist.mle", "log_likelihood"),
    ("fdrdist.simulate", "SimConfig"),
    ("fdrdist.simulate", "sample_pvalues"),
    ("fdrdist.simulate", "empirical_count_distribution"),
    ("fdrdist.simulate", "positive_stable"),
    ("fdrdist.simulate", "_iter_pvalue_chunks"),
)


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, name",
                         [(m, a) for m, a, _ in _tracing().REBIND] + list(PROBES))
def test_name_resolves_to_a_callable(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name, None))


def test_chunk_iterator_is_looked_up_through_the_module(monkeypatch):
    # the count_s probe replays drawn chunks by rebinding the module global
    # to a one-argument function: both entry points must read it at call
    # time and pass the config alone.  Items are (lo, hi, aux, x); in the
    # independent model aux is None and x is on the Psi scale, which for
    # the uniform marginal is the p-values
    cfg = SimConfig(n_tests=3, replicates=2, marginal=ThetaParams.uniform(),
                    alpha=0.05, seed=1)
    fixed = np.array([[0.001, 0.5, 0.9], [0.2, 0.5, 0.9]])
    calls = []

    def replay(*args, **kwargs):
        calls.append((args, kwargs))
        return iter([(0, 2, None, fixed.copy())])

    monkeypatch.setattr(simulate, "_iter_pvalue_chunks", replay)
    np.testing.assert_array_equal(simulate.sample_pvalues(cfg), fixed)
    emp = simulate.empirical_count_distribution(cfg, "bh")
    np.testing.assert_array_equal(emp.pmf, [0.5, 0.5])
    assert calls == [((cfg,), {}), ((cfg,), {})]
