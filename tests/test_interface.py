"""The interface the benchmark harness (perfbench/) reads.

build_offline(grid, measure, n_funcs, metric) gives one OfflineStack per
metric; its length is the number of configurations K, and make_criterion
and the eval_*/grad_* functions take it as it is. The harness's tracer
times functions by name, so each name it maps a metric to must exist.
"""

import importlib
import inspect
import os

import numpy as np
import pytest

from basisopt.criteria import (
    CriterionKind,
    eval_JA,
    eval_JE,
    grad_JA,
    grad_JE,
    make_criterion,
)
from basisopt.galerkin import hbs_coefficients
from basisopt.grid import build_grid
from basisopt.reference import (
    METRICS,
    OfflineStack,
    build_offline,
    load_cached,
    load_or_build_each,
    stack_offline,
    uniform_measure,
)

GRID = build_grid(20.0, 399)
MEASURE = uniform_measure(1.5, 5.0, 4)
N_FUNCS = 4
STACK_FIELDS = ("a", "weight", "e_ref", "g_a", "s_a", "m_e", "s_b")


def test_build_offline_signature():
    params = inspect.signature(build_offline).parameters
    assert list(params) == ["grid", "measure", "n_funcs", "metric", "cache_dir"]
    assert (params["metric"].default, params["cache_dir"].default) == ("L2", None)


@pytest.mark.parametrize("metric", METRICS)
def test_build_offline_feeds_the_criteria(metric):
    offline = build_offline(GRID, MEASURE, N_FUNCS, metric)
    assert isinstance(offline, OfflineStack)
    assert len(offline) == len(MEASURE.points)
    R = hbs_coefficients(N_FUNCS, 2)
    kinds = [kind for kind in CriterionKind if kind.metric == metric]
    for kind in kinds:
        value, grad = make_criterion(kind, offline)(R)
        evaluate, gradient = (
            (eval_JE, grad_JE) if kind is CriterionKind.JE else (eval_JA, grad_JA)
        )
        assert evaluate(R, offline) == value and np.isfinite(value)
        np.testing.assert_array_equal(gradient(R, offline), grad)
        assert grad.shape == R.shape


@pytest.mark.parametrize("metric", METRICS)
def test_stack_of_cached_records_equals_fresh_build(tmp_path, metric):
    cache = str(tmp_path)
    for _ in load_or_build_each(GRID, MEASURE.points, N_FUNCS, cache):
        pass
    records = [load_cached(cache, GRID, a, N_FUNCS) for a in MEASURE.points]
    cached = stack_offline(records, MEASURE.weights)[metric]
    fresh = build_offline(GRID, MEASURE, N_FUNCS, metric)
    for name in STACK_FIELDS:
        got, expected = getattr(cached, name), getattr(fresh, name)
        assert got.shape == expected.shape and np.array_equal(got, expected), name
    assert cached.weight.tolist() == list(MEASURE.weights)


def test_tracer_finds_every_function_it_times(monkeypatch):
    # a traced name the package no longer defines drops its metric from a
    # traced benchmark run; the tracer module is read, not changed
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    tracer = importlib.import_module("tracer")
    traced = tracer.Tracer()
    traced.install()
    traced.uninstall()
    names = {
        *tracer.CALL_COUNTS.values(),
        *tracer.SELF_TIMES.values(),
        tracer.LOAD,
        tracer.SAVE,
        tracer.MINIMIZE,
        tracer.MAKE_CRITERION,
    }
    assert names - traced.wrapped == set()
