"""Every name a pbfopt module exports must exist, and so must every name
the benchmark's tracer wraps or calls."""

import importlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pbfopt import optimize, pipeline

MODULES = (
    "cli",
    "optimize",
    "pipeline",
    "reduction",
    "risk",
    "stress",
    "surrogate",
    "thermal",
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    namespace = {}
    # a name listed in __all__ but missing makes the star import fail
    exec(f"from pbfopt.{name} import *", namespace)
    module = importlib.import_module(f"pbfopt.{name}")
    assert set(module.__all__) <= set(namespace)


def test_every_traced_call_site_resolves(monkeypatch):
    # the tracer swaps each (module, attribute) for a wrapper by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing.CALL_SITES
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_traced_solve_feasibility_is_the_solver_rule():
    # the tracer counts feasible evaluations through _SolveState._is_feasible
    cfg = optimize.OptimizeConfig()
    box = SimpleNamespace(input_bounds=pipeline.PipelineConfig().input_bounds)
    lo, hi = cfg.temp_window
    lhs, t_hat = np.meshgrid(
        np.linspace(0.0, 2.0 * (1.0 - cfg.alpha_t), 21),
        np.linspace(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), 21),
    )
    got = optimize._SolveState(box, cfg, None)._is_feasible(lhs, t_hat)
    want = optimize.is_feasible(cfg, lhs, t_hat)
    assert got.any() and not got.all()
    assert np.array_equal(got, want)
