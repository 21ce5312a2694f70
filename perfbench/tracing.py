"""Spans around the calls into each pbfopt module, and the layer metrics.

The benchmark wraps the public functions each module exposes at the place
the pipeline calls them (module attributes are swapped for the duration
of a traced pass and restored afterwards), so no code under ``src``
changes.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from pbfopt import optimize, pipeline, risk, surrogate
from pbfopt.thermal import ModelParams

LAYERS = ("thermal", "stress", "pipeline", "reduction", "surrogate", "risk", "optimize")
PASS_SPAN = "bench.pass"  # the span around a whole traced pass; not a layer


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 at the top
    failed: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder for one process; not thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording one span per call; ``note(args, result)``
        returns extra facts to keep on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if note is not None:
                span.info.update(note(args, out))
            return out

        return traced

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        own = np.array([s.duration for s in self.spans])
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def dump(self, path, facts: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"facts": facts, "spans": [asdict(s) for s in self.spans]}, f)
            f.write("\n")


def _scan_seconds(args, _out):
    d = args[0]
    p = args[2] if len(args) > 2 and args[2] is not None else ModelParams()
    return {"scan_s": p.l / d.v}


def _predict_rows(args, _out):
    s, eta = args[0], np.asarray(args[1])
    if eta.ndim == 2:
        rows = eta.shape[0]
    elif eta.ndim == 1 and s.n_vars == 1:
        rows = eta.shape[0]
    else:
        rows = 1
    return {"rows": rows}


def _solve_summary(args, res):
    # an evaluation is feasible by the solver's own rule, applied to the
    # (bPOF lhs, T_hat) columns of its history row
    state = optimize._SolveState(args[0], args[1], None)
    h = res.history
    return {
        "evals": int(h.shape[0]),
        "feasible_evals": int(sum(state._is_feasible(lhs, t) for lhs, t in h[:, 4:6])),
        "iterations": int(res.iterations),
        "feasible": bool(res.feasible),
    }


# (module, attribute, span name, note): the call sites wrapped in a traced
# pass.  The names imported into pipeline are wrapped there, where the
# pipeline looks them up; predict and the bPOF solve are wrapped on their
# own modules, which is where optimize looks them up.
CALL_SITES = (
    (pipeline, "run_simulations", "pipeline.batch", None),
    (pipeline, "simulate_stress_maxima", "pipeline.batch", None),
    (pipeline, "generate_doe", "pipeline.doe", None),
    (pipeline, "train_from_matrices", "pipeline.fit", None),
    (pipeline, "run_optimization", "pipeline.optimize", None),
    (pipeline, "validate", "pipeline.validate", None),
    (pipeline, "simulate", "thermal.simulate", _scan_seconds),
    (pipeline, "residual_stress", "stress.residual_stress", None),
    (pipeline, "error_curve", "reduction.svd", None),
    (pipeline, "decompose", "reduction.svd", None),
    (pipeline, "estimate_gradients", "reduction.gradient", None),
    (pipeline, "discover", "reduction.subspace", None),
    (pipeline, "fit_best_degree", "surrogate.fit", None),
    (pipeline, "solve", "optimize.solve", _solve_summary),
    (pipeline, "stress_max_samples", "optimize.stress_max_samples", None),
    (surrogate, "predict", "surrogate.predict", _predict_rows),
    (risk, "estimate_bpof_minform", "risk.minform", None),
)


@contextmanager
def instrument(tracer: Tracer):
    """Swap every call site for its traced wrapper while the block runs."""
    saved = []
    try:
        for module, attr, name, note in CALL_SITES:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, note))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# name -> (unit, better): every metric layer_metrics reports, in the order
# BENCHMARK.json lists them
LAYER_METRICS = {
    "thermal.calls": ("count", "lower"),
    "thermal.busy_s": ("s", "lower"),
    "thermal.ms_per_call_p50": ("ms", "lower"),
    "thermal.ms_per_call_p90": ("ms", "lower"),
    "thermal.failed": ("count", "lower"),
    "thermal.s_per_scan_s": ("s/s", "lower"),
    "thermal.kernel_ms.v100_p200": ("ms", "lower"),
    "thermal.kernel_ms.v232_p200": ("ms", "lower"),
    "thermal.kernel_ms.v550_p110": ("ms", "lower"),
    "thermal.kernel_ms.v1000_p20": ("ms", "lower"),
    "stress.calls": ("count", "lower"),
    "stress.busy_s": ("s", "lower"),
    "pipeline.doe_s": ("s", "lower"),
    "pipeline.batch_s": ("s", "lower"),
    "pipeline.batch_self_s": ("s", "lower"),
    "pipeline.fit_s": ("s", "lower"),
    "pipeline.validate_s": ("s", "lower"),
    "reduction.svd_s": ("s", "lower"),
    "reduction.gradient_s": ("s", "lower"),
    "reduction.subspace_s": ("s", "lower"),
    "surrogate.fit_s": ("s", "lower"),
    "surrogate.predict_calls": ("count", "lower"),
    "surrogate.predict_rows": ("count", "lower"),
    "surrogate.predict_busy_s": ("s", "lower"),
    "risk.minform_calls": ("count", "lower"),
    "risk.busy_s": ("s", "lower"),
    "optimize.solve_s_p50": ("s", "lower"),
    "optimize.solve_s_max": ("s", "lower"),
    "optimize.evals_per_start": ("count", "lower"),
    "optimize.iterations": ("count", "lower"),
    "optimize.ms_per_eval": ("ms", "lower"),
    "optimize.feasible_eval_frac": ("ratio", "higher"),
    "optimize.feasible_starts": ("count", "higher"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.run_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def layer_metrics(
    tracer: Tracer, passes: int, overhead_ratio: float, kernel_ms: dict
) -> dict:
    """Per-layer numbers per traced pass.

    Counts and busy times are totals over the traced passes divided by
    their number, so a count repeats exactly from run to run.  A layer the
    workload never calls reads 0.  Each traced pass is one ``PASS_SPAN``
    span; the layers' self times add up to its duration, less the
    benchmark's own checks between the calls.
    """
    spans = tracer.spans
    own = tracer.self_times()

    def pick(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def busy(*names):
        return sum(spans[i].duration for i in pick(*names)) / passes

    def count(*names):
        return len(pick(*names)) / passes

    def pct(values, q):
        return float(np.percentile(values, q)) if len(values) else 0.0

    sims = [spans[i] for i in pick("thermal.simulate")]
    sim_ms = [1e3 * s.duration for s in sims]
    scan = sum(s.info.get("scan_s", 0.0) for s in sims)
    thermal_busy = sum(s.duration for s in sims)
    solves = [spans[i] for i in pick("optimize.solve") if not spans[i].failed]
    evals = sum(s.info["evals"] for s in solves)
    solve_busy = sum(s.duration for s in solves)
    batches = pick("pipeline.batch")

    m = {
        "thermal.calls": count("thermal.simulate"),
        "thermal.busy_s": thermal_busy / passes,
        "thermal.ms_per_call_p50": pct(sim_ms, 50),
        "thermal.ms_per_call_p90": pct(sim_ms, 90),
        "thermal.failed": sum(s.failed for s in sims) / passes,
        "thermal.s_per_scan_s": thermal_busy / scan if scan else 0.0,
        **{f"thermal.kernel_ms.{k}": v for k, v in kernel_ms.items()},
        "stress.calls": count("stress.residual_stress"),
        "stress.busy_s": busy("stress.residual_stress"),
        "pipeline.doe_s": busy("pipeline.doe"),
        # the DOE runs inside run_simulations but is reported on its own
        "pipeline.batch_s": busy("pipeline.batch") - busy("pipeline.doe"),
        "pipeline.batch_self_s": float(sum(own[i] for i in batches)) / passes,
        "pipeline.fit_s": busy("pipeline.fit"),
        "pipeline.validate_s": busy("pipeline.validate"),
        "reduction.svd_s": busy("reduction.svd"),
        "reduction.gradient_s": busy("reduction.gradient"),
        "reduction.subspace_s": busy("reduction.subspace"),
        "surrogate.fit_s": busy("surrogate.fit"),
        "surrogate.predict_calls": count("surrogate.predict"),
        "surrogate.predict_rows": sum(
            spans[i].info.get("rows", 0) for i in pick("surrogate.predict")
        ) / passes,
        "surrogate.predict_busy_s": busy("surrogate.predict"),
        "risk.minform_calls": count("risk.minform"),
        "risk.busy_s": busy("risk.minform"),
        "optimize.solve_s_p50": pct([s.duration for s in solves], 50),
        "optimize.solve_s_max": max((s.duration for s in solves), default=0.0),
        "optimize.evals_per_start": evals / len(solves) if solves else 0.0,
        "optimize.iterations": (
            sum(s.info["iterations"] for s in solves) / len(solves) if solves else 0.0
        ),
        "optimize.ms_per_eval": 1e3 * solve_busy / evals if evals else 0.0,
        "optimize.feasible_eval_frac": (
            sum(s.info["feasible_evals"] for s in solves) / evals if evals else 0.0
        ),
        "optimize.feasible_starts": sum(s.info["feasible"] for s in solves) / passes,
    }
    self_total = 0.0
    for layer in LAYERS:
        val = float(sum(own[i] for i, s in enumerate(spans) if s.layer == layer))
        m[f"{layer}.self_s"] = val / passes
        self_total += val / passes
    m["trace.run_s"] = busy(PASS_SPAN)
    m["trace.coverage"] = self_total / m["trace.run_s"]
    m["trace.overhead_ratio"] = overhead_ratio
    return m
