"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench``.  The
smoke runs use the synthetic configuration and take a few seconds each.
``PERFBENCH_FULL=1`` adds the nominal runs on two seeds, which build the
fixture on first use and take several minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import refclock  # noqa: E402
import tracing  # noqa: E402
from pbfopt import pipeline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
TABLE_ONLY = ("wall_setup_s", "wall_run_s", "cpu_per_wall", "sims_per_s",
              "energy_rel_dev", "failed_frac")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def test_spec_matches_what_the_benchmark_reports():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert set(END_TO_END) == {"setup_s", "run_s", "peak_rss_mb"}
    assert PER_LAYER == {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
    better = {m["name"]: m["better"] for m in SPEC["per_layer"]}
    assert better == {k: b for k, (_, b) in tracing.LAYER_METRICS.items()}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    res = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                    "--trace", trace, "--smoke")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in out["metrics"].values())
    table = {ln.split()[0]: ln.split()[1:3] for ln in lines if ln.startswith("  ")}
    for name, unit in {**END_TO_END, **expected}.items():
        assert table[name][1] == unit
    for name in TABLE_ONLY:
        assert name in table
    assert (table["sims_per_s"][0] == "N/A") == (workload == "design")
    assert (table["energy_rel_dev"][0] == "N/A") == (workload != "design")
    if trace == "1":
        m = {k: v["value"] for k, v in out["metrics"].items()}
        # the spans cover the traced pass up to the checks between calls
        assert 0.9 < m["trace.coverage"] <= 1.0 + 1e-9
        # synthetic runs skip the thermal solver, but not the batch around it
        assert (m["pipeline.batch_s"] > 0) == (workload != "design")
        assert (m["optimize.evals_per_start"] > 0) == (workload == "design")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = run_bench("--workload", "train", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


def test_output_checks_can_fail():
    M = 44

    class B:
        provenance = {"K_T": 2, "K_S": 1}

    good_T, good_S = np.zeros((M, 31)), np.zeros((M, 448))
    assert bench.check_train(M, good_T, good_S, B) == []
    bad_T = good_T.copy()
    bad_T[3, 4] = np.nan
    assert bench.check_train(M, bad_T, good_S, B)
    assert bench.check_train(M, good_T, good_S[:, :10], B)
    B.provenance = {"K_T": 0, "K_S": 1}
    assert bench.check_train(M, good_T, good_S, B)

    class R:
        def __init__(self, energy, feasible):
            self.energy, self.feasible = energy, feasible

    ok = [R(1.72, True), R(1.73, True), R(1.75, True), R(2.0, False)]
    assert bench.check_design(ok, 1.72)[0] == []
    assert bench.check_design(ok[:2] + [R(1.7, False)] * 2, 1.72)[0]
    problems, dev = bench.check_design([R(2.0, True)] * 4, 1.72)
    assert problems and dev > bench.ENERGY_TOL
    assert bench.check_design([R(1.72, False)] * 4, 1.72) == (
        ["0 of 4 starts feasible, need 3"], None)

    class V:
        def __init__(self, q_sim, rel_diff):
            self.q_sim, self.rel_diff = q_sim, rel_diff

    assert bench.check_validate(V(600.0, 0.01)) == []
    assert bench.check_validate(V(600.0, -0.06))
    assert bench.check_validate(V(np.nan, np.nan))


def test_self_times_add_up_to_the_outer_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap("b.inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()

    tracer.wrap("a.outer", body)()
    own = tracer.self_times()
    assert [s.name for s in tracer.spans] == ["a.outer", "b.inner", "b.inner"]
    assert tracer.spans[1].parent == 0 and tracer.spans[2].parent == 0
    assert own.sum() == pytest.approx(tracer.spans[0].duration)
    assert 0.005 < own[0] < tracer.spans[0].duration - 0.035


def test_instrument_restores_the_call_sites():
    before = [getattr(m, a) for m, a, _, _ in tracing.CALL_SITES]
    simulate = pipeline.simulate
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer()):
            assert pipeline.simulate is not simulate
            raise RuntimeError
    assert [getattr(m, a) for m, a, _, _ in tracing.CALL_SITES] == before


def test_speed_sampler_takes_its_time_out_of_the_block():
    sampler = refclock.SpeedSampler()
    t0 = time.perf_counter()
    with sampler:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    wall = time.perf_counter() - t0
    own, ref = sampler.cost(wall)
    assert len(sampler.samples) >= 5
    assert own == pytest.approx(wall - sum(sampler.samples))
    c = np.array(sampler.samples)
    assert ref == pytest.approx(own * np.mean(refclock.REF_KERNEL_S / c))
    assert 0.0 < sampler.cpu_per_wall <= refclock.CPU_PER_WALL_MAX and sampler.valid


def test_speed_sampler_falls_back_to_wall_time_on_several_cpus(monkeypatch):
    # a block whose process CPU time runs at twice its wall time kept two
    # CPUs busy, so the kernel timings do not measure the host alone
    monkeypatch.setattr(refclock, "_cpu_seconds", lambda: 2.0 * time.perf_counter())
    sampler = refclock.SpeedSampler()
    t0 = time.perf_counter()
    with sampler:
        time.sleep(0.2)
    own, ref = sampler.cost(time.perf_counter() - t0)
    assert sampler.cpu_per_wall == pytest.approx(2.0, rel=0.01)
    assert not sampler.valid
    assert ref == own


@pytest.mark.skipif(os.environ.get("PERFBENCH_FULL") != "1",
                    reason="nominal runs take minutes; set PERFBENCH_FULL=1")
@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_nominal_checks_pass(workload, seed):
    res = run_bench("--workload", workload, "--seed", seed, "--seconds", "1",
                    "--trace", "0")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0, res.stderr
