"""Thermal solver tests: flux arithmetic, equilibrium, monotonicity, grids."""

import ctypes
import functools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import clones
import numpy as np
import pytest
from oracles import (
    folded_constants,
    gauss_deposit,
    heat_flux,
    lockstep_batch,
    lockstep_block,
    material_props,
    solve_field_per_run,
)

from pbfopt import pipeline, thermal
from pbfopt.optimize import draw_material_samples
from pbfopt.thermal import (
    DESIGN_BOUNDS,
    DesignPoint,
    ModelParams,
    RandomInputs,
    SimGridConfig,
    SimulationError,
)

NOMINAL_Z = RandomInputs(T0=650.0, Y=825.0, E=110.0, rho=612.0)
# at NOMINAL_Z only run 1, a 20 kW beam, fails
ONE_FAILURE = [DesignPoint(550.0, 100.0), DesignPoint(100.0, 20000.0),
               DesignPoint(150.0, 100.0), DesignPoint(300.0, 100.0),
               DesignPoint(600.0, 100.0), DesignPoint(900.0, 100.0)]
BASELINE_PATH = Path(__file__).parent / "data" / "regression_baseline.json"


def planned(runs, p, grid, *ceiling):
    """Each (design, random inputs) run with its _plan, as the kernel takes it."""
    return [(d, z, thermal._plan(d, z, p, grid, *ceiling)) for d, z in runs]


def assert_same(a, b):
    for field in ("times", "temps", "peak_field"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def validation_runs():
    """The 50 seed-3 validation draws at the baseline d*, on P = 200 W, so its
    speed is P l / E, as (design, random inputs) runs."""
    cfg = pipeline.PipelineConfig()
    with open(BASELINE_PATH, encoding="utf-8") as f:
        e_star = json.load(f)["optimal_energy"]
    d = DesignPoint(200.0 * cfg.model.l / e_star, 200.0)
    draws = draw_material_samples(cfg.input_bounds[2:], cfg.n_val,
                                  np.random.default_rng(cfg.seed_validation))
    return [(d, RandomInputs(*map(float, z))) for z in draws]


class TestSnapshotTimes:
    def test_structure(self):
        times = thermal.snapshot_times(550.0, 2.0)
        assert times.shape == (31,)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(2.0 / 550.0)
        assert np.all(np.diff(times) > 0)

    def test_block_arithmetic_fast_scan(self):
        times = thermal.snapshot_times(1000.0, 2.0)
        t = 0.002
        assert times[-1] == pytest.approx(t)
        # first block: 10 uniform points on [0, 0.405*t]
        assert times[9] == pytest.approx(0.405 * t)
        assert times[1] == pytest.approx(0.405 * t / 9)
        # middle block brackets the beam pass over the probe
        assert times[10] == pytest.approx(0.45 * t)
        assert times[19] == pytest.approx(0.54 * t)
        assert times[20] == pytest.approx(0.55 * t)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError, match="speed"):
            thermal.snapshot_times(0.0, 2.0)


class TestHeatFlux:
    """The flux oracle itself, pinned by hand values."""

    def test_center_value(self):
        p = ModelParams()
        d = DesignPoint(500.0, 160.0)
        expect = 2.0 * p.A * d.P / (np.pi * p.r**2 * p.z0)
        assert heat_flux(d.v * 0.001, 0.0, 0.0, 0.001, d, p) == pytest.approx(
            expect, rel=1e-12
        )

    def test_zero_at_penetration_depth(self):
        p = ModelParams()
        d = DesignPoint(500.0, 160.0)
        assert heat_flux(0.0, 0.0, p.z0, 0.0, d, p) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_decay_one_radius(self):
        p = ModelParams()
        d = DesignPoint(500.0, 160.0)
        center = heat_flux(0.0, 0.0, 0.0, 0.0, d, p)
        off = heat_flux(p.r, 0.0, 0.0, 0.0, d, p)
        assert off == pytest.approx(center * np.exp(-2.0), rel=1e-12)

    def test_vanishes_outside_depth(self):
        p = ModelParams()
        d = DesignPoint(500.0, 160.0)
        assert heat_flux(0.0, 0.0, 2.0 * p.z0, 0.0, d, p) == 0.0
        assert heat_flux(0.0, 0.0, -0.01, 0.0, d, p) == 0.0

    def test_cell_average_matches_fine_quadrature(self):
        # the solver deposits exact cell integrals of the flux; cross-check
        # against direct numerical averaging of the flux oracle over one cell
        p = ModelParams()
        d = DesignPoint(300.0, 150.0)
        grid = SimGridConfig()
        dx, dz = p.l / grid.cells_x, p.h / grid.cells_z
        t = 0.0012
        edges = np.arange(grid.cells_x + 1) * dx
        gx = gauss_deposit(edges, d.v * t, p.r, dx)
        gz = thermal._depth_deposit(grid.cells_z, dz, p.h, p.z0)
        amp = 2.0 * p.A * d.P / (np.pi * p.r**2 * p.z0)
        i, j = 24, grid.cells_z - 1  # top row cell near the beam
        xs = np.linspace(edges[i], edges[i + 1], 2001)
        depth = p.h - (np.arange(grid.cells_z) + 0.5) * dz
        zs = np.linspace(depth[j] - dz / 2 + dz * 1e-9, depth[j] + dz / 2, 2001)
        vals = heat_flux(
            xs[:, None], 0.0, np.clip(zs[None, :], 0.0, None), t, d, p
        )
        quad = float(np.mean(vals))
        assert amp * gx[i] * gz[j] == pytest.approx(quad, rel=1e-4)


class TestMaterialProps:
    def test_reference_values(self):
        p = ModelParams()
        assert material_props(0.0, p) == (540.0, 7.2)
        cp, kap = material_props(1000.0, p)
        assert cp == pytest.approx(938.0)
        assert kap == pytest.approx(19.6)

    def test_constant_coefficients(self):
        p = ModelParams(a0=10.0, a1=0.0, a2=0.0, b0=3.0, b1=0.0, b2=0.0)
        for t in (-5.0, 0.0, 1234.5):
            assert material_props(t, p) == (10.0, 3.0)

    def test_params_reject_nonpositive_props(self):
        with pytest.raises(ValueError, match="positive"):
            ModelParams(a0=-540.0)

    def test_params_reject_a_dip_between_any_sampled_temperatures(self):
        # kappa is -0.004 W/(m K) at its vertex, 1238.354 degC, and positive
        # at every one of 200 evenly spaced temperatures over the checked range
        b2, vertex = 1e-3, 1238.354
        b0 = b2 * vertex**2 - 0.004
        ts = np.linspace(650.0, 1.1 * 1650.0, 200)
        assert np.all(b0 - 2.0 * b2 * vertex * ts + b2 * ts**2 > 0)
        with pytest.raises(ValueError, match="positive"):
            ModelParams(b0=b0, b1=-2.0 * b2 * vertex, b2=b2)

    def test_conductivity_negative_in_the_probe_band_fails_before_stepping(
        self, monkeypatch
    ):
        # accepted up to 1.1 Tliq, but kappa(3 Tliq) is about -11.9 W/(m K)
        p = ModelParams(b2=-3e-6)
        assert material_props(3.0 * p.Tliq, p)[1] < -11.0
        monkeypatch.setattr(thermal, "_step_block", lambda *a: pytest.fail("stepped"))
        with pytest.raises(ValueError, match="non-positive over the run range"):
            thermal.simulate(DesignPoint(500.0, 100.0), NOMINAL_Z, p)


class TestModelParamsValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="penetration"):
            ModelParams(z0=1.0)  # deeper than the part
        with pytest.raises(ValueError, match="radius"):
            ModelParams(r=0.0)
        with pytest.raises(ValueError, match="absorptivity"):
            ModelParams(A=1.5)

    @pytest.mark.parametrize("kwargs, match", [
        ({"eps_s": -1.0}, "emissivity"),
        ({"eps_s": 5.0}, "emissivity"),
        ({"Tliq": 600.0}, "liquidus"),  # below the 650 degC chamber
        ({"l": np.inf}, "l must be finite"),
        ({"Tc": np.nan}, "Tc must be finite"),
        ({"Tliq": np.nan}, "Tliq must be finite"),
        ({"l": 0.0}, "part dimensions must be positive"),
    ])
    def test_rejects_parameters_no_run_can_use(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ModelParams(**kwargs)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="cells"):
            SimGridConfig(cells_x=2)
        with pytest.raises(ValueError, match="cfl"):
            SimGridConfig(cfl_factor=1.5)
        # a cell count must be an integer, and a bool is not one
        for name, bad in (("cells_x", 64.5), ("cells_x", "64"), ("cells_z", 26.0),
                          ("cells_z", True), ("cells_x", np.float64(64.0))):
            with pytest.raises(ValueError, match=f"'grid.{name}' must be an integer"):
                SimGridConfig(**{name: bad})
        grid = SimGridConfig(np.int64(16), np.int32(8))
        assert_same(thermal.simulate(DesignPoint(550.0, 110.0), NOMINAL_Z, grid=grid),
                    thermal.simulate(DesignPoint(550.0, 110.0), NOMINAL_Z,
                                     grid=SimGridConfig(16, 8)))


class TestSimulate:
    def test_zero_source_equilibrium(self):
        # no beam and preheat equal to chamber: nothing may move
        z = RandomInputs(T0=650.0, Y=825.0, E=110.0, rho=612.0)
        snap = thermal.simulate(DesignPoint(500.0, 0.0), z)
        assert np.max(np.abs(snap.temps - 650.0)) < 1e-6
        assert np.max(np.abs(snap.peak_field - 650.0)) < 1e-6

    @pytest.mark.parametrize(
        "d, match",
        [
            (DesignPoint(500.0, np.nan), "power"),
            (DesignPoint(500.0, np.inf), "power"),
            (DesignPoint(np.nan, 100.0), "speed"),
            (DesignPoint(np.inf, 100.0), "speed"),
        ],
    )
    def test_non_finite_design_rejected(self, d, match):
        with pytest.raises(ValueError, match=match):
            thermal.simulate(d, NOMINAL_Z)

    def test_non_finite_field_rejected(self):
        # one step of an absurd power 1 mm from the probe: the field overflows,
        # while the probe's cells get exactly nothing and stay in band
        d, z = DesignPoint(1e6, 1e40), RandomInputs(650.0, 825.0, 110.0, 612.0)
        message = "^field became non-finite by step 1$"
        with pytest.raises(SimulationError, match=message) as e:
            thermal.simulate(d, z)
        assert e.value.step == 1
        with pytest.raises(SimulationError, match=message) as e:
            thermal.simulate_batch([DesignPoint(500.0, 100.0), d], [z, z])
        assert (e.value.step, e.value.run) == (1, 1)

    def test_power_monotonicity(self):
        maxima = []
        for P in (20.0, 65.0, 110.0, 155.0, 200.0):
            snap = thermal.simulate(DesignPoint(550.0, P), NOMINAL_Z)
            maxima.append(snap.temps.max())
        assert all(b >= a for a, b in zip(maxima, maxima[1:]))

    def test_speed_monotonicity(self):
        maxima = []
        for v in (100.0, 325.0, 550.0, 775.0, 1000.0):
            snap = thermal.simulate(DesignPoint(v, 110.0), NOMINAL_Z)
            maxima.append(snap.temps.max())
        assert all(b <= a for a, b in zip(maxima, maxima[1:]))

    def test_grid_convergence(self):
        d = DesignPoint(550.0, 110.0)
        coarse = thermal.simulate(d, NOMINAL_Z, grid=SimGridConfig(64, 26))
        fine = thermal.simulate(d, NOMINAL_Z, grid=SimGridConfig(128, 52))
        rel = abs(fine.temps.max() - coarse.temps.max()) / coarse.temps.max()
        assert rel < 0.02

    def test_peak_dominates_final_field(self):
        # the kernel keeps no final field: the per-run loop's, whose snapshot
        # the kernel's equals
        d, p, grid = DesignPoint(400.0, 150.0), ModelParams(), SimGridConfig()
        temps, peak, final, peak_field = solve_field_per_run(d, NOMINAL_Z, p, grid)
        snap = thermal.simulate(d, NOMINAL_Z, p, grid)
        assert np.array_equal(snap.temps, temps)
        assert np.array_equal(snap.peak_field, peak_field)
        assert np.all(peak >= final - 1e-12)
        assert peak.max() >= final.max()
        assert peak.max() >= temps.max() - 1e-9

    def test_snapshot_invariants(self):
        z = RandomInputs(T0=585.0, Y=800.0, E=105.0, rho=600.0)
        snap = thermal.simulate(DesignPoint(300.0, 120.0), z)
        assert snap.times[0] == 0.0
        assert snap.times[-1] == pytest.approx(ModelParams().l / 300.0)
        assert np.all(np.diff(snap.times) > 0)
        assert np.all(snap.temps >= min(z.T0, 650.0) - 1e-9)
        assert snap.peak_field.shape == thermal.STRESS_GRID_SHAPE
        assert np.all(snap.peak_field >= z.T0 - 1e-9)

    def test_probe_peak_in_middle_block(self):
        snap = thermal.simulate(DesignPoint(500.0, 160.0), NOMINAL_Z)
        assert 11 <= int(np.argmax(snap.temps)) <= 20

    def test_determinism(self):
        d = DesignPoint(640.0, 95.0)
        a = thermal.simulate(d, NOMINAL_Z)
        b = thermal.simulate(d, NOMINAL_Z)
        assert np.array_equal(a.temps, b.temps)
        assert np.array_equal(a.peak_field, b.peak_field)

    def test_one_step_snapshots_blend_first_and_last_probe(self):
        # at this speed the scan is shorter than one stable step, so every
        # snapshot lies on the line between the initial and final probe;
        # a wide beam and preheat above chamber make the two differ
        p = ModelParams(r=1.0)
        d = DesignPoint(1.0e5, 200.0)
        z = RandomInputs(T0=700.0, Y=825.0, E=110.0, rho=612.0)
        grid = SimGridConfig(4, 4, cfl_factor=1.0)
        assert thermal._plan(d, z, p, grid)[2] == 1
        snap = thermal.simulate(d, z, p, grid)
        _, _, final, _ = solve_field_per_run(d, z, p, grid)
        dx, dz = p.l / 4, p.h / 4
        xq, zq = np.array([p.l / 2]), np.array([p.h])
        cell = thermal._bilinear_cell(final.shape, dx / 2, dx, dz / 2, dz, xq, zq)
        probe = [
            thermal._bilinear(f, *cell)[0]
            for f in (np.full_like(final, z.T0), final)
        ]
        assert abs(probe[1] - probe[0]) > 1e-3
        s = snap.times / (p.l / d.v)
        assert snap.temps == pytest.approx((1 - s) * probe[0] + s * probe[1], rel=1e-12)

    def test_clamp_aborts_with_step_index(self):
        # concentrate the beam absurdly so the probe overshoots the clamp
        p = ModelParams(r=0.02, z0=0.01)
        with pytest.raises(SimulationError, match="step") as info:
            thermal.simulate(DesignPoint(100.0, 200.0), NOMINAL_Z, p)
        assert info.value.step > 0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="speed"):
            thermal.simulate(DesignPoint(0.0, 100.0), NOMINAL_Z)
        with pytest.raises(ValueError, match="power"):
            thermal.simulate(DesignPoint(500.0, -1.0), NOMINAL_Z)
        with pytest.raises(ValueError, match="rho"):
            thermal.simulate(DesignPoint(500.0, 100.0), RandomInputs(650, 825, 110, 0.0))

    @pytest.mark.parametrize("v", [5e-324, 1e-300, 1e-3])
    def test_tiny_speed_rejected_before_stepping(self, monkeypatch, v):
        # l / v overflows to inf at the first, at the second the step count
        # overflows int64, and the third would trace 1.1e8 steps, 0.9 GB
        monkeypatch.setattr(thermal, "_step_block", lambda *a: pytest.fail("stepped"))
        with pytest.raises(ValueError, match="scanning speed"):
            thermal.simulate(DesignPoint(v, 100.0), NOMINAL_Z)

    def test_step_limit_holds_at_the_top_ceiling_plan(self, monkeypatch):
        # a run whose own plan fits the limit but whose TOP_CEILING re-solve
        # would not is rejected before it steps
        d, p, grid = DesignPoint(100.0, 200.0), ModelParams(), SimGridConfig()
        low = thermal._plan(d, NOMINAL_Z, p, grid)[2]
        high = thermal._plan(d, NOMINAL_Z, p, grid, thermal.TOP_CEILING)[2]
        assert low < high <= thermal.MAX_STEPS
        monkeypatch.setattr(thermal, "_step_block", lambda *a: pytest.fail("stepped"))
        monkeypatch.setattr(thermal, "MAX_STEPS", high - 1)
        with pytest.raises(ValueError, match="MAX_STEPS"):
            thermal.simulate(d, NOMINAL_Z, p, grid)
        monkeypatch.setattr(thermal, "MAX_STEPS", high)
        assert thermal._plan(d, NOMINAL_Z, p, grid)[2] == low

    def test_low_preheat_runs_clean(self):
        # preheat below chamber temperature must not trip the cold clamp
        z = RandomInputs(T0=585.0, Y=742.5, E=100.0, rho=550.8)
        snap = thermal.simulate(DesignPoint(1000.0, 20.0), z)
        assert np.isfinite(snap.temps).all()


class TestLockstepBatch:
    """The lockstep kernel against the per-run step loop it replaced."""

    # coarse, so a run takes tens to hundreds of steps; a step below the default
    # keeps the deposit-chunk runs' speeds in the design box
    GRID = SimGridConfig(16, 8, cfl_factor=0.5)

    @staticmethod
    def mixed_runs():
        # speeds spread the step counts over about 14 to 69; run 3 is unpowered
        # and run 5 starts below chamber temperature
        rng = np.random.default_rng(4)
        runs = []
        for i in range(thermal.BLOCK_RUNS + 3):
            d = DesignPoint(float(rng.uniform(100.0, 1000.0)),
                            0.0 if i == 3 else float(rng.uniform(20.0, 200.0)))
            z = RandomInputs(585.0 if i == 5 else float(rng.uniform(585.0, 715.0)),
                             825.0, 110.0, float(rng.uniform(550.8, 673.2)))
            runs.append((d, z))
        return runs

    def test_mixed_batch_matches_per_run_loop(self):
        p, runs = ModelParams(), self.mixed_runs()
        plans = [thermal._plan(d, z, p, self.GRID) for d, z in runs]
        assert len({plan[2] for plan in plans}) > thermal.BLOCK_RUNS // 2
        expected = [solve_field_per_run(d, z, p, self.GRID) for d, z in runs]
        snaps = thermal.simulate_batch(*zip(*runs), p, self.GRID)
        kernel = thermal._solve_field(planned(runs, p, self.GRID), p, self.GRID)  # one block
        for (temps, _, _, peak_field), snap, raw in zip(expected, snaps, kernel):
            assert np.array_equal(snap.temps, temps)
            assert np.array_equal(snap.peak_field, peak_field)
            assert_same(raw, snap)

    def test_block_size_changes_no_result(self, monkeypatch):
        runs = self.mixed_runs()[:7]
        whole = thermal.simulate_batch(*zip(*runs), grid=self.GRID)
        monkeypatch.setattr(thermal, "BLOCK_RUNS", 2)
        split = thermal.simulate_batch(*zip(*runs), grid=self.GRID)
        for a, b in zip(whole, split, strict=True):
            assert np.array_equal(a.temps, b.temps)
            assert np.array_equal(a.peak_field, b.peak_field)

    def test_lowest_failing_run_raises_its_own_error(self):
        # runs 2 and 3 overshoot the clamp, run 3 at an earlier step
        z = NOMINAL_Z
        designs = [DesignPoint(100.0, 0.0), DesignPoint(550.0, 20.0),
                   DesignPoint(300.0, 3000.0), DesignPoint(1000.0, 20000.0)]
        with pytest.raises(SimulationError) as alone:
            thermal.simulate(designs[2], z, grid=self.GRID)
        with pytest.raises(SimulationError) as info:
            thermal.simulate_batch(designs, [z] * 4, grid=self.GRID)
        assert info.value.run == 2
        assert str(info.value) == str(alone.value)
        assert info.value.step == alone.value.step > 0


    def test_runs_ending_inside_a_deposit_chunk_match_per_run_loop(self):
        # one block whose runs take CHUNK_STEPS - 1, CHUNK_STEPS,
        # CHUNK_STEPS + 1 and 2 CHUNK_STEPS + 1 steps, so runs drop out
        # of the block inside a chunk of steps and at its ends
        p, grid, z = ModelParams(), self.GRID, NOMINAL_Z
        chunk = thermal.CHUNK_STEPS
        targets = [chunk - 1, chunk, chunk + 1, 2 * chunk + 1]

        def steps(v):
            return thermal._plan(DesignPoint(v, 150.0), z, p, grid)[2]

        speeds = []
        for n in targets:  # steps fall as the speed rises
            lo, hi = 1.0, 1e5
            while steps(v := 0.5 * (lo + hi)) != n:
                lo, hi = (v, hi) if steps(v) > n else (lo, v)
            speeds.append(v)
        runs = [(DesignPoint(v, P), z) for v, P in zip(speeds, (150.0, 120.0, 180.0, 90.0))]
        assert all(DESIGN_BOUNDS["v"][0] <= v <= DESIGN_BOUNDS["v"][1] for v in speeds)
        block = planned(runs, p, grid)
        assert [plan[2] for _, _, plan in block] == targets
        # the kernel alone: a snapshot, not an error, means no 3 Tliq re-solve
        for run, raw in zip(runs, thermal._step_block(block, p, grid)):
            assert isinstance(raw, thermal.TemperatureSnapshot)
            temps, _, _, peak_field = solve_field_per_run(*run, p, grid)
            assert np.array_equal(raw.temps, temps)
            assert np.array_equal(raw.peak_field, peak_field)

    def test_deposit_chunk_changes_no_result(self, monkeypatch):
        # at the 3 Tliq plan, runs of 32, 35, 64, 65 and 97 steps end on and
        # inside the edges of 7-, 32- and 64-step chunks, and the powered slow
        # scan leaves the probe band inside a chunk of each while a run of its
        # 282 steps goes on; 1-step chunks are the reference
        p, grid, z = ModelParams(), self.GRID, NOMINAL_Z
        dt = thermal._stable_step(thermal.bulk_density(z.rho), min(z.T0, p.Tc) - 50.0,
                                  3.0 * p.Tliq, p, grid)  # no speed enters it
        targets = [32, 35, 64, 65, 97]
        runs = [(DesignPoint(p.l / (dt * (n - 0.5)), P), z)
                for n, P in zip(targets, (150.0, 120.0, 180.0, 90.0, 60.0))]
        runs += [(DesignPoint(100.0, 2000.0), z), (DesignPoint(100.0, 200.0), z)]
        block = planned(runs, p, grid, 3.0)
        assert [plan[2] for _, _, plan in block[:5]] == targets
        results = {}
        for chunk in (1, 7, 32, 64):
            monkeypatch.setattr(thermal, "CHUNK_STEPS", chunk)
            results[chunk] = thermal._step_block(block, p, grid)
        error = results[1][5]
        assert isinstance(error, SimulationError)
        assert all(error.step % chunk not in (0, 1) for chunk in (7, 32, 64))
        assert block[6][2][2] > error.step
        for chunk in (7, 32, 64):
            for a, b in zip(results[1], results[chunk], strict=True):
                assert type(a) is type(b)
                if isinstance(a, SimulationError):
                    assert (str(b), b.step) == (str(a), a.step)
                else:
                    assert_same(a, b)

    @staticmethod
    def probe_failure(run, p, grid):
        """The per-run loop's probe failure at the 3 Tliq plan, as (message
        in the kernel's words, step)."""
        with pytest.raises(SimulationError) as info:
            solve_field_per_run(*run, p, grid, 3.0)
        probe = float(re.fullmatch(r"probe (\S+) outside the clamp", str(info.value))[1])
        lo, hi = min(run[1].T0, p.Tc) - 50.0, 3.0 * p.Tliq
        return (f"probe temperature {probe:.1f} degC outside [{lo:.1f}, {hi:.1f}] "
                f"at step {info.value.step}", info.value.step)

    def test_run_leaving_the_band_mid_chunk_is_checked_after_its_steps(self):
        # at the 3 Tliq plan the powered slow scan leaves the probe band at step
        # 131, inside its third chunk; the others end at steps 52 and 71,
        # before it, and 282, after it, and none fails
        p, grid, z = ModelParams(), self.GRID, NOMINAL_Z
        failing = (DesignPoint(100.0, 2000.0), z)
        runs = [(DesignPoint(550.0, 200.0), z), failing, (DesignPoint(100.0, 200.0), z),
                (DesignPoint(400.0, 150.0), z)]
        with pytest.raises(SimulationError) as alone:
            thermal.simulate(*failing, p, grid)
        assert alone.value.step % thermal.CHUNK_STEPS not in (0, 1)
        block = planned(runs, p, grid, 3.0)
        assert sorted(plan[2] for _, _, plan in block)[-2] > alone.value.step
        raw = thermal._step_block(block, p, grid)
        assert isinstance(raw[1], SimulationError)
        assert (str(raw[1]), raw[1].step) == (str(alone.value), alone.value.step)
        assert (str(raw[1]), raw[1].step) == self.probe_failure(failing, p, grid)
        for run, snap in zip(runs[:1] + runs[2:], raw[:1] + raw[2:]):
            temps, _, _, peak_field = solve_field_per_run(*run, p, grid, 3.0)
            assert np.array_equal(snap.temps, temps)
            assert np.array_equal(snap.peak_field, peak_field)

    def test_block_of_failed_runs_stops_within_a_chunk_of_the_last_failure(
        self, monkeypatch
    ):
        # every run leaves the probe band at the 3 Tliq plan, the last at step
        # 111 of the longest run's 282; stepping on would take 5 chunks
        p, grid, z = ModelParams(), self.GRID, NOMINAL_Z
        runs = [(DesignPoint(v, P), z) for v, P in ((100.0, 5000.0), (120.0, 3000.0),
                                                    (300.0, 3000.0))]
        errors = []
        for run in runs:
            with pytest.raises(SimulationError) as alone:
                thermal.simulate(*run, p, grid)
            errors.append(alone.value)
        block = planned(runs, p, grid, 3.0)
        chunks = -(-max(e.step for e in errors) // thermal.CHUNK_STEPS)
        assert chunks < -(-block[0][2][2] // thermal.CHUNK_STEPS)
        kernel, calls = thermal._step_kernel(), []
        monkeypatch.setattr(thermal, "_step_kernel",
                            lambda: lambda *a: calls.append(1) or kernel(*a))
        raw = thermal._step_block(block, p, grid)
        assert len(calls) == chunks
        for run, r, alone in zip(runs, raw, errors, strict=True):
            assert (str(r), r.step) == (str(alone), alone.step)
            assert (str(r), r.step) == self.probe_failure(run, p, grid)

    @pytest.mark.parametrize("count", [0, 17, 50])
    def test_blocks_are_balanced(self, monkeypatch, count):
        # as many blocks as runs of BLOCK_RUNS take, so a thread pool gets as
        # many, with sizes that differ by at most one
        rng, grid = np.random.default_rng(22), SimGridConfig(16, 8)
        bounds = {**thermal.DESIGN_BOUNDS, **thermal.RANDOM_INPUT_BOUNDS}
        draws = [{k: float(rng.uniform(*b)) for k, b in bounds.items()}
                 for _ in range(count)]
        designs = [DesignPoint(x["v"], x["P"]) for x in draws]
        inputs = [RandomInputs(x["T0"], x["Y"], x["E"], x["rho"]) for x in draws]
        solve, calls = thermal._solve_field, []
        monkeypatch.setattr(thermal, "_solve_field",
                            lambda runs, **kw: calls.append(len(runs)) or solve(runs, **kw))
        snaps = thermal.simulate_batch(designs, inputs, grid=grid)
        assert len(snaps) == sum(calls) == count
        assert len(calls) == math.ceil(count / thermal.BLOCK_RUNS)
        assert max(calls, default=0) - min(calls, default=0) <= 1


class TestFlatBlock:
    """Block layouts the flat kernel could get wrong, each run against the
    per-run step loop."""

    @pytest.mark.parametrize("grid, p", [
        (SimGridConfig(16, 8), ModelParams()),
        (SimGridConfig(5, 9), ModelParams()),  # non-square, both orientations
        (SimGridConfig(9, 5), ModelParams()),
        (SimGridConfig(16, 8), ModelParams(z0=0.65)),  # the beam reaches every row
    ])
    @pytest.mark.parametrize("v_hot, v_cold", [(250.0, 300.0), (300.0, 250.0)])
    def test_hot_and_cold_runs_share_a_block(self, grid, p, v_hot, v_cold):
        # the slower run steps first in the block, so both sit on each side
        # of the run boundary; heat leaking across it breaks bit equality
        hot = (DesignPoint(v_hot, 200.0), RandomInputs(715.0, 825.0, 110.0, 612.0))
        cold = (DesignPoint(v_cold, 0.0), RandomInputs(585.0, 825.0, 110.0, 612.0))
        block = planned([hot, cold], p, grid)
        for run, raw in zip((hot, cold), thermal._solve_field(block, p, grid)):
            temps, _, _, peak_field = solve_field_per_run(*run, p, grid)
            assert np.array_equal(raw.temps, temps)
            assert np.array_equal(raw.peak_field, peak_field)

    def test_integer_inputs_match_float_inputs(self):
        grid = SimGridConfig(16, 8)
        a = thermal.simulate(DesignPoint(100, 200), RandomInputs(650, 825, 110, 612),
                             grid=grid)
        b = thermal.simulate(DesignPoint(100.0, 200.0), NOMINAL_Z, grid=grid)
        assert_same(a, b)

    def test_blocks_above_a_known_failure_are_solved(self, monkeypatch):
        # by step count the blocks of two are runs [1, 2], [3, 0] and [4, 5];
        # run 1 fails in the first, and the blocks above it are solved all the
        # same, which cannot change the error raised
        grid, z = SimGridConfig(16, 8), NOMINAL_Z
        monkeypatch.setattr(thermal, "BLOCK_RUNS", 2)
        solve, calls = thermal._solve_field, []
        monkeypatch.setattr(thermal, "_solve_field",
                            lambda runs, **kw: calls.append(len(runs)) or solve(runs, **kw))
        with pytest.raises(SimulationError) as alone:
            thermal.simulate(ONE_FAILURE[1], z, grid=grid)
        calls.clear()
        with pytest.raises(SimulationError) as info:
            thermal.simulate_batch(ONE_FAILURE, [z] * 6, grid=grid)
        assert calls == [2, 2, 2]
        assert (str(info.value), info.value.step, info.value.run) == (
            str(alone.value), alone.value.step, 1)


class TestWorkers:
    """A thread pool solves the same blocks: same snapshots, same error."""

    def test_failing_batch_raises_the_same_error_under_a_pool(self, monkeypatch):
        grid, z = SimGridConfig(16, 8), NOMINAL_Z
        monkeypatch.setattr(thermal, "BLOCK_RUNS", 2)  # three blocks, run 1 in the first
        with pytest.raises(SimulationError) as alone:
            thermal.simulate(ONE_FAILURE[1], z, grid=grid)
        raised = []
        for workers in (1, 2):
            with pytest.raises(SimulationError) as info:
                thermal.simulate_batch(ONE_FAILURE, [z] * 6, grid=grid, workers=workers)
            raised.append((str(info.value), info.value.step, info.value.run))
        assert raised == [(str(alone.value), alone.value.step, 1)] * 2

    def test_mixed_batch_is_the_same_under_a_pool(self):
        runs = TestLockstepBatch.mixed_runs()  # two blocks of BLOCK_RUNS or fewer
        serial, pooled = (thermal.simulate_batch(*zip(*runs), grid=TestLockstepBatch.GRID,
                                                 workers=workers) for workers in (1, 2))
        for a, b in zip(serial, pooled, strict=True):
            assert np.array_equal(a.temps, b.temps)
            assert np.array_equal(a.peak_field, b.peak_field)

    def test_pool_has_no_more_threads_than_blocks(self, monkeypatch):
        # a thread pool starts a thread per submitted block at most, so 64
        # workers on three blocks start three threads or fewer; one worker
        # solves every block in the calling thread
        import concurrent.futures

        sizes, started, solvers = [], [], set()

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    started.append(len(self._threads))

        solve = thermal._solve_field
        monkeypatch.setattr(thermal, "_solve_field", lambda runs, **kw: solvers.add(
            threading.get_ident()) or solve(runs, **kw))
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(thermal, "BLOCK_RUNS", 1)
        grid, designs = SimGridConfig(16, 8), ONE_FAILURE[2:5]
        serial = thermal.simulate_batch(designs, [NOMINAL_Z] * 3, grid=grid)
        assert solvers == {threading.get_ident()} and sizes == []
        solvers.clear()
        pooled = thermal.simulate_batch(designs, [NOMINAL_Z] * 3, grid=grid, workers=64)
        assert sizes == [64] and 1 <= started[0] <= 3
        assert threading.get_ident() not in solvers and len(solvers) <= started[0]
        for a, b in zip(serial, pooled, strict=True):
            assert_same(a, b)

    def test_other_errors_in_a_block_reach_the_caller(self, monkeypatch):
        # an exception that is not a SimulationError, raised in one block's job
        # on a pool thread, is raised by simulate_batch itself
        class Boom(Exception):
            pass

        solve = thermal._solve_field

        def fail_run_3(runs, **kw):
            if runs[0][0] == ONE_FAILURE[3]:
                raise Boom("block of run 3")
            return solve(runs, **kw)
        monkeypatch.setattr(thermal, "_solve_field", fail_run_3)
        monkeypatch.setattr(thermal, "BLOCK_RUNS", 1)
        designs = ONE_FAILURE[2:5]
        with pytest.raises(Boom, match="block of run 3"):
            thermal.simulate_batch(designs, [NOMINAL_Z] * 3, grid=SimGridConfig(16, 8),
                                   workers=2)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            thermal.simulate_batch([DesignPoint(550.0, 110.0)], [NOMINAL_Z], workers=workers)


class TestStepCeiling:
    """The step is planned for 1.5 Tliq; a run that goes over that, or fails,
    ends with its solve at the 3 Tliq plan."""

    GRID = SimGridConfig(16, 8)
    # the hottest corner of the design box: slowest, most powerful scan,
    # hottest preheat, lowest density
    CORNER = (DesignPoint(100.0, 200.0), RandomInputs(715.0, 825.0, 110.0, 550.8))

    def test_ceiling_step_is_the_kappa_ratio_larger(self):
        # cp / (kappa + kappa_max) is smallest at the lower clamp either way,
        # and kappa_max sits at the top of the band, so the step scales with
        # (kappa(lo) + kappa(3 Tliq)) / (kappa(lo) + kappa(1.5 Tliq))
        p, (d, z) = ModelParams(), self.CORNER
        ceiling, full = (thermal._plan(d, z, p, SimGridConfig(), c) for c in (1.5, 3.0))
        _, (kap_cold, kap_lo, kap_hi) = material_props(
            [ceiling[3], 1.5 * p.Tliq, 3.0 * p.Tliq], p)
        ratio = (kap_cold + kap_hi) / (kap_cold + kap_lo)
        assert (ceiling[4], full[4]) == (1.5 * p.Tliq, 3.0 * p.Tliq)
        assert ceiling[2] == pytest.approx(full[2] / ratio, abs=1.0)
        assert ratio == pytest.approx(1.9241, abs=1e-4)

    def test_run_over_the_ceiling_takes_its_3_tliq_solve(self):
        # a narrow beam takes the peak field to about 3500 degC, over the
        # 2475 degC ceiling, while the probe stays under the 4950 degC clamp
        p, grid, hot = ModelParams(r=0.1), self.GRID, self.CORNER
        [under] = thermal._step_block(planned([hot], p, grid), p, grid)
        assert isinstance(under, SimulationError)
        assert re.fullmatch(r"peak field \d+\.\d degC over the plan's top 2475\.0 degC "
                            r"by step \d+", str(under))
        assert under.step == thermal._plan(*hot, p, grid)[2]  # its probe stayed in band
        [full] = thermal._solve_field(planned([hot], p, grid, 3.0), p, grid)
        assert full.temps.max() < 3.0 * p.Tliq
        cool = [(DesignPoint(v, P), hot[1]) for v, P in ((550.0, 60.0), (200.0, 50.0))]
        runs = [cool[0], hot, cool[1]]  # one block
        [alone], block = (thermal._solve_field(planned(r, p, grid), p, grid)
                          for r in ([hot], runs))
        for got in (alone, block[1]):
            assert_same(got, full)
        for run, got in zip(cool, (block[0], block[2])):
            [own] = thermal._step_block(planned([run], p, grid), p, grid)
            assert isinstance(own, thermal.TemperatureSnapshot)  # under its 1.5 Tliq top
            assert_same(got, own)
        snap = thermal.simulate_batch(*zip(*runs), p, grid)[1]
        temps, _, _, peak_field = solve_field_per_run(*hot, p, grid)
        assert np.array_equal(snap.temps, full.temps) and np.array_equal(snap.temps, temps)
        assert np.array_equal(snap.peak_field, peak_field)

    def test_peak_over_the_3_tliq_top_fails(self, monkeypatch):
        # a narrower beam still: on the default grid the probe peaks near
        # 4221 degC, under the 4950 degC top of its band, but the peak field
        # reaches 5211 degC in 2 of the 1664 cells
        p, grid = ModelParams(r=0.07), SimGridConfig()
        full = thermal._plan(*self.CORNER, p, grid, 3.0)
        step, tops = thermal._step_block, []
        monkeypatch.setattr(thermal, "_step_block",
                            lambda runs, *a: tops.append(runs[0][2][4]) or step(runs, *a))
        with pytest.raises(SimulationError,
                           match=r"peak field 521\d\.\d degC over the plan's top 4950\.0"):
            thermal.simulate(*self.CORNER, p, grid)
        assert tops == [1.5 * p.Tliq, 3.0 * p.Tliq]
        # at its 3 Tliq plan the run fails at the end, not at a step where
        # the probe left its band, and is not stepped again
        [alone] = thermal._solve_field(planned([self.CORNER], p, grid, 3.0), p, grid)
        assert alone.step == full[2]
        assert tops == [1.5 * p.Tliq, 3.0 * p.Tliq, 3.0 * p.Tliq]

    def test_failed_run_reports_its_3_tliq_error(self):
        p, grid = ModelParams(), self.GRID
        run = (DesignPoint(300.0, 3000.0), NOMINAL_Z)
        [under] = thermal._step_block(planned([run], p, grid), p, grid)
        [full] = thermal._solve_field(planned([run], p, grid, 3.0), p, grid)
        with pytest.raises(SimulationError) as info:
            thermal.simulate(*run, p, grid)
        assert under.step != full.step == info.value.step
        assert str(info.value) == str(full)

    def test_hottest_box_corner_stays_under_the_ceiling(self, monkeypatch):
        # on the default grid it peaks near 2360 degC, so no run in the
        # design box is stepped twice
        step, calls = thermal._step_block, []
        monkeypatch.setattr(thermal, "_step_block",
                            lambda runs, *a: calls.append(len(runs)) or step(runs, *a))
        p, grid = ModelParams(), SimGridConfig()
        [raw] = thermal._solve_field(planned([self.CORNER], p, grid), p, grid)
        assert raw.peak_field.max() < 1.5 * p.Tliq
        assert calls == [1]


class TestStabilityBound:
    """The step is cfl_factor of the largest step that keeps the explicit
    scheme's maximum principle: rho cp(T) / ((kappa(T) + kappa_max)
    (1/dx^2 + 1/dz^2)) at the worst cell temperature T of the band."""

    DESIGNS = [DesignPoint(100.0, 200.0), DesignPoint(232.78, 200.0),
               DesignPoint(550.0, 110.0), DesignPoint(1000.0, 20.0)]
    # the nominal draw and the hottest and coldest corners of the input box
    DRAWS = [NOMINAL_Z, RandomInputs(715.0, 825.0, 110.0, 550.8),
             RandomInputs(585.0, 825.0, 110.0, 673.2)]

    # a convex cp with its vertex at 1500 degC: cp / (kappa + kappa_max) is
    # smallest inside the band, at a root of its derivative's numerator
    DIP = ModelParams(a0=525.0, a1=-0.3, a2=1e-4)

    @staticmethod
    def bound(z, p, dx, dz, ceiling=1.5):
        # scanned over the band from the lower clamp to ceiling * Tliq, ends
        # included; kappa_max is the band's largest conductivity
        band = np.linspace(min(z.T0, p.Tc) - 50.0, ceiling * p.Tliq, 40_001)
        cp, kap = material_props(band, p)
        rho = thermal.bulk_density(z.rho)
        return rho * np.min(cp / (kap + kap.max())) / (1e-3 * (1.0 / dx**2 + 1.0 / dz**2))

    @pytest.mark.parametrize("grid, ratio", [
        (SimGridConfig(), 1.2195),  # 0.03125 x 0.025 mm cells
        (SimGridConfig(40, 13, 0.6), 1.0),  # square 0.05 mm cells
    ])
    def test_step_is_the_factor_of_the_exact_bound(self, grid, ratio):
        p, d, z = ModelParams(), self.DESIGNS[1], NOMINAL_Z
        dx, dz = p.l / grid.cells_x, p.h / grid.cells_z
        dt_stable = grid.cfl_factor * self.bound(z, p, dx, dz)
        _, dt, n_steps, _, _ = thermal._plan(d, z, p, grid)
        scan = p.l / d.v
        assert n_steps == int(np.ceil(scan / dt_stable)) > 100
        assert dt == scan / n_steps <= dt_stable
        # against the h^2 / 4 form with h = min(dx, dz), at the same factor
        h = min(dx, dz)
        old = grid.cfl_factor * self.bound(z, p, h, h)
        assert dt_stable / old == pytest.approx(ratio, abs=1e-4)

    def test_runs_at_the_bound_itself_finish(self):
        # cfl_factor 1.0 on every probe design and draw: no SimulationError,
        # and the probe stays within a few degrees of the default factor's
        grid = SimGridConfig(cfl_factor=1.0)
        runs = [(d, z) for d in self.DESIGNS for z in self.DRAWS]
        edge = thermal.simulate_batch(*zip(*runs), grid=grid)
        default = thermal.simulate_batch(*zip(*runs))
        for a, b in zip(edge, default, strict=True):
            assert np.all(np.isfinite(a.temps)) and np.all(np.isfinite(a.peak_field))
            assert np.max(np.abs(a.temps - b.temps)) < 5.0

    @pytest.mark.parametrize("p", [ModelParams(), DIP])
    @pytest.mark.parametrize("ceiling", [1.5, 3.0])
    def test_no_cell_puts_a_negative_weight_on_itself(self, p, ceiling):
        # at cfl_factor 1.0, cell i at T_i with all four neighbours at T_j
        # keeps 1 - dt sum_j c_ij / (rho cp_i) of its own temperature, with
        # c_ij = (kappa_i + kappa_j) / (2 h^2) per face; at the worst pair
        # that weight is 0 up to rounding, so the bound is tight
        for grid in (SimGridConfig(cfl_factor=1.0), SimGridConfig(40, 13, 1.0)):
            dx, dz = p.l / grid.cells_x, p.h / grid.cells_z
            for z in self.DRAWS:
                rho, _, _, lo, top = thermal._plan(self.DESIGNS[1], z, p, grid, ceiling)
                dt = thermal._stable_step(rho, lo, top, p, grid)
                cp, kap = material_props(np.linspace(lo, top, 20_001), p)  # cell
                _, kap_j = material_props(np.linspace(lo, top, 101), p)  # neighbours
                pair = (kap[:, None] + kap_j[None, :]) * 1e-3
                faces = 2.0 * pair / (2.0 * dx**2) + 2.0 * pair / (2.0 * dz**2)
                weight = 1.0 - dt * faces / (rho * cp[:, None])
                assert -1e-12 <= weight.min() <= 1e-9

    @pytest.mark.parametrize("p, interior", [
        (ModelParams(), False),
        (DIP, True),
        (ModelParams(a0=10.0, a1=0.0, a2=0.0, b0=3.0, b1=0.0, b2=0.0), False),
    ])
    @pytest.mark.parametrize("ceiling", [1.5, 3.0])
    def test_closed_form_minimum_matches_a_dense_scan(self, p, interior, ceiling):
        grid = SimGridConfig(cfl_factor=1.0)
        dx, dz = p.l / grid.cells_x, p.h / grid.cells_z
        for z in self.DRAWS:
            rho, _, _, lo, top = thermal._plan(self.DESIGNS[1], z, p, grid, ceiling)
            closed = thermal._stable_step(rho, lo, top, p, grid)
            scan = self.bound(z, p, dx, dz, ceiling)
            assert closed <= scan * (1 + 1e-12)
            assert closed == pytest.approx(scan, rel=1e-7)
            cp, kap = material_props(np.linspace(lo, top, 40_001), p)
            ratio = cp / (kap + kap.max())
            assert (0 < ratio.argmin() < ratio.size - 1) == interior
            # both sides of the extremum routine: the ratio, and cp and kappa
            # over the constant denominator 1
            cp_q, kap_q = (p.a0, p.a1, p.a2), (p.b0, p.b1, p.b2)
            _, kap_max = thermal._ratio_extrema(kap_q, (1.0, 0.0, 0.0), lo, top)
            for num, den, values in ((cp_q, (p.b0 + kap_max, p.b1, p.b2), cp / (kap + kap_max)),
                                     (cp_q, (1.0, 0.0, 0.0), cp),
                                     (kap_q, (1.0, 0.0, 0.0), kap)):
                low, high = thermal._ratio_extrema(num, den, lo, top)
                assert low <= values.min() * (1 + 1e-12)
                assert high >= values.max() * (1 - 1e-12)
                assert (low, high) == pytest.approx((values.min(), values.max()), rel=1e-7)

    @pytest.mark.parametrize("ceiling", [1.5, 3.0])
    def test_radiation_does_not_bound_the_step(self, ceiling):
        # the top row's radiation term, linearised at the plan's ceiling,
        # against the conduction sum 2 kappa (1/dx^2 + 1/dz^2)
        p, grid = ModelParams(), SimGridConfig()
        dx, dz = p.l / grid.cells_x, p.h / grid.cells_z
        t_top = thermal._plan(self.DESIGNS[0], self.DRAWS[1], p, grid, ceiling)[4]
        _, kap_max = material_props(t_top, p)
        conduction = 2.0 * kap_max * 1e-3 * (1.0 / dx**2 + 1.0 / dz**2)
        t_k = t_top + thermal.KELVIN_OFFSET
        radiation = 4.0 * p.eps_s * thermal.STEFAN_BOLTZMANN_MM * t_k**3 / dz
        assert radiation < 0.01 * conduction


class TestFieldDtype:
    """The kernel steps its fields in thermal.FIELD_DTYPE (float32); what it
    returns is float64 and within a fixed bound of stepping in float64."""

    # criterion 7's designs at the nominal draw, then d* at the four corners
    # of the random-input box in (T0, rho), the only inputs the thermal model
    # reads
    RUNS = [(DesignPoint(v, P), NOMINAL_Z) for v, P in (
        (500.0, 0.0), (550.0, 20.0), (550.0, 110.0), (550.0, 200.0),
        (100.0, 110.0), (1000.0, 110.0))] + [
        (DesignPoint(233.966, 200.0), RandomInputs(T0, 825.0, 110.0, rho))
        for T0 in thermal.RANDOM_INPUT_BOUNDS["T0"]
        for rho in thermal.RANDOM_INPUT_BOUNDS["rho"]]
    # the largest differences from float64 seen on the default grid, with the
    # step's constants folded in, are 1.80e-3 degC on the probe and 3.80e-3
    # degC on the peak field, over the 50 validation draws at the baseline d*;
    # the runs above reach 5.9e-4 and 1.2e-3.  The bounds leave about 2.6x on
    # the larger pair, and stay three orders under the explicit step's own
    # 4.8 degC time error at d*
    PROBE_BOUND, PEAK_BOUND = 5e-3, 1e-2

    def test_float32_fields_stay_within_the_bound_of_float64(self):
        p, grid = ModelParams(), SimGridConfig()
        assert thermal.FIELD_DTYPE == np.float32
        snaps = thermal.simulate_batch(*zip(*self.RUNS), p, grid)
        for run, snap in zip(self.RUNS, snaps, strict=True):
            temps, _, _, peak_field = solve_field_per_run(*run, p, grid, dtype=np.float64)
            assert np.abs(snap.temps - temps).max() < self.PROBE_BOUND
            assert np.abs(snap.peak_field - peak_field).max() < self.PEAK_BOUND

    def test_validation_draws_stay_within_the_bound_of_float64(self):
        # the 50 seed-3 validation draws at the baseline d* (on P = 200 W, so
        # its speed is P l / E), which set the largest differences above.  The
        # float64 side is the numpy lockstep step in float64, which takes
        # tenths of a second where the per-run loop takes seconds; it equals
        # the per-run loop in float64 bit for bit on the first and last draw
        p, grid = ModelParams(), SimGridConfig()
        runs = validation_runs()
        assert len(runs) == 50 and thermal.FIELD_DTYPE == np.float32
        snaps = thermal.simulate_batch(*zip(*runs), p, grid)
        wide = lockstep_batch(*zip(*runs), p, grid, np.float64)
        for k in (0, -1):
            temps, _, _, peak_field = solve_field_per_run(*runs[k], p, grid, dtype=np.float64)
            assert np.array_equal(wide[k].temps, temps)
            assert np.array_equal(wide[k].peak_field, peak_field)
        for snap, ref in zip(snaps, wide, strict=True):
            assert np.abs(snap.temps - ref.temps).max() < self.PROBE_BOUND
            assert np.abs(snap.peak_field - ref.peak_field).max() < self.PEAK_BOUND

    def test_results_are_float64(self):
        snap = thermal.simulate(DesignPoint(550.0, 110.0), NOMINAL_Z,
                                grid=SimGridConfig(16, 8))
        for field in ("times", "temps", "peak_field"):
            assert getattr(snap, field).dtype == np.float64
        # the probe and the resampled peak blend float32 cells in float64
        assert not np.array_equal(snap.temps.astype(np.float32), snap.temps)
        assert not np.array_equal(snap.peak_field.astype(np.float32), snap.peak_field)

    def test_blocks_of_16_and_5_give_the_same_20_runs(self, monkeypatch):
        rng, grid = np.random.default_rng(21), SimGridConfig(16, 8)
        bounds = {**thermal.DESIGN_BOUNDS, **thermal.RANDOM_INPUT_BOUNDS}
        draws = [{k: float(rng.uniform(*b)) for k, b in bounds.items()} for _ in range(20)]
        designs = [DesignPoint(x["v"], x["P"]) for x in draws]
        inputs = [RandomInputs(x["T0"], x["Y"], x["E"], x["rho"]) for x in draws]
        monkeypatch.setattr(thermal, "BLOCK_RUNS", 16)
        whole = thermal.simulate_batch(designs, inputs, grid=grid)
        monkeypatch.setattr(thermal, "BLOCK_RUNS", 5)
        split = thermal.simulate_batch(designs, inputs, grid=grid)
        for a, b in zip(whole, split, strict=True):
            assert_same(a, b)


class TestAlignedFields:
    """Where the fields the C step reads and writes start in memory changes no
    result."""

    def test_misaligned_fields_change_no_result(self, monkeypatch):
        # the hottest box corner takes its 3 Tliq solve (TestStepCeiling); the
        # others are cooler, one unpowered from the coldest preheat, and their
        # step counts differ
        p, grid, hot = ModelParams(r=0.1), SimGridConfig(16, 8), TestStepCeiling.CORNER
        cold = RandomInputs(585.0, 825.0, 110.0, 673.2)
        designs = [hot[0], DesignPoint(550.0, 60.0), DesignPoint(300.0, 0.0),
                   DesignPoint(200.0, 50.0), DesignPoint(1000.0, 200.0)]
        inputs = [hot[1], hot[1], cold, cold, hot[1]]
        assert len({thermal._plan(d, z, p, grid)[2] for d, z in zip(designs, inputs)}) == 5
        aligned = thermal.simulate_batch(designs, inputs, p, grid)
        kernel, step = thermal._step_kernel(), thermal._step_block
        offsets, blocks = set(), []

        def off_line(a):  # a copy of a whose first element is one element past a cache line
            if not (isinstance(a, np.ndarray) and a.dtype in (thermal.FIELD_DTYPE, np.float64)):
                return a
            raw = np.empty(a.nbytes + 128, np.uint8)
            at = -raw.ctypes.data % 64 + a.itemsize
            b = raw[at : at + a.nbytes].view(a.dtype).reshape(a.shape)
            b[...] = a
            offsets.add(b.ctypes.data % 64)
            return b

        def shifted_kernel(*args):  # the C step on off-line copies, copied back
            moved = [off_line(a) for a in args]
            kernel(*moved)
            for a, b in zip(args, moved):
                if b is not a:
                    a[...] = b
        monkeypatch.setattr(thermal, "_step_kernel", lambda: shifted_kernel)
        monkeypatch.setattr(thermal, "_step_block",
                            lambda runs, *a: blocks.append(len(runs)) or step(runs, *a))
        shifted = thermal.simulate_batch(designs, inputs, p, grid)
        assert thermal.FIELD_DTYPE == np.float32 and offsets == {4, 8}
        assert blocks == [5, 1]  # the hot run's 3 Tliq solve
        for a, b in zip(aligned, shifted, strict=True):
            assert_same(a, b)


class TestCompiledStep:
    """The C step against the numpy lockstep step it replaced (oracles), bit
    for bit, and how it is built, cached and loaded."""

    @pytest.fixture(scope="class", params=["training DOE", "validation draws"])
    def batch(self, request):
        # the 120-run nominal training DOE, whose probe moved when radiation
        # went from ** 4 to squares, and the 50 validation draws at d*; with the
        # numpy step's snapshots, all in one block
        p, grid, cfg = ModelParams(), SimGridConfig(), pipeline.PipelineConfig()
        if request.param == "training DOE":
            doe = pipeline.generate_doe(cfg.M, cfg.input_bounds, cfg.seed_doe)
            runs = [(DesignPoint(*map(float, r[:2])), RandomInputs(*map(float, r[2:])))
                    for r in doe]
        else:
            runs = validation_runs()
        return runs, lockstep_batch(*zip(*runs), p, grid)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batches_match_the_numpy_step(self, batch, workers):
        runs, expected = batch
        assert len(runs) in (120, 50)
        snaps = thermal.simulate_batch(*zip(*runs), ModelParams(), SimGridConfig(),
                                       workers=workers)
        for a, b in zip(snaps, expected, strict=True):
            assert_same(a, b)

    def test_block_with_a_failing_run_matches_the_numpy_step(self):
        # at the 3 Tliq plan the powered slow scan leaves the probe band at step
        # 131 while the block's other runs go on (TestLockstepBatch)
        p, grid, z = ModelParams(), TestLockstepBatch.GRID, NOMINAL_Z
        runs = [(DesignPoint(550.0, 200.0), z), (DesignPoint(100.0, 2000.0), z),
                (DesignPoint(100.0, 200.0), z), (DesignPoint(400.0, 150.0), z)]
        block = planned(runs, p, grid, 3.0)
        raw, expected = thermal._step_block(block, p, grid), lockstep_block(block, p, grid)
        assert [type(r) for r in raw] == [thermal.TemperatureSnapshot, SimulationError,
                                          thermal.TemperatureSnapshot,
                                          thermal.TemperatureSnapshot]
        for a, b in zip(raw, expected, strict=True):
            assert type(a) is type(b)
            if isinstance(a, SimulationError):
                assert (str(a), a.step) == (str(b), b.step)
            else:
                assert_same(a, b)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_batch_raises_the_numpy_steps_error(self, monkeypatch, workers):
        grid, z = SimGridConfig(16, 8), NOMINAL_Z
        monkeypatch.setattr(thermal, "BLOCK_RUNS", 2)  # three blocks, run 1 in the first
        with pytest.raises(SimulationError) as expected:
            lockstep_batch(ONE_FAILURE, [z] * 6, ModelParams(), grid)
        with pytest.raises(SimulationError) as info:
            thermal.simulate_batch(ONE_FAILURE, [z] * 6, grid=grid, workers=workers)
        assert (str(info.value), info.value.step, info.value.run) == (
            str(expected.value), expected.value.step, expected.value.run)
        assert info.value.run == 1

    @pytest.mark.parametrize("p", [ModelParams(), TestStabilityBound.DIP],
                             ids=["nominal", "dip"])
    @pytest.mark.parametrize("grid", [SimGridConfig(9, 5), SimGridConfig(16, 8),
                                      SimGridConfig(17, 6), SimGridConfig(31, 7),
                                      SimGridConfig(40, 13), SimGridConfig(65, 9)],
                             ids=lambda g: f"{g.cells_x}x{g.cells_z}")
    def test_grids_match_the_numpy_step(self, p, grid):
        # row lengths odd and even, on and off the vector widths, move the C
        # loops' remainders, the probe cell and the first deposit row
        designs, inputs, expected = TestCompiledStep.grid_case(p, grid)
        snaps = thermal.simulate_batch(designs, inputs, p, grid)
        for a, b in zip(snaps, expected, strict=True):
            assert_same(a, b)

    @staticmethod
    @functools.cache
    def grid_case(p, grid):
        """The four corners of the design box at the hottest and coldest
        preheats, with the numpy step's snapshots on (p, grid): computed once
        a session for this class and every build of TestClones."""
        designs = [DesignPoint(v, P) for v in thermal.DESIGN_BOUNDS["v"]
                   for P in thermal.DESIGN_BOUNDS["P"]] * 2
        inputs = [TestStepCeiling.CORNER[1]] * 4 + [RandomInputs(585.0, 825.0, 110.0, 673.2)] * 4
        return designs, inputs, lockstep_batch(designs, inputs, p, grid)

    @staticmethod
    def chunk_args(nx=4, nz=4, j0=2, runs=2, v=0.5, dt=1.0, step=2):
        """One valid call of the C step: a block of runs at 0 degC, so that no
        bit of a deposit is lost in the sum, with no radiation and rho cp / dt
        = 2, one step, on cells 0.125 mm wide, every beam of radius 0.2 mm at
        x = v (step - 1) dt."""
        f32 = np.float32
        return dict(nx=nx, nz=nz, j0=j0, runs=runs, n=runs, start=step, stop=step + 1,
                    n_steps=np.full(runs, step, np.int64), T=np.zeros(runs * nx * nz, f32),
                    peak=np.zeros(runs * nx * nz, f32),
                    kap=np.empty(runs * nx * nz, f32), rows=np.empty(3 * nx + 1, f32),
                    heat=np.repeat(np.array([[2.0], [0.0], [0.0]], f32), runs, 1),
                    v=np.full(runs, v), dt=np.full(runs, dt),
                    gz_amp=np.linspace(1e3, 9e3, runs * (nz - j0)).reshape(runs, nz - j0),
                    gx=np.empty(nx + 1), corners=np.arange(4, dtype=np.int64),
                    chunk=np.empty((1, 4, runs), f32),
                    consts=(1e-3, 0.0, 0.0, 1.0, 273.15, 0.0, 0.0, 0.125, 0.2))

    def test_arrays_of_another_dtype_or_layout_are_refused(self):
        step, args = thermal._step_kernel(), self.chunk_args()
        *head, consts = args.values()
        step(*head, *consts)
        assert args["T"][-1] > 0.0  # the top row's last cell takes the beam

        def strided(a):
            return np.repeat(a, 2, axis=-1)[..., ::2]
        for key, bad in (("T", args["T"].astype(np.float64)), ("T", strided(args["T"])),
                         ("n_steps", np.ones(2, np.int32)),
                         ("corners", args["corners"].astype(np.float32)),
                         *((key, args[key].astype(np.float32)) for key in
                           ("v", "dt", "gz_amp", "gx")),
                         *((key, strided(args[key])) for key in ("v", "dt", "gz_amp"))):
            assert bad.shape == args[key].shape
            *head, consts = {**args, key: bad}.values()
            before = args["T"].copy()
            with pytest.raises(ctypes.ArgumentError):
                step(*head, *consts)
            assert np.array_equal(args["T"], before)

    @pytest.mark.parametrize("v, dt, step", [
        (0.0, 1.0, 2), (1.0, 1.0, 2), (2.0, 1.0, 2), (np.nextafter(0.625, 1.0), 1.0, 2),
        (232.5, 2.0 / 232.5 / 481, 241),  # where v ((step - 1) dt) != (v (step - 1)) dt
    ], ids=["x=0", "x=l/2", "x=l", "an ulp off a cell edge", "mid-scan"])
    def test_one_step_deposit_matches_the_oracle(self, v, dt, step):
        # one run at uniform T, so no face carries flux, and no radiation: each
        # deposit row gains its deposit over rho cp / dt = 2, in the oracle's
        # cell averages (math.erf), on 16 cells of 0.125 mm, l = 2 mm; the step
        # leaves its beam's float64 cell averages in its gx row
        nx, nz, j0 = 16, 6, 3
        args = self.chunk_args(nx, nz, j0, runs=1, v=v, dt=dt, step=step)
        *head, consts = args.values()
        before = args["T"].reshape(nz, nx).copy()
        thermal._step_kernel()(*head, *consts)
        *_, dx, spot = consts
        gx = gauss_deposit(np.arange(nx + 1) * dx, v * ((step - 1) * dt), spot, dx)
        assert np.array_equal(args["gx"][:nx], gx)
        deposit = np.outer(gx, args["gz_amp"][0]).T.astype(np.float32)
        assert deposit.max() > 1e3
        after = args["T"].reshape(nz, nx)
        assert np.array_equal(after[j0:], before[j0:] + deposit / np.float32(2.0))
        assert np.array_equal(after[:j0], before[:j0])

    def test_missing_compiler_is_named_before_any_step(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path))  # no compiler on it
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(thermal, "_step_kernel",
                            functools.cache(thermal._step_kernel.__wrapped__))
        monkeypatch.setattr(thermal, "_step_block", lambda *a: pytest.fail("stepped"))
        with pytest.raises(OSError, match=r"no C compiler 'cc' on PATH"):
            thermal.simulate(DesignPoint(550.0, 110.0), NOMINAL_Z, grid=SimGridConfig(16, 8))
        assert not (tmp_path / "cache").exists()

    def test_compiler_error_is_raised_with_its_output(self, tmp_path):
        source, cache = tmp_path / "_step.c", tmp_path / "cache"
        source.write_text("void pbfopt_step_chunk(void) { not C }\n")
        with pytest.raises(OSError, match=r"(?s)failed on .*_step\.c:\n.*error"):
            thermal._build(source, cache)
        assert list(cache.iterdir()) == []  # no library, no temporary file

    def test_cache_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert thermal._cache_dir() == tmp_path / "pbfopt"
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        for unset in ("", "relative/cache"):  # a relative path is not a base directory
            monkeypatch.setenv("XDG_CACHE_HOME", unset)
            assert thermal._cache_dir() == tmp_path / "home" / ".cache" / "pbfopt"

    def test_changed_source_byte_builds_a_new_library(self, tmp_path):
        source, cache = tmp_path / "_step.c", tmp_path / "cache"
        text = Path(thermal.__file__).with_name("_step.c").read_bytes()
        source.write_bytes(text)
        first = thermal._build(source, cache)
        assert thermal._build(source, cache) == first
        at = text.index(b"The")
        source.write_bytes(text[:at] + b"t" + text[at + 1 :])  # one byte of a comment
        second = thermal._build(source, cache)
        assert second != first and {p.name for p in cache.iterdir()} == {first.name,
                                                                          second.name}
        assert cache.stat().st_mode & 0o777 == 0o700

    def test_fresh_interpreters_build_once(self, tmp_path):
        # importing builds nothing; the first batch, over a pool of two threads,
        # builds once, linking libm after the source; a second
        # interpreter finds the build and only asks the compiler for its version
        real = shutil.which("cc")
        assert real is not None
        bin_dir, log = tmp_path / "bin", tmp_path / "cc.log"
        bin_dir.mkdir()
        wrapper = bin_dir / "cc"
        wrapper.write_text(f'#!/bin/sh\necho "$@" >> "{log}"\nexec "{real}" "$@"\n')
        wrapper.chmod(0o755)
        src = Path(thermal.__file__).resolve().parents[1]
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
               "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               "PYTHONPATH": str(src)}
        batch = ("from pbfopt import thermal\n"
                 "thermal.BLOCK_RUNS = 2\n"
                 "d, z = thermal.DesignPoint(550.0, 100.0), "
                 "thermal.RandomInputs(650.0, 825.0, 110.0, 612.0)\n"
                 "thermal.simulate_batch([d] * 4, [z] * 4, "
                 "grid=thermal.SimGridConfig(16, 8), workers=2)\n")

        def run(code):
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
            return log.read_text().splitlines() if log.exists() else []
        assert run("import pbfopt.thermal") == []
        assert not (tmp_path / "cache").exists()
        first = run(batch)
        builds = [line for line in first if line != "--version"]
        assert len(builds) == 1 and " ".join(thermal._CFLAGS) in builds[0]
        words = builds[0].split()
        assert words.index("-lm") > words.index(str(src / "pbfopt" / "_step.c"))
        assert run(batch)[len(first):] == ["--version"]
        [lib] = (tmp_path / "cache" / "pbfopt").iterdir()
        assert lib.suffix == ".so"


class TestClones:
    """TestCompiledStep's grid and deposit cases, bit for bit against the
    oracles, on each clone of the step: a copy of _step.c with its clone list
    cut to one target and "default", built and loaded in place of
    _step_kernel, which the loader must dispatch to that target's clone; and
    on a copy without clones, the portable build of any other platform."""

    @pytest.fixture(autouse=True, scope="class", params=[*clones.TARGETS, None],
                    ids=lambda target: target or "no clones")
    def clone(self, request, tmp_path_factory):
        target = request.param
        if target and (reason := clones.unsupported(target)):
            pytest.skip(reason)
        folder = tmp_path_factory.mktemp("clone")
        step = clones.load(clones.cut_source(target, folder), folder)
        assert clones.dispatched(step) == (target and clones.suffix(target))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(thermal, "_step_kernel", lambda: step)
            yield

    chunk_args = staticmethod(TestCompiledStep.chunk_args)
    test_grids_match_the_numpy_step = TestCompiledStep.test_grids_match_the_numpy_step
    test_one_step_deposit_matches_the_oracle = (
        TestCompiledStep.test_one_step_deposit_matches_the_oracle)


class TestAllocationPeak:
    """The memory one batch allocates at its peak, as tracemalloc traces it
    (numpy reports its array buffers there)."""

    # 0.61 MiB on the seed-0 44-run training DOE at the default grid, with the
    # deposit in the C step (2.77 MiB with a numpy erf on 32-step chunks)
    BOUND_MIB = 4.0
    # 0.66 MiB on the 50 seed-3 validation draws at the baseline d*, in blocks
    # of 12 and 13 runs of equal step count (2.54 MiB with the numpy erf)
    VALIDATION_BOUND_MIB = 3.5

    @staticmethod
    def traced_peak_mib(designs, inputs):
        cfg = pipeline.PipelineConfig()
        tracemalloc.start()
        try:
            thermal.simulate_batch(designs, inputs, cfg.model, cfg.grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def test_training_doe_batch_stays_under_the_bound(self):
        cfg = pipeline.PipelineConfig()
        doe = pipeline.generate_doe(44, cfg.input_bounds, 0)
        designs = [DesignPoint(*map(float, r[:2])) for r in doe]
        inputs = [RandomInputs(*map(float, r[2:])) for r in doe]
        assert self.traced_peak_mib(designs, inputs) <= self.BOUND_MIB

    def test_validation_batch_stays_under_its_bound(self):
        runs = validation_runs()
        assert len(runs) == 50
        assert self.traced_peak_mib(*zip(*runs)) <= self.VALIDATION_BOUND_MIB


class TestFoldedConstants:
    """The constants the kernel folds into its step, which the per-run oracle
    shares bit for bit, against the physics they stand for, in float64."""

    @pytest.mark.parametrize("p", [ModelParams(), TestStabilityBound.DIP])
    @pytest.mark.parametrize("grid", [SimGridConfig(), SimGridConfig(40, 13),
                                      SimGridConfig(9, 5)])
    def test_fold_keeps_the_step(self, p, grid):
        dx, dz = p.l / grid.cells_x, p.h / grid.cells_z
        d = DesignPoint(233.966, 200.0)
        for T0 in thermal.RANDOM_INPUT_BOUNDS["T0"]:  # the box corners in (T0, rho)
            for rho_s in thermal.RANDOM_INPUT_BOUNDS["rho"]:
                rho, dt, _, lo, _ = thermal._plan(d, RandomInputs(T0, 825.0, 110.0, rho_s),
                                                  p, grid)
                (a0, a1, a2), (b0, b1, b2), z_ratio, rad = folded_constants(p, dx, dz, rho, dt)
                T = np.linspace(lo, 3.0 * p.Tliq, 2001)
                cp, kap = material_props(T, p)
                # rho cp / dt, which the step divides the rate by
                np.testing.assert_allclose(a0 + T * (a1 + T * a2), rho * cp / dt,
                                           rtol=1e-12, atol=0)
                # the x faces' conductance per unit conductivity sum: kappa in
                # W/(mm K), half of the two cells' sum, over dx^2
                x_weight = kap * 1e-3 * 0.5 / dx**2
                np.testing.assert_allclose(b0 + T * (b1 + T * b2), x_weight,
                                           rtol=1e-12, atol=0)
                np.testing.assert_allclose(z_ratio * x_weight, kap * 1e-3 * 0.5 / dz**2,
                                           rtol=1e-12, atol=0)
        # the top row loses eps sigma (T_K^4 - Tc_K^4) over its depth dz
        assert rad == pytest.approx(p.eps_s * thermal.STEFAN_BOLTZMANN_MM / dz, rel=1e-12)


class TestBulkDensity:
    def test_midpoint_maps_to_reference(self):
        assert thermal.bulk_density(612.0) == pytest.approx(4300.0e-9)

    def test_linear_scaling(self):
        assert thermal.bulk_density(306.0) == pytest.approx(2150.0e-9)
