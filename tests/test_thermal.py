"""Thermal solver tests: flux arithmetic, equilibrium, monotonicity, grids."""

import numpy as np
import pytest
from oracles import heat_flux, solve_field_per_run

from pbfopt import thermal
from pbfopt.thermal import (
    DesignPoint,
    ModelParams,
    RandomInputs,
    SimGridConfig,
    SimulationError,
)

NOMINAL_Z = RandomInputs(T0=650.0, Y=825.0, E=110.0, rho=612.0)


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
        gx = thermal._gauss_deposit(edges, d.v * t, p.r, dx)
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
        assert thermal.material_props(0.0, p) == (540.0, 7.2)
        cp, kap = thermal.material_props(1000.0, p)
        assert cp == pytest.approx(938.0)
        assert kap == pytest.approx(19.6)

    def test_constant_coefficients(self):
        p = ModelParams(a0=10.0, a1=0.0, a2=0.0, b0=3.0, b1=0.0, b2=0.0)
        for t in (-5.0, 0.0, 1234.5):
            assert thermal.material_props(t, p) == (10.0, 3.0)

    def test_params_reject_nonpositive_props(self):
        with pytest.raises(ValueError, match="positive"):
            ModelParams(a0=-540.0)


class TestModelParamsValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="penetration"):
            ModelParams(z0=1.0)  # deeper than the part
        with pytest.raises(ValueError, match="radius"):
            ModelParams(r=0.0)
        with pytest.raises(ValueError, match="absorptivity"):
            ModelParams(A=1.5)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="cells"):
            SimGridConfig(cells_x=2)
        with pytest.raises(ValueError, match="cfl"):
            SimGridConfig(cfl_factor=1.5)


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
        d = DesignPoint(400.0, 150.0)
        [(_, temps, peak, final, _, _)] = thermal._solve_field(
            [(d, NOMINAL_Z)], ModelParams(), SimGridConfig()
        )
        assert np.all(peak >= final - 1e-12)
        assert peak.max() >= final.max()
        assert peak.max() >= temps.max() - 1e-9

    def test_snapshot_invariants(self):
        z = RandomInputs(T0=585.0, Y=800.0, E=105.0, rho=600.0)
        snap = thermal.simulate(DesignPoint(300.0, 120.0), z)
        assert snap.times[0] == 0.0
        assert snap.times[-1] == pytest.approx(snap.t_scan)
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
        [(times, temps, _, final, xc, zc)] = thermal._solve_field([(d, z)], p, grid)
        dx, dz = p.l / 4, p.h / 4
        xq, zq = np.array([p.l / 2]), np.array([p.h])
        cell = thermal._bilinear_cell(final.shape, xc[0], dx, zc[0], dz, xq, zq)
        probe = [
            thermal._bilinear(f, *cell)[0]
            for f in (np.full_like(final, z.T0), final)
        ]
        assert abs(probe[1] - probe[0]) > 1e-3
        s = times / (p.l / d.v)
        assert temps == pytest.approx((1 - s) * probe[0] + s * probe[1], rel=1e-12)

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

    def test_low_preheat_runs_clean(self):
        # preheat below chamber temperature must not trip the cold clamp
        z = RandomInputs(T0=585.0, Y=742.5, E=100.0, rho=550.8)
        snap = thermal.simulate(DesignPoint(1000.0, 20.0), z)
        assert np.isfinite(snap.temps).all()


class TestLockstepBatch:
    """The lockstep kernel against the per-run step loop it replaced."""

    GRID = SimGridConfig(16, 8)  # coarse, so a run takes tens to hundreds of steps

    @staticmethod
    def mixed_runs():
        # speeds spread the step counts over about 86 to 860; run 3 is unpowered
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
        kernel = thermal._solve_field(runs, p, self.GRID)  # one block
        for (temps, peak, final, peak_field), snap, raw in zip(expected, snaps, kernel):
            assert np.array_equal(snap.temps, temps)
            assert np.array_equal(snap.peak_field, peak_field)
            assert np.array_equal(raw[1], temps)
            assert np.array_equal(raw[2], peak)
            assert np.array_equal(raw[3], final)

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


class TestBulkDensity:
    def test_midpoint_maps_to_reference(self):
        assert thermal.bulk_density(612.0) == pytest.approx(4300.0e-9)

    def test_linear_scaling(self):
        assert thermal.bulk_density(306.0) == pytest.approx(2150.0e-9)
