"""Stress proxy tests: cap, linearity, monotonicity, layout round-trip."""

import numpy as np
import pytest

from pbfopt import stress, thermal
from pbfopt.thermal import RandomInputs, TemperatureSnapshot


def make_snapshot(peak):
    times = thermal.snapshot_times(500.0, 2.0)
    return TemperatureSnapshot(
        times=times, temps=np.full(31, 650.0), peak_field=peak
    )


NX, NZ = thermal.STRESS_GRID_SHAPE


class TestResidualStress:
    def test_uniform_peak_gives_zero(self):
        z = RandomInputs(650.0, 825.0, 110.0, 612.0)
        f = stress.residual_stress(
            make_snapshot(np.full((NX, NZ), 650.0)), z, c_r=0.8
        )
        assert np.all(f == 0.0)
        assert f.max() == 0.0

    def test_plastic_cap_arithmetic(self):
        # one kilokelvin of thermal strain at c_r=0.8: elastic value 880
        z = RandomInputs(650.0, 800.0, 110.0, 612.0)
        peak = np.full((NX, NZ), 650.0)
        peak[5, 3] = 1650.0
        f = stress.residual_stress(make_snapshot(peak), z, c_r=0.8)
        assert f[5, 3] == pytest.approx(800.0)  # capped at Y
        z_strong = RandomInputs(650.0, 907.5, 110.0, 612.0)
        f2 = stress.residual_stress(make_snapshot(peak), z_strong, c_r=0.8)
        assert f2[5, 3] == pytest.approx(880.0)  # below yield now

    def test_linear_in_cr_below_yield(self):
        rng = np.random.default_rng(1)
        z = RandomInputs(650.0, 9000.0, 110.0, 612.0)  # yield far away
        peak = 650.0 + 500.0 * rng.uniform(size=(NX, NZ))
        snap = make_snapshot(peak)
        f1 = stress.residual_stress(snap, z, c_r=0.3)
        f2 = stress.residual_stress(snap, z, c_r=0.6)
        assert np.allclose(f2, 2.0 * f1, rtol=1e-12)

    def test_cap_never_exceeded(self):
        rng = np.random.default_rng(2)
        z = RandomInputs(600.0, 742.5, 120.0, 612.0)
        peak = 600.0 + 2000.0 * rng.uniform(size=(NX, NZ))
        f = stress.residual_stress(make_snapshot(peak), z, c_r=1.0)
        assert np.all(f <= z.Y + 1e-12)
        assert np.all(f >= 0.0)

    def test_monotone_in_peak(self):
        rng = np.random.default_rng(3)
        z = RandomInputs(650.0, 825.0, 110.0, 612.0)
        peak = 650.0 + 1000.0 * rng.uniform(size=(NX, NZ))
        hotter = peak + 50.0 * rng.uniform(size=(NX, NZ))
        f1 = stress.residual_stress(make_snapshot(peak), z, c_r=0.8)
        f2 = stress.residual_stress(make_snapshot(hotter), z, c_r=0.8)
        assert np.all(f2 >= f1 - 1e-12)

    def test_sigma_max_monotone_in_modulus_below_yield(self):
        peak = np.full((NX, NZ), 650.0)
        peak[10, 5] = 1200.0
        snap = make_snapshot(peak)
        maxima = [
            stress.residual_stress(
                snap, RandomInputs(650.0, 5000.0, e, 612.0), c_r=0.5
            ).max()
            for e in (100.0, 110.0, 120.0)
        ]
        assert maxima == sorted(maxima)

    def test_shape_and_value_errors(self):
        z = RandomInputs(650.0, 825.0, 110.0, 612.0)
        with pytest.raises(ValueError, match="shape"):
            stress.residual_stress(make_snapshot(np.zeros((5, 5))), z, c_r=0.8)
        bad = RandomInputs(650.0, -1.0, 110.0, 612.0)
        with pytest.raises(ValueError, match="positive"):
            stress.residual_stress(
                make_snapshot(np.full((NX, NZ), 650.0)), bad, c_r=0.8
            )
        with pytest.raises(ValueError, match="c_r"):
            stress.residual_stress(
                make_snapshot(np.full((NX, NZ), 650.0)), z, c_r=0.0
            )


class TestMaxStress:
    """The grid residual_stress returns."""

    def test_zero_field(self):
        z = RandomInputs(650.0, 825.0, 110.0, 612.0)
        f = stress.residual_stress(
            make_snapshot(np.full((NX, NZ), 600.0)), z, c_r=0.8
        )
        assert f.shape == (NX, NZ)
        assert np.all(f == 0.0)


class TestRowLayout:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        grid = rng.uniform(size=(NX, NZ))
        row = stress.field_to_row(grid)
        assert row.shape == (NX * NZ,)
        assert np.array_equal(row.reshape(NZ, NX).T, grid)

    def test_length_varies_fastest(self):
        grid = np.zeros((NX, NZ))
        grid[1, 0] = 7.0  # second point along the length, bottom row
        row = stress.field_to_row(grid)
        assert row[1] == 7.0
        grid2 = np.zeros((NX, NZ))
        grid2[0, 1] = 9.0  # first point, second height level
        assert stress.field_to_row(grid2)[NX] == 9.0

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"expected \(32, 14\) grid, got \(14, 32\)"):
            stress.field_to_row(np.zeros((NZ, NX)))
