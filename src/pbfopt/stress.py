"""Residual-stress proxy on the 32x14 grid.

A deliberately simple elastic-perfectly-plastic stand-in for a mechanical
solve: thermal strain alpha_t * (T_peak - T0) converts to stress through
the elastic modulus, scaled by a constraint factor c_r, and capped at the
yield strength.  Downstream modules treat thermal+stress as one opaque
high-fidelity model behind this interface, so a full mechanical solver can
replace it without touching feature extraction, surrogates or the
optimizer.
"""

from __future__ import annotations

import numpy as np

from .thermal import STRESS_GRID_SHAPE, RandomInputs, TemperatureSnapshot

__all__ = ["residual_stress", "field_to_row"]

ALPHA_T = 1e-5  # thermal expansion coefficient, 1/K


def residual_stress(snapshot: TemperatureSnapshot, z: RandomInputs,
                    c_r: float) -> np.ndarray:
    """Elastic-perfectly-plastic von Mises residual stresses (MPa) from the
    peak-temperature field, as the (32, 14) grid: axis 0 length, 1 height.

    Per grid point: sigma = min(Y, c_r * E_MPa * ALPHA_T * max(0, T_peak - T0)),
    with the thermal expansion coefficient ALPHA_T fixed.  c_r is a
    configuration knob (not physics) scaling the elastic estimate; the
    pipeline passes PipelineConfig.c_r.
    """
    peak = np.asarray(snapshot.peak_field, dtype=float)
    if peak.shape != STRESS_GRID_SHAPE:
        raise ValueError(
            f"peak field shape {peak.shape} does not match the "
            f"{STRESS_GRID_SHAPE} stress grid"
        )
    if z.Y <= 0 or z.E <= 0:
        raise ValueError("yield strength and elastic modulus must be positive")
    if not 0.0 < c_r <= 1.0:
        raise ValueError("constraint factor c_r must lie in (0, 1]")
    elastic = c_r * (z.E * 1000.0) * ALPHA_T * np.maximum(peak - z.T0, 0.0)
    return np.minimum(z.Y, elastic)


def field_to_row(grid: np.ndarray) -> np.ndarray:
    """Flatten a (32, 14) field to a 448-row, length index fastest."""
    grid = np.asarray(grid, dtype=float)
    if grid.shape != STRESS_GRID_SHAPE:
        raise ValueError(f"expected {STRESS_GRID_SHAPE} grid, got {grid.shape}")
    return grid.T.reshape(-1)
