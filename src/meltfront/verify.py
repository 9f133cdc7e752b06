"""Diagnostic apparatus: barrier transforms, residuals, and audits.

Everything here measures; nothing corrects.  The barrier transform

    v(x, t) = u(x, t) - c (|x - xm|^2 + (tm - t)),   c = 1/(8 n),

is evaluated pointwise with no discretization of its own.  Applied to a
discretely caloric ``u`` the residual ``Delta v - v_t`` is an exact
constant: the quadratic contributes ``-2 n c`` through the Laplacian and
the time term contributes another ``-c`` through ``v_t = u_t + c``, so

    Delta v - v_t = -(2 n + 1) / (8 n).

``barrier_residual_constant`` returns that value, negative in every
dimension.  The ``barrier`` check of ``meltfront verify`` compares the
mean interior residual of a stored run with it.

``heat_residual_field`` forms the raw forward-time, central-space residual
``Delta v - v_t`` per interior cell, from one pass over the level matrix,
so that sign claims about barriers are measured rather than assumed.  ``max_principle_audit`` checks attainment
of the space-time maximum on the parabolic boundary (initial slice plus
lateral boundary cells).  ``initial_continuity_metric`` tracks
``m(t) = integral |u_t - h|`` against a reference heating rate, and
``delta_of_t`` measures how far the positivity set travels from a
reference region.  ``_CHECK_RUNNERS`` holds the ``meltfront verify`` checks.
All of them read rows of ``values_matrix()``, not snapshot ``valid`` masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import (
    TemperatureField,
    discrete_laplacian,
    interior_index,
    radius_to,
    second_differences,
)
from .heat import HeatTrajectory, trapezoid_weights
from .rundir import _check, _rule

__all__ = [
    "BarrierParams",
    "barrier_residual_constant",
    "barrier_field",
    "heat_residual_field",
    "max_principle_audit",
    "initial_continuity_metric",
    "delta_of_t",
]


@dataclass(frozen=True)
class BarrierParams:
    """Barrier vertex ``(xm, tm)`` and dimension; the coefficient is fixed
    to ``1/(8 n)``."""

    center: tuple[float, ...]
    time: float
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if len(self.center) != self.dimension:
            raise ValueError(
                f"center has {len(self.center)} components for dimension "
                f"{self.dimension}"
            )
        if self.time <= 0:
            raise ValueError(f"vertex time must be positive, got {self.time}")

    @property
    def coefficient(self) -> float:
        return 1.0 / (8.0 * self.dimension)


def _grid_mask(grid, mask, name: str) -> np.ndarray:
    """``mask`` as a flat boolean array, checked to cover ``grid`` and be non-empty."""
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if mask.size != grid.total_cells:
        raise ValueError(f"{name} mask does not conform to the grid")
    if not mask.any():
        raise ValueError(f"{name} mask is empty")
    return mask


def barrier_residual_constant(dim: int) -> float:
    """Exact residual ``Delta v - v_t`` of the barrier over a caloric field.

    The quadratic term loses ``2 n c`` under the Laplacian and the time
    ramp adds ``c`` to ``v_t``, leaving ``-(2 n + 1)/(8 n)``.
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {dim}")
    return -(2.0 * dim + 1.0) / (8.0 * dim)


def barrier_field(traj: HeatTrajectory, params: BarrierParams) -> HeatTrajectory:
    """Subtract the parabolic barrier from every level (pointwise exact); the
    input's ``valid`` masks are not consulted, and the result carries none."""
    grid = traj.grid
    if grid.dim != params.dimension:
        raise ValueError(
            f"barrier dimension {params.dimension} does not match grid "
            f"dimension {grid.dim}"
        )
    times = traj.times
    if not (times[0] <= params.time <= times[-1] + 1e-12):
        raise ValueError(
            f"vertex time {params.time:g} lies outside the trajectory range "
            f"[{times[0]:g}, {times[-1]:g}]"
        )
    sq = np.sum((grid.cell_centers() - np.asarray(params.center)) ** 2, axis=1)
    c = params.coefficient
    levels = traj.values_matrix() - c * (sq + (params.time - times)[:, None])
    return HeatTrajectory._from_levels(TemperatureField(grid, times[0], levels[0]),
                                       times, levels, traj.dt)


def _residuals(traj: HeatTrajectory) -> np.ndarray:
    """``Delta v - v_t`` on the interior block, one row per level pair."""
    if len(traj) < 2:
        raise ValueError("residuals need at least 2 time levels")
    g = traj.grid
    v = traj.values_matrix().reshape(len(traj), *g.shape)
    lap = sum(second_differences(v[:-1], g.spacing, lead=1))
    return lap - (v[1:] - v[:-1])[interior_index(g.dim, lead=1)] / traj.dt


def heat_residual_field(traj: HeatTrajectory) -> list[TemperatureField]:
    """Raw residual ``Delta v - v_t`` per interior cell and time level.

    Forward difference in time, central in space; one field per level pair,
    so a trajectory with M snapshots yields M - 1 residual fields.
    """
    rows = _residuals(traj)
    g = traj.grid
    out = np.zeros((len(rows), *g.shape))
    out[interior_index(g.dim, lead=1)] = rows
    return [TemperatureField(g, t, v, valid=g.interior_mask()) for t, v in zip(traj.times, out)]


def max_principle_audit(traj: HeatTrajectory, region: np.ndarray | None = None) -> dict:
    """Check that the space-time maximum sits on the parabolic boundary.

    The parabolic boundary is the initial slice plus the grid-boundary
    cells of every slice, intersected with ``region`` when given.  Returns
    the maximum, its location ``(level, cell)``, the attainment flag
    (tolerance ``1e-12 * scale``), and the violation magnitude.
    """
    grid = traj.grid
    if region is None:
        region = np.ones(grid.total_cells, dtype=bool)
    region = _grid_mask(grid, region, "region")
    lateral = grid.boundary_mask() & region

    values = traj.values_matrix()
    masked = np.where(region[None, :], values, -np.inf)
    flat_arg = int(np.argmax(masked))
    level, cell = divmod(flat_arg, grid.total_cells)
    overall_max = float(masked[level, cell])

    parabolic = np.full_like(masked, -np.inf)
    parabolic[0] = masked[0]
    parabolic[:, lateral] = masked[:, lateral]
    parabolic_max = float(np.max(parabolic))

    scale = max(1.0, float(np.max(np.abs(values[:, region]))))
    violation = max(0.0, overall_max - parabolic_max)
    return {
        "max_value": overall_max,
        "max_level": level,
        "max_cell": cell,
        "parabolic_max": parabolic_max,
        "violation": violation,
        "attained_on_boundary": violation <= 1e-12 * scale,
    }


def initial_continuity_metric(
    traj: HeatTrajectory,
    heating: TemperatureField | np.ndarray | Callable[[np.ndarray], np.ndarray],
    region: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """L1 distance of the discrete ``u_t`` from a reference heating rate.

    ``m(t_k) = sum_region w |u_t^k - h|`` with trapezoid weights in space
    and forward differences in time; defined for levels ``0 .. M-2``.
    ``heating`` may be a field, a flat array, or a callable of the cell
    centers.
    """
    if len(traj) < 3:
        raise ValueError("continuity metric needs at least 3 time levels")
    grid = traj.grid
    if isinstance(heating, TemperatureField):
        h_vals = heating.values
    elif callable(heating):
        h_vals = np.asarray(heating(grid.cell_centers()), dtype=float).reshape(-1)
    else:
        h_vals = np.asarray(heating, dtype=float).reshape(-1)
    if h_vals.size != grid.total_cells:
        raise ValueError("heating rate does not conform to the grid")
    region = _grid_mask(grid, grid.interior_mask() if region is None else region, "region")

    weights = trapezoid_weights(grid) * region
    values = traj.values_matrix()
    ut = (values[1:] - values[:-1]) / traj.dt
    metric = np.abs(ut - h_vals[None, :]) @ weights
    return traj.times[:-1].copy(), metric


def delta_of_t(traj: HeatTrajectory, reference: np.ndarray,
               times: np.ndarray | None = None) -> np.ndarray:
    """How far the positivity set has traveled from a reference region.

    For each requested time (every level by default) this composes the
    strict positivity set at that level with the one-sided neighborhood
    radius against ``reference``: the positivity set is contained in a
    ``delta(t)``-neighborhood of the reference and in no smaller one at
    grid resolution.  Snapshot ``valid`` masks are not consulted.

    Raises
    ------
    ValueError
        If the reference mask is empty.
    """
    grid = traj.grid
    reference = _grid_mask(grid, reference, "reference")
    levels = traj.values_matrix()
    if times is not None:
        levels = levels[[traj.level_near(t) for t in np.atleast_1d(times)]]
    radius = radius_to(grid, reference)
    return np.array([radius(row > 0.0) for row in levels])


def _caloric_tolerance(traj: HeatTrajectory) -> float:
    h2 = max(traj.grid.spacing) ** 2
    scale = max(1.0, float(np.max(np.abs(traj.values_matrix()))))
    return 10.0 * (h2 + traj.dt) * scale


def _check_caloric(traj: HeatTrajectory) -> dict:
    measured = float(np.max(np.abs(_residuals(traj))))
    return _rule("at_most", measured, _caloric_tolerance(traj),
                 "sup interior |Lu - u_t| over all recorded steps")


def _check_max_principle(traj: HeatTrajectory) -> dict:
    audit = max_principle_audit(traj)
    measured = float(audit["max_value"] - audit["parabolic_max"])
    scale = max(1.0, float(np.max(np.abs(traj.values_matrix()))))
    return _rule("at_most", measured, 1e-12 * scale,
                 f"interior max excess; attained on the parabolic boundary: "
                 f"{bool(audit['attained_on_boundary'])}")


def _check_continuity(traj: HeatTrajectory) -> dict:
    heating = discrete_laplacian(TemperatureField(traj.grid, traj.times[0], traj.values_matrix()[0]))
    times, metric = initial_continuity_metric(traj, heating)
    measured = float(metric[0])
    return _rule("at_most", measured, _caloric_tolerance(traj),
                 f"heating mismatch at the first recorded step; "
                 f"peak over the run {float(np.max(metric)):.6g}")


def _check_positivity_spread(traj: HeatTrajectory) -> dict:
    reference = traj.values_matrix()[0] > 0.0
    if not reference.any():
        return _check(None, None, True, "initial positivity set empty; check vacuous")
    deltas = delta_of_t(traj, reference)
    diameter = math.sqrt(sum(e * e for e in traj.grid.extent))
    ok = bool(np.all(np.isfinite(deltas)) and np.all(deltas >= 0)
              and np.all(deltas <= diameter + 1e-12))
    return _check(float(np.max(deltas)), diameter, ok,
                  "largest spread of the positivity set from its start")


def _check_barrier(traj: HeatTrajectory) -> dict:
    grid = traj.grid
    center = tuple(o + 0.5 * e for o, e in zip(grid.origin, grid.extent))
    params = BarrierParams(center=center, time=float(traj.times[-1]),
                           dimension=grid.dim)
    measured = float(np.mean(_residuals(barrier_field(traj, params)).ravel()))
    const = barrier_residual_constant(grid.dim)
    return _rule("abs_at_most", measured - const, _caloric_tolerance(traj) + 1e-12,
                 f"mean interior barrier residual against {const!r}")


_CHECK_RUNNERS = {
    "caloric": _check_caloric,
    "max_principle": _check_max_principle,
    "continuity": _check_continuity,
    "positivity_spread": _check_positivity_spread,
    "barrier": _check_barrier,
}
VERIFY_CHECKS = tuple(_CHECK_RUNNERS)
