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
``Delta v - v_t`` per interior cell, so that sign claims about barriers are
measured rather than assumed.  ``max_principle_audit`` checks attainment
of the space-time maximum on the parabolic boundary (initial slice plus
lateral boundary cells).  ``initial_continuity_metric`` tracks
``m(t) = integral |u_t - h|`` against a reference heating rate, and
``delta_of_t`` measures how far the positivity set travels from a
reference region.  ``_CHECK_RUNNERS`` holds the ``meltfront verify`` checks.
All of them read rows of ``values_matrix()``, not snapshot ``valid`` masks.

The checks keep to a memory budget of about two level matrices, the run's
and one residual array.  The residual fills its preallocated array in
blocks of ``_BLOCK_PAIRS`` level pairs; the ``barrier`` check streams the
rows of ``barrier_field`` into those blocks instead of building a second
level matrix; the other checks build no whole-run temporary beyond one
array reused in place.  Every element still takes the operations of one
pass in their order, so the reports keep their bits.
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


def barrier_residual_constant(dim: int) -> float:
    """Exact residual ``Delta v - v_t`` of the barrier over a caloric field.

    The quadratic term loses ``2 n c`` under the Laplacian and the time
    ramp adds ``c`` to ``v_t``, leaving ``-(2 n + 1)/(8 n)``.
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {dim}")
    return -(2.0 * dim + 1.0) / (8.0 * dim)


def _barrier_rows(traj: HeatTrajectory,
                  params: BarrierParams) -> Callable[[int, int], np.ndarray]:
    """``rows(lo, hi)``: levels ``lo .. hi - 1`` less the parabolic barrier,
    one broadcast per call, so any split of the levels gives the same bits."""
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
    values = traj.values_matrix()

    def rows(lo: int, hi: int) -> np.ndarray:
        return values[lo:hi] - c * (sq + (params.time - times[lo:hi])[:, None])

    return rows


def barrier_field(traj: HeatTrajectory, params: BarrierParams) -> HeatTrajectory:
    """Subtract the parabolic barrier from every level (pointwise exact); the
    input's ``valid`` masks are not consulted, and the result carries none."""
    levels = _barrier_rows(traj, params)(0, len(traj))
    return HeatTrajectory._from_levels(TemperatureField(traj.grid, traj.times[0], levels[0]),
                                       traj.times, levels, traj.dt)


#: Level pairs per block of :func:`_residuals`: each block's temporaries are
#: about this many interior rows, whatever the length of the run.
_BLOCK_PAIRS = 16


def _residuals(traj: HeatTrajectory,
               rows: Callable[[int, int], np.ndarray] | None = None) -> np.ndarray:
    """``Delta v - v_t`` on the interior block, one row per level pair.

    ``v`` is the level matrix, or ``rows(lo, hi)`` for levels ``lo .. hi - 1``
    of a transform of it.  Blocks of ``_BLOCK_PAIRS`` pairs fill one
    preallocated array, each element by the same operations as a single pass.
    """
    if len(traj) < 2:
        raise ValueError("residuals need at least 2 time levels")
    g = traj.grid
    if rows is None:
        levels = traj.values_matrix()
        rows = lambda lo, hi: levels[lo:hi]
    pairs = len(traj) - 1
    out = np.empty((pairs, *(n - 2 for n in g.shape)))
    inner = interior_index(g.dim, lead=1)
    for lo in range(0, pairs, _BLOCK_PAIRS):
        hi = min(lo + _BLOCK_PAIRS, pairs)
        v = rows(lo, hi + 1).reshape(-1, *g.shape)
        lap = sum(second_differences(v[:-1], g.spacing, lead=1))
        np.subtract(lap, (v[1:] - v[:-1])[inner] / traj.dt, out=out[lo:hi])
    return out


def heat_residual_field(traj: HeatTrajectory) -> list[TemperatureField]:
    """Raw residual ``Delta v - v_t`` per interior cell and time level.

    Forward difference in time, central in space; one field per level pair,
    so a trajectory with M snapshots yields M - 1 residual fields.  The
    fields share one read-only interior mask as ``valid``.
    """
    rows = _residuals(traj)
    g = traj.grid
    out = np.zeros((len(rows), *g.shape))
    out[interior_index(g.dim, lead=1)] = rows
    valid = g.interior_mask()
    valid.setflags(write=False)
    return [TemperatureField(g, t, v, valid=valid) for t, v in zip(traj.times, out)]


def max_principle_audit(traj: HeatTrajectory) -> dict:
    """Check that the space-time maximum sits on the parabolic boundary.

    The parabolic boundary is the initial slice plus the grid-boundary
    cells of every slice.  Returns the maximum, its location
    ``(level, cell)``, the attainment flag (tolerance ``1e-12 * scale``),
    and the violation magnitude.
    """
    grid = traj.grid
    values = traj.values_matrix()
    # the flat argmax's first (level, cell), without its copy of a read-only matrix
    level = int(np.argmax(values.max(axis=1)))
    cell = int(np.argmax(values[level]))
    overall_max = float(values[level, cell])
    lateral_max = values[:, grid.boundary_mask()].max()
    parabolic_max = float(np.maximum(values[0].max(), lateral_max))

    scale = _scale(values)
    violation = max(0.0, overall_max - parabolic_max)
    return {
        "max_value": overall_max,
        "max_level": level,
        "max_cell": cell,
        "parabolic_max": parabolic_max,
        "violation": violation,
        "attained_on_boundary": violation <= 1e-12 * scale,
    }


def initial_continuity_metric(traj: HeatTrajectory,
                              heating: TemperatureField) -> tuple[np.ndarray, np.ndarray]:
    """L1 distance of the discrete ``u_t`` from a reference heating rate.

    ``m(t_k) = sum_interior w |u_t^k - h|`` with trapezoid weights in space
    and forward differences in time; defined for levels ``0 .. M-2``.
    ``heating`` is a field on the trajectory's grid.
    """
    if len(traj) < 3:
        raise ValueError("continuity metric needs at least 3 time levels")
    grid = traj.grid
    if not heating.grid.grids_match(grid):
        raise ValueError("heating rate does not conform to the grid")

    weights = trapezoid_weights(grid) * grid.interior_mask()
    values = traj.values_matrix()
    gap = np.subtract(values[1:], values[:-1])  # |u_t - h|, built in place
    np.divide(gap, traj.dt, out=gap)
    np.subtract(gap, heating.values[None, :], out=gap)
    metric = np.abs(gap, out=gap) @ weights
    return traj.times[:-1].copy(), metric


def delta_of_t(traj: HeatTrajectory, reference: np.ndarray) -> np.ndarray:
    """How far the positivity set has traveled from a reference region.

    For each level this composes the strict positivity set at that level
    with the one-sided neighborhood radius against ``reference``: the
    positivity set is contained in a ``delta(t)``-neighborhood of the
    reference and in no smaller one at grid resolution.  Snapshot ``valid``
    masks are not consulted.

    Raises
    ------
    ValueError
        If the reference mask is empty or does not cover the grid.
    """
    grid = traj.grid
    reference = np.asarray(reference, dtype=bool).reshape(-1)
    if reference.size != grid.total_cells:
        raise ValueError("reference mask does not conform to the grid")
    if not reference.any():
        raise ValueError("reference mask is empty")
    radius = radius_to(grid, reference)
    return np.array([radius(row > 0.0) for row in traj.values_matrix()])


def _scale(values: np.ndarray) -> float:
    """``max(1, max |values|)``, read off the extremes without an ``abs`` copy."""
    return max(1.0, float(max(values.max(), -values.min())))


def _caloric_tolerance(traj: HeatTrajectory) -> float:
    h2 = max(traj.grid.spacing) ** 2
    return 10.0 * (h2 + traj.dt) * _scale(traj.values_matrix())


def _check_caloric(traj: HeatTrajectory) -> dict:
    residuals = _residuals(traj)
    measured = float(np.max(np.abs(residuals, out=residuals)))
    return _rule("at_most", measured, _caloric_tolerance(traj),
                 "sup interior |Lu - u_t| over all recorded steps")


def _check_max_principle(traj: HeatTrajectory) -> dict:
    audit = max_principle_audit(traj)
    measured = float(audit["max_value"] - audit["parabolic_max"])
    return _rule("at_most", measured, 1e-12 * _scale(traj.values_matrix()),
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
    measured = float(np.mean(_residuals(traj, _barrier_rows(traj, params)).ravel()))
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
