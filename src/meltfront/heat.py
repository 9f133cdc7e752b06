"""Explicit finite-difference machinery for the heat equation.

Time stepping is forward Euler for ``u_t = lap u`` on interior cells, with
Dirichlet data written into the boundary cell layer at the new time.  There
is one step path: the Laplacian on the flat interior span of each row
(``grid.span_stencil``) of one ``(levels, cells)`` matrix.
:func:`solve_dirichlet` marches it and returns the matrix in a
:class:`HeatTrajectory`; ``caloric_replacement`` steps a copy of its slab of
levels with it.  The stability limit ``dt <= 1 / (2 sum_j 1 / h_j^2)``,
``h^2 / (2 n)`` on isotropic grids, is enforced, never assumed: each march
checks it once, before its first step.

The module also carries the integral-identity tooling used by the
verification layer: whole-space heat-kernel quadrature, the discrete
conservation residual of a trajectory, caloric replacement on parabolic
cylinders, and radial averages of replacements.  The Gaussian kernel and the
trapezoid weights are tensor products, so the quadrature runs as one 1D
contraction per axis, ``O(N sum_j n_j)`` for ``N`` cells.

It also owns the run rules every solver shares: ``step_count``,
``eval_time``, the edge sign rule ``signed_value``, ``require_positive``,
``require_finite`` and ``require_cadence``.
"""

from __future__ import annotations

import math
import numbers
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .grid import Grid, TemperatureField, ParabolicCylinder, field_job, field_name, \
    interior_index, second_differences, span_stencil, write_field_csvs
from .rundir import write_manifest

__all__ = [
    "OperatorCoefficients",
    "HeatTrajectory",
    "stability_limit",
    "solve_dirichlet",
    "heat_kernel_field",
    "conservation_residual",
    "caloric_replacement",
    "cylinder_masks",
    "radial_average",
    "trapezoid_weights",
    "interior_trapezoid_weights",
    "write_trajectory",
]

BoundaryData = float | Callable[[np.ndarray, float], np.ndarray]
TimeFunc = float | Callable[[float], float]


def step_count(duration: float, dt: float) -> int:
    """Steps of size ``dt`` that cover ``duration``, at least one."""
    return max(1, int(math.ceil(duration / dt - 1e-12)))


def eval_time(fn: TimeFunc, t: float) -> float:
    """Value at time ``t`` of a constant or a function of time."""
    return float(fn(t)) if callable(fn) else float(fn)


SIGN_RULE = {1: "nonnegative", -1: "nonpositive"}


def signed_value(fn: TimeFunc, t: float, sign: int, name: str) -> float:
    """``fn`` at time ``t`` held to its sign rule: a heated edge (``sign = 1``)
    stays nonnegative, a cooled one (``-1``) nonpositive.  A NaN passes, for
    the finiteness checks to name.  Raises ``ValueError`` naming ``name``."""
    g = eval_time(fn, t)
    if sign * g < 0:
        raise ValueError(f"{name} must stay {SIGN_RULE[sign]}, got {g:g}")
    return g


def require_positive(**values: float) -> None:
    """Raise ``ValueError`` for the first of ``values``, in order, that is not
    positive, or not finite (NaN passes ``v <= 0``)."""
    for name, v in values.items():
        if v <= 0:
            raise ValueError(f"{name} must be positive, got {v}")
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


def require_finite(**values: float) -> None:
    """Raise ``ValueError`` for the first of ``values``, in order, that is NaN
    or infinite."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


def require_cadence(k) -> None:
    """Raise ``ValueError`` unless the snapshot cadence ``k`` is ``None`` or a
    positive integer (a ``bool`` is not one)."""
    if k is not None and (isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1):
        raise ValueError(f"snapshot_every must be None or a positive integer, got {k!r}")


class OperatorCoefficients:
    """The Laplacian, the one operator the package steps.  It carries no
    coefficients; :func:`solve_dirichlet` and :func:`stability_limit` take it
    as their first argument."""

    @classmethod
    def laplacian(cls) -> "OperatorCoefficients":
        """The pure Laplacian."""
        return cls()


def stability_limit(coeffs: OperatorCoefficients, grid: Grid) -> float:
    """Largest stable forward-Euler step of the Laplacian on ``grid``,
    ``1 / (2 sum_j 1 / h_j^2)``."""
    return 1.0 / (2.0 * sum(1.0 / h**2 for h in grid.spacing))


def _require_stable(grid: Grid, dt: float, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` if ``dt`` exceeds the stability limit."""
    limit = stability_limit(OperatorCoefficients.laplacian(), grid)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"{name}={dt:g} violates the stability limit {limit:g}")


class HeatTrajectory:
    """Uniformly spaced levels of one evolution on a shared grid.

    The values live in one read-only ``(levels, cells)`` matrix, the only
    copy of the levels a trajectory holds.  It keeps its first snapshot and
    builds the later ones from the matrix rows, as read-only views without
    ``valid`` masks, on first access.  Built from snapshots, it stacks their
    values once and keeps none of them past the first; a marched one
    (:func:`solve_dirichlet`) writes the matrix row by row.
    """

    def __init__(self, snapshots: Sequence[TemperatureField], dt: float):
        snaps = tuple(snapshots)
        if not snaps:
            raise ValueError("trajectory needs at least one snapshot")
        require_positive(dt=dt)
        g = snaps[0].grid
        t0 = snaps[0].time
        for k, s in enumerate(snaps):
            if s.grid is not g and not s.grid.grids_match(g):
                raise ValueError("all snapshots must share one grid")
            expected = t0 + k * dt
            if abs(s.time - expected) > 1e-9 * max(1.0, abs(expected)):
                raise ValueError(
                    f"snapshot {k} at t={s.time} breaks the uniform step (expected {expected})"
                )
        self._hold(snaps[0], [s.time for s in snaps], np.stack([s.values for s in snaps]), dt)

    @classmethod
    def _from_levels(cls, initial: TemperatureField, times: Sequence[float],
                     levels: np.ndarray, dt: float) -> "HeatTrajectory":
        """A trajectory over checked ``levels`` whose first row is ``initial``.
        Built without ``__init__``, whose signature subclasses may keep."""
        traj = cls.__new__(cls)
        traj._hold(initial, times, levels, dt)
        return traj

    def _hold(self, initial: TemperatureField, times: Sequence[float],
              levels: np.ndarray, dt: float) -> None:
        self._snapshots = (initial,)  # the rest are built on access
        self._times = np.array(times, dtype=float)
        self._levels = levels
        for a in (self._times, self._levels):
            a.setflags(write=False)
        self.dt = float(dt)

    @property
    def snapshots(self) -> tuple[TemperatureField, ...]:
        built = len(self._snapshots)
        if built < len(self):
            g = self.grid
            self._snapshots += tuple(TemperatureField(g, t, row) for t, row in
                                     zip(self._times[built:], self._levels[built:]))
        return self._snapshots

    @property
    def grid(self) -> Grid:
        return self._snapshots[0].grid

    @property
    def times(self) -> np.ndarray:
        """Level times, read-only."""
        return self._times

    def __len__(self) -> int:
        return len(self._levels)

    def values_matrix(self) -> np.ndarray:
        """Values by level, shape ``(levels, cells)``, read-only and shared."""
        return self._levels

    def level_near(self, t: float) -> int:
        """Index of the snapshot at time ``t`` (must match within 1e-9)."""
        times = self.times
        k = int(np.argmin(np.abs(times - t)))
        if abs(times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"no snapshot at t={t}; nearest is {times[k]}")
        return k


#: Levels per block of the two whole-run reductions: the finiteness check of
#: :func:`solve_dirichlet`, as many levels as ``stefan1d`` steps between its
#: monitor reductions, and the Laplacian integral of
#: :func:`conservation_residual`.
_BLOCK_LEVELS = 64


def _stepper(grid: Grid, levels: np.ndarray, dt: float) -> Callable[[int], None]:
    """``step(k)`` writes ``u + dt lap u`` on the interior of row ``k + 1`` of
    ``levels``, where ``u`` is row ``k``.  It may write boundary cells of row
    ``k + 1`` too; the caller overwrites them.

    The Laplacian runs on the flat interior span of each row, its terms
    summed as sum() does, so interior cells equal the sliced form
    (``grid.discrete_laplacian``) bit for bit.  Each span position off the
    interior is a boundary cell."""
    _, center, laplacian_terms = span_stencil(levels.reshape((-1,) + grid.shape), grid.spacing)
    acc, *rest = terms = list(np.empty((grid.dim, center.shape[1])))

    def step(k: int) -> None:
        laplacian_terms(k, terms)
        np.add(acc, 0.0, out=acc)  # sum()'s leading 0: a -0.0 term becomes +0.0
        for term in rest:
            np.add(acc, term, out=acc)
        np.multiply(acc, dt, out=acc)
        np.add(center[k], acc, out=center[k + 1])

    return step


def _require_finite_levels(owner: str, levels: np.ndarray, times: Sequence[float], lo: int,
                           hi: int) -> None:
    """Raise ``ValueError`` naming ``owner`` and the first non-finite row of
    ``levels[lo:hi]``."""
    finite = np.isfinite(levels[lo:hi]).all(axis=1)
    if not finite.all():
        k = lo + int(np.argmin(finite))
        raise ValueError(f"{owner} level {k} (t={times[k]:g}) holds non-finite values")


def solve_dirichlet(
    coeffs: OperatorCoefficients,
    initial: TemperatureField,
    boundary: BoundaryData,
    duration: float,
    dt: float,
) -> HeatTrajectory:
    """March ``ceil(duration / dt)`` forward-Euler steps of the heat equation
    from the initial field; ``coeffs`` is the Laplacian.

    Interior cells take ``u + dt lap u``, boundary cells the Dirichlet data at
    the new time; each level is written into one preallocated ``(levels,
    cells)`` matrix, which the returned trajectory holds.  The initial values
    and the stability limit are checked once, before the march.  The
    finiteness of the levels is checked in blocks of ``_BLOCK_LEVELS``, and
    before any other error a step raises, so the first failure is the one
    reported.  Each failed check raises ``ValueError``.
    """
    require_positive(duration=duration, dt=dt)
    if not np.all(np.isfinite(initial.values)):
        raise ValueError("solve_dirichlet requires finite initial values")
    g = initial.grid
    _require_stable(g, dt, "dt")
    n_steps = step_count(duration, dt)
    bcells = np.flatnonzero(g.boundary_mask())
    bpts = g.cell_centers()[bcells]
    bpts.setflags(write=False)  # every step's boundary call shares these centres
    levels = np.empty((n_steps + 1, g.total_cells))
    levels[0] = initial.values
    step = _stepper(g, levels, dt)
    t = initial.time
    times = [t]
    checked = 1  # levels[:checked] are known finite
    for k in range(n_steps):
        try:
            step(k)
            t += dt
            levels[k + 1][bcells] = boundary(bpts, t) if callable(boundary) else boundary
        except Exception:
            # a non-finite level written before the failure is the first fault
            _require_finite_levels("solve_dirichlet", levels, times, checked, len(times))
            raise
        times.append(t)
        if len(times) - checked == _BLOCK_LEVELS or k + 1 == n_steps:
            _require_finite_levels("solve_dirichlet", levels, times, checked, len(times))
            checked = len(times)
    return HeatTrajectory._from_levels(initial, times, levels, dt)


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

def _trapezoid_1d(count: int, h: float) -> np.ndarray:
    """Trapezoid weights of ``count`` samples ``h`` apart: ``h``, halved at both ends."""
    w = np.full(count, h)
    w[[0, -1]] *= 0.5
    return w


def _tensor_trapezoid(counts: Sequence[int], spacing: Sequence[float]) -> np.ndarray:
    """Tensor product of the 1D trapezoid rules, shaped ``counts``."""
    w = np.ones(1)
    for n, h in zip(counts, spacing):
        w = np.outer(w, _trapezoid_1d(n, h)).ravel()
    return w.reshape(tuple(counts))


def trapezoid_weights(grid: Grid) -> np.ndarray:
    """Tensor-product trapezoid weights over cell centers (flat array)."""
    return _tensor_trapezoid(grid.counts, grid.spacing).ravel()


def interior_trapezoid_weights(grid: Grid) -> np.ndarray:
    """Trapezoid weights of the interior sub-box; zero on boundary cells."""
    full = np.zeros(grid.counts)
    full[interior_index(grid.dim)] = _tensor_trapezoid(
        [c - 2 for c in grid.counts], grid.spacing)
    return full.ravel()


def heat_kernel_field(
    phi: TemperatureField, t: float, eval_grid: Grid | None = None
) -> TemperatureField:
    """Heat-kernel solution evaluated at every cell center of ``eval_grid``.

    The quadrature is separable: axis ``j`` is contracted with the ``m_j x n_j``
    matrix ``K_j[i, k] = exp(-(y_i - x_k)^2 / 4t) w_j[k]`` (target centers
    ``y``, source centers ``x``, 1D trapezoid weights ``w_j``), which costs
    ``O(sum_j m_j n_j + N sum_j n_j)`` for ``N`` cells and builds no pairwise
    table.  Raises ``ValueError`` for ``t <= 0`` or an ``eval_grid`` whose
    dimension differs from ``phi``'s.
    """
    target = eval_grid if eval_grid is not None else phi.grid
    if t <= 0:
        raise ValueError(f"heat kernel requires t > 0, got {t}")
    g = phi.grid
    if target.dim != g.dim:
        raise ValueError(f"evaluation target is {target.dim}-d for a {g.dim}-d grid")
    out = phi.reshaped()
    for j in range(g.dim):
        y = target.axis_centers(j)
        kern = np.exp(-((y[:, None] - g.axis_centers(j)) ** 2) / (4.0 * t))
        kern *= _trapezoid_1d(g.counts[j], g.spacing[j])
        out = np.moveaxis(np.tensordot(kern, out, axes=([1], [j])), 0, j)
    return TemperatureField(target, phi.time + t, (4.0 * np.pi * t) ** (-g.dim / 2.0) * out)


def conservation_residual(traj: HeatTrajectory) -> float:
    """Discrete defect of ``int int (u_t - lap u) dx dt`` over the trajectory.

    The ``u_t`` integral telescopes exactly (forward differences summed over
    the levels); the Laplacian integral uses trapezoid rules in both space
    (interior cells) and time.  For a trajectory produced by the explicit
    scheme the residual is the pure time-quadrature defect, O(dt).

    The per-level Laplacian integrals are reduced ``_BLOCK_LEVELS`` levels
    at a time.  A level's sum never crosses levels, so the blocks give the
    bits of one whole-run pass, while the temporaries span one block, not
    the ``(levels, cells)`` matrix.

    Raises
    ------
    ValueError
        For trajectories with fewer than two snapshots.
    """
    if len(traj) < 2:
        raise ValueError("conservation residual needs at least two snapshots")
    g = traj.grid
    vals = traj.values_matrix().reshape((len(traj),) + g.counts)
    w_space = interior_trapezoid_weights(g).reshape(g.counts)

    interior = interior_index(g.dim)
    w_interior = w_space[interior]
    # per-level integral of the discrete Laplacian over the interior box
    lap_int = np.zeros(len(traj))
    for lo in range(0, len(traj), _BLOCK_LEVELS):
        rows = slice(lo, lo + _BLOCK_LEVELS)
        block = vals[rows]
        for term in second_differences(block, g.spacing, lead=1):
            lap_int[rows] += (term * w_interior).reshape(len(block), -1).sum(axis=1)

    du = ((vals[-1] - vals[0]) * w_space)[interior].sum()
    return float(du - np.sum(_trapezoid_1d(len(traj), traj.dt) * lap_int))


# ---------------------------------------------------------------------------
# caloric replacement
# ---------------------------------------------------------------------------

def cylinder_masks(grid: Grid, cyl: ParabolicCylinder) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat boolean masks ``(ball, lateral, interior)`` for a cylinder's ball.

    The ball collects cells with center strictly inside ``B(center, radius)``;
    lateral cells are ball cells with a face neighbor outside the ball (or
    off the grid); interior cells are the rest.
    """
    if len(cyl.center) != grid.dim:
        raise ValueError("cylinder center dimension does not match grid")
    pts = grid.cell_centers()
    c = np.asarray(cyl.center)
    ball = ((pts - c) ** 2).sum(axis=1) < cyl.radius**2
    # one layer of outside cells around the grid, so off-grid neighbors count
    padded = np.pad(ball.reshape(grid.counts), 1)
    neighbors = [padded[interior_index(grid.dim, {j: s})]
                 for j in range(grid.dim) for s in (1, -1)]
    lateral = ball & ~np.logical_and.reduce(neighbors).ravel()
    return ball, lateral, ball & ~lateral


def _require_resolved(grid: Grid, cyl: ParabolicCylinder) -> None:
    for j in range(grid.dim):
        centers = grid.axis_centers(j)
        across = int(np.count_nonzero(np.abs(centers - cyl.center[j]) < cyl.radius))
        if across < 4:
            raise ValueError(
                f"cylinder radius {cyl.radius:g} spans only {across} cells along axis {j}; "
                "need at least 4"
            )


def caloric_replacement(w: HeatTrajectory, cyl: ParabolicCylinder) -> HeatTrajectory:
    """Solve the heat equation inside a cylinder with ``w`` as parabolic data.

    The returned trajectory copies ``w`` outside the ball and on the lateral
    cells, starts from ``w`` on the cylinder's bottom time slice, and steps
    interior ball cells with :func:`solve_dirichlet`'s Laplacian step, on
    the sub-range of ``w``'s levels covering the cylinder's time slab.

    Raises
    ------
    ValueError
        If the ball is not resolved by at least 4 cells across, the step
        violates the pure-Laplacian stability limit, the slab does not fit
        the trajectory's time range, or a level turns non-finite.
    """
    g = w.grid
    _require_resolved(g, cyl)
    _require_stable(g, w.dt, "trajectory step dt")
    times = w.times
    i_top = w.level_near(cyl.t_top)
    if cyl.t_bottom < times[0] - 1e-9 * max(1.0, abs(times[0])):
        raise ValueError("cylinder time slab starts before the trajectory")
    i_bot = int(np.searchsorted(times, cyl.t_bottom - 1e-12))
    if i_top - i_bot < 1:
        raise ValueError("cylinder time slab spans fewer than two levels")

    ball, lateral, interior = cylinder_masks(g, cyl)
    if not interior.any():
        raise ValueError("cylinder ball has no interior cells at this resolution")

    times, data = times[i_bot:i_top + 1], w.values_matrix()[i_bot:i_top + 1]
    z = data.copy()
    step = _stepper(g, z, w.dt)
    kept = ~interior  # cells that keep w's values
    for k in range(len(z) - 1):
        step(k)
        np.copyto(z[k + 1], data[k + 1], where=kept)
    _require_finite_levels("caloric_replacement", z, times, 1, len(z))
    return HeatTrajectory._from_levels(TemperatureField(g, times[0], z[0]), times, z, w.dt)


def radial_average(
    w: HeatTrajectory,
    x0: Sequence[float],
    t0: float,
    radius: float,
    n_radii: int = 5,
) -> float:
    """Average of caloric replacements over cylinder radii in ``[R, 2R]``.

    Computes ``(1/R) * int_R^{2R} z_rho(x0, t0) d rho`` with an ``n_radii``
    point trapezoid rule, where ``z_rho`` is the caloric replacement on the
    cylinder of radius ``rho`` topped at ``(x0, t0)``.
    """
    require_positive(radius=radius)
    if n_radii < 2:
        raise ValueError("need at least 2 radii for the trapezoid rule")
    g = w.grid
    x0 = tuple(float(v) for v in x0)
    lo = np.asarray(g.origin)
    hi = lo + np.asarray(g.extent)
    big = 2.0 * radius
    if np.any(np.asarray(x0) - big < lo - 1e-12) or np.any(np.asarray(x0) + big > hi + 1e-12):
        raise ValueError("largest cylinder does not fit inside the grid")
    if t0 - big**2 < w.times[0] - 1e-9:
        raise ValueError("largest cylinder time slab starts before the trajectory")

    center_cell = int(np.argmin(((g.cell_centers() - np.asarray(x0)) ** 2).sum(axis=1)))
    rhos = np.linspace(radius, 2.0 * radius, n_radii)
    total = 0.0
    for rho, wt in zip(rhos, _trapezoid_1d(n_radii, rhos[1] - rhos[0])):
        z = caloric_replacement(w, ParabolicCylinder(x0, t0, float(rho)))
        total += wt * z.values_matrix()[-1, center_cell]
    return float(total / radius)


# ---------------------------------------------------------------------------
# trajectory export
# ---------------------------------------------------------------------------

def write_trajectory(
    traj: HeatTrajectory,
    outdir: str | Path,
    stability_limit_used: float | None = None,
    diagnostics: dict | None = None,
    also: Sequence[tuple[Callable[[], None], int]] = (),
) -> Path:
    """Write one CSV per snapshot, ``u_<k:06d>.csv``, plus a manifest JSON;
    returns the manifest path.

    ``also`` holds further ``(write, weight)`` jobs of the same run
    directory, weighed against the snapshots' :func:`grid.field_job`: one
    :func:`grid.write_field_csvs` job writes them and the snapshots, on every
    usable CPU when they are large enough to pay for a fork, and all of it is
    written before the manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = [field_name("u", k) for k in range(len(traj))]
    # each field_job binds grid.write_field_csv here, so a wrapper installed
    # there (benchmarks/tracing.py) sees every snapshot this process writes:
    # all of them, or its share when write_field_csvs forks
    write_field_csvs([*also, *(field_job(f, outdir / n) for f, n in zip(traj.snapshots, names))])
    return write_manifest(outdir, traj.dt, traj.times, names, stability_limit_used,
                          diagnostics or {})
