"""Explicit finite-difference machinery for parabolic operators.

The operator is ``L u = sum_jk a_jk D_jk u + sum_j b_j D_j u + c u`` with a
symmetric positive-definite ``a``.  Second derivatives use the standard
central stencil, mixed derivatives the 4-point cross
``(f[+,+] + f[-,-] - f[+,-] - f[-,+]) / (4 h_j h_k)``, first derivatives
central differences.  Coefficients are sampled at cell centers at the
current time level.

Time stepping is forward Euler on interior cells with Dirichlet data written
into the boundary cell layer at the new time; :func:`solve_dirichlet` is the
one stepping entry point.  It marches the rows of one ``(levels, cells)``
matrix, which the returned :class:`HeatTrajectory` holds; the Laplacian
steps on the flat interior span, every other operator through the sliced
stencils of ``_interior_operator``.  The stability limit
``dt <= 1 / (2 sum_j max(a_jj) / h_j^2)`` is enforced, never assumed; it
reduces to ``h^2 / (2 n max a)`` on isotropic grids.  A solve checks it, and
the positive-definiteness of ``a``, at its first step, and again at every
step when the diffusion is a callable of time.

The module also carries the integral-identity tooling used by the
verification layer: whole-space heat-kernel quadrature, the discrete
conservation residual of a trajectory, caloric replacement on parabolic
cylinders, and radial averages of replacements.  The Gaussian kernel and the
trapezoid weights are tensor products, so the quadrature runs as one 1D
contraction per axis, ``O(N sum_j n_j)`` for ``N`` cells.

It also owns the run rules every solver shares: ``step_count``,
``eval_time``, the edge sign rule ``signed_value`` and ``require_positive``.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .grid import Grid, TemperatureField, ParabolicCylinder, _flat_strides, interior_index, \
    interior_span, second_differences, write_fields
from .rundir import write_manifest

__all__ = [
    "OperatorCoefficients",
    "HeatTrajectory",
    "apply_operator",
    "stability_limit",
    "solve_dirichlet",
    "heat_kernel_solution",
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
    """Raise ``ValueError`` for the first of ``values``, in order, that is not positive."""
    for name, v in values.items():
        if v <= 0:
            raise ValueError(f"{name} must be positive, got {v}")


def _sample(coeff, grid: Grid, t: float, shape: tuple[int, ...]) -> np.ndarray:
    """A callable coefficient evaluated at the cell centers, otherwise the
    array itself, broadcast to ``shape``."""
    if callable(coeff):
        vals = np.asarray(coeff(grid.cell_centers(), t), dtype=float)
    else:
        vals = np.asarray(coeff, dtype=float)
    return np.broadcast_to(vals, shape)


class OperatorCoefficients:
    """Coefficient functions of the parabolic operator.

    Parameters
    ----------
    diffusion : callable or array-like or None
        ``a(points, t) -> (N, d, d)`` matrices at cell centers.  A constant
        ``(d, d)`` matrix or scalar is broadcast; ``None`` means the identity
        (pure Laplacian).
    drift : callable or array-like or None
        ``b(points, t) -> (N, d)``; ``None`` means zero.
    reaction : callable or array-like or None
        ``c(points, t) -> (N,)``; ``None`` means zero.
    """

    def __init__(self, diffusion=None, drift=None, reaction=None):
        self.diffusion = diffusion
        self.drift = drift
        self.reaction = reaction

    @classmethod
    def laplacian(cls) -> "OperatorCoefficients":
        """Pure Laplacian: identity diffusion, no drift, no reaction."""
        return cls()

    @classmethod
    def constant(cls, a=None, b=None, c=None) -> "OperatorCoefficients":
        return cls(diffusion=a, drift=b, reaction=c)

    @property
    def is_laplacian(self) -> bool:
        return self.diffusion is None and self.drift is None and self.reaction is None

    def diffusion_matrix(self, grid: Grid, t: float) -> np.ndarray:
        """Diffusion matrices at all cell centers, shape ``(N, d, d)``."""
        d = grid.dim
        a = np.eye(d) if self.diffusion is None else self.diffusion
        if not callable(a) and np.ndim(a) == 0:
            a = np.asarray(a, dtype=float) * np.eye(d)
        return _sample(a, grid, t, (grid.total_cells, d, d))

    def drift_vector(self, grid: Grid, t: float) -> np.ndarray | None:
        if self.drift is None:
            return None
        return _sample(self.drift, grid, t, (grid.total_cells, grid.dim))

    def reaction_scalar(self, grid: Grid, t: float) -> np.ndarray | None:
        if self.reaction is None:
            return None
        return _sample(self.reaction, grid, t, (grid.total_cells,))

    def check_definite(self, grid: Grid, t: float) -> None:
        """Reject diffusion matrices that are asymmetric or not positive definite."""
        if self.diffusion is None:
            return
        a = self.diffusion_matrix(grid, t)
        if not np.allclose(a, np.swapaxes(a, -1, -2), rtol=1e-12, atol=1e-12):
            raise ValueError("diffusion matrix must be symmetric")
        eigs = np.linalg.eigvalsh(a)
        emin = float(eigs.min())
        if emin <= 0.0:
            raise ValueError(
                f"diffusion matrix is not positive definite (min eigenvalue {emin:g})"
            )


def _interior_operator(coeffs: OperatorCoefficients, grid: Grid, u: np.ndarray,
                       t: float) -> np.ndarray:
    """``L u`` on the interior block of the grid-shaped array ``u``; unchecked."""
    d = grid.dim
    interior = interior_index(d)
    terms = second_differences(u, grid.spacing)
    if coeffs.is_laplacian:
        return sum(terms)

    a = coeffs.diffusion_matrix(grid, t).reshape(grid.shape + (d, d))
    acc = sum(a[interior + (j, j)] * d2 for j, d2 in enumerate(terms))
    for j in range(d):
        for k in range(j + 1, d):
            pp = u[interior_index(d, {j: 1, k: 1})]
            mm = u[interior_index(d, {j: -1, k: -1})]
            pm = u[interior_index(d, {j: 1, k: -1})]
            mp = u[interior_index(d, {j: -1, k: 1})]
            cross = (pp + mm - pm - mp) / (4.0 * grid.spacing[j] * grid.spacing[k])
            acc += 2.0 * a[interior + (j, k)] * cross
    b = coeffs.drift_vector(grid, t)
    if b is not None:
        b = b.reshape(grid.shape + (d,))
        for j in range(d):
            up, dn = u[interior_index(d, {j: 1})], u[interior_index(d, {j: -1})]
            acc += b[interior + (j,)] * ((up - dn) / (2.0 * grid.spacing[j]))
    c = coeffs.reaction_scalar(grid, t)
    if c is not None:
        acc += c.reshape(grid.shape)[interior] * u[interior]
    return acc


def apply_operator(coeffs: OperatorCoefficients, f: TemperatureField) -> TemperatureField:
    """Apply ``L`` to a field; result valid on interior cells only.

    Raises
    ------
    ValueError
        For non-finite input or an indefinite diffusion matrix.
    """
    if not np.all(np.isfinite(f.values)):
        raise ValueError("apply_operator requires finite input values")
    g = f.grid
    coeffs.check_definite(g, f.time)
    out = np.zeros(g.shape)
    out[interior_index(g.dim)] = _interior_operator(coeffs, g, f.reshaped(), f.time)
    return TemperatureField(g, f.time, out.ravel(), g.interior_mask())


def stability_limit(coeffs: OperatorCoefficients, grid: Grid, t: float = 0.0) -> float:
    """Largest stable forward-Euler step, ``1 / (2 sum_j max(a_jj) / h_j^2)``."""
    if coeffs.is_laplacian:
        diag_max = [1.0] * grid.dim
    else:
        a = coeffs.diffusion_matrix(grid, t)
        diag_max = [float(a[:, j, j].max()) for j in range(grid.dim)]
    denom = 2.0 * sum(m / h**2 for m, h in zip(diag_max, grid.spacing))
    return 1.0 / denom


class HeatTrajectory:
    """Uniformly spaced levels of one evolution on a shared grid.

    The values live in one read-only ``(levels, cells)`` matrix.  Built from
    snapshots, the trajectory keeps them and stacks their values once; a
    marched one (:func:`solve_dirichlet`) builds its snapshots from the
    matrix rows, as read-only views, on first access.
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
        self._hold(snaps, [s.time for s in snaps], np.stack([s.values for s in snaps]), dt)

    @classmethod
    def _from_levels(cls, initial: TemperatureField, times: Sequence[float],
                     levels: np.ndarray, dt: float) -> "HeatTrajectory":
        """A trajectory over checked ``levels`` whose first row is ``initial``.
        Built without ``__init__``, whose signature subclasses may keep."""
        traj = cls.__new__(cls)
        traj._hold((initial,), times, levels, dt)
        return traj

    def _hold(self, snapshots: tuple[TemperatureField, ...], times: Sequence[float],
              levels: np.ndarray, dt: float) -> None:
        self._snapshots = snapshots  # the first ones; the rest are built on access
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


#: Levels per finiteness reduction in :func:`solve_dirichlet`, as many as
#: ``stefan1d`` steps between its monitor reductions.
_BLOCK_LEVELS = 64


def _stepper(coeffs: OperatorCoefficients, grid: Grid, levels: np.ndarray,
             dt: float) -> Callable[[int, float], None]:
    """``step(k, t)`` writes ``u + dt L u`` on the interior of row ``k + 1`` of
    ``levels``, where ``u`` is row ``k`` at time ``t``.  It may write boundary
    cells of row ``k + 1`` too; the caller overwrites them."""
    if not coeffs.is_laplacian:
        interior = interior_index(grid.dim)

        def step(k: int, t: float) -> None:
            u, new = levels[k].reshape(grid.shape), levels[k + 1].reshape(grid.shape)
            new[interior] = u[interior] + dt * _interior_operator(coeffs, grid, u, t)

        return step

    # The Laplacian runs on the flat interior span of each row, with the
    # operations of second_differences and sum() in their order, so interior
    # cells equal the sliced form bit for bit.  Each span position off the
    # interior is a boundary cell.  The span and its shifts along each axis
    # are cut once, as columns of every row.
    span = interior_span(grid.shape)
    center, new = levels[:, span], levels[1:, span]
    shifted = [(levels[:, span.start + s:span.stop + s],
                levels[:, span.start - s:span.stop - s], h**2)
               for s, h in zip(_flat_strides(grid.shape), grid.spacing)]
    terms = np.empty((grid.dim, span.stop - span.start))
    acc, twice = terms[0], terms[-1]

    def step(k: int, t: float) -> None:
        # 2 u[0], shared by every axis, waits in the last term until its own turn
        np.multiply(center[k], 2.0, out=twice)
        for term, (up, dn, h2) in zip(terms, shifted):
            np.subtract(up[k], twice, out=term)
            np.add(term, dn[k], out=term)
            np.divide(term, h2, out=term)
        np.add(acc, 0.0, out=acc)  # sum()'s leading 0: a -0.0 term becomes +0.0
        for term in terms[1:]:
            np.add(acc, term, out=acc)
        np.multiply(acc, dt, out=acc)
        np.add(center[k], acc, out=new[k])

    return step


def _require_finite_levels(levels: np.ndarray, times: Sequence[float], lo: int,
                           hi: int) -> None:
    """Raise ``ValueError`` naming the first non-finite row of ``levels[lo:hi]``."""
    finite = np.isfinite(levels[lo:hi]).all(axis=1)
    if not finite.all():
        k = lo + int(np.argmin(finite))
        raise ValueError(f"solve_dirichlet level {k} (t={times[k]:g}) holds non-finite values")


def solve_dirichlet(
    coeffs: OperatorCoefficients,
    initial: TemperatureField,
    boundary: BoundaryData,
    duration: float,
    dt: float,
) -> HeatTrajectory:
    """March ``ceil(duration / dt)`` forward-Euler steps from the initial field.

    Interior cells take ``u + dt L u``, boundary cells the Dirichlet data at
    the new time; each level is written into one preallocated ``(levels,
    cells)`` matrix, which the returned trajectory holds.  The initial values
    are checked once per solve; positive-definiteness and the stability
    limit at the first step, and at every step when ``coeffs.diffusion`` is
    callable, since only then can time change them.  The finiteness of the
    levels is checked in blocks of ``_BLOCK_LEVELS``, and before any other
    error a step raises, so the first failure is the one reported.  Each
    failed check raises ``ValueError``.
    """
    require_positive(duration=duration, dt=dt)
    if not np.all(np.isfinite(initial.values)):
        raise ValueError("solve_dirichlet requires finite initial values")
    g = initial.grid
    n_steps = step_count(duration, dt)
    bcells = np.flatnonzero(g.boundary_mask())
    bpts = g.cell_centers()[bcells]
    bpts.setflags(write=False)  # every step's boundary call shares these centres
    levels = np.empty((n_steps + 1, g.total_cells))
    levels[0] = initial.values
    step = _stepper(coeffs, g, levels, dt)
    t = initial.time
    times = [t]
    checked = 1  # levels[:checked] are known finite
    for k in range(n_steps):
        try:
            if k == 0 or callable(coeffs.diffusion):
                coeffs.check_definite(g, t)
                limit = stability_limit(coeffs, g, t)
                if dt > limit * (1.0 + 1e-12):
                    raise ValueError(
                        f"dt={dt:g} violates the stability limit {limit:g} for this grid/operator"
                    )
            step(k, t)
            t += dt
            levels[k + 1][bcells] = boundary(bpts, t) if callable(boundary) else boundary
        except Exception:
            # a non-finite level written before the failure is the first fault
            _require_finite_levels(levels, times, checked, len(times))
            raise
        times.append(t)
        if len(times) - checked == _BLOCK_LEVELS or k + 1 == n_steps:
            _require_finite_levels(levels, times, checked, len(times))
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


def _heat_kernel_on_axes(phi: TemperatureField, t: float, targets: list[np.ndarray]) -> np.ndarray:
    """Quadrature at the tensor product of the 1D target centers ``targets``."""
    if t <= 0:
        raise ValueError(f"heat kernel requires t > 0, got {t}")
    g = phi.grid
    if len(targets) != g.dim:
        raise ValueError(f"evaluation target is {len(targets)}-d for a {g.dim}-d grid")
    out = phi.reshaped()
    for j, y in enumerate(targets):
        kern = np.exp(-((y[:, None] - g.axis_centers(j)) ** 2) / (4.0 * t))
        kern *= _trapezoid_1d(g.counts[j], g.spacing[j])
        out = np.moveaxis(np.tensordot(kern, out, axes=([1], [j])), 0, j)
    return (4.0 * np.pi * t) ** (-g.dim / 2.0) * out


def heat_kernel_solution(phi: TemperatureField, x: Sequence[float], t: float) -> float:
    """Whole-space heat solution ``(4 pi t)^(-n/2) int phi(y) exp(-|x-y|^2/4t) dy``.

    The integral is tensor-product trapezoid quadrature over ``phi``'s grid,
    so the domain must be wide enough that the Gaussian tail outside it is
    negligible for the intended use.  It runs :func:`heat_kernel_field`'s
    per-axis contraction on a one-point target, ``O(N)`` for ``N`` cells.
    Raises ``ValueError`` for ``t <= 0`` or a point of another dimension.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    return float(_heat_kernel_on_axes(phi, t, [x[j : j + 1] for j in range(x.size)]).item())


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
    axes = [target.axis_centers(j) for j in range(target.dim)]
    return TemperatureField(target, phi.time + t, _heat_kernel_on_axes(phi, t, axes))


def conservation_residual(traj: HeatTrajectory) -> float:
    """Discrete defect of ``int int (u_t - lap u) dx dt`` over the trajectory.

    The ``u_t`` integral telescopes exactly (forward differences summed over
    the levels); the Laplacian integral uses trapezoid rules in both space
    (interior cells) and time.  For a trajectory produced by the explicit
    scheme the residual is the pure time-quadrature defect, O(dt).

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
    # per-level integral of the discrete Laplacian over the interior box
    lap_int = np.zeros(len(traj))
    for term in second_differences(vals, g.spacing, lead=1):
        lap_int += (term * w_space[interior]).reshape(len(traj), -1).sum(axis=1)

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
    interior ball cells explicitly.  Its levels are the sub-range of ``w``'s
    levels covering the cylinder's time slab.

    Raises
    ------
    ValueError
        If the ball is not resolved by at least 4 cells across, the step
        violates the pure-Laplacian stability limit, or the slab does not
        fit the trajectory's time range.
    """
    g = w.grid
    _require_resolved(g, cyl)
    limit = stability_limit(OperatorCoefficients.laplacian(), g)
    if w.dt > limit * (1.0 + 1e-12):
        raise ValueError(
            f"trajectory step dt={w.dt:g} violates the stability limit {limit:g}"
        )
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

    z = w.snapshots[i_bot].values.copy()
    out = [TemperatureField(g, times[i_bot], z.copy())]
    for k in range(i_bot, i_top):
        lap = np.zeros(g.counts)
        lap[interior_index(g.dim)] = sum(second_differences(z.reshape(g.counts), g.spacing))
        z_next = w.snapshots[k + 1].values.copy()
        stepped = z + w.dt * lap.ravel()
        z_next[interior] = stepped[interior]
        z = z_next
        out.append(TemperatureField(g, times[k + 1], z.copy()))
    return HeatTrajectory(out, w.dt)


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
        total += wt * z.snapshots[-1].values[center_cell]
    return float(total / radius)


# ---------------------------------------------------------------------------
# trajectory export
# ---------------------------------------------------------------------------

def write_trajectory(
    traj: HeatTrajectory,
    outdir: str | Path,
    prefix: str = "u",
    stability_limit_used: float | None = None,
    diagnostics: dict | None = None,
) -> Path:
    """Write one CSV per snapshot plus a manifest JSON; returns the manifest path."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    # grid.write_fields looks grid.write_field_csv up per call, so a wrapper
    # installed there (benchmarks/tracing.py) sees every snapshot
    names = write_fields(traj.snapshots, outdir, prefix)
    return write_manifest(outdir, traj.dt, traj.times, names, stability_limit_used,
                          diagnostics or {})
