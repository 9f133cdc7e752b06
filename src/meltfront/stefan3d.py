"""Three-dimensional melting with a height-function front.

The liquid occupies ``{z < rho(x, y, t)}`` inside a box heated through the
bottom face (Dirichlet ``f(t) >= 0`` at ``z = 0``) with insulated side
walls (reflection).  The front is a graph over the horizontal grid and
moves by the vertical form of the gradient law

    drho/dt = -k1 (u_z - rho_x u_x - rho_y u_y)      at z = rho,

equivalent to normal speed ``V_n = -k1 du/dn`` with unit normal
``n = (-rho_x, -rho_y, 1) / J``, ``J = sqrt(1 + rho_x^2 + rho_y^2)``.
Both forms are evaluated from the same gradient samples each step, and
their difference (a pure rounding check) is recorded.

Discretization
--------------
Fields live on cell centers; solid cells (``z >= rho``) store 0 and act as
melting-temperature values for horizontal neighbors.  The vertical stencil
of the top liquid cell in each column conforms to the front: with
``theta = (rho - z_top) / dz`` the one-sided second difference

    u_zz ~ 2 [theta u_below - (1 + theta) u_top] / (theta (1 + theta) dz^2)

uses the front value 0 at distance ``theta dz``.  Cells with
``theta < 1/2`` are not stepped; they are slaved to the quadratic through
the front and the two cells below (value ``2 theta/(1+theta) u_1 -
theta/(2+theta) u_2``, floored at 0 since the extrapolation undershoots
on steep profiles).  The bottom face enters through the conforming
half-cell formula ``(8 f + 4 u_1 - 12 u_0) / (3 dz^2)``.

Front gradients per column come from a least-squares quadratic
``a (z - rho) + b (z - rho)^2`` over the top three liquid samples (exact
on linear and quadratic profiles); horizontal derivatives difference the
neighbor fits evaluated at the column's own front height, so columns of
different depth compare values at a common level.

The stability limit ``dt <= 1 / (2/dx^2 + 2/dy^2 + 4/dz^2)`` covers the
worst stepped stencil (``theta = 1/2`` and the bottom row).

Checks
------
A step touches only the active block: layers ``0..max(layers)``, one solid
layer above the highest liquid cell (capped at the box).  The solid layers
above it hold 0 and are never stepped; the block grows as the front climbs.
``solve3d`` keeps one block across its steps and builds the full cube only
at snapshots; ``coupled_step_3d`` runs the same step on a block of its
domain and wraps the result in a ``PhaseDomain``.  Every step checks
what one step can break: ``dt`` against the stability limit, bottom
heating >= 0, finite temperatures that are nonnegative in the liquid up to
``1e-12 max(1, max|u|)`` (the block holds the cube's extremes, as every
cell above it is 0), at least 3 liquid layers per column, and the moved
front inside the box.  The front only advances (see ``_front_derivative``),
so no column ever loses a liquid layer.  What
holds by construction (solid cells exactly 0, the front grid matching the
box section) is checked when a ``PhaseDomain`` is built.  ``solve3d`` builds
one at each snapshot for that check and keeps only its front, except for
the last, which it returns as the final domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid, TemperatureField, interior_index, refresh_edge_padding, span_stencil
from .heat import TimeFunc, require_positive, signed_value, step_count

__all__ = [
    "GraphFront",
    "PhaseDomain",
    "StefanSpec3D",
    "Stefan3DResult",
    "coupled_step_3d",
    "solve3d",
    "stability_limit_3d",
    "time_steps",
    "front_field",
]


# ---------------------------------------------------------------------------
# front and domain containers
# ---------------------------------------------------------------------------

def _layers(heights: np.ndarray, grid: Grid) -> np.ndarray:
    """Liquid cells per column: the count of cell centers strictly below the front."""
    return np.searchsorted(grid.axis_centers(2), heights)


def _require_inside(heights: np.ndarray, grid: Grid) -> None:
    """Raise unless every front height lies strictly inside the vertical extent."""
    z_lo = grid.origin[2]
    if np.any(heights <= z_lo) or np.any(heights >= z_lo + grid.extent[2]):
        raise ValueError("front heights must lie inside the vertical extent")


def _check_temperatures(values: np.ndarray) -> float:
    """Finite temperatures, nonnegative in the liquid up to ``1e-12 max(1, max|u|)``,
    of values whose solid cells hold 0; returns the minimum."""
    hi, lo = float(values.max()), float(values.min())
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError("temperature values must be finite")
    if lo < -1e-12 * max(1.0, max(hi, -lo)):
        raise ValueError("liquid cells must hold nonnegative temperatures")
    return lo


def _slopes(heights: np.ndarray, spacing) -> tuple[np.ndarray, ...]:
    """Central-difference slopes per horizontal axis, one-sided at the walls."""
    return tuple(np.gradient(heights, h, axis=j) for j, h in enumerate(spacing))


def _lipschitz(heights: np.ndarray, spacing) -> float:
    return float(max(np.max(np.abs(s)) for s in _slopes(heights, spacing)))


@dataclass(frozen=True)
class GraphFront:
    """Front heights over a 2D horizontal grid (one value per column)."""

    grid: Grid
    heights: np.ndarray

    def __post_init__(self):
        if self.grid.dim != 2:
            raise ValueError("graph front lives on a 2D horizontal grid")
        h = np.asarray(self.heights, dtype=float)
        if h.shape != self.grid.shape:
            h = h.reshape(self.grid.shape)
        if not np.all(np.isfinite(h)):
            raise ValueError("front heights must be finite")
        h = h.copy()
        h.setflags(write=False)
        object.__setattr__(self, "heights", h)

    def slopes(self) -> tuple[np.ndarray, ...]:
        return _slopes(self.heights, self.grid.spacing)

    @property
    def lipschitz_constant(self) -> float:
        return _lipschitz(self.heights, self.grid.spacing)


@dataclass(frozen=True)
class PhaseDomain:
    """Temperature field on a 3D box together with the front graph.

    Solid cells (center at or above the front) hold exactly 0.
    """

    grid: Grid
    front: GraphFront
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        if self.grid.dim != 3:
            raise ValueError("phase domain needs a 3D grid")
        fx = self.front.grid
        if fx.counts != self.grid.counts[:2] or \
                not np.allclose(fx.origin, self.grid.origin[:2], atol=1e-12) or \
                not np.allclose(fx.extent, self.grid.extent[:2], atol=1e-12):
            raise ValueError("front grid must match the horizontal section of the box")
        _require_inside(self.front.heights, self.grid)
        v = np.asarray(self.values, dtype=float)
        if v.size != self.grid.total_cells:
            raise ValueError(f"expected {self.grid.total_cells} values, got {v.size}")
        cube = v.reshape(self.grid.shape)
        if np.any(cube[~self._liquid_cube()] != 0.0):
            raise ValueError("solid cells must hold exactly 0")
        _check_temperatures(cube)
        v = v.reshape(-1).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def _liquid_cube(self) -> np.ndarray:
        return np.arange(self.grid.counts[2]) < self.liquid_layers()[:, :, None]

    def liquid_mask(self) -> np.ndarray:
        """Flat boolean mask of liquid cells."""
        return self._liquid_cube().reshape(-1)

    def cube(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def liquid_layers(self) -> np.ndarray:
        """Number of liquid cells per column."""
        return _layers(self.front.heights, self.grid)


def front_field(front: GraphFront, time: float) -> TemperatureField:
    """Front heights at ``time`` as a scalar field on the horizontal grid."""
    return TemperatureField(front.grid, time, front.heights.reshape(-1))


# ---------------------------------------------------------------------------
# front kinematics
# ---------------------------------------------------------------------------

def _front_offsets(heights: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Top liquid layer ``m`` and front offset ``theta`` per column."""
    layers = _layers(heights, grid)
    if np.any(layers < 3):
        raise ValueError(
            f"front handling needs at least 3 liquid layers per column, "
            f"found a column with {int(layers.min())}"
        )
    m = layers - 1
    theta = (heights - grid.axis_centers(2)[m]) / grid.spacing[2]
    return m, theta


def _column_fits(u0: np.ndarray, u1: np.ndarray, u2: np.ndarray, theta: np.ndarray,
                 dz: float) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares quadratic through the top three liquid samples per column.

    Returns ``(a, b)`` with the fit ``a d + b d^2`` in the signed front
    distance ``d = z - rho``, for the samples at the top liquid layer ``m``
    (front offset ``theta``), ``m - 1`` and ``m - 2``.

    The powers are products: numpy sends a negative-base ``pow`` to scalar
    libm, and a positive-base ``pow`` rounds differently per SIMD level.
    """
    d0 = -theta * dz
    d1 = -(theta + 1.0) * dz
    d2 = -(theta + 2.0) * dz
    q0, q1, q2 = d0 * d0, d1 * d1, d2 * d2
    s2 = q0 + q1 + q2
    s3 = q0 * d0 + q1 * d1 + q2 * d2
    s4 = q0 * q0 + q1 * q1 + q2 * q2
    t1 = d0 * u0 + d1 * u1 + d2 * u2
    t2 = q0 * u0 + q1 * u1 + q2 * u2
    det = s2 * s4 - s3 * s3
    a = (s4 * t1 - s3 * t2) / det
    b = (s2 * t2 - s3 * t1) / det
    return a, b


def _front_derivative(grid: Grid, samples, rho: np.ndarray, theta: np.ndarray):
    """Directional derivative ``D = u_z - rho_x u_x - rho_y u_y``, capped at 0,
    and slopes.

    ``D`` equals ``grad(u) . n`` times the metric factor ``J``.  Horizontal
    derivatives difference neighbor fits evaluated at the column's own front
    height; a column's own fit vanishes there, which makes the wall mirror
    image contribute exactly 0.  The cap is the melting clamp: nonnegative
    liquid temperatures vanishing on the front force the true derivative
    along the outward normal to be nonpositive, while the quadratic fit can
    briefly invert the sign where heat has only just reached the sample
    layers.  So the vertical rate ``-k1 D`` is zero or positive, and the
    front never retreats.
    """
    dx, dy, dz = grid.spacing
    a, b = _column_fits(*samples, theta, dz)

    # mirror images across the insulated walls
    ap, bp, rp = np.pad(np.stack([a, b, rho]), ((0, 0), (1, 1), (1, 1)), mode="edge")

    def fit_value(sx, sy):
        # neighbor fit evaluated at this column's front height
        nb = interior_index(2, {0: sx, 1: sy})
        d = rho - rp[nb]
        return ap[nb] * d + bp[nb] * d * d

    gx = (fit_value(1, 0) - fit_value(-1, 0)) / (2.0 * dx)
    gy = (fit_value(0, 1) - fit_value(0, -1)) / (2.0 * dy)
    rx = (rp[2:, 1:-1] - rp[:-2, 1:-1]) / (2.0 * dx)
    ry = (rp[1:-1, 2:] - rp[1:-1, :-2]) / (2.0 * dy)
    return np.minimum(a - rx * gx - ry * gy, 0.0), rx, ry


def _move_front(grid: Grid, heights: np.ndarray, d: np.ndarray, rx: np.ndarray,
                ry: np.ndarray, k1: float, dt: float, t: float):
    """Forward Euler on the graph law; returns ``(heights, w, consistency)``
    with ``w`` the vertical rate and ``consistency`` the gap to the
    normal-speed form.  Errors name the time ``t``.

    With ``w`` zero or positive, ``heights + dt w`` never rounds below
    ``heights``, so every column keeps the liquid layers it had."""
    w = -k1 * d
    j = np.sqrt(1.0 + rx * rx + ry * ry)
    vn = -k1 * d / j
    consistency = float(np.max(np.abs(dt * w - dt * vn * j)))

    dz = grid.spacing[2]
    new_heights = heights + dt * w
    z_top = grid.origin[2] + grid.extent[2]
    if np.any(new_heights >= z_top - dz):
        raise RuntimeError(f"front reached the top of the box at t={t:g}")
    return new_heights, w, consistency


# ---------------------------------------------------------------------------
# coupled stepping
# ---------------------------------------------------------------------------

def stability_limit_3d(grid: Grid) -> float:
    """Explicit limit covering the conforming stencils: ``theta >= 1/2``
    front cells and the half-cell bottom row both reach ``4 / dz^2``."""
    dx, dy, dz = grid.spacing
    return 1.0 / (2.0 / dx**2 + 2.0 / dy**2 + 4.0 / dz**2)


class _ActiveBlock:
    """A run's state on its active block (see Checks), edge-padded in ``u``; a
    step writes ``new`` on one flat span, then the two swap.  They are the two
    rows of ``rows``, ``u`` is row ``k``, and the span views are cut once."""

    def __init__(self, grid: Grid, cube: np.ndarray, heights: np.ndarray):
        self.grid, self.heights = grid, heights
        depth = min(int(_layers(heights, grid).max()) + 1, grid.counts[2])
        u = np.pad(cube[:, :, :depth], 1, mode="edge")
        self.rows = np.stack([u, np.zeros_like(u)])
        self.k, (self.u, self.new) = 0, self.rows
        span, self.centre, self.terms = span_stencil(self.rows, grid.spacing)
        # row k's term buffers: uxx full-size (the front stencil reads it), uzz the other row
        self.uxy, uyy = np.zeros(u.size), np.zeros_like(self.centre[0])
        self.out = [(self.uxy[span], uyy, self.centre[1 - k]) for k in (0, 1)]
        # flat index of each column's bottom cell in the padded rows
        self.base = np.arange(u.size).reshape(u.shape)[1:-1, 1:-1, 1].copy()

    def cube(self) -> np.ndarray:
        return np.pad(self.u[1:-1, 1:-1, 1:-1],
                      ((0, 0), (0, 0), (0, self.grid.counts[2] + 2 - self.u.shape[2])))

    def _heat_step(self, m: np.ndarray, theta: np.ndarray, bottom_value: float,
                   dt: float) -> int:
        k, u, new, dz = self.k, self.u, self.new, self.grid.spacing[2]
        # edge padding mirrors the insulated side walls; in z it only touches the
        # top layer, which is solid or the front cell and rewritten below either way
        # uzz is built in new, which the update then overwrites in place
        uxx, uyy, uzz = self.terms(k, self.out[k])
        new[1:-1, 1:-1, 1] = (8.0 * bottom_value + 4.0 * u[1:-1, 1:-1, 2]
                              - 12.0 * u[1:-1, 1:-1, 1]) / (3.0 * dz**2)
        np.add(uxx, uyy, out=uxx)
        np.add(uxx, uzz, out=uzz)
        np.multiply(dt, uzz, out=uzz)
        np.add(self.centre[k], uzz, out=uzz)  # u + dt * (uxx + uyy + uzz)

        # conforming front stencil for the top liquid cell of each column
        u, new, col = u.reshape(-1), new.reshape(-1), self.base + m
        u_m = u[col]
        uzz_sw = 2.0 * (theta * u[col - 1] - (1.0 + theta) * u_m) \
            / (theta * (1.0 + theta) * dz**2)
        top_new = u_m + dt * (self.uxy[col] + uzz_sw)

        # thin cells are slaved to the quadratic through the front instead;
        # floored at 0 because the extrapolation undershoots on steep profiles
        slaved = np.maximum(2.0 * theta / (1.0 + theta) * new[col - 1]
                            - theta / (2.0 + theta) * new[col - 2], 0.0)
        thin = theta < 0.5
        new[col] = np.where(thin, slaved, top_new)

        # solid cells (above layer m) to exactly +0.0, then the padding refreshed
        k0 = int(m.min()) + 1
        np.copyto(self.new[1:-1, 1:-1, 1 + k0:-1], 0.0,
                  where=np.arange(k0, self.new.shape[2] - 2) > m[:, :, None])
        refresh_edge_padding(self.new)
        return int(np.sum(thin))

    def step(self, t: float, k1: float, bottom: TimeFunc, dt: float) -> dict:
        """One coupled step from ``t`` to ``t + dt``; returns the info dict and
        leaves the minimum temperature of the new state in ``u_min``."""
        grid = self.grid
        limit = stability_limit_3d(grid)
        if dt > limit * (1.0 + 1e-12):
            raise ValueError(f"dt={dt:g} violates the 3D stability limit {limit:g}")
        f_val = signed_value(bottom, t, 1, "bottom heating")

        m, theta = _front_offsets(self.heights, grid)
        thin_count = self._heat_step(m, theta, f_val, dt)
        new = self.new.reshape(-1)
        self.u_min = _check_temperatures(self.centre[1 - self.k])
        samples = [new[self.base + m - k] for k in range(3)]
        d, rx, ry = _front_derivative(grid, samples, self.heights, theta)
        heights, w, consistency = _move_front(grid, self.heights, d, rx, ry, k1, dt,
                                              t + dt)
        info = {"consistency": consistency, "thin_cells": thin_count,
                "front_speed_max": float(np.max(np.abs(w)))}
        self.k, self.u, self.new, self.heights = 1 - self.k, self.new, self.u, heights
        depth = min(int(_layers(heights, grid).max()) + 1, grid.counts[2])
        if depth > self.u.shape[2] - 2:
            self.__init__(grid, self.cube(), heights)  # the block must grow
        return info


def coupled_step_3d(domain: PhaseDomain, k1: float, bottom: TimeFunc, dt: float):
    """One coupled step: conforming heat update, then the front move.

    The front only advances; newly liquid cells start at the melting value 0.

    Returns ``(domain, info)`` with ``info`` carrying the consistency gap,
    the thin-cell count and the largest front speed.
    """
    require_positive(dt=dt, k1=k1)
    block = _ActiveBlock(domain.grid, domain.cube(), domain.front.heights)
    info = block.step(domain.time, k1, bottom, dt)
    return PhaseDomain(domain.grid, GraphFront(domain.front.grid, block.heights),
                       block.cube(), time=domain.time + dt), info


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StefanSpec3D:
    """Configuration of a 3D melting run in a box with insulated sides."""

    grid: Grid
    k1: float
    duration: float
    bottom: TimeFunc = 1.0
    initial_front: float | Callable[[np.ndarray, np.ndarray], np.ndarray] = 0.5
    initial: Callable[[np.ndarray], np.ndarray] | None = None
    dt: float | None = None
    t0: float = 0.0
    snapshot_every: int | None = None

    def __post_init__(self):
        if self.grid.dim != 3:
            raise ValueError("3D runs need a 3D grid")
        require_positive(k1=self.k1, duration=self.duration)
        if self.dt is not None:
            require_positive(dt=self.dt)
        _initial_front(self)  # a start the step cannot take is refused here


@dataclass(frozen=True)
class Stefan3DResult:
    """Output of :func:`solve3d`: the front at each snapshot time, the
    initial front first, and the domain at the last time."""

    fronts: tuple[GraphFront, ...]
    final: PhaseDomain
    times: np.ndarray
    report: dict
    spec: StefanSpec3D


def _initial_front(spec: StefanSpec3D) -> GraphFront:
    """The start front: inside the box, over at least 3 liquid layers in every
    column."""
    grid = spec.grid
    fx = Grid(origin=grid.origin[:2], extent=grid.extent[:2], counts=grid.counts[:2])
    if callable(spec.initial_front):
        xc = fx.axis_centers(0)
        yc = fx.axis_centers(1)
        heights = np.asarray(spec.initial_front(xc[:, None], yc[None, :]),
                             dtype=float)
        heights = np.broadcast_to(heights, fx.shape).copy()
    else:
        heights = np.full(fx.shape, float(spec.initial_front))
    front = GraphFront(fx, heights)
    if np.any(_layers(front.heights, grid) < 3):
        raise ValueError("initial front must leave at least 3 liquid layers")
    _require_inside(front.heights, grid)
    return front


def _initial_domain(spec: StefanSpec3D) -> PhaseDomain:
    """The validated start."""
    grid = spec.grid
    front = _initial_front(spec)
    liquid = grid.axis_centers(2) < front.heights[:, :, None]
    vals = np.zeros(grid.shape)
    if spec.initial is not None:
        pts = grid.cell_centers()
        sampled = np.asarray(spec.initial(pts), dtype=float).reshape(grid.shape)
        if np.any(sampled[liquid] < -1e-12):
            raise ValueError("initial temperature must be nonnegative in the liquid")
        vals[liquid] = sampled[liquid]
    return PhaseDomain(grid, front, vals.reshape(-1), time=spec.t0)


def time_steps(spec: StefanSpec3D) -> tuple[float, float, int]:
    """Stability limit, step ``dt`` and step count ``n`` of the run of
    ``spec``, which ends at ``t0 + n dt``."""
    limit = stability_limit_3d(spec.grid)
    dt = spec.dt if spec.dt is not None else 0.8 * limit
    return limit, dt, step_count(spec.duration, dt)


def solve3d(spec: StefanSpec3D) -> Stefan3DResult:
    """Integrate a 3D melting run; returns decimated fronts, the final domain
    and a report.

    The report carries the rounding-level consistency gap between the two
    front-speed forms, thin-cell counts, the largest front speed, the front
    Lipschitz constant, and the enforced stability limit.
    """
    domain = _initial_domain(spec)
    grid, fx = spec.grid, domain.front.grid
    limit, dt, n_steps = time_steps(spec)
    snap_every = spec.snapshot_every or max(1, n_steps // 50)

    block = _ActiveBlock(grid, domain.cube(), domain.front.heights)
    t = domain.time
    fronts = [domain.front]
    times = [t]
    infos = []
    lipschitz_max = _lipschitz(block.heights, fx.spacing)
    u_min = float(domain.values.min())
    for k in range(n_steps):
        infos.append(block.step(t, spec.k1, spec.bottom, dt))
        t = t + dt
        lipschitz_max = max(lipschitz_max, _lipschitz(block.heights, fx.spacing))
        # cells above the block hold 0, and so does the block's top layer
        u_min = min(u_min, block.u_min)
        if (k + 1) % snap_every == 0 or k + 1 == n_steps:
            domain = PhaseDomain(grid, GraphFront(fx, block.heights), block.cube(),
                                 time=t)
            fronts.append(domain.front)
            times.append(t)
    heights = block.heights

    report = {
        "dt": dt,
        "stability_limit": limit,
        "steps": n_steps,
        "consistency_max": max(i["consistency"] for i in infos),
        "thin_cell_steps": sum(i["thin_cells"] for i in infos),
        "front_speed_max": max(i["front_speed_max"] for i in infos),
        "u_min": u_min,
        "front_min": float(heights.min()),
        "front_max": float(heights.max()),
        "lipschitz_max": lipschitz_max,
        "lipschitz_final": _lipschitz(heights, fx.spacing),
    }
    return Stefan3DResult(fronts=tuple(fronts), final=domain, times=np.asarray(times),
                          report=report, spec=spec)
