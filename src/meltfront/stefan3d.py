"""Three-dimensional melting with a height-function front.

The liquid occupies ``{z < rho(x, y, t)}`` inside a box heated through the
bottom face (Dirichlet ``f(t) >= 0`` at ``z = 0``) with insulated side
walls (reflection).  The front is a graph over the horizontal grid and
moves by the vertical form of the gradient law

    drho/dt = -k1 (u_z - rho_x u_x - rho_y u_y)      at z = rho,

equivalent to normal speed ``V_n = -k1 du/dn`` with unit normal
``n = (-rho_x, -rho_y, 1) / J``, ``J = sqrt(1 + rho_x^2 + rho_y^2)``.
Only the vertical form is stepped: ``-k1 D`` with ``D = J du/dn``.

Discretization
--------------
Fields live on cell centers; solid cells (``z >= rho``) store 0 and act as
melting-temperature values for horizontal neighbors.  The top liquid cell
of each column is not stepped: with ``theta = (rho - z_top) / dz`` it holds
the quadratic through the front value 0 and the new values of the two
cells below, ``2 theta/(1+theta) u_1 - theta/(2+theta) u_2``, floored at 0
since the extrapolation undershoots on steep profiles (the ghost value of
a Dirichlet interface; Gibou, Fedkiw, Cheng and Kang, J. Comput. Phys. 176
(2002)).  The front then converges at second order in ``dz`` on the flat
similarity start.  The bottom face enters through the conforming
half-cell formula ``(8 f + 4 u_1 - 12 u_0) / (3 dz^2)``.

Front gradients per column come from a least-squares quadratic
``a (z - rho) + b (z - rho)^2`` over the top three liquid samples (exact
on linear and quadratic profiles); horizontal derivatives difference the
neighbor fits evaluated at the column's own front height, so columns of
different depth compare values at a common level.

The stability limit ``dt <= 1 / (2/dx^2 + 2/dy^2 + 4/dz^2)`` covers the
worst stepped stencil, the half-cell bottom row.

Checks
------
A step touches only the active block: layers ``0..max(layers)``, one solid
layer above the highest liquid cell (capped at the box).  The solid layers
above it hold 0 and are never stepped; the block grows as the front climbs.
``solve3d`` keeps one block across its steps and builds the full cube only
at its last snapshot; ``coupled_step_3d`` runs the same step on a block of its
domain and wraps the result in a ``PhaseDomain``.  The block takes the
grid's spacing, z centers and stability limit once, and holds the front in
one edge-padded ``(a, b, rho)`` buffer: a step writes the column fits and
the moved heights into its interior and ``refresh_edge_padding`` rebuilds
its pad.  Every step checks what one step can break: ``dt`` against the held
stability limit, bottom heating >= 0, finite temperatures that are
nonnegative in the liquid up to ``1e-12 max(1, max|u|)`` (the block holds
the cube's extremes, as every cell above it is 0), at least 3 liquid layers
per column (counted once per step, after the move, for the block depth and
the next step's front offsets), and the moved front inside the box.  The
Lipschitz monitor reads the padded heights every step without
``np.gradient`` and equals ``GraphFront.lipschitz_constant`` bit for bit.
The front only advances (see ``_front_derivative``), so no column ever
loses a liquid layer.  What holds by construction (solid cells exactly 0,
the front grid matching the box section) is checked when a ``PhaseDomain``
is built.  At every snapshot but the last, ``solve3d`` runs the checks of
that build on the block interior instead (``_ActiveBlock.checked_front``):
the heights inside the box, solid cells exactly 0 against the block's layer
counts and the temperature rule, in the same order and with the same
messages, and keeps a ``GraphFront`` of the heights.  The last snapshot
builds the full ``PhaseDomain``, which it returns as the final domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid, TemperatureField, interior_index, refresh_edge_padding, span_stencil
from .heat import TimeFunc, require_cadence, require_finite, require_positive, signed_value, \
    step_count

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

# a padded section's interior and its four neighbor planes, cut once
_INSIDE = interior_index(2)
_EAST, _WEST, _NORTH, _SOUTH = (interior_index(2, {j: s})
                                for j, s in ((0, 1), (0, -1), (1, 1), (1, -1)))
# depths below the top liquid layer of the three samples of a column fit
_DEPTHS = np.arange(3)[:, None, None]


def _front_buffer(heights: np.ndarray) -> np.ndarray:
    """Edge-padded ``(a, b, rho)`` planes over the section, ``rho`` the heights."""
    fronts = np.zeros((3,) + tuple(n + 2 for n in heights.shape))
    fronts[2][_INSIDE] = heights
    refresh_edge_padding(fronts[2])
    return fronts


def _layers(heights: np.ndarray, zc: np.ndarray) -> np.ndarray:
    """Liquid cells per column: the count of cell centers ``zc`` strictly below
    the front."""
    return np.searchsorted(zc, heights)


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


def _check_cells(u: np.ndarray, layers: np.ndarray) -> None:
    """Raise unless the cells of ``u`` at or above ``layers`` per column hold
    exactly 0 and its temperatures pass ``_check_temperatures``."""
    if np.any(np.greater(u != 0.0, np.arange(u.shape[2]) < layers[:, :, None])):
        raise ValueError("solid cells must hold exactly 0")
    _check_temperatures(u)


def _padded_lipschitz(rp: np.ndarray, spacing) -> float:
    """``GraphFront.lipschitz_constant`` of the heights inside the edge-padded
    ``rp``, bit for bit.

    Inside the section a neighbor difference spans two cells; at a wall the pad
    repeats the wall height, so it spans one, the one-sided slope of
    ``np.gradient``.  Dividing the largest difference rounds as dividing each
    would, since rounding is monotone.
    """
    slopes = []
    for diff, h in ((rp[_EAST] - rp[_WEST], spacing[0]),
                    ((rp[_NORTH] - rp[_SOUTH]).T, spacing[1])):
        diff = np.abs(diff)
        walls = diff[::len(diff) - 1]  # the first and last rows
        # np.maximum, as np.max, keeps a NaN
        slopes.append(np.maximum(diff[1:-1].max() / (2.0 * h), walls.max() / h))
    return float(max(slopes))


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
        """Central-difference slopes per horizontal axis, one-sided at the walls."""
        return tuple(np.gradient(self.heights, h, axis=j)
                     for j, h in enumerate(self.grid.spacing))

    @property
    def lipschitz_constant(self) -> float:
        return float(max(np.max(np.abs(s)) for s in self.slopes()))


def _close(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """``np.allclose(a, b, atol=1e-12)`` on tuples of finite floats, in Python floats."""
    return all(abs(x - y) <= 1e-12 + 1e-5 * abs(y) for x, y in zip(a, b))


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
                not _close(fx.origin, self.grid.origin[:2]) or \
                not _close(fx.extent, self.grid.extent[:2]):
            raise ValueError("front grid must match the horizontal section of the box")
        _require_inside(self.front.heights, self.grid)
        v = np.asarray(self.values, dtype=float)
        if v.size != self.grid.total_cells:
            raise ValueError(f"expected {self.grid.total_cells} values, got {v.size}")
        _check_cells(v.reshape(self.grid.shape), self.liquid_layers())
        v = v.reshape(-1).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def liquid_mask(self) -> np.ndarray:
        """Flat boolean mask of liquid cells."""
        return (np.arange(self.grid.counts[2]) < self.liquid_layers()[:, :, None]).reshape(-1)

    def cube(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def liquid_layers(self) -> np.ndarray:
        """Number of liquid cells per column."""
        return _layers(self.front.heights, self.grid.axis_centers(2))


def front_field(front: GraphFront, time: float) -> TemperatureField:
    """Front heights at ``time`` as a scalar field on the horizontal grid."""
    return TemperatureField(front.grid, time, front.heights.reshape(-1))


# ---------------------------------------------------------------------------
# front kinematics
# ---------------------------------------------------------------------------

def _front_offsets(layers: np.ndarray, heights: np.ndarray, zc: np.ndarray,
                   dz: float) -> tuple[np.ndarray, np.ndarray]:
    """Top liquid layer ``m`` and front offset ``theta`` per column, from the
    liquid ``layers`` under ``heights`` over the cell centers ``zc``."""
    if np.any(layers < 3):
        raise ValueError(
            f"front handling needs at least 3 liquid layers per column, "
            f"found a column with {int(layers.min())}"
        )
    m = layers - 1
    theta = (heights - zc[m]) / dz
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


def _front_derivative(fronts: np.ndarray, spacing, samples, theta: np.ndarray):
    """Directional derivative ``D = u_z - rho_x u_x - rho_y u_y``, capped at 0,
    and slopes.

    ``fronts`` is the edge-padded ``(a, b, rho)`` buffer of
    :func:`_front_buffer` holding the current heights; the column fits are
    written into its ``a`` and ``b`` planes.

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
    dx, dy, dz = spacing
    a, b = _column_fits(*samples, theta, dz)

    # mirror images across the insulated walls
    ap, bp, rp = fronts
    ap[_INSIDE], bp[_INSIDE] = a, b
    refresh_edge_padding(ap)
    refresh_edge_padding(bp)
    rho = rp[_INSIDE]

    def fit_value(nb):
        # neighbor fit evaluated at this column's front height
        d = rho - rp[nb]
        return ap[nb] * d + bp[nb] * d * d

    gx = (fit_value(_EAST) - fit_value(_WEST)) / (2.0 * dx)
    gy = (fit_value(_NORTH) - fit_value(_SOUTH)) / (2.0 * dy)
    rx = (rp[_EAST] - rp[_WEST]) / (2.0 * dx)
    ry = (rp[_NORTH] - rp[_SOUTH]) / (2.0 * dy)
    return np.minimum(a - rx * gx - ry * gy, 0.0), rx, ry


def _move_front(heights: np.ndarray, d: np.ndarray, k1: float, dt: float,
                ceiling: float, t: float) -> np.ndarray:
    """Forward Euler on the graph law with vertical rate ``w = -k1 d``;
    returns the moved heights.  A front at or above ``ceiling`` (one cell
    under the top of the box) is an error naming the time ``t``.

    With ``w`` zero or positive, ``heights + dt w`` never rounds below
    ``heights``, so every column keeps the liquid layers it had."""
    new_heights = heights + dt * (-k1 * d)
    if np.any(new_heights >= ceiling):
        raise RuntimeError(f"front reached the top of the box at t={t:g}")
    return new_heights


# ---------------------------------------------------------------------------
# coupled stepping
# ---------------------------------------------------------------------------

def stability_limit_3d(grid: Grid) -> float:
    """Explicit limit covering the stepped stencils: the half-cell bottom row
    reaches ``4 / dz^2``; the front cell is not stepped."""
    dx, dy, dz = grid.spacing
    return 1.0 / (2.0 / dx**2 + 2.0 / dy**2 + 4.0 / dz**2)


class _ActiveBlock:
    """A run's state on its active block (see Checks), edge-padded in ``u``; a
    step writes ``new`` on one flat span, then the two swap.  They are the two
    rows of ``rows``, ``u`` is row ``k``, and the span views are cut once.

    The front lives in the edge-padded ``(a, b, rho)`` buffer ``fronts``, with
    ``heights`` its ``rho`` interior and ``layers`` its liquid layer counts;
    the grid's spacing, z centers, stability limit and the ceiling of the
    front are taken once."""

    def __init__(self, grid: Grid, cube: np.ndarray, heights: np.ndarray):
        self.grid, self.spacing, self.zc = grid, grid.spacing, grid.axis_centers(2)
        self.limit = stability_limit_3d(grid)
        self.ceiling = grid.origin[2] + grid.extent[2] - self.spacing[2]
        self.fronts = _front_buffer(heights)
        self.heights = self.fronts[2][_INSIDE]
        self.layers = _layers(self.heights, self.zc)
        depth = min(int(self.layers.max()) + 1, grid.counts[2])
        u = np.pad(cube[:, :, :depth], 1, mode="edge")
        self.rows = np.stack([u, np.zeros_like(u)])
        self.k, (self.u, self.new) = 0, self.rows
        _, self.centre, self.terms = span_stencil(self.rows, grid.spacing)
        # row k's term buffers: uzz is built in the other row
        uxx, uyy = np.zeros_like(self.centre[0]), np.zeros_like(self.centre[0])
        self.out = [(uxx, uyy, self.centre[1 - k]) for k in (0, 1)]
        # flat index of each column's bottom cell in the padded rows
        self.base = np.arange(u.size).reshape(u.shape)[1:-1, 1:-1, 1].copy()

    def cube(self) -> np.ndarray:
        return np.pad(self.u[1:-1, 1:-1, 1:-1],
                      ((0, 0), (0, 0), (0, self.grid.counts[2] + 2 - self.u.shape[2])))

    def checked_front(self, fx: Grid) -> GraphFront:
        """``GraphFront(fx, heights)`` after the checks of
        ``PhaseDomain(grid, GraphFront(fx, heights), self.cube())``, in its order
        and with its messages, run on the block interior: every cell above it
        is 0, and unless it spans the box its top layer is solid, so it holds
        the cube's extremes."""
        front = GraphFront(fx, self.heights)
        _require_inside(front.heights, self.grid)
        _check_cells(self.u[1:-1, 1:-1, 1:-1], self.layers)
        return front

    def _heat_step(self, m: np.ndarray, theta: np.ndarray, bottom_value: float,
                   dt: float) -> None:
        k, u, new, dz = self.k, self.u, self.new, self.spacing[2]
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

        # each column's top liquid cell holds the quadratic through the front and
        # the two cells below, floored at 0 (it undershoots on steep profiles)
        new, col = new.reshape(-1), self.base + m
        new[col] = np.maximum(2.0 * theta / (1.0 + theta) * new[col - 1]
                              - theta / (2.0 + theta) * new[col - 2], 0.0)

        # solid cells (above layer m) to exactly +0.0, then the padding refreshed
        k0 = int(m.min()) + 1
        np.copyto(self.new[1:-1, 1:-1, 1 + k0:-1], 0.0,
                  where=np.arange(k0, self.new.shape[2] - 2) > m[:, :, None])
        refresh_edge_padding(self.new)

    def step(self, t: float, k1: float, bottom: TimeFunc, dt: float) -> int:
        """One coupled step from ``t`` to ``t + dt``; returns the thin-cell
        count, the columns with ``theta < 1/2`` before the move, and leaves
        the minimum temperature of the new state in ``u_min``."""
        if dt > self.limit * (1.0 + 1e-12):
            raise ValueError(f"dt={dt:g} violates the 3D stability limit {self.limit:g}")
        f_val = signed_value(bottom, t, 1, "bottom heating")

        m, theta = _front_offsets(self.layers, self.heights, self.zc, self.spacing[2])
        self._heat_step(m, theta, f_val, dt)
        self.u_min = _check_temperatures(self.centre[1 - self.k])
        samples = self.new.reshape(-1)[(self.base + m) - _DEPTHS]
        d, _, _ = _front_derivative(self.fronts, self.spacing, samples, theta)
        heights = _move_front(self.heights, d, k1, dt, self.ceiling, t + dt)
        self.k, self.u, self.new = 1 - self.k, self.new, self.u
        self.heights[...] = heights  # the one write of rho per step
        refresh_edge_padding(self.fronts[2])
        self.layers = _layers(heights, self.zc)
        depth = min(int(self.layers.max()) + 1, self.grid.counts[2])
        if depth > self.u.shape[2] - 2:
            self.__init__(self.grid, self.cube(), heights)  # the block must grow
        return int(np.count_nonzero(theta < 0.5))

    def lipschitz(self) -> float:
        """``GraphFront(..., heights).lipschitz_constant``, bit for bit."""
        return _padded_lipschitz(self.fronts[2], self.spacing)


def coupled_step_3d(domain: PhaseDomain, k1: float, bottom: TimeFunc, dt: float):
    """One coupled step: heat update, then the front move.

    The front only advances; newly liquid cells start at the melting value 0.

    Returns the new domain.
    """
    require_positive(dt=dt, k1=k1)
    block = _ActiveBlock(domain.grid, domain.cube(), domain.front.heights)
    block.step(domain.time, k1, bottom, dt)
    return PhaseDomain(domain.grid, GraphFront(domain.front.grid, block.heights),
                       block.cube(), time=domain.time + dt)


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
        require_finite(t0=self.t0)
        require_cadence(self.snapshot_every)
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
    if np.any(_layers(front.heights, grid.axis_centers(2)) < 3):
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

    The report carries the front Lipschitz constant, the enforced stability
    limit and ``thin_cell_steps``, a diagnostic that selects nothing: the
    columns with ``theta < 1/2``, counted every step and summed.

    Each snapshot but the last is checked on the active block
    (``_ActiveBlock.checked_front``), raising where and as a ``PhaseDomain``
    of the full cube would; the last builds that ``PhaseDomain``, the final
    domain.
    """
    domain = _initial_domain(spec)
    grid, fx = spec.grid, domain.front.grid
    limit, dt, n_steps = time_steps(spec)
    snap_every = spec.snapshot_every or max(1, n_steps // 50)

    block = _ActiveBlock(grid, domain.cube(), domain.front.heights)
    t = domain.time
    fronts = [domain.front]
    times = [t]
    thin_cell_steps = 0
    lipschitz = lipschitz_max = block.lipschitz()
    u_min = float(domain.values.min())
    for k in range(n_steps):
        thin_cell_steps += block.step(t, spec.k1, spec.bottom, dt)
        t = t + dt
        lipschitz = block.lipschitz()
        lipschitz_max = max(lipschitz_max, lipschitz)
        # cells above the block hold 0, and so does the block's top layer
        u_min = min(u_min, block.u_min)
        if k + 1 == n_steps:  # the last snapshot is the returned final domain
            domain = PhaseDomain(grid, GraphFront(fx, block.heights), block.cube(),
                                 time=t)
            fronts.append(domain.front)
        elif (k + 1) % snap_every == 0:
            fronts.append(block.checked_front(fx))
        else:
            continue
        times.append(t)

    report = {
        "dt": dt,
        "stability_limit": limit,
        "steps": n_steps,
        "thin_cell_steps": thin_cell_steps,
        "u_min": u_min,
        "front_min": float(block.heights.min()),
        "front_max": float(block.heights.max()),
        "lipschitz_max": lipschitz_max,
        "lipschitz_final": lipschitz,
    }
    return Stefan3DResult(fronts=tuple(fronts), final=domain, times=np.asarray(times),
                          report=report, spec=spec)
