"""One-dimensional melting-front solver on front-fixed coordinates.

The liquid phase occupies ``0 < x < s(t)`` with unit diffusivity,
``u(0,t) = f(t) >= 0`` and ``u(s(t),t) = 0`` enforced exactly at every step.
The front moves by the gradient law ``s' = -k1 u_x(s-, t)``; with an
optional second (solid) phase on ``s < x < L``, held at ``g(t) <= 0`` on
``x = L``, the law becomes the jump ``s' = k2 u_x(s+, t) - k1 u_x(s-, t)``.

Each phase is mapped onto the unit interval with its far edge at node 0 and
the front at node ``nx``: ``eta = x / s`` for the liquid and the mirrored
``eta = (L - x) / (L - s)`` for the solid, on nodes ``eta_i = i / nx``.
With ``w`` the phase width (``s`` or ``L - s``) and ``sigma = +1`` for the
liquid, ``-1`` for the solid, both phases solve one equation, the fixed
domain costing an advection term:

    U_t = U_etaeta / w^2 + sigma eta (s' / w) U_eta,

and the front law reads ``s' = -sum_p k_p D(U_p) / w_p``, where ``D`` is
the one-sided second-order 3-point difference at the front node (exact on
linear and quadratic profiles).  Time stepping is forward Euler (front
first, then the mapped heat update with frozen coefficients); the combined
diffusion/advection stability bound is checked every step, never assumed.

``similarity_oracle`` provides the classical similarity solution
``u = 1 - erf(x / 2 sqrt(t)) / erf(lambda)``, ``s = 2 lambda sqrt(t)``,
where ``lambda`` solves ``lambda e^(lambda^2) erf(lambda) = St / sqrt(pi)``
by bisection; it is the reference for every accuracy test of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import erf

from .grid import Grid, TemperatureField, write_csv_rows
from .heat import HeatTrajectory, TimeFunc, eval_time

__all__ = [
    "StefanSpec1D",
    "FrontTrajectory",
    "StefanResult",
    "SimilaritySolution",
    "similarity_oracle",
    "transcendental_residual",
    "front_gradient",
    "solve_stefan",
    "physical_trajectory",
    "write_front_csv",
]

SpaceFunc = Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# similarity solution
# ---------------------------------------------------------------------------

def transcendental_residual(lam: float, stefan_number: float) -> float:
    """Residual of ``lam e^(lam^2) erf(lam) - St / sqrt(pi)``."""
    return float(lam * math.exp(lam * lam) * math.erf(lam)
                 - stefan_number / math.sqrt(math.pi))


@dataclass(frozen=True)
class SimilaritySolution:
    """Closed-form one-phase melting solution for ``u(0,t) = 1``."""

    stefan_number: float
    lam: float

    def front(self, t) -> np.ndarray | float:
        return 2.0 * self.lam * np.sqrt(t)

    def front_velocity(self, t) -> np.ndarray | float:
        return self.lam / np.sqrt(t)

    def profile(self, x, t) -> np.ndarray:
        """Raw similarity profile; positive ahead of the front, negative past it."""
        return 1.0 - erf(np.asarray(x, dtype=float) / (2.0 * np.sqrt(t))) / math.erf(self.lam)

    def temperature(self, x, t) -> np.ndarray:
        """Physical temperature: the profile clamped to 0 beyond the front."""
        return np.maximum(self.profile(x, t), 0.0)

    def gradient_at_front(self, t: float) -> float:
        """Exact ``u_x(s(t)-, t)``."""
        return -math.exp(-self.lam**2) / (math.sqrt(math.pi * t) * math.erf(self.lam))


def similarity_oracle(stefan_number: float) -> SimilaritySolution:
    """Solve the transcendental front equation by bisection on ``[1e-8, 10]``.

    The returned root has residual at most 1e-12.
    """
    if stefan_number <= 0:
        raise ValueError(f"Stefan number must be positive, got {stefan_number}")
    lo, hi = 1e-8, 10.0
    if transcendental_residual(lo, stefan_number) > 0 \
            or transcendental_residual(hi, stefan_number) < 0:
        raise ValueError("bisection bracket [1e-8, 10] does not contain the root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if transcendental_residual(mid, stefan_number) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, lo):
            break
    lam = 0.5 * (lo + hi)
    if abs(transcendental_residual(lam, stefan_number)) > 1e-12:
        raise ValueError(f"bisection residual above 1e-12 at St={stefan_number:g}")
    return SimilaritySolution(float(stefan_number), float(lam))


# ---------------------------------------------------------------------------
# problem specification and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StefanSpec1D:
    """Configuration of a 1D melting run.

    Parameters
    ----------
    k1 : float
        Gradient-law constant of the liquid phase (latent heat, density and
        specific heat folded into one positive number).
    b : float
        Initial front position, positive.
    duration : float
        Physical time to integrate past ``t0``.
    boundary : float or callable
        Heating ``f(t) >= 0`` applied at ``x = 0``.
    initial : callable, optional
        Liquid temperature profile on ``[0, b]``; must vanish at ``b`` and
        be nonnegative.  ``None`` means identically zero (degenerate start).
    k2, length, far_boundary, initial_solid : optional
        Second-phase data: gradient constant, fixed domain length ``L``,
        boundary ``g(t) <= 0`` at ``x = L``, and the solid profile on
        ``[b, L]`` (nonpositive, vanishing at ``b``).  ``k2 = None``
        selects one-phase.
    nx : int
        Mapped cells per phase (nodes ``0..nx``).
    dt : float, optional
        Time step; ``None`` picks 0.8 of the initial stability limit.
    t0 : float
        Initial time.
    snapshot_every : int, optional
        Record every k-th step; ``None`` targets about 200 snapshots.
    """

    k1: float
    b: float
    duration: float
    boundary: TimeFunc = 1.0
    initial: SpaceFunc | None = None
    k2: float | None = None
    length: float | None = None
    far_boundary: TimeFunc = 0.0
    initial_solid: SpaceFunc | None = None
    nx: int = 200
    dt: float | None = None
    t0: float = 0.0
    snapshot_every: int | None = None

    def __post_init__(self):
        if self.k1 <= 0:
            raise ValueError(f"k1 must be positive, got {self.k1}")
        if self.b <= 0:
            raise ValueError(f"initial front b must be positive, got {self.b}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.nx < 4:
            raise ValueError(f"need nx >= 4 mapped cells, got {self.nx}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.k2 is not None:
            if self.k2 <= 0:
                raise ValueError(f"k2 must be positive, got {self.k2}")
            if self.length is None or self.length <= self.b:
                raise ValueError("two-phase runs need length L > b")

    @property
    def two_phase(self) -> bool:
        return self.k2 is not None


@dataclass(frozen=True)
class FrontTrajectory:
    """Front position and velocity samples over a run."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.positions, dtype=float)
        v = np.asarray(self.velocities, dtype=float)
        if not (t.size == s.size == v.size):
            raise ValueError("front trajectory arrays must have equal length")
        if np.any(s <= 0):
            raise ValueError("front positions must stay positive")
        for name, arr in (("times", t), ("positions", s), ("velocities", v)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def interpolate(self, t) -> np.ndarray:
        return np.interp(t, self.times, self.positions)


@dataclass(frozen=True)
class StefanResult:
    """Output bundle of :func:`solve_stefan`."""

    trajectory: HeatTrajectory
    front: FrontTrajectory
    report: dict
    snapshot_fronts: np.ndarray
    solid_trajectory: HeatTrajectory | None = None
    spec: StefanSpec1D | None = None


# ---------------------------------------------------------------------------
# gradients and stepping
# ---------------------------------------------------------------------------

_SIGN_RULE = {1: "nonnegative", -1: "nonpositive"}


@dataclass(frozen=True, slots=True)
class _Phase:
    """One mapped phase.  Node 0 sits on the far edge ``x = anchor`` and
    node ``nx`` on the front, so ``x = anchor + eta (s - anchor)`` and the
    phase width is ``sigma (s - anchor)``; edge and initial data keep ``sigma U >= 0``."""

    name: str
    k: float
    sigma: int
    anchor: float
    edge: TimeFunc
    edge_name: str
    initial: SpaceFunc | None


def _phases(spec: StefanSpec1D) -> list[_Phase]:
    phases = [_Phase("liquid", spec.k1, 1, 0.0, spec.boundary, "boundary heating",
                     spec.initial)]
    if spec.two_phase:
        phases.append(_Phase("solid", spec.k2, -1, spec.length, spec.far_boundary,
                             "far boundary", spec.initial_solid))
    return phases


def _edge_value(p: _Phase, t: float) -> float:
    """Far-edge data of phase ``p`` at time ``t``, held to its sign rule."""
    g = eval_time(p.edge, t)
    if p.sigma * g < 0:
        raise ValueError(f"{p.edge_name} must stay {_SIGN_RULE[p.sigma]}, got {g:g}")
    return g


def _front_difference(vals: np.ndarray, h: float, width: float) -> float:
    """One-sided second-order 3-point ``dU/deta`` at the last node, over ``width``
    (in Python floats: numpy's IEEE arithmetic at a fraction of the call cost)."""
    return (3.0 * vals.item(-1) - 4.0 * vals.item(-2) + vals.item(-3)) / (2.0 * h * width)


def front_gradient(u: np.ndarray | TemperatureField, s: float, side: str = "liquid",
                   width: float | None = None) -> float:
    """One-sided second-order ``du/dx`` at the front.

    ``u`` holds mapped node samples in x order on ``[0, 1]``; the front is
    the last node for the liquid phase and the first node for the solid
    phase.  ``width`` is the physical extent of the mapped phase (defaults
    to ``s`` for the liquid; required for the solid, else ``ValueError``,
    as for fewer than 3 nodes).
    """
    vals = u.values if isinstance(u, TemperatureField) else np.asarray(u, dtype=float)
    if vals.size < 3:
        raise ValueError("front gradient needs at least 3 nodes per phase")
    if side not in ("liquid", "solid"):
        raise ValueError(f"side must be 'liquid' or 'solid', got {side!r}")
    if width is None:
        if side == "solid":
            raise ValueError("solid-side gradient needs the phase width L - s")
        width = s
    if width <= 0:
        raise ValueError(f"phase width must be positive, got {width}")
    h = 1.0 / (vals.size - 1)
    if side == "liquid":
        return _front_difference(vals, h, width)
    # mirrored onto eta = (L - x)/(L - s), which runs against x
    return -_front_difference(vals[::-1], h, width)


def _front_speed(phases: list[_Phase], fields: list[np.ndarray], s: float,
                 h: float) -> tuple[list[float], float]:
    """Phase widths ``w_p`` and the front law ``s' = -sum_p k_p D(U_p) / w_p``."""
    widths = []
    v = -0.0  # a still front keeps the sign -k1 * 0 gives it
    for p, vals in zip(phases, fields):
        w = p.sigma * (s - p.anchor)
        widths.append(w)
        v -= p.k * _front_difference(vals, h, w)
    return widths, v


def _mapped_rate(width: float, v: float, h: float) -> float:
    """Combined diffusion/advection rate of the mapped update; ``1 / rate``
    is the largest stable step for front speed ``v``.  The rate falls with
    the width, so the narrowest phase sets it."""
    return 2.0 / (width * width * h * h) + abs(v) / (width * h)


# Steps per block: 64 already amortize the monitor reductions (256 measured
# no faster), and the buffers stay at most 2**14 state floats (128 KB) per phase.
_BLOCK_FLOATS = 2**14
_BLOCK_STEPS = 64


def _slot(bufs: list[np.ndarray], r: int) -> tuple[list[np.ndarray], list[tuple]]:
    """Row ``r`` of each phase's state buffer, with the stencil views a step
    reads from or writes into it: ``(u[:-2], u[1:-1], u[2:])``, cut once per
    solve."""
    fields = [buf[r] for buf in bufs]
    return fields, [(u[:-2], u[1:-1], u[2:]) for u in fields]


def _step(phases: list[_Phase], src: tuple, dst: tuple, uts: list[np.ndarray],
          d1: np.ndarray, t: float, s: float, dt: float, h: float,
          eta_int: np.ndarray) -> tuple[float, float]:
    """One explicit step from the state slot ``src`` into ``dst`` (as
    :func:`_slot` cuts them); returns ``(s_new, v)`` with the front speed
    ``v`` of the pre-step state, and leaves its interior heating rates
    ``U_etaeta / w^2`` in ``uts``.  Only a callable edge is written: the
    caller fills the constant edge and the front node of every row once."""
    widths, v = _front_speed(phases, src[0], s, h)
    rate = _mapped_rate(min(widths), v, h)
    if dt * rate > 1.0 + 1e-12:
        raise ValueError(
            f"dt={dt:g} violates the mapped-grid stability limit {1.0 / rate:g} "
            f"at t={t:g} (front {s:g}, speed {v:g})"
        )

    ds = dt * v
    s_new = s + ds
    for p, (left, mid, right), new, (_, new_mid, _), ut, w in zip(phases, src[1], dst[0],
                                                                   dst[1], uts, widths):
        if p.sigma * (s_new - p.anchor) <= 0:
            raise RuntimeError(f"front {s_new:g} reached the {p.name}'s far edge "
                               f"x={p.anchor:g} at t={t + dt:g}")
        # new = mid + dt * ((right - 2 mid + left) / (w^2 h^2))
        #           + (sigma ds / (2 h w)) * (eta * (right - left)), op for op;
        # each ufunc's third argument is its output
        np.multiply(mid, 2.0, ut)
        np.subtract(right, ut, ut)
        np.add(ut, left, ut)
        np.divide(ut, w * w * h * h, ut)
        np.multiply(ut, dt, new_mid)
        np.add(mid, new_mid, new_mid)
        np.subtract(right, left, d1)
        np.multiply(eta_int, d1, d1)
        np.multiply(d1, p.sigma * ds / (2.0 * h * w), d1)
        np.add(new_mid, d1, new_mid)
        if callable(p.edge):
            new[0] = _edge_value(p, t + dt)
    return s_new, v


# ---------------------------------------------------------------------------
# full solve
# ---------------------------------------------------------------------------

def _initial_nodes(spec: StefanSpec1D, phases: list[_Phase],
                   eta: np.ndarray) -> list[np.ndarray]:
    fields = []
    for p in phases:
        if p.initial is None:
            vals = np.zeros(spec.nx + 1)
        else:
            vals = np.asarray(p.initial(p.anchor + eta * (spec.b - p.anchor)), dtype=float).copy()
            scale = max(1.0, float(np.max(np.abs(vals))))
            if abs(vals[-1]) > 1e-9 * scale:
                raise ValueError(f"initial {p.name} profile must vanish at x=b, got {vals[-1]:g}")
            if np.any(p.sigma * vals < -1e-12 * scale):
                raise ValueError(f"initial {p.name} profile must be {_SIGN_RULE[p.sigma]}")
            vals[-1] = 0.0
        vals[0] = _edge_value(p, spec.t0)
        fields.append(vals)
    return fields


def _record(snapshots: list[list[TemperatureField]], phases: list[_Phase],
            fields: list[np.ndarray], grid: Grid, t: float) -> None:
    # stored snapshots keep x order: the mirrored solid is flipped back
    for snaps, p, vals in zip(snapshots, phases, fields):
        snaps.append(TemperatureField(grid, t, vals[::p.sigma].copy()))


def solve_stefan(spec: StefanSpec1D) -> StefanResult:
    """Integrate a melting run and return trajectory, front, and diagnostics.

    The report records the discrete heating-rate sign check
    (``u_t >= -tol`` with ``tol = 10 (h^2 + dt) * scale``), maximum-principle
    excursions on the mapped grid, and front monotonicity.

    A degenerate start (zero initial data with positive heating) integrates
    each of the first 5 recorded steps as 10 substeps of ``dt / 10``.

    Steps write into preallocated per-phase blocks of up to 64 state rows,
    and the monitors behind the report (per-step extremes of the states and
    of the liquid's heating rates, and of the heating edge) are reduced once
    per block.  The checks that can stop a run are unchanged and still made
    at every step: the stability limit, the front reaching a phase's far
    edge, and the sign rule of a time-dependent edge.
    """
    phases = _phases(spec)
    n = spec.nx
    h = 1.0 / n
    eta = np.linspace(0.0, 1.0, n + 1)
    eta_int = eta[1:-1]
    fields = _initial_nodes(spec, phases, eta)
    s = spec.b
    t = spec.t0

    widths, v = _front_speed(phases, fields, s, h)
    limit0 = 1.0 / _mapped_rate(min(widths), v, h)
    dt = spec.dt if spec.dt is not None else 0.8 * limit0

    n_steps = max(1, int(math.ceil(spec.duration / dt - 1e-12)))
    snap_every = spec.snapshot_every or max(1, n_steps // 200)
    degenerate = spec.initial is None and eval_time(spec.boundary, spec.t0) > 0
    warm_steps = 5 if degenerate else 0

    # nodes eta_i = i/nx realized as cell centers of a half-cell-shifted grid
    grid = Grid(origin=(-0.5 * h,), extent=(1.0 + h,), counts=(n + 1,))
    snapshots = [[] for _ in phases]
    _record(snapshots, phases, fields, grid, t)
    snap_fronts = [s]

    times = np.empty(n_steps + 1)
    fronts = np.empty(n_steps + 1)
    vels = np.empty(n_steps + 1)
    times[0], fronts[0] = t, s
    step_umax = np.empty(n_steps)
    step_umin = np.empty(n_steps)
    step_utmin = np.empty(n_steps)
    step_utmax = np.empty(n_steps)
    f_max = f_min = float(fields[0][0])
    phi_max = max(float(np.max(vals)) for vals in fields)
    phi_min = min(0.0, *(float(np.min(vals)) for vals in fields))

    # Per phase, block row r + 1 holds the state after the block's step r and
    # rates row r its heating rates; row 0 carries the state into the block.
    # Two scratch rows take a warm-up's intermediate substeps.  Every row
    # starts as the initial state, which fills the front node and a constant
    # edge for the whole solve.
    block = max(1, min(n_steps, _BLOCK_STEPS, _BLOCK_FLOATS // (n + 1)))
    states = [np.empty((block + 1, n + 1)) for _ in phases]
    rates = [np.empty((block, n - 1)) for _ in phases]
    scratch = [np.empty((2, n + 1)) for _ in phases]
    for buf, spare, vals in zip(states, scratch, fields):
        buf[:] = vals
        spare[:] = vals
    slots = [_slot(states, r) for r in range(block + 1)]
    spares = [_slot(scratch, j) for j in range(2)]
    ut_rows = [[buf[r] for buf in rates] for r in range(block)]
    d1 = np.empty(n - 1)

    for k0 in range(0, n_steps, block):
        m = min(block, n_steps - k0)
        for r in range(m):
            k = k0 + r
            if k < warm_steps:
                # 10 substeps, ping-ponged through the scratch rows; the last
                # lands in the block row and leaves its rates in the block
                sub_dt = dt / 10.0
                src = slots[r]
                for j in range(10):
                    dst = slots[r + 1] if j == 9 else spares[j % 2]
                    s, v = _step(phases, src, dst, ut_rows[r], d1, t + j * sub_dt, s, sub_dt,
                                 h, eta_int)
                    if j == 0:
                        vels[k] = v
                    src = dst
            else:
                s, vels[k] = _step(phases, slots[r], slots[r + 1], ut_rows[r], d1, t, s, dt,
                                   h, eta_int)
            t = spec.t0 + (k + 1) * dt
            times[k + 1], fronts[k + 1] = t, s
            if (k + 1) % snap_every == 0:
                _record(snapshots, phases, slots[r + 1][0], grid, t)
                snap_fronts.append(s)

        # the monitors of the block's m steps, one reduction each
        liquid = states[0][1:m + 1]
        step_umax[k0:k0 + m] = liquid.max(axis=1)
        umin = liquid.min(axis=1)
        for buf in states[1:]:
            np.minimum(umin, buf[1:m + 1].min(axis=1), out=umin)
        step_umin[k0:k0 + m] = umin
        step_utmin[k0:k0 + m] = rates[0][:m].min(axis=1)
        step_utmax[k0:k0 + m] = rates[0][:m].max(axis=1)
        f_max = max(f_max, float(liquid[:, 0].max()))
        f_min = min(f_min, float(liquid[:, 0].min()))
        for buf in states:
            buf[0] = buf[m]
    vels[n_steps] = _front_speed(phases, slots[0][0], s, h)[1]

    bound_high = max(f_max, phi_max)
    bound_low = min(0.0, f_min, phi_min)
    mp_slack = 1e-12 * max(1.0, abs(bound_high), abs(bound_low))
    mp_violations = int(np.sum((step_umax > bound_high + mp_slack)
                               | (step_umin < bound_low - mp_slack)))
    ut_scale = max(float(np.max(np.abs(step_utmin))), float(np.max(np.abs(step_utmax))))
    ut_tol = 10.0 * (h * h + dt) * max(1.0, ut_scale)
    ut_violations = int(np.sum(step_utmin < -ut_tol))

    report = {
        "dt": dt,
        "stability_limit_initial": limit0,
        "steps": n_steps,
        "warmup_steps": warm_steps,
        "front_initial": float(fronts[0]),
        "front_final": float(fronts[-1]),
        "front_min_increment": float(np.min(np.diff(fronts))),
        "u_min": float(step_umin.min()),
        "u_max": float(step_umax.max()),
        "bound_low": bound_low,
        "bound_high": bound_high,
        "max_principle_violations": mp_violations,
        "ut_min": float(step_utmin.min()),
        "ut_tol": ut_tol,
        "ut_violation_steps": ut_violations,
    }

    snap_dt = dt * snap_every if len(snap_fronts) > 1 else dt
    trajs = [HeatTrajectory(snaps, snap_dt) for snaps in snapshots]
    front = FrontTrajectory(times, fronts, vels)
    return StefanResult(trajectory=trajs[0], front=front, report=report,
                        snapshot_fronts=np.asarray(snap_fronts),
                        solid_trajectory=trajs[1] if spec.two_phase else None, spec=spec)


def physical_trajectory(result: StefanResult, grid: Grid) -> HeatTrajectory:
    """Resample mapped snapshots onto a fixed physical grid (zero past the front
    in one-phase runs, solid values past it in two-phase runs)."""
    if grid.dim != 1:
        raise ValueError("physical resampling targets a 1D grid")
    if result.spec is None:
        raise ValueError("result carries no spec to resample against")
    xs = grid.axis_centers(0)
    xi = np.linspace(0.0, 1.0, result.spec.nx + 1)
    length = result.spec.length
    fields = []
    for idx, (snap, s) in enumerate(zip(result.trajectory.snapshots,
                                        result.snapshot_fronts)):
        vals = np.zeros(xs.size)
        inside = xs <= s
        vals[inside] = np.interp(xs[inside] / s, xi, snap.values)
        if result.solid_trajectory is not None:
            w = result.solid_trajectory.snapshots[idx].values
            outside = ~inside
            zeta = np.clip((xs[outside] - s) / (length - s), 0.0, 1.0)
            vals[outside] = np.interp(zeta, xi, w)
        fields.append(TemperatureField(grid, snap.time, vals))
    return HeatTrajectory(fields, result.trajectory.dt)


def write_front_csv(front: FrontTrajectory, path: str | Path) -> None:
    """Write ``t, s, sdot`` rows with 17 significant digits."""
    write_csv_rows(path, "t,s,sdot",
                   np.column_stack((front.times, front.positions, front.velocities)))
