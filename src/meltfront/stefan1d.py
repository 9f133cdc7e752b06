"""One-dimensional melting-front solver on front-fixed coordinates.

The liquid phase occupies ``0 < x < s(t)`` with unit diffusivity,
``u(0,t) = f(t) >= 0`` and ``u(s(t),t) = 0`` enforced exactly at every step.
The front moves by the gradient law ``s' = -k1 u_x(s-, t)``; with an
optional second (solid) phase on ``s < x < L`` the law becomes the jump
``s' = k2 u_x(s+, t) - k1 u_x(s-, t)``.

Each phase is mapped onto the unit interval (``xi = x / s`` for the liquid,
``zeta = (x - s)/(L - s)`` for the solid) and discretized on nodes
``xi_i = i / nx``.  The mapping turns the moving domain into a fixed one at
the price of an advection term:

    liquid:  U_t = U_xixi / s^2 + (xi  s' / s) U_xi
    solid:   W_t = W_zz / d^2  + ((1 - zeta) s' / d) W_z,   d = L - s.

Time stepping is forward Euler (front first, then the mapped heat update
with frozen coefficients).  The combined diffusion/advection stability
bound is checked every step, never assumed.

Front gradients use the one-sided second-order 3-point stencil at the front
node, exact on linear and quadratic profiles.

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

from .grid import Grid, TemperatureField, format_float, second_differences
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

def front_gradient(u: np.ndarray | TemperatureField, s: float, side: str = "liquid",
                   width: float | None = None) -> float:
    """One-sided second-order ``du/dx`` at the front.

    ``u`` holds mapped node samples on ``[0, 1]``; the front is the last node
    for the liquid phase and the first node for the solid phase.  ``width``
    is the physical extent of the mapped phase (defaults to ``s`` for the
    liquid; required for the solid).

    Raises
    ------
    ValueError
        For fewer than 3 nodes or a missing solid width.
    """
    vals = u.values if isinstance(u, TemperatureField) else np.asarray(u, dtype=float)
    if vals.size < 3:
        raise ValueError("front gradient needs at least 3 nodes per phase")
    h = 1.0 / (vals.size - 1)
    if side == "liquid":
        if width is None:
            width = s
        num = 3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]
    elif side == "solid":
        if width is None:
            raise ValueError("solid-side gradient needs the phase width L - s")
        num = -(3.0 * vals[0] - 4.0 * vals[1] + vals[2])
    else:
        raise ValueError(f"side must be 'liquid' or 'solid', got {side!r}")
    if width <= 0:
        raise ValueError(f"phase width must be positive, got {width}")
    return float(num / (2.0 * h * width))


def _front_speed(spec: StefanSpec1D, s: float, liquid: np.ndarray,
                 solid: np.ndarray | None) -> float:
    v = -spec.k1 * front_gradient(liquid, s)
    if spec.two_phase:
        v += spec.k2 * front_gradient(solid, s, side="solid", width=spec.length - s)
    return v


_XI_CACHE: dict[int, np.ndarray] = {}


def _xi_interior(n: int) -> np.ndarray:
    xi = _XI_CACHE.get(n)
    if xi is None:
        xi = np.linspace(0.0, 1.0, n + 1)[1:-1].copy()
        xi.setflags(write=False)
        _XI_CACHE[n] = xi
    return xi


def _mapped_rate(spec: StefanSpec1D, s: float, v: float, h: float) -> float:
    """Combined diffusion/advection rate of the mapped update; ``1 / rate``
    is the largest stable step for front ``s`` moving at speed ``v``."""
    rate = 2.0 / (s * s * h * h) + abs(v) / (s * h)
    if spec.two_phase:
        d = spec.length - s
        rate = max(rate, 2.0 / (d * d * h * h) + abs(v) / (d * h))
    return rate


def _advance(spec: StefanSpec1D, t: float, s: float, liquid: np.ndarray,
             solid: np.ndarray | None, dt: float):
    """One explicit step; returns (s_new, liquid_new, solid_new, v, ut_interior).

    ``v`` is the front speed evaluated on the pre-step state and ``ut`` the
    interior heating rate ``u_xixi / s^2`` of that state.
    """
    n = liquid.size - 1
    h = 1.0 / n
    v = _front_speed(spec, s, liquid, solid)
    length = spec.length

    rate = _mapped_rate(spec, s, v, h)
    if dt * rate > 1.0 + 1e-12:
        raise ValueError(
            f"dt={dt:g} violates the mapped-grid stability limit {1.0 / rate:g} "
            f"at t={t:g} (front {s:g}, speed {v:g})"
        )

    s_new = s + dt * v
    if s_new <= 0:
        raise RuntimeError(f"front collapsed to {s_new:g} at t={t + dt:g}")
    if spec.two_phase and s_new >= length:
        raise RuntimeError(f"front reached the far wall at t={t + dt:g}")

    xi_int = _xi_interior(n)
    d2 = liquid[2:] - 2.0 * liquid[1:-1] + liquid[:-2]
    d1 = liquid[2:] - liquid[:-2]
    ut = d2 / (s * s * h * h)
    new_liq = np.empty_like(liquid)
    new_liq[1:-1] = liquid[1:-1] + dt * ut + (dt * v / (2.0 * h * s)) * (xi_int * d1)
    f_val = eval_time(spec.boundary, t + dt)
    if f_val < 0:
        raise ValueError(f"boundary heating must stay nonnegative, got {f_val:g}")
    new_liq[0] = f_val
    new_liq[-1] = 0.0

    new_sol = None
    if spec.two_phase:
        d = length - s
        d2s = solid[2:] - 2.0 * solid[1:-1] + solid[:-2]
        d1s = solid[2:] - solid[:-2]
        new_sol = np.empty_like(solid)
        new_sol[1:-1] = solid[1:-1] + (dt / (d * d * h * h)) * d2s \
            + (dt * v / (2.0 * h * d)) * ((1.0 - xi_int) * d1s)
        new_sol[0] = 0.0
        new_sol[-1] = eval_time(spec.far_boundary, t + dt)
    return s_new, new_liq, new_sol, v, ut


# ---------------------------------------------------------------------------
# full solve
# ---------------------------------------------------------------------------

def _mapped_grid(nx: int) -> Grid:
    # nodes xi_i = i/nx realized as cell centers of a half-cell-shifted grid
    h = 1.0 / nx
    return Grid(origin=(-0.5 * h,), extent=(1.0 + h,), counts=(nx + 1,))


def _initial_nodes(spec: StefanSpec1D) -> tuple[np.ndarray, np.ndarray | None]:
    xi = np.linspace(0.0, 1.0, spec.nx + 1)
    if spec.initial is None:
        liq = np.zeros(spec.nx + 1)
    else:
        liq = np.asarray(spec.initial(xi * spec.b), dtype=float).copy()
        scale = max(1.0, float(np.max(np.abs(liq))))
        if abs(liq[-1]) > 1e-9 * scale:
            raise ValueError(f"initial liquid profile must vanish at x=b, got {liq[-1]:g}")
        if np.any(liq < -1e-12 * scale):
            raise ValueError("initial liquid profile must be nonnegative")
        liq[-1] = 0.0
    liq[0] = eval_time(spec.boundary, spec.t0)
    sol = None
    if spec.two_phase:
        xs = spec.b + xi * (spec.length - spec.b)
        if spec.initial_solid is None:
            sol = np.zeros(spec.nx + 1)
        else:
            sol = np.asarray(spec.initial_solid(xs), dtype=float).copy()
            scale = max(1.0, float(np.max(np.abs(sol))))
            if abs(sol[0]) > 1e-9 * scale:
                raise ValueError("initial solid profile must vanish at x=b")
            if np.any(sol > 1e-12 * scale):
                raise ValueError("initial solid profile must be nonpositive")
            sol[0] = 0.0
        sol[-1] = eval_time(spec.far_boundary, spec.t0)
    return liq, sol


def _initial_heat_table(spec: StefanSpec1D) -> tuple[np.ndarray, np.ndarray]:
    """Tabulated heating rate of the initial data (its second derivative)."""
    m = max(4 * spec.nx, 512)
    x = np.linspace(0.0, spec.b, m + 1)
    if spec.initial is None:
        return x, np.zeros_like(x)
    phi = np.asarray(spec.initial(x), dtype=float)
    rate = np.zeros_like(phi)
    rate[1:-1], = second_differences(phi, (x[1] - x[0],))
    rate[0], rate[-1] = rate[1], rate[-2]
    return x, rate


def solve_stefan(spec: StefanSpec1D) -> StefanResult:
    """Integrate a melting run and return trajectory, front, and diagnostics.

    The report records the discrete heating-rate sign check
    (``u_t >= -tol`` with ``tol = 10 (h^2 + dt) * scale``), maximum-principle
    excursions on the mapped grid, front monotonicity, and the L1 metric of
    ``u_t`` against the heating rate of the initial data.

    A degenerate start (zero initial data with positive heating) integrates
    each of the first 5 recorded steps as 10 substeps of ``dt / 10``.
    """
    liquid, solid = _initial_nodes(spec)
    n = spec.nx
    h = 1.0 / n
    s = spec.b
    t = spec.t0

    limit0 = 1.0 / _mapped_rate(spec, s, _front_speed(spec, s, liquid, solid), h)
    dt = spec.dt if spec.dt is not None else 0.8 * limit0

    n_steps = max(1, int(math.ceil(spec.duration / dt - 1e-12)))
    snap_every = spec.snapshot_every or max(1, n_steps // 200)
    degenerate = spec.initial is None and eval_time(spec.boundary, spec.t0) > 0
    warm_steps = 5 if degenerate else 0

    grid = _mapped_grid(n)
    snapshots = [TemperatureField(grid, t, liquid.copy())]
    snapshots_solid = [TemperatureField(grid, t, solid.copy())] if spec.two_phase else None
    snap_fronts = [s]

    times = np.empty(n_steps + 1)
    fronts = np.empty(n_steps + 1)
    vels = np.empty(n_steps + 1)
    times[0], fronts[0] = t, s
    step_umax = np.empty(n_steps)
    step_umin = np.empty(n_steps)
    step_utmin = np.empty(n_steps)
    step_utmax = np.empty(n_steps)
    f_max = f_min = eval_time(spec.boundary, spec.t0)
    phi_max = float(np.max(liquid))
    phi_min = min(0.0, float(np.min(liquid)))
    if solid is not None:
        phi_min = min(phi_min, float(np.min(solid)))
        phi_max = max(phi_max, float(np.max(solid)))

    x_heat, heat_rate = _initial_heat_table(spec)
    cont_times: list[float] = []
    cont_values: list[float] = []
    xi_int = _xi_interior(n)

    for k in range(n_steps):
        if k < warm_steps:
            sub_dt = dt / 10.0
            v_first = None
            for j in range(10):
                s, liquid, solid, v, ut = _advance(
                    spec, t + j * sub_dt, s, liquid, solid, sub_dt)
                if v_first is None:
                    v_first = v
            vels[k] = v_first
        else:
            s, liquid, solid, v, ut = _advance(spec, t, s, liquid, solid, dt)
            vels[k] = v
        t = spec.t0 + (k + 1) * dt
        times[k + 1], fronts[k + 1] = t, s
        step_umax[k] = liquid.max()
        step_umin[k] = liquid.min() if solid is None else min(liquid.min(), solid.min())
        step_utmin[k] = ut.min()
        step_utmax[k] = ut.max()
        f_now = liquid[0]
        f_max = max(f_max, f_now)
        f_min = min(f_min, f_now)
        if (k + 1) % snap_every == 0:
            snapshots.append(TemperatureField(grid, t, liquid.copy()))
            if spec.two_phase:
                snapshots_solid.append(TemperatureField(grid, t, solid.copy()))
            snap_fronts.append(s)
            if len(cont_times) < 16:
                target = np.interp(xi_int * s, x_heat, heat_rate, right=0.0)
                cont_times.append(t)
                cont_values.append(float(s * h * np.sum(np.abs(ut - target))))
    vels[n_steps] = _front_speed(spec, s, liquid, solid)

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
        "continuity_metric": {"times": cont_times, "values": cont_values},
    }

    snap_dt = dt * snap_every if len(snapshots) > 1 else dt
    traj = HeatTrajectory(snapshots, snap_dt)
    solid_traj = None
    if spec.two_phase:
        solid_traj = HeatTrajectory(snapshots_solid, snap_dt)
    front = FrontTrajectory(times, fronts, vels)
    return StefanResult(trajectory=traj, front=front, report=report,
                        snapshot_fronts=np.asarray(snap_fronts),
                        solid_trajectory=solid_traj, spec=spec)


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
    lines = ["t,s,sdot"]
    for t, s, v in zip(front.times, front.positions, front.velocities):
        lines.append(",".join(format_float(x) for x in (t, s, v)))
    Path(path).write_text("\n".join(lines) + "\n")
