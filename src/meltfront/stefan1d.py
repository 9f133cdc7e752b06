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

from .grid import Grid, TemperatureField, write_csv_rows
from .heat import SIGN_RULE, HeatTrajectory, TimeFunc, eval_time, require_cadence, \
    require_finite, require_positive, signed_value, step_count

__all__ = [
    "StefanSpec1D",
    "FrontTrajectory",
    "StefanResult",
    "SimilaritySolution",
    "similarity_oracle",
    "transcendental_residual",
    "solve_stefan",
    "time_steps",
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
        """Raw similarity profile; positive ahead of the front, negative past it
        (``erf`` is ``math.erf`` elementwise, within 1 ulp)."""
        z = np.asarray(x, dtype=float) / (2.0 * np.sqrt(t))
        erf = np.fromiter(map(math.erf, z.flat), float, z.size).reshape(z.shape)
        return 1.0 - erf / math.erf(self.lam)

    def temperature(self, x, t) -> np.ndarray:
        """Physical temperature: the profile clamped to 0 beyond the front."""
        return np.maximum(self.profile(x, t), 0.0)

    def gradient_at_front(self, t: float) -> float:
        """Exact ``u_x(s(t)-, t)``."""
        return -math.exp(-self.lam**2) / (math.sqrt(math.pi * t) * math.erf(self.lam))


_LAMBDA_BRACKET = (1e-8, 10.0)
#: Stefan numbers whose similarity constant lies in the bisection bracket:
#: ``sqrt(pi) lam e^(lam^2) erf(lam)`` at its two ends
_STEFAN_RANGE = tuple(math.sqrt(math.pi) * lam * math.exp(lam * lam) * math.erf(lam)
                      for lam in _LAMBDA_BRACKET)


class StefanRangeError(ValueError):
    """A Stefan number whose similarity constant lies outside the bisection
    bracket ``[1e-8, 10]``."""


def similarity_oracle(stefan_number: float) -> SimilaritySolution:
    """Solve the transcendental front equation by bisection on ``[1e-8, 10]``.

    The returned root has residual at most ``1e-12 max(1, St / sqrt(pi))``,
    relative to the residual's constant term.  A Stefan number whose root
    the bracket does not contain, outside about ``[2e-16, 4.76e44]``, raises
    :class:`StefanRangeError`.
    """
    if stefan_number <= 0:
        raise ValueError(f"Stefan number must be positive, got {stefan_number}")
    lo, hi = _LAMBDA_BRACKET
    if transcendental_residual(lo, stefan_number) > 0 \
            or transcendental_residual(hi, stefan_number) < 0:
        raise StefanRangeError(
            f"Stefan number {stefan_number:g} is outside [{_STEFAN_RANGE[0]:.6g}, "
            f"{_STEFAN_RANGE[1]:.6g}], the range whose similarity constant lies in the "
            f"bisection bracket [1e-8, 10]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if transcendental_residual(mid, stefan_number) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, lo):
            break
    lam = 0.5 * (lo + hi)
    # at the root the residual subtracts two terms of size St / sqrt(pi): its
    # rounding scales with them
    bound = 1e-12 * max(1.0, stefan_number / math.sqrt(math.pi))
    if abs(transcendental_residual(lam, stefan_number)) > bound:
        raise ValueError(f"bisection residual above {bound:g} at St={stefan_number:g}")
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
        require_positive(k1=self.k1, b=self.b, duration=self.duration)
        require_finite(t0=self.t0)
        require_cadence(self.snapshot_every)
        if self.nx < 4:
            raise ValueError(f"need nx >= 4 mapped cells, got {self.nx}")
        if self.dt is not None:
            require_positive(dt=self.dt)
        if self.k2 is not None:
            require_positive(k2=self.k2)
            if self.length is None or self.length <= self.b:
                raise ValueError("two-phase runs need length L > b")
            require_finite(length=self.length)

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
    spec: StefanSpec1D
    solid_trajectory: HeatTrajectory | None = None


# ---------------------------------------------------------------------------
# gradients and stepping
# ---------------------------------------------------------------------------

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


def _laws(phases: list[_Phase], fields: list[np.ndarray]) -> list[tuple]:
    """The front law's inputs per phase, bound once for :func:`_front_speed`:
    ``(k, sigma, anchor, tail)`` with ``tail`` the view of the phase's last
    three nodes in ``fields``."""
    return [(p.k, p.sigma, p.anchor, vals[-3:]) for p, vals in zip(phases, fields)]


def _front_speed(laws: list[tuple], s: float, h: float) -> tuple[float, float]:
    """The front law ``s' = -sum_p k_p D(U_p) / w_p`` and the diffusion/advection
    rate ``2 / (w^2 h^2) + |s'| / (w h)`` of the mapped update at the narrowest
    phase width ``w`` (``1 / rate`` is the largest stable step), from the
    phases' :func:`_laws`.  ``D`` is the one-sided second-order 3-point
    ``dU/deta`` at the last node and ``w_p = sigma_p (s - anchor_p)``, in
    Python floats: numpy's IEEE arithmetic at a fraction of the call cost."""
    v = -0.0  # a still front keeps the sign -k1 * 0 gives it
    narrow = math.inf
    for k, sigma, anchor, tail in laws:
        w = sigma * (s - anchor)
        if w < narrow:
            narrow = w
        far, near, front = tail.tolist()
        v -= k * ((3.0 * front - 4.0 * near + far) / (2.0 * h * w))
    return v, 2.0 / (narrow * narrow * h * h) + abs(v) / (narrow * h)


# Steps per block: 64 already amortize the monitor reductions (256 measured
# no faster), and the buffers stay at most 2**14 state floats (128 KB) per phase.
_BLOCK_FLOATS = 2**14
_BLOCK_STEPS = 64


def _plan(phases: list[_Phase], srcs: list[np.ndarray], dsts: list[np.ndarray],
          uts: list[np.ndarray], work: tuple) -> tuple[list[tuple], list[tuple]]:
    """The plan of a step from the state rows ``srcs`` into ``dsts`` that
    leaves its heating rates in ``uts`` (one row of each per phase): the
    front law's inputs on the source rows (:func:`_laws`), and per phase the
    tuple ``(phase, sigma, anchor, edge, left, mid, right, dst, dst_mid, ut,
    *work)``.  ``edge`` is the phase's edge data if it is callable, else
    ``None``; ``(left, mid, right)`` are the source's stencil views
    ``(u[:-2], u[1:-1], u[2:])`` and ``dst_mid`` is ``dst[1:-1]``.  ``work``
    is shared by all plans of a solve: the interior nodes ``eta``, a scratch
    row and two 0-d scratch arrays for the step's scalar factors."""
    return _laws(phases, srcs), [(p, p.sigma, p.anchor, p.edge if callable(p.edge) else None,
                                  u[:-2], u[1:-1], u[2:], new, new[1:-1], ut, *work)
                                 for p, u, new, ut in zip(phases, srcs, dsts, uts)]


def _step(plan: tuple, t: float, s: float, dt: float, dt_arr: np.ndarray,
          h: float) -> tuple[float, float]:
    """One explicit step along ``plan`` (as :func:`_plan` cuts it), with
    ``dt_arr`` holding ``dt`` as a 0-d array; returns ``(s_new, v)`` with the
    front speed ``v`` of the pre-step state, and leaves its interior heating
    rates ``U_etaeta / w^2`` in the plan's rate rows.  Only a callable edge is
    written: the caller fills the constant edge and the front node of every
    row once."""
    laws, moves = plan
    v, rate = _front_speed(laws, s, h)
    if dt * rate > 1.0 + 1e-12:
        raise ValueError(
            f"dt={dt:g} violates the mapped-grid stability limit {1.0 / rate:g} "
            f"at t={t:g} (front {s:g}, speed {v:g})"
        )

    ds = dt * v
    s_new = s + ds
    for (p, sigma, anchor, edge, left, mid, right, new, new_mid, ut,
         eta, d1, scale, adv) in moves:
        w = sigma * (s - anchor)
        if sigma * (s_new - anchor) <= 0:
            raise RuntimeError(f"front {s_new:g} reached the {p.name}'s far edge "
                               f"x={anchor:g} at t={t + dt:g}")
        # new = mid + dt * ((right - 2 mid + left) / (w^2 h^2))
        #           + (sigma ds / (2 h w)) * (eta * (right - left)), op for op;
        # each ufunc's third argument is its output.  mid + mid is 2 mid bit
        # for bit: both round the exact double of mid once (IEEE-754), for
        # signed zeros, subnormals, overflow, inf and NaN alike.  The scalar
        # factors go in as 0-d float64 arrays holding the same doubles, which
        # numpy takes at less cost than Python floats
        scale[()] = w * w * h * h
        adv[()] = sigma * ds / (2.0 * h * w)
        np.add(mid, mid, ut)
        np.subtract(right, ut, ut)
        np.add(ut, left, ut)
        np.divide(ut, scale, ut)
        np.multiply(ut, dt_arr, new_mid)
        np.add(mid, new_mid, new_mid)
        np.subtract(right, left, d1)
        np.multiply(eta, d1, d1)
        np.multiply(d1, adv, d1)
        np.add(new_mid, d1, new_mid)
        if edge is not None:
            new[0] = signed_value(edge, t + dt, sigma, p.edge_name)
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
                raise ValueError(f"initial {p.name} profile must be {SIGN_RULE[p.sigma]}")
            vals[-1] = 0.0
        vals[0] = signed_value(p.edge, spec.t0, p.sigma, p.edge_name)
        fields.append(vals)
    return fields


def _record(snapshots: list[list[TemperatureField]], phases: list[_Phase],
            fields: list[np.ndarray], grid: Grid, t: float) -> None:
    # stored snapshots keep x order: the mirrored solid is flipped back
    for snaps, p, vals in zip(snapshots, phases, fields):
        snaps.append(TemperatureField(grid, t, vals[::p.sigma].copy()))


def time_steps(spec: StefanSpec1D, fields: list[np.ndarray] | None = None
               ) -> tuple[float, float, int]:
    """Initial stability limit, step ``dt`` and step count ``n`` of the run of
    ``spec`` (from its initial nodes ``fields``), which ends at ``t0 + n dt``."""
    phases, h = _phases(spec), 1.0 / spec.nx
    if fields is None:
        fields = _initial_nodes(spec, phases, np.linspace(0.0, 1.0, spec.nx + 1))
    limit = 1.0 / _front_speed(_laws(phases, fields), spec.b, h)[1]
    dt = spec.dt if spec.dt is not None else 0.8 * limit
    return limit, dt, step_count(spec.duration, dt)


def solve_stefan(spec: StefanSpec1D) -> StefanResult:
    """Integrate a melting run and return trajectory, front, and diagnostics.

    The report records the discrete heating-rate sign check
    (``u_t >= -tol`` with ``tol = 10 (h^2 + dt) * scale``), maximum-principle
    excursions on the mapped grid, and front monotonicity.

    A degenerate start (zero initial data with positive heating) integrates
    each of the first 5 recorded steps as 10 substeps of ``dt / 10``.

    Steps write into preallocated per-phase blocks of up to 64 state rows,
    and the monitors behind the report (per-step extremes of the states and
    of the liquid's heating rates, and of each callable edge: a constant edge
    holds its initial node in every row) are reduced once per block.
    Everything a step reads besides the state is bound once per solve: one
    plan per block row (:func:`_plan`: the front law's inputs, the rows, the
    stencil views, a callable edge, the scratch), ``dt`` and the warm-up's
    ``dt / 10`` as 0-d arrays; only a warm-up step cuts plans as it goes,
    for its ten substeps through the scratch rows.  Fronts and velocities
    collect in Python lists; the times ``t0 + k dt``, the snapshot fronts
    and the largest heating rate are derived, not collected.  The checks
    that can stop a run are still made at every step and substep: the
    stability limit, the front reaching a phase's far edge, and the sign
    rule of a time-dependent edge.  The per-step extremes the monitors
    reduce must be finite (NaN and +-inf carry through them): a
    ``ValueError`` names the first step whose extremes are not, before
    that block's snapshots are recorded.  A run too long for numpy to
    allocate its monitors raises ``MemoryError`` naming its step count.
    """
    phases = _phases(spec)
    n = spec.nx
    h = 1.0 / n
    eta = np.linspace(0.0, 1.0, n + 1)
    eta_int = eta[1:-1]
    fields = _initial_nodes(spec, phases, eta)
    s = spec.b
    t = spec.t0

    limit0, dt, n_steps = time_steps(spec, fields)
    snap_every = spec.snapshot_every or max(1, n_steps // 200)
    degenerate = spec.initial is None and eval_time(spec.boundary, spec.t0) > 0
    warm_steps = 5 if degenerate else 0

    # nodes eta_i = i/nx realized as cell centers of a half-cell-shifted grid
    grid = Grid(origin=(-0.5 * h,), extent=(1.0 + h,), counts=(n + 1,))
    snapshots = [[] for _ in phases]
    _record(snapshots, phases, fields, grid, t)

    fronts, vels = [s], []
    try:  # per step: max u (liquid), min u, min u_t (liquid)
        monitors = np.empty((3, n_steps))
    except (MemoryError, ValueError) as exc:  # past the memory or numpy's dimension limit
        raise MemoryError(f"a run of {n_steps:.6g} steps does not fit in memory: {exc}") from None
    ut_max = -math.inf
    # the maximum principle bounds u by its parabolic-boundary data: the
    # initial nodes and both edges; g_min is the solid's far edge over the
    # steps.  A constant edge holds its initial node in every row, and that
    # node is already in f_max, f_min and phi_min, so only a callable edge's
    # column is reduced
    f_max = f_min = float(fields[0][0])
    g_min = 0.0
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
    rows = [[buf[r] for buf in states] for r in range(block + 1)]
    spares = [[buf[j] for buf in scratch] for j in range(2)]
    ut_rows = [[buf[r] for buf in rates] for r in range(block)]
    work = (eta_int, np.empty(n - 1), np.empty(()), np.empty(()))
    plans = [_plan(phases, rows[r], rows[r + 1], ut_rows[r], work) for r in range(block)]
    dt_arr = np.array(dt, dtype=float)
    sub_dt = dt / 10.0
    sub_arr = np.array(sub_dt, dtype=float)

    for k0 in range(0, n_steps, block):
        m = min(block, n_steps - k0)
        for r in range(m):
            k = k0 + r
            if k < warm_steps:
                # 10 substeps of dt / 10, ping-ponged through the scratch rows;
                # the last lands in the block row, and each leaves its rates in
                # the block's rates row r
                route = [rows[r], *(spares[j % 2] for j in range(9)), rows[r + 1]]
                for j in range(10):
                    s, v = _step(_plan(phases, route[j], route[j + 1], ut_rows[r], work),
                                 t + j * sub_dt, s, sub_dt, sub_arr, h)
                    if j == 0:
                        vels.append(v)
            else:
                s, v = _step(plans[r], t, s, dt, dt_arr, h)
                vels.append(v)
            t = spec.t0 + (k + 1) * dt
            fronts.append(s)

        # the monitors of the block's m steps, one reduction each
        block_monitors = monitors[:, k0:k0 + m]
        umax, umin, utmin = block_monitors
        liquid = states[0][1:m + 1]
        liquid.max(axis=1, out=umax)
        liquid.min(axis=1, out=umin)
        for p, buf in zip(phases[1:], states[1:]):
            np.minimum(umin, buf[1:m + 1].min(axis=1), out=umin)
            if callable(p.edge):
                g_min = min(g_min, float(buf[1:m + 1, 0].min()))
        rates[0][:m].min(axis=1, out=utmin)
        finite = np.isfinite(block_monitors).all(axis=0)
        if not finite.all():
            q = k0 + 1 + int(np.argmin(finite))
            raise ValueError(f"solve_stefan step {q} (t={spec.t0 + q * dt:g}) "
                             f"holds non-finite values")
        ut_max = max(ut_max, float(rates[0][:m].max()))
        if callable(phases[0].edge):
            f_max = max(f_max, float(liquid[:, 0].max()))
            f_min = min(f_min, float(liquid[:, 0].min()))
        # the block's states q = k0 + 1, ..., k0 + m that fall on the cadence
        for q in range(k0 - k0 % snap_every + snap_every, k0 + m + 1, snap_every):
            _record(snapshots, phases, rows[q - k0], grid, spec.t0 + q * dt)
        for buf in states:
            buf[0] = buf[m]
    vels.append(_front_speed(_laws(phases, rows[0]), s, h)[0])
    fronts, vels = np.array(fronts, dtype=float), np.array(vels, dtype=float)
    times = spec.t0 + np.arange(n_steps + 1) * dt
    times[0] = spec.t0  # a -0.0 start keeps its sign
    step_umax, step_umin, step_utmin = monitors

    bound_high = max(f_max, phi_max)
    bound_low = min(0.0, f_min, g_min, phi_min)
    mp_slack = 1e-12 * max(1.0, abs(bound_high), abs(bound_low))
    mp_violations = int(np.sum((step_umax > bound_high + mp_slack)
                               | (step_umin < bound_low - mp_slack)))
    ut_min = float(step_utmin.min())
    # max |u_t| over the run is the larger magnitude of its two extremes
    ut_tol = 10.0 * (h * h + dt) * max(1.0, abs(ut_min), abs(ut_max))
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
        "ut_min": ut_min,
        "ut_tol": ut_tol,
        "ut_violation_steps": ut_violations,
    }

    snap_fronts = fronts[::snap_every].copy()
    snap_dt = dt * snap_every if len(snap_fronts) > 1 else dt
    trajs = [HeatTrajectory(snaps, snap_dt) for snaps in snapshots]
    front = FrontTrajectory(times, fronts, vels)
    return StefanResult(trajectory=trajs[0], front=front, report=report,
                        snapshot_fronts=snap_fronts,
                        solid_trajectory=trajs[1] if spec.two_phase else None, spec=spec)


def write_front_csv(front: FrontTrajectory, path: str | Path) -> None:
    """Write ``t, s, sdot`` rows with 17 significant digits."""
    write_csv_rows(path, "t,s,sdot",
                   np.column_stack((front.times, front.positions, front.velocities)))
