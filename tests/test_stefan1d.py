"""Front-fixed 1D solver against the closed-form similarity references.

The two-phase reference is built inside the test from the classical pair
``u = 1 - erf(xi)/erf(lam)``, ``w = g_inf (1 - erfc(xi)/erfc(lam))`` with the
root of ``lam sqrt(pi) e^(lam^2) = k1/erf(lam) + k2 g_inf/erfc(lam)``; both
phases are caloric, vanish at ``s(t) = 2 lam sqrt(t)``, and satisfy the jump
law by construction.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import erf, erfc

from meltfront import (
    FrontTrajectory,
    StefanSpec1D,
    similarity_oracle,
    solve_stefan,
    transcendental_residual,
    write_front_csv,
)
from meltfront.stefan1d import _front_speed, _laws, _phases

# bisection roots of lam e^(lam^2) erf(lam) = St/sqrt(pi), frozen
LAMBDA = {
    1e-6: 7.071066633354626e-4,
    0.1: 0.22001627274293786,
    0.5: 0.4647859206462444,
    1.0: 0.620062633313596,
    2.0: 0.8006013628056082,
}


# ---------------------------------------------------------------------------
# similarity oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("st,lam", sorted(LAMBDA.items()))
def test_oracle_roots_frozen(st, lam):
    sol = similarity_oracle(st)
    assert sol.lam == pytest.approx(lam, abs=1e-12)
    assert abs(transcendental_residual(sol.lam, st)) <= 1e-12


@pytest.mark.parametrize("st,lam_hex", [(1.0, "0x1.3d78d9771b68ap-1"),
                                         (1e-10, "0x1.da88051e884dap-18")])
def test_oracle_root_bits_frozen(st, lam_hex):
    """Where an absolute residual bound of 1e-12 passed, the root keeps its bits."""
    assert similarity_oracle(st).lam.hex() == lam_hex


@pytest.mark.parametrize("st", [1e4, 1e20, 4e44])
def test_oracle_accepts_large_stefan_numbers(st):
    """The residual's rounding scales with St / sqrt(pi), and so does its bound:
    an absolute 1e-12 refused St 1e4."""
    sol = similarity_oracle(st)
    assert abs(transcendental_residual(sol.lam, st)) <= 1e-12 * st / math.sqrt(math.pi)
    assert sol.lam * math.exp(sol.lam**2) * erf(sol.lam) == pytest.approx(
        st / math.sqrt(math.pi), rel=1e-12)


def test_oracle_small_stefan_asymptote():
    # lam -> sqrt(St/2) as St -> 0
    assert similarity_oracle(1e-6).lam == pytest.approx(math.sqrt(5e-7), abs=1e-9)


def test_oracle_rejects_nonpositive_stefan():
    with pytest.raises(ValueError):
        similarity_oracle(0.0)


def test_similarity_solution_shape():
    sol = similarity_oracle(1.0)
    t = 0.5
    s = sol.front(t)
    assert s == 2.0 * sol.lam * math.sqrt(t)
    assert sol.temperature(0.0, t) == pytest.approx(1.0)
    assert sol.temperature(s, t) == pytest.approx(0.0, abs=1e-15)
    # clamped to zero past the front, raw profile goes negative
    assert sol.temperature(2.0 * s, t) == 0.0
    assert sol.profile(2.0 * s, t) < 0.0


def test_similarity_gradient_and_velocity_consistent():
    """s' = -St * u_x(s-, t) is the transcendental identity itself."""
    sol = similarity_oracle(1.0)
    for t in (0.25, 1.0, 4.0):
        v = sol.front_velocity(t)
        assert v == pytest.approx(-sol.stefan_number * sol.gradient_at_front(t),
                                  rel=1e-12)
        # finite-difference cross-checks of the closed forms
        eps = 1e-6
        fd_v = (sol.front(t + eps) - sol.front(t - eps)) / (2 * eps)
        assert fd_v == pytest.approx(v, rel=1e-8)
        s = float(sol.front(t))
        fd_g = (sol.profile(s, t) - sol.profile(s - eps, t)) / eps
        assert fd_g == pytest.approx(sol.gradient_at_front(t), rel=1e-6)


# ---------------------------------------------------------------------------
# gradients and stepping
# ---------------------------------------------------------------------------

def test_front_gradient_exact_on_quadratics():
    """The two-phase front law ``s' = -k1 u_x(s-) + k2 w_x(s+)`` from mapped
    node samples is exact on quadratics, with the solid stored mirrored (node 0
    on ``x = L``, the last node on the front)."""
    k1, k2, s, length = 1.5, 0.5, 0.7, 1.0
    spec = StefanSpec1D(k1=k1, b=s, duration=1.0, k2=k2, length=length)
    eta = np.linspace(0.0, 1.0, 11)
    # u(x) = 2 - 3x + x^2 on x = eta s; w(x) = 5(x - s) - 2(x - s)^2 on x = L - eta (L - s)
    u = 2.0 - 3.0 * (eta * s) + (eta * s) ** 2
    r = (length - eta * (length - s)) - s
    w = 5.0 * r - 2.0 * r**2
    v, rate = _front_speed(_laws(_phases(spec), [u, w]), s, 0.1)
    assert v == pytest.approx(-k1 * (-3.0 + 2.0 * s) + k2 * 5.0, rel=1e-13)
    # the narrower phase, the solid's L - s, sets the stable rate
    narrow = length - s
    assert rate == 2.0 / (narrow * narrow * 0.1 * 0.1) + abs(v) / (narrow * 0.1)


def test_spec_validation():
    with pytest.raises(ValueError):
        StefanSpec1D(k1=0.0, b=1.0, duration=1.0)
    with pytest.raises(ValueError):
        StefanSpec1D(k1=1.0, b=-1.0, duration=1.0)
    with pytest.raises(ValueError):
        StefanSpec1D(k1=1.0, b=1.0, duration=1.0, nx=3)
    with pytest.raises(ValueError, match="length"):
        StefanSpec1D(k1=1.0, b=1.0, duration=1.0, k2=1.0)
    with pytest.raises(ValueError, match="length"):
        StefanSpec1D(k1=1.0, b=1.0, duration=1.0, k2=1.0, length=0.5)


@pytest.mark.parametrize("field, value", [
    ("duration", math.inf), ("duration", math.nan), ("dt", math.nan), ("dt", math.inf),
    ("k1", math.nan), ("k2", math.inf), ("b", math.nan), ("b", math.inf),
    ("t0", math.nan), ("t0", math.inf), ("length", math.nan), ("length", math.inf),
])
def test_spec_rejects_non_finite_numbers(field, value):
    """``require_positive`` refuses NaN and infinity, which ``v <= 0`` lets
    through, and ``require_finite`` does for ``t0`` and ``length``, so a
    library caller cannot start an endless or undefined run."""
    kwargs = dict(k1=1.0, b=0.3, duration=1.0, k2=1.0, length=1.0)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        StefanSpec1D(**dict(kwargs, **{field: value}))


def test_front_trajectory_container():
    ft = FrontTrajectory(times=[0.0, 1.0], positions=[1.0, 2.0],
                         velocities=[1.0, 1.0])
    assert ft.interpolate(0.5) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        FrontTrajectory(times=[0.0], positions=[1.0, 2.0], velocities=[1.0])
    with pytest.raises(ValueError):
        FrontTrajectory(times=[0.0], positions=[0.0], velocities=[1.0])


def test_step_rejects_unstable_dt():
    sim = similarity_oracle(1.0)
    b = float(sim.front(0.25))
    spec = StefanSpec1D(k1=1.0, b=b, duration=1.0, nx=200, dt=1e-4, t0=0.25,
                        initial=lambda x: sim.temperature(x, 0.25))
    with pytest.raises(ValueError, match="stability"):
        solve_stefan(spec)
    with pytest.raises(ValueError):
        StefanSpec1D(k1=1.0, b=b, duration=1.0, nx=200, dt=0.0, t0=0.25)


def test_single_step_tracks_similarity():
    sim = similarity_oracle(1.0)
    t0 = 0.25
    b = float(sim.front(t0))
    spec = StefanSpec1D(k1=1.0, b=b, duration=4e-6, nx=200, dt=4e-6, t0=t0,
                        initial=lambda x: sim.temperature(x, t0))
    res = solve_stefan(spec)
    out = res.trajectory.snapshots[-1].values
    assert abs(float(res.front.positions[-1]) - float(sim.front(t0 + 4e-6))) < 1e-9
    assert out[0] == 1.0
    assert out[-1] == 0.0


# ---------------------------------------------------------------------------
# full solves
# ---------------------------------------------------------------------------

def test_solve_tracks_similarity_front():
    sim = similarity_oracle(1.0)
    t0 = 0.25
    b = float(sim.front(t0))
    spec = StefanSpec1D(k1=1.0, b=b, duration=0.15, boundary=1.0,
                        initial=lambda x: sim.temperature(x, t0),
                        nx=100, t0=t0, snapshot_every=10**9)
    res = solve_stefan(spec)
    t_end = float(res.front.times[-1])
    rel = abs(float(res.front.positions[-1]) - sim.front(t_end)) / sim.front(t_end)
    assert rel < 1e-3
    rep = res.report
    assert rep["warmup_steps"] == 0
    assert rep["front_min_increment"] >= 0.0
    assert rep["max_principle_violations"] == 0
    assert rep["ut_violation_steps"] == 0


def test_degenerate_start_warms_up():
    """Zero initial data under positive heating takes 5 substepped steps."""
    spec = StefanSpec1D(k1=1.0, b=0.05, duration=2e-4, boundary=1.0,
                        nx=50, t0=0.0)
    res = solve_stefan(spec)
    assert res.report["warmup_steps"] == 5
    assert res.report["front_final"] > 0.05
    assert res.report["front_min_increment"] >= -1e-12
    assert res.report["u_min"] >= -1e-12


def test_negative_boundary_rejected():
    spec = StefanSpec1D(k1=1.0, b=0.05, duration=1e-3,
                        boundary=lambda t: -1.0, nx=50)
    with pytest.raises(ValueError, match="nonnegative"):
        solve_stefan(spec)


@pytest.mark.parametrize("far_boundary", [0.5, lambda t: t - 1e-4],
                         ids=["at_start", "during_run"])
def test_positive_far_boundary_rejected(far_boundary):
    spec = StefanSpec1D(k1=1.0, k2=1.0, b=0.5, length=1.0, duration=1e-3,
                        far_boundary=far_boundary, nx=20)
    with pytest.raises(ValueError, match="nonpositive"):
        solve_stefan(spec)


def test_initial_profile_checks():
    with pytest.raises(ValueError, match="vanish"):
        solve_stefan(StefanSpec1D(k1=1.0, b=1.0, duration=1e-3,
                                  initial=lambda x: np.ones_like(x), nx=50))
    with pytest.raises(ValueError, match="nonnegative"):
        solve_stefan(StefanSpec1D(k1=1.0, b=1.0, duration=1e-3,
                                  initial=lambda x: x - 1.0, nx=50))


def test_two_phase_matches_jump_similarity():
    k1, k2, ginf = 1.0, 0.5, -0.5

    def resid(lam):
        return (lam * math.sqrt(math.pi) * math.exp(lam * lam)
                - k1 / erf(lam) - k2 * ginf / erfc(lam))

    lam = brentq(resid, 1e-6, 2.0, xtol=1e-15, rtol=8.9e-16)
    assert lam == pytest.approx(0.5345871613901705, abs=1e-12)

    def u_exact(x, t):
        return np.maximum(1.0 - erf(np.asarray(x) / (2 * math.sqrt(t))) / erf(lam), 0.0)

    def w_exact(x, t):
        return ginf * (1.0 - erfc(np.asarray(x) / (2 * math.sqrt(t))) / erfc(lam))

    t0, length, duration = 0.2, 1.5, 0.2
    b = 2 * lam * math.sqrt(t0)
    spec = StefanSpec1D(
        k1=k1, k2=k2, b=b, length=length, duration=duration, boundary=1.0,
        # the finite wall carries the exact far-field trace, so the
        # truncated problem stays the similarity problem
        far_boundary=lambda t: float(w_exact(length, t)),
        initial=lambda x: u_exact(x, t0),
        initial_solid=lambda x: np.minimum(w_exact(x, t0), 0.0),
        nx=100, t0=t0,
    )
    res = solve_stefan(spec)
    t_end = float(res.front.times[-1])
    s_ref = 2 * lam * math.sqrt(t_end)
    assert abs(float(res.front.positions[-1]) - s_ref) / s_ref < 1e-4

    xi = np.linspace(0, 1, spec.nx + 1)
    s_f = res.snapshot_fronts[-1]
    t_f = res.trajectory.snapshots[-1].time
    liq_err = np.max(np.abs(res.trajectory.snapshots[-1].values
                            - u_exact(xi * s_f, t_f)))
    sol_err = np.max(np.abs(res.solid_trajectory.snapshots[-1].values
                            - w_exact(s_f + xi * (length - s_f), t_f)))
    assert liq_err < 1e-4
    assert sol_err < 1e-4
    assert res.report["max_principle_violations"] == 0


def test_solid_ramp_freezes_the_front():
    """With no liquid heat, a subcooled solid pulls the front backward."""
    spec = StefanSpec1D(
        k1=1.0, k2=1.0, b=0.5, length=1.0, duration=5e-4,
        boundary=0.0, far_boundary=-1.0,
        initial_solid=lambda x: -2.0 * (x - 0.5),
        nx=50,
    )
    res = solve_stefan(spec)
    assert res.report["front_final"] < 0.5
    assert res.report["front_min_increment"] < 0.0


def test_two_phase_front_law_cancels_on_antisymmetric_data():
    """With k1 = k2, L = 2b and data odd about the front (liquid phi(b - x),
    solid -phi(x - b)), the liquid and solid terms of the jump law cancel:
    the front must not move."""
    b = 0.5

    def phi(r):
        return np.sin(np.pi * r / (2 * b)) ** 2 + r / (2 * b)

    edge = float(phi(b))
    spec = StefanSpec1D(k1=1.0, k2=1.0, b=b, length=2 * b, duration=0.02,
                        boundary=edge, far_boundary=-edge,
                        initial=lambda x: phi(b - x),
                        initial_solid=lambda x: -phi(x - b), nx=64)
    res = solve_stefan(spec)
    assert np.max(np.abs(res.front.positions - b)) <= 1e-12
    assert np.max(np.abs(res.front.velocities)) <= 1e-12


@pytest.mark.parametrize("two_phase", [False, True], ids=["one_phase", "two_phase"])
def test_monitors_match_every_stored_state(two_phase):
    """The monitors are reduced once per block of steps; with every step
    stored, they must equal the same reductions over the stored states, over
    several blocks and a partial one."""
    sim = similarity_oracle(1.0)
    t0, nx, length = 0.25, 12, 2.0
    b = float(sim.front(t0))
    solid = dict(k2=0.5, length=length, far_boundary=lambda t: -0.5 - (t - t0),
                 initial_solid=lambda x: -0.5 * (x - b) / (length - b)) if two_phase else {}
    spec = StefanSpec1D(k1=1.0, b=b, duration=0.3505, dt=5e-4, t0=t0, nx=nx,
                        boundary=lambda t: 1.0 + 2.0 * (t - t0),
                        initial=lambda x: sim.temperature(x, t0),
                        snapshot_every=1, **solid)
    res = solve_stefan(spec)
    rep = res.report
    # 701 steps, a prime: several blocks and a partial one for any block of 2 to 350 steps
    assert rep["steps"] == len(res.trajectory) - 1 == 701

    liquid = [snap.values for snap in res.trajectory.snapshots]
    phases = [liquid]
    if two_phase:
        phases.append([snap.values for snap in res.solid_trajectory.snapshots])
    # the monitors see the state after each step
    assert rep["u_max"] == max(vals.max() for vals in liquid[1:])
    assert rep["u_min"] == min(vals.min() for states in phases for vals in states[1:])
    edge = [vals[0] for vals in liquid]
    assert rep["bound_high"] == max(*edge, *(states[0].max() for states in phases))
    # the parabolic boundary holds both edges: the solid's far edge x = L is
    # its last stored node, and here it falls below its start value
    far = [vals[-1] for vals in phases[1]] if two_phase else []
    assert rep["bound_low"] == min(0.0, *edge, *far, *(states[0].min() for states in phases))
    assert rep["max_principle_violations"] == 0

    # the heating rate of each step is that of its pre-step state, and the
    # tolerance scales with its largest magnitude over the run
    h = 1.0 / nx
    ut = [(vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / (s * s * h * h)
          for vals, s in zip(liquid[:-1], res.snapshot_fronts[:-1])]
    assert rep["ut_min"] == min(rates.min() for rates in ut)
    ut_scale = max(np.abs(rates).max() for rates in ut)
    assert rep["ut_tol"] == 10.0 * (h * h + spec.dt) * max(1.0, ut_scale)

    # and each stored state is one explicit step of the one before it, block
    # edges included (the solid is stepped mirrored, as the solver does)
    eta_int = np.linspace(0.0, 1.0, nx + 1)[1:-1]
    fronts, vels = res.snapshot_fronts, res.front.velocities
    for sigma, anchor, states in zip((1, -1), (0.0, length), phases):
        for k in range(rep["steps"]):
            vals, nxt = states[k][::sigma], states[k + 1][::sigma]
            w = sigma * (fronts[k] - anchor)
            ds = spec.dt * vels[k]
            d2 = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
            d1 = vals[2:] - vals[:-2]
            step = vals[1:-1] + spec.dt * (d2 / (w * w * h * h)) \
                + (sigma * ds / (2.0 * h * w)) * (eta_int * d1)
            assert np.array_equal(nxt[1:], np.append(step, 0.0)), k


def test_snapshot_cadence_stores_every_kth_state_of_the_run():
    """Snapshots are recorded once per block, after its monitors.  A run that
    stores every 7th state must store exactly the states, fronts and times of
    a run that stores every one, over 150 steps (blocks of 64, 64 and 22, the
    last step off the cadence), and a -0.0 start keeps its sign."""
    b, length, dt = 0.3, 1.0, 5e-5
    spec = StefanSpec1D(k1=1.0, b=b, duration=149.5 * dt, dt=dt, t0=-0.0, nx=20,
                        boundary=lambda t: 1.0 + t, initial=lambda x: 1.0 - x / b,
                        k2=0.5, length=length, far_boundary=-0.5,
                        initial_solid=lambda x: -0.5 * (x - b) / (length - b))
    every = solve_stefan(replace(spec, snapshot_every=1))
    seventh = solve_stefan(replace(spec, snapshot_every=7))
    assert seventh.report == every.report
    assert seventh.report["steps"] == len(every.trajectory) - 1 == 150
    assert len(seventh.trajectory) == 22  # states 0, 7, ..., 147

    for full, kept in ((every.trajectory, seventh.trajectory),
                       (every.solid_trajectory, seventh.solid_trajectory)):
        assert kept.values_matrix().tobytes() == full.values_matrix()[::7].tobytes()
        assert kept.times.tobytes() == full.times[::7].tobytes()
        assert kept.times.tobytes() == seventh.front.times[::7].tobytes()
    assert seventh.snapshot_fronts.tobytes() == every.snapshot_fronts[::7].tobytes()
    assert seventh.snapshot_fronts.tobytes() == seventh.front.positions[::7].tobytes()
    for name in ("times", "positions", "velocities"):
        assert getattr(seventh.front, name).tobytes() == getattr(every.front, name).tobytes()
    assert math.copysign(1.0, seventh.front.times[0]) == -1.0
    assert seventh.front.times[150] == -0.0 + 150 * dt


@pytest.mark.parametrize("snapshot_every", [10**9, None], ids=["snapshots_off", "snapshots_on"])
def test_non_finite_state_is_named_at_its_step(snapshot_every):
    """A NaN edge from t = 0.005 on (step 20) stops the run there.  NaN
    comparisons are false, so unchecked it would finish with NaN monitors and
    no max-principle violation, or fail unnamed at its first snapshot."""
    spec = StefanSpec1D(k1=1.0, b=0.5, duration=0.01, nx=20,
                        boundary=lambda t: 1.0 if t < 0.005 else math.nan,
                        snapshot_every=snapshot_every)
    with pytest.raises(ValueError, match=r"^solve_stefan step 20 \(t=0.005\) holds non-finite"):
        solve_stefan(spec)


@pytest.mark.parametrize("two_phase, nx", [(False, 12), (True, 12), (True, 4096)],
                         ids=["one_phase", "two_phase", "two_phase_blocks_of_3"])
def test_warm_up_steps_are_ten_reference_substeps(two_phase, nx):
    """A degenerate start takes each of its first 5 steps as 10 substeps of
    dt / 10 through two spare rows.  Every stored state must equal those
    substeps bit for bit, each substep taking its speed from the front law
    and its callable edges at its own end time, and each step's velocity is
    that of its first substep.  At nx = 4096 a block holds 3 steps, so the
    warm-up crosses a block edge."""
    t0, b, length = 0.1, 0.2, 1.0
    solid = dict(k2=0.5, length=length, far_boundary=lambda t: -0.25 - (t - t0),
                 initial_solid=lambda x: -0.25 * (x - b) / (length - b)) if two_phase else {}
    h = 1.0 / nx
    dt = 0.25 * (b * h) ** 2
    spec = StefanSpec1D(k1=1.0, b=b, duration=8 * dt, dt=dt, t0=t0, nx=nx,
                        boundary=lambda t: 1.0 + 2.0 * (t - t0), snapshot_every=1, **solid)
    res = solve_stefan(spec)
    rep = res.report
    assert rep["steps"] == 8 and rep["warmup_steps"] == 5

    phases = _phases(spec)
    trajs = [res.trajectory, res.solid_trajectory][:len(phases)]
    # the solver's orientation: the solid mirrored, its far edge at node 0
    stored = [[snap.values[::p.sigma] for snap in traj.snapshots]
              for p, traj in zip(phases, trajs)]
    eta_int = np.linspace(0.0, 1.0, nx + 1)[1:-1]
    state = [states[0] for states in stored]
    s, t = res.snapshot_fronts[0], t0
    for k in range(rep["steps"]):
        subs = 10 if k < 5 else 1
        sub_dt = dt / subs
        for j in range(subs):
            v, _ = _front_speed(_laws(phases, state), s, h)
            if j == 0:
                assert res.front.velocities[k] == v, k
            ds = sub_dt * v
            new = []
            for p, vals in zip(phases, state):
                w = p.sigma * (s - p.anchor)
                d2 = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
                d1 = vals[2:] - vals[:-2]
                step = vals[1:-1] + sub_dt * (d2 / (w * w * h * h)) \
                    + (p.sigma * ds / (2.0 * h * w)) * (eta_int * d1)
                new.append(np.concatenate(([p.edge(t + j * sub_dt + sub_dt)], step, [0.0])))
            state, s = new, s + ds
        t = t0 + (k + 1) * dt
        assert s == res.snapshot_fronts[k + 1] == res.front.positions[k + 1], k
        for vals, states in zip(state, stored):
            assert vals.tobytes() == states[k + 1].tobytes(), k
    # the front moves within the warm-up (heat reaches it, or the solid pulls it)
    assert res.front.positions[5] != b


@pytest.mark.parametrize("steps_to_sign_change", [2.35, 20.5], ids=["in_warm_up", "after_warm_up"])
def test_heating_edge_turning_negative_mid_run_rejected(steps_to_sign_change):
    """The sign rule of a callable heating edge is checked at every step and
    every warm-up substep, not only at the start."""
    dt = 2e-4
    t_flip = steps_to_sign_change * dt
    spec = StefanSpec1D(k1=1.0, b=0.5, duration=40 * dt, dt=dt, nx=10,
                        boundary=lambda t: 1.0 if t < t_flip else -1.0)
    with pytest.raises(ValueError, match="boundary heating must stay nonnegative, got -1"):
        solve_stefan(spec)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_front_csv_format(tmp_path):
    ft = FrontTrajectory(times=[0.0, 0.5], positions=[1.0, 1.25],
                         velocities=[0.5, 0.5])
    path = tmp_path / "front.csv"
    write_front_csv(ft, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,s,sdot"
    assert [float(v) for v in lines[1].split(",")] == [0.0, 1.0, 0.5]
    assert [float(v) for v in lines[2].split(",")] == [0.5, 1.25, 0.5]

    ft = FrontTrajectory(times=[-0.0, 1 / 3], positions=[5e-324, 1e300],
                         velocities=[1 / 3, -0.0])
    write_front_csv(ft, path)
    text = path.read_text()
    assert text == ("t,s,sdot\n"
                    "-0,4.9406564584124654e-324,0.33333333333333331\n"
                    "0.33333333333333331,1.0000000000000001e+300,-0\n")
    back = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])
    # bit-equal, signed zeros and the subnormal included
    expect = np.column_stack((ft.times, ft.positions, ft.velocities))
    assert back.tobytes() == expect.tobytes()

    # more rows than one write formats at once
    rng = np.random.default_rng(7)
    n = 10_001
    ft = FrontTrajectory(times=np.arange(n) / 3.0, positions=rng.uniform(0.1, 2.0, n),
                         velocities=rng.standard_normal(n))
    write_front_csv(ft, path)
    lines = path.read_text().splitlines()
    assert len(lines) == n + 1 and lines[0] == "t,s,sdot"
    back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    expect = np.column_stack((ft.times, ft.positions, ft.velocities))
    assert back.tobytes() == expect.tobytes()
