"""Explicit stepping of the Laplacian, and the integral-identity tooling."""

import json
import math

import numpy as np
import pytest

from meltfront import (
    Grid,
    HeatTrajectory,
    OperatorCoefficients,
    ParabolicCylinder,
    TemperatureField,
    caloric_replacement,
    conservation_residual,
    cylinder_masks,
    discrete_laplacian,
    heat_kernel_field,
    heat_kernel_solution,
    interior_trapezoid_weights,
    radial_average,
    read_field_csv,
    solve_dirichlet,
    stability_limit,
    trapezoid_weights,
    write_trajectory,
)
from meltfront.grid import interior_index, second_differences


def test_stability_limit_values():
    g1 = Grid(origin=(0.0,), extent=(1.0,), counts=(10,))
    assert stability_limit(OperatorCoefficients.laplacian(), g1) == pytest.approx(
        0.1**2 / 2.0)
    g2 = Grid(origin=(0.0, 0.0), extent=(1.0, 2.0), counts=(10, 10))
    got = stability_limit(OperatorCoefficients.laplacian(), g2)
    assert got == pytest.approx(1.0 / (2.0 / 0.1**2 + 2.0 / 0.2**2))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _one_step(coeffs, f, dt, boundary):
    """The level after one explicit step of ``solve_dirichlet``."""
    return solve_dirichlet(coeffs, f, boundary, duration=dt, dt=dt).snapshots[1]


def test_step_explicit_matches_manual_update():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(8,))
    rng = np.random.default_rng(0)
    u0 = rng.random(8)
    f = TemperatureField(g, 0.0, u0)
    coeffs = OperatorCoefficients.laplacian()
    dt = 0.4 * stability_limit(coeffs, g)
    out = _one_step(coeffs, f, dt, boundary=0.0)
    h2 = g.spacing[0] ** 2
    manual = u0.copy()
    manual[1:-1] = u0[1:-1] + dt * (u0[2:] - 2 * u0[1:-1] + u0[:-2]) / h2
    manual[0] = manual[-1] = 0.0
    np.testing.assert_array_equal(out.values, manual)
    assert out.time == dt


_CHAIN_GRIDS = {
    # h = 2.5 > 1: a subnormal neighbour's second difference underflows to a zero
    "1d": Grid(origin=(0.0,), extent=(40.0,), counts=(16,)),
    "2d": Grid(origin=(0.0, 0.0), extent=(1.0, 1.0), counts=(16, 16)),
    "3d": Grid(origin=(0.0, 0.0, 0.0), extent=(1.0, 1.0, 1.0), counts=(8, 8, 8)),
}


def _chain_start(g: Grid, kind: str) -> np.ndarray:
    """Random values, or signed zeros: +0.0 centres whose face neighbours are
    all -0.0 (a checkerboard), with -5e-324 in a few of the +0.0 cells.  On
    the 1D grid a -0.0 cell next to one has a -0.0 second difference, which
    ``sum()``'s leading 0 turns into +0.0 before it reaches the cell."""
    rng = np.random.default_rng(g.total_cells)
    if kind == "random":
        return rng.standard_normal(g.total_cells)
    parity = np.indices(g.counts).sum(axis=0).ravel() % 2
    u0 = np.where(parity == 0, 0.0, -0.0)
    u0[(parity == 0) & (rng.random(g.total_cells) < 0.3)] = -5e-324
    return u0


@pytest.mark.parametrize("start", ["random", "signed_zeros"])
@pytest.mark.parametrize("boundary", [
    pytest.param(-0.0, id="constant"),
    pytest.param(lambda pts, t: np.cos(3.0 * pts.sum(axis=1)) * t, id="callable"),
])
@pytest.mark.parametrize("coeffs", [
    pytest.param(OperatorCoefficients.laplacian(), id="laplacian"),
])
@pytest.mark.parametrize("dim", ["1d", "2d", "3d"])
def test_dirichlet_chain_matches_apply_operator(dim, coeffs, boundary, start):
    """Every level of a 12-step march equals, bit for bit, the chain of
    ``u + dt * discrete_laplacian(u)`` with the Dirichlet data written at the
    new time: the flat-span step must keep the sliced stencil's operations and
    order, down to the signs of zeros."""
    g = _CHAIN_GRIDS[dim]
    f = TemperatureField(g, 0.25, _chain_start(g, start))
    dt = 0.45 * stability_limit(coeffs, g)
    traj = solve_dirichlet(coeffs, f, boundary, 12 * dt, dt)

    bmask = g.boundary_mask()
    levels, times = [f.values], [f.time]
    for _ in range(12):
        u = TemperatureField(g, times[-1], levels[-1])
        new = u.values + dt * discrete_laplacian(u).values
        times.append(times[-1] + dt)
        new[bmask] = boundary(g.cell_centers()[bmask], times[-1]) if callable(boundary) \
            else boundary
        levels.append(new)
    assert traj.times.tolist() == times
    np.testing.assert_array_equal(traj.values_matrix().view(np.int64),
                                  np.stack(levels).view(np.int64))


def test_solve_dirichlet_rejects_non_finite_levels():
    """A boundary that turns NaN from some step on fails the solve, in the
    first block of levels and past it, and the non-finite level is the fault
    reported even when a later step raises something else."""
    g = Grid(origin=(0.0, 0.0), extent=(1.0, 1.0), counts=(6, 6))
    f = TemperatureField(g, 0.0, np.zeros(36))
    coeffs = OperatorCoefficients.laplacian()
    dt = 0.4 * stability_limit(coeffs, g)

    def nan_from(step, fail_from=None):
        def boundary(pts, t):
            if fail_from is not None and t > (fail_from - 0.5) * dt:
                raise RuntimeError("boundary data ran out")
            return np.nan if t > (step - 0.5) * dt else 0.0
        return boundary

    for step in (3, 100):
        with pytest.raises(ValueError, match=f"level {step} .*non-finite"):
            solve_dirichlet(coeffs, f, nan_from(step), 150 * dt, dt)
    with pytest.raises(ValueError, match="level 3 .*non-finite"):
        solve_dirichlet(coeffs, f, nan_from(3, fail_from=5), 150 * dt, dt)
    with pytest.raises(RuntimeError, match="ran out"):
        solve_dirichlet(coeffs, f, nan_from(10, fail_from=5), 150 * dt, dt)


def test_values_matrix_is_one_read_only_array():
    """A marched trajectory and one built from snapshots both return one
    read-only matrix on every call, equal to the stacked snapshot values;
    a marched trajectory's snapshots are read-only rows of it."""
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(8,))
    f = TemperatureField(g, 0.0, np.random.default_rng(2).random(8))
    marched = solve_dirichlet(OperatorCoefficients.laplacian(), f, 0.0, 0.01, 1e-3)
    built = HeatTrajectory(marched.snapshots, marched.dt)
    for traj in (marched, built):
        m = traj.values_matrix()
        assert m is traj.values_matrix()
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
        np.testing.assert_array_equal(m, np.stack([s.values for s in traj.snapshots]))
    assert marched.snapshots[0] is f
    for k, snap in enumerate(marched.snapshots[1:], start=1):
        assert np.shares_memory(snap.values, marched.values_matrix()[k])
        assert not snap.values.flags.writeable


def test_marched_trajectory_takes_the_bound_subclass(monkeypatch):
    """``solve_dirichlet`` builds its result through the module's
    ``HeatTrajectory`` binding without calling ``__init__``, so a subclass
    that keeps only the ``(snapshots, dt)`` signature can stand in."""
    from meltfront import heat

    class Narrow(heat.HeatTrajectory):
        def __init__(self, snapshots, dt):
            super().__init__(snapshots, dt)

    monkeypatch.setattr(heat, "HeatTrajectory", Narrow)
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(8,))
    f = TemperatureField(g, 0.0, np.random.default_rng(3).random(8))
    traj = solve_dirichlet(OperatorCoefficients.laplacian(), f, 0.0, 0.01, 1e-3)
    assert type(traj) is Narrow
    assert len(traj.snapshots) == len(traj) == 11
    np.testing.assert_array_equal(traj.snapshots[-1].values, traj.values_matrix()[-1])


def test_step_explicit_boundary_evaluated_at_new_time():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(8,))
    f = TemperatureField(g, 0.0, np.zeros(8))
    out = _one_step(OperatorCoefficients.laplacian(), f, 1e-3,
                    boundary=lambda pts, t: np.full(pts.shape[0], 10.0 * t))
    assert out.values[0] == pytest.approx(10.0 * 1e-3)
    assert out.values[-1] == pytest.approx(10.0 * 1e-3)


@pytest.mark.parametrize("boundary", [
    pytest.param(lambda pts, t: 2.0, id="<lambda>"),
    pytest.param(0, id="0"),
])
def test_step_explicit_scalar_boundary_broadcasts(boundary):
    """A scalar from a boundary callable, or a constant, fills the whole
    boundary layer; the interior is the plain Laplacian update."""
    g = Grid(origin=(0.0, 0.0), extent=(1.0, 1.0), counts=(6, 7))
    f = TemperatureField(g, 0.0, np.random.default_rng(1).random(42))
    coeffs = OperatorCoefficients.laplacian()
    dt = 0.4 * stability_limit(coeffs, g)
    out = _one_step(coeffs, f, dt, boundary=boundary)
    value = boundary(None, dt) if callable(boundary) else boundary
    bmask = g.boundary_mask()
    assert np.all(out.values[bmask] == value)
    interior = ~bmask
    expected = f.values + dt * discrete_laplacian(f).values
    np.testing.assert_array_equal(out.values[interior], expected[interior])


def test_step_explicit_enforces_cfl():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(8,))
    f = TemperatureField(g, 0.0, np.zeros(8))
    coeffs = OperatorCoefficients.laplacian()
    limit = stability_limit(coeffs, g)
    with pytest.raises(ValueError, match="stability"):
        _one_step(coeffs, f, 1.01 * limit, boundary=0.0)
    with pytest.raises(ValueError):
        _one_step(coeffs, f, -1.0, boundary=0.0)
    # the limit itself is allowed
    _one_step(coeffs, f, limit, boundary=0.0)


def test_solve_dirichlet_step_count_and_times():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(8,))
    f = TemperatureField(g, 0.0, np.zeros(8))
    traj = solve_dirichlet(OperatorCoefficients.laplacian(), f, 0.0, 0.01, 1e-3)
    assert len(traj) == 11
    np.testing.assert_allclose(traj.times, np.arange(11) * 1e-3)
    assert traj.level_near(5e-3) == 5
    with pytest.raises(ValueError):
        traj.level_near(5.5e-3)


def test_trajectory_validation():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(8,))
    a = TemperatureField(g, 0.0, np.zeros(8))
    b = TemperatureField(g, 1e-3, np.zeros(8))
    HeatTrajectory([a, b], 1e-3)
    with pytest.raises(ValueError, match="uniform"):
        HeatTrajectory([a, TemperatureField(g, 2e-3, np.zeros(8))], 1e-3)
    with pytest.raises(ValueError):
        HeatTrajectory([], 1e-3)
    with pytest.raises(ValueError):
        HeatTrajectory([a, b], -1.0)
    other = Grid(origin=(0.0,), extent=(2.0,), counts=(8,))
    with pytest.raises(ValueError, match="grid"):
        HeatTrajectory([a, TemperatureField(other, 1e-3, np.zeros(8))], 1e-3)


# ---------------------------------------------------------------------------
# quadrature and kernel
# ---------------------------------------------------------------------------

def test_trapezoid_weights_total():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(5,))
    w = trapezoid_weights(g)
    # end cells carry half weight, so the rule spans extent - h
    assert w.sum() == pytest.approx(1.0 - 0.2)
    wi = interior_trapezoid_weights(g)
    assert np.all(wi[g.boundary_mask()] == 0.0)
    assert wi.sum() == pytest.approx(0.2 * 2)


def test_heat_kernel_unit_mass():
    # the truncated Gaussian tail at distance 9.5 is ~1e-11, below the target
    g = Grid(origin=(-12.0,), extent=(24.0,), counts=(480,))
    phi = TemperatureField(g, 0.0, np.ones(480))
    for x in (-1.0, 0.0, 2.5):
        assert heat_kernel_solution(phi, [x], 1.0) == pytest.approx(1.0, abs=1e-10)


def test_heat_kernel_argument_checks():
    g = Grid(origin=(-1.0,), extent=(2.0,), counts=(8,))
    phi = TemperatureField(g, 0.0, np.ones(8))
    with pytest.raises(ValueError):
        heat_kernel_solution(phi, [0.0], 0.0)
    with pytest.raises(ValueError):
        heat_kernel_solution(phi, [0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        heat_kernel_field(phi, -1.0)
    plane = Grid(origin=(-1.0, -1.0), extent=(2.0, 2.0), counts=(4, 4))
    with pytest.raises(ValueError, match="2-d for a 1-d grid"):
        heat_kernel_field(phi, 1.0, plane)


def test_heat_kernel_field_matches_pointwise():
    g = Grid(origin=(-6.0, -6.0), extent=(12.0, 12.0), counts=(40, 40))
    pts = g.cell_centers()
    phi = TemperatureField(g, 0.25, np.exp(-(pts**2).sum(axis=1)))
    target = Grid(origin=(-1.0, -1.0), extent=(2.0, 2.0), counts=(4, 4))
    out = heat_kernel_field(phi, 0.5, target)
    assert out.time == 0.75
    for idx in (0, 7, 15):
        x = target.cell_centers()[idx]
        assert out.values[idx] == pytest.approx(
            heat_kernel_solution(phi, x, 0.5), rel=1e-13)


def dense_heat_kernel(phi, t, target):
    """Pairwise trapezoid sum over every (target, source) pair of centers."""
    g = phi.grid
    w = np.ones(g.counts)
    for j, (n, h) in enumerate(zip(g.counts, g.spacing)):
        wj = np.full(n, h)
        wj[0] = wj[-1] = 0.5 * h
        w = w * wj.reshape([n if k == j else 1 for k in range(g.dim)])
    src, pts = g.cell_centers(), target.cell_centers()
    r2 = ((pts[:, None, :] - src[None, :, :]) ** 2).sum(axis=2)
    norm = (4.0 * math.pi * t) ** (-g.dim / 2.0)
    return norm * (np.exp(-r2 / (4.0 * t)) @ (w.ravel() * phi.values))


@pytest.mark.parametrize("source, target", [
    # unequal spacings, offset target with other counts
    (Grid(origin=(-3.0, -2.0), extent=(6.0, 5.0), counts=(30, 20)),
     Grid(origin=(-1.3, -0.7), extent=(2.6, 1.9), counts=(7, 5))),
    (Grid(origin=(-1.0, 0.0, 0.5), extent=(2.0, 2.1, 2.4), counts=(6, 7, 8)), None),
])
def test_heat_kernel_field_matches_dense_sum(source, target):
    rng = np.random.default_rng(5)
    phi = TemperatureField(source, 0.0, rng.uniform(-1.0, 1.0, source.total_cells))
    out = heat_kernel_field(phi, 0.3, target)
    ref = dense_heat_kernel(phi, 0.3, target or source)
    assert out.grid == (target or source)
    assert np.max(np.abs(out.values - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_heat_kernel_gaussian_3d():
    """Gaussian in, Gaussian out with variances added, on a 3D grid."""
    g = Grid(origin=(-6.0,) * 3, extent=(12.0,) * 3, counts=(48, 48, 48))
    pts = g.cell_centers()
    r2 = (pts**2).sum(axis=1)
    sigma0, t = 0.6, 0.2
    evolved = heat_kernel_field(TemperatureField(g, 0.0, np.exp(-r2 / (2 * sigma0**2))), t)
    var = sigma0**2 + 2.0 * t
    exact = (sigma0**2 / var) ** 1.5 * np.exp(-r2 / (2 * var))
    inside = np.all(np.abs(pts) <= 3.0, axis=1)
    assert evolved.time == t
    # the trapezoid rule is spectrally accurate on Gaussians at this spacing
    assert np.max(np.abs(evolved.values[inside] - exact[inside])) <= 1e-10


def test_conservation_residual_first_order_in_dt():
    """The defect is pure time quadrature, so halving dt halves it."""
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(32,))
    xc = g.axis_centers(0)
    u0 = np.sin(np.pi * xc)
    u0[0] = u0[-1] = 0.0
    f = TemperatureField(g, 0.0, u0)
    coeffs = OperatorCoefficients.laplacian()
    r = []
    for dt in (2e-4, 1e-4):
        traj = solve_dirichlet(coeffs, f, 0.0, 0.02, dt)
        r.append(abs(conservation_residual(traj)))
    assert r[0] / r[1] == pytest.approx(2.0, rel=0.05)
    with pytest.raises(ValueError):
        conservation_residual(HeatTrajectory([f], 1e-4))


# ---------------------------------------------------------------------------
# caloric replacement
# ---------------------------------------------------------------------------

def _caloric_run(counts=(24,), dt=None, duration=0.02):
    dim = len(counts)
    g = Grid(origin=(0.0,) * dim, extent=(1.0,) * dim, counts=counts)
    pts = g.cell_centers()
    u0 = np.exp(-8.0 * ((pts - 0.5) ** 2).sum(axis=1))
    coeffs = OperatorCoefficients.laplacian()
    if dt is None:
        dt = 0.5 * stability_limit(coeffs, g)
    f = TemperatureField(g, 0.0, u0)
    return g, solve_dirichlet(coeffs, f, 0.0, duration, dt)


def test_cylinder_masks_structure():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(20,))
    cyl = ParabolicCylinder(center=(0.5,), t_top=1.0, radius=0.2)
    ball, lateral, interior = cylinder_masks(g, cyl)
    centers = g.cell_centers()[:, 0]
    assert np.array_equal(ball, np.abs(centers - 0.5) < 0.2)
    assert np.array_equal(ball, lateral | interior)
    assert not np.any(lateral & interior)
    # 1D ball is an interval; exactly its two end cells are lateral
    assert lateral.sum() == 2
    with pytest.raises(ValueError):
        cylinder_masks(g, ParabolicCylinder(center=(0.5, 0.5), t_top=1.0, radius=0.2))


def test_replacement_of_caloric_data_is_identity():
    """A discretely caloric trajectory is its own replacement, bit for bit."""
    g, traj = _caloric_run()
    cyl = ParabolicCylinder(center=(0.5,), t_top=traj.times[-1], radius=0.12)
    z = caloric_replacement(traj, cyl)
    i0 = traj.level_near(z.times[0])
    for k, snap in enumerate(z.snapshots):
        assert np.array_equal(snap.values, traj.snapshots[i0 + k].values)


def test_replacement_argument_checks():
    g, traj = _caloric_run()
    t_top = traj.times[-1]
    with pytest.raises(ValueError, match="at least 4"):
        caloric_replacement(traj, ParabolicCylinder((0.5,), t_top, 0.05))
    with pytest.raises(ValueError, match="before the trajectory"):
        caloric_replacement(traj, ParabolicCylinder((0.5,), t_top, 0.5))
    coarse = HeatTrajectory(traj.snapshots[::4], traj.dt * 4)
    if coarse.dt > 0.5 * g.spacing[0] ** 2:
        with pytest.raises(ValueError, match="stability"):
            caloric_replacement(coarse, ParabolicCylinder((0.5,), t_top, 0.12))


def _sliced_replacement(w, cyl):
    """Times and levels of the replacement marched one level at a time with
    the sliced stencil, as ``caloric_replacement`` once did."""
    g, times = w.grid, w.times
    i_top = w.level_near(cyl.t_top)
    i_bot = int(np.searchsorted(times, cyl.t_bottom - 1e-12))
    _, _, interior = cylinder_masks(g, cyl)
    z = w.snapshots[i_bot].values.copy()
    out = [z.copy()]
    for k in range(i_bot, i_top):
        lap = np.zeros(g.counts)
        lap[interior_index(g.dim)] = sum(second_differences(z.reshape(g.counts), g.spacing))
        z_next = w.snapshots[k + 1].values.copy()
        stepped = z + w.dt * lap.ravel()
        z_next[interior] = stepped[interior]
        z = z_next
        out.append(z.copy())
    return times[i_bot:i_top + 1], np.stack(out)


def _sliced_radial_average(w, x0, t0, radius, n_radii):
    g = w.grid
    center_cell = int(np.argmin(((g.cell_centers() - np.asarray(x0)) ** 2).sum(axis=1)))
    rhos = np.linspace(radius, 2.0 * radius, n_radii)
    weights = np.full(n_radii, rhos[1] - rhos[0])
    weights[[0, -1]] *= 0.5
    total = 0.0
    for rho, wt in zip(rhos, weights):
        _, levels = _sliced_replacement(w, ParabolicCylinder(x0, t0, float(rho)))
        total += wt * levels[-1, center_cell]
    return float(total / radius)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_caloric_replacement_matches_sliced_chain(dim, seed):
    """The replacement and its radial average equal the sliced march bit for
    bit, on random data over boxes whose spacings are not powers of 2.  Seed
    0 starts from zeros of random sign and a few -5e-324 on spacings above 1,
    where a second difference can underflow to -0.0, which sum()'s leading 0
    turns into +0.0."""
    rng = np.random.default_rng(100 * dim + seed)
    counts = tuple(int(c) for c in rng.integers(10, 14, dim))
    scale = 25.0 if seed == 0 else 1.0
    extent = tuple(c * h * scale for c, h in zip(counts, rng.uniform(0.09, 0.1, dim)))
    g = Grid(origin=(0.0,) * dim, extent=extent, counts=counts)
    assert any(math.frexp(h)[0] != 0.5 for h in g.spacing)
    dt = 0.9 * stability_limit(OperatorCoefficients.laplacian(), g)
    radius = 2.05 * max(g.spacing)  # 4 cells across on every axis
    n_levels = int((2.0 * radius) ** 2 / dt) + 3
    if seed == 0:
        data = np.where(rng.random((n_levels, g.total_cells)) < 0.5, -0.0, 0.0)
        data[rng.random(data.shape) < 0.3] = -5e-324
    else:
        data = rng.standard_normal((n_levels, g.total_cells))
    w = HeatTrajectory([TemperatureField(g, k * dt, v) for k, v in enumerate(data)], dt)
    x0 = tuple(o + e / 2 + rng.uniform(-0.2, 0.2) * h
               for o, e, h in zip(g.origin, g.extent, g.spacing))
    t0 = w.times[-1]

    z = caloric_replacement(w, ParabolicCylinder(x0, t0, radius))
    times, levels = _sliced_replacement(w, ParabolicCylinder(x0, t0, radius))
    assert z.times.view(np.int64).tolist() == times.view(np.int64).tolist()
    assert np.array_equal(z.values_matrix().view(np.int64), levels.view(np.int64))
    got = np.float64(radial_average(w, x0, t0, radius, n_radii=3))
    want = np.float64(_sliced_radial_average(w, x0, t0, radius, 3))
    assert got.view(np.int64) == want.view(np.int64)


def test_caloric_replacement_rejects_non_finite_levels():
    """A checkerboard of +-1e308 overflows the first replacement step, and
    the error names that level."""
    g = Grid(origin=(0.0, 0.0), extent=(1.0, 1.0), counts=(12, 12))
    dt = 0.5 * stability_limit(OperatorCoefficients.laplacian(), g)
    board = 1e308 * (-1.0) ** np.add.outer(np.arange(12), np.arange(12)).ravel()
    w = HeatTrajectory([TemperatureField(g, k * dt, board) for k in range(60)], dt)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="caloric_replacement level 1 .*non-finite"):
            caloric_replacement(w, ParabolicCylinder((0.5, 0.5), w.times[-1], 0.2))


def test_radial_average_on_caloric_data():
    g, traj = _caloric_run(duration=0.05)
    t0 = traj.times[-1]
    avg = radial_average(traj, (0.5,), t0, 0.1, n_radii=4)
    center = int(np.argmin(np.abs(g.cell_centers()[:, 0] - 0.5)))
    assert avg == pytest.approx(traj.snapshots[-1].values[center], rel=1e-12)
    with pytest.raises(ValueError, match="fit inside"):
        radial_average(traj, (0.05,), t0, 0.1)
    with pytest.raises(ValueError):
        radial_average(traj, (0.5,), t0, 0.1, n_radii=1)
    with pytest.raises(ValueError):
        radial_average(traj, (0.5,), t0, -0.1)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_write_trajectory_round_trip(tmp_path):
    _, traj = _caloric_run(duration=5e-3)
    manifest_path = write_trajectory(traj, tmp_path, prefix="u",
                                     stability_limit_used=1e-3,
                                     diagnostics={"seed": 7})
    manifest = json.loads(manifest_path.read_text())
    assert manifest["dt"] == traj.dt
    assert manifest["diagnostics"] == {"seed": 7}
    assert len(manifest["snapshots"]) == len(traj)
    for name, snap in zip(manifest["snapshots"], traj.snapshots):
        back = read_field_csv(tmp_path / name)
        assert np.array_equal(back.values, snap.values)
        assert back.time == snap.time
