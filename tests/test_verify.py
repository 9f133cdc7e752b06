"""Verification instruments: barrier residuals, max-principle audits,
continuity and spread metrics.

``u = |x - xm|^2 + 2 n t`` is discretely caloric for both the central
Laplacian (exact on quadratics) and the forward time difference (exact on
linear-in-t), so barrier residuals over it land on the exact constant.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from meltfront import (
    BarrierParams,
    Grid,
    HeatTrajectory,
    OperatorCoefficients,
    TemperatureField,
    barrier_field,
    barrier_residual_constant,
    delta_of_t,
    discrete_laplacian,
    heat_residual_field,
    initial_continuity_metric,
    max_principle_audit,
    neighborhood_radius,
    solve_dirichlet,
    stability_limit,
)
from meltfront import heat, verify

LAPLACE = OperatorCoefficients.laplacian()


def unit_grid(dim, n):
    return Grid(origin=(0.0,) * dim, extent=(1.0,) * dim, counts=(n,) * dim)


def caloric_pair(dim, n_cells, t1, dt):
    """Two levels of ``|x - xm|^2 + 2 d t`` about the cell-center midpoint."""
    grid = unit_grid(dim, n_cells)
    xm = np.full(dim, 0.5)
    sq = np.sum((grid.cell_centers() - xm) ** 2, axis=1)
    snaps = [TemperatureField(grid, t, sq + 2.0 * dim * t)
             for t in (t1, t1 + dt)]
    return grid, xm, HeatTrajectory(snaps, dt)


def sine_run(n_steps=10, nx=21, dt=1e-3):
    grid = unit_grid(1, nx)
    u0 = TemperatureField(grid, 0.0, np.sin(np.pi * grid.cell_centers()[:, 0]))
    return grid, solve_dirichlet(LAPLACE, u0, 0.0, n_steps * dt, dt)


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------

def test_barrier_constants_frozen():
    assert barrier_residual_constant(1) == -3.0 / 8.0
    assert barrier_residual_constant(2) == -5.0 / 16.0
    assert barrier_residual_constant(3) == -7.0 / 24.0
    with pytest.raises(ValueError):
        barrier_residual_constant(4)


def test_barrier_params_validation():
    p = BarrierParams(center=(0.5, 0.5), time=1.0, dimension=2)
    assert p.coefficient == 1.0 / 16.0
    with pytest.raises(ValueError, match="dimension"):
        BarrierParams(center=(0.0,) * 4, time=1.0, dimension=4)
    with pytest.raises(ValueError, match="components"):
        BarrierParams(center=(0.0,), time=1.0, dimension=2)
    with pytest.raises(ValueError, match="positive"):
        BarrierParams(center=(0.0,), time=0.0, dimension=1)


def test_barrier_field_subtracts_exactly():
    grid = unit_grid(1, 16)
    xm, tm, c = 0.25, 0.5, 1.0 / 8.0
    sq = (grid.cell_centers()[:, 0] - xm) ** 2
    snaps = [TemperatureField(grid, t, c * (sq + (tm - t)))
             for t in (0.0, 0.25, 0.5)]
    traj = HeatTrajectory(snaps, 0.25)
    params = BarrierParams(center=(xm,), time=tm, dimension=1)
    out = barrier_field(traj, params)
    for snap in out.snapshots:
        np.testing.assert_array_equal(snap.values, 0.0)
    with pytest.raises(ValueError, match="dimension"):
        barrier_field(traj, BarrierParams(center=(0.0, 0.0), time=0.5,
                                          dimension=2))
    with pytest.raises(ValueError, match="outside"):
        barrier_field(traj, BarrierParams(center=(xm,), time=2.0, dimension=1))


@pytest.mark.parametrize("dim,n_cells", [(1, 32), (2, 16), (3, 8)])
def test_barrier_residual_on_exact_caloric(dim, n_cells):
    dt = (1.0 / n_cells) ** 2 / 4.0
    grid, xm, traj = caloric_pair(dim, n_cells, t1=0.5, dt=dt)
    params = BarrierParams(center=tuple(xm), time=traj.times[-1],
                           dimension=dim)
    res = heat_residual_field(barrier_field(traj, params))
    assert len(res) == 1
    vals = res[0].values[res[0].valid_mask()]
    np.testing.assert_allclose(vals, barrier_residual_constant(dim),
                               atol=1e-10)


def test_ftcs_residual_vanishes():
    _, traj = sine_run()
    res = heat_residual_field(traj)
    assert len(res) == len(traj.snapshots) - 1
    for k, field in enumerate(res):
        assert field.time == traj.times[k]
        interior = field.valid_mask()
        np.testing.assert_array_equal(interior,
                                      field.grid.interior_mask())
        assert np.max(np.abs(field.values[interior])) <= 1e-9
        np.testing.assert_array_equal(field.values[~interior], 0.0)
    with pytest.raises(ValueError, match="2 time levels"):
        heat_residual_field(HeatTrajectory(traj.snapshots[:1], traj.dt))


# ---------------------------------------------------------------------------
# max principle
# ---------------------------------------------------------------------------

def test_audit_clean_run():
    _, traj = sine_run()
    audit = max_principle_audit(traj)
    assert audit["violation"] == 0.0
    assert audit["attained_on_boundary"]
    assert audit["max_level"] == 0  # decaying mode peaks at the start
    assert audit["max_value"] == pytest.approx(np.sin(np.pi * 0.5), abs=1e-2)
    assert audit["parabolic_max"] == audit["max_value"]


def test_audit_flags_interior_spike():
    grid, traj = sine_run()
    snaps = list(traj.snapshots)
    doctored = snaps[3].values.copy()
    spike_cell = grid.total_cells // 2
    doctored[spike_cell] = 2.0
    snaps[3] = TemperatureField(grid, snaps[3].time, doctored)
    audit = max_principle_audit(HeatTrajectory(snaps, traj.dt))
    assert not audit["attained_on_boundary"]
    assert audit["violation"] == pytest.approx(2.0 - audit["parabolic_max"])
    assert audit["max_level"] == 3
    assert audit["max_cell"] == spike_cell


# ---------------------------------------------------------------------------
# continuity metric
# ---------------------------------------------------------------------------

def test_continuity_metric_matches_discrete_rate():
    grid, traj = sine_run()
    rate = discrete_laplacian(traj.snapshots[0])
    h_vals = np.where(rate.valid_mask(), rate.values, 0.0)
    times, metric = initial_continuity_metric(traj, TemperatureField(grid, 0.0, h_vals))
    assert metric.shape == (len(traj.snapshots) - 1,)
    np.testing.assert_array_equal(times, traj.times[:-1])
    # the first step is the rate itself; afterwards the wall cells snap to
    # the boundary data and the near-wall rates jump
    assert metric[0] <= 1e-9
    assert np.all(metric[1:] > 0.1)


def test_continuity_metric_validation():
    grid, traj = sine_run()
    with pytest.raises(ValueError, match="3 time levels"):
        initial_continuity_metric(HeatTrajectory(traj.snapshots[:2], traj.dt),
                                  TemperatureField(grid, 0.0, np.zeros(grid.total_cells)))
    with pytest.raises(ValueError, match="heating rate"):
        initial_continuity_metric(traj, TemperatureField(unit_grid(1, 5), 0.0, np.zeros(5)))


@pytest.fixture
def snapshot_builds(monkeypatch):
    """Times of the snapshot fields a marched trajectory builds on access."""
    built = []

    class CountedField(heat.TemperatureField):
        def __post_init__(self):
            built.append(self.time)
            super().__post_init__()

    monkeypatch.setattr(heat, "TemperatureField", CountedField)
    return built


def test_audit_and_continuity_build_no_fields_of_a_marched_trajectory(snapshot_builds):
    """Both instruments read a marched trajectory's level matrix: not one of
    its lazily built snapshot fields is constructed."""
    grid, traj = sine_run(n_steps=40)
    max_principle_audit(traj)
    initial_continuity_metric(traj, TemperatureField(grid, 0.0, np.zeros(grid.total_cells)))
    assert snapshot_builds == []
    assert len(traj.snapshots) == 41 and len(snapshot_builds) == 40  # the counter sees a build


@pytest.mark.parametrize("check", list(verify._CHECK_RUNNERS))
def test_verify_checks_build_no_fields_of_a_marched_trajectory(snapshot_builds, check):
    """Every ``meltfront verify`` check reads the level matrix of a marched
    trajectory, none of its lazily built snapshots."""
    _, traj = sine_run(n_steps=10)
    verify._CHECK_RUNNERS[check](traj)
    assert snapshot_builds == []
    assert len(traj.snapshots) == 11 and len(snapshot_builds) == 10  # the counter sees a build


def per_level_residuals(traj):
    """The residual as one field per level pair forms it: a Laplacian field
    of the earlier level, then the forward time difference, 0 off the interior."""
    rows = []
    for prev, nxt in zip(traj.snapshots[:-1], traj.snapshots[1:]):
        lap = discrete_laplacian(prev)
        ut = (nxt.values - prev.values) / traj.dt
        rows.append(np.where(lap.valid_mask(), lap.values - ut, 0.0))
    return rows


def bits(arrays):
    return np.asarray(arrays, dtype=float).view(np.int64)


@pytest.mark.parametrize("dim, n", [(1, 37), (2, 13), (3, 7)])
def test_level_matrix_instruments_match_per_level_loops(dim, n):
    """The residual, the barrier transform and the positivity spread, read off
    the level matrix, equal bit for bit the loops over snapshot fields."""
    rng = np.random.default_rng(dim)
    grid = Grid(origin=tuple(rng.uniform(-1.0, 0.0, dim)),
                extent=tuple(rng.uniform(0.5, 2.0, dim)), counts=(n,) * dim)
    dt = 0.9 * stability_limit(LAPLACE, grid)
    u0 = TemperatureField(grid, 0.3, rng.standard_normal(grid.total_cells))
    traj = solve_dirichlet(LAPLACE, u0, 0.0, 12 * dt, dt)

    res = heat_residual_field(traj)
    np.testing.assert_array_equal(bits([f.values for f in res]),
                                  bits(per_level_residuals(traj)))
    assert [f.time for f in res] == list(traj.times[:-1])
    assert all(np.array_equal(f.valid_mask(), grid.interior_mask()) for f in res)

    params = BarrierParams(center=tuple(rng.uniform(-1.0, 1.0, dim)),
                           time=float(traj.times[7]), dimension=dim)
    sq = np.sum((grid.cell_centers() - np.asarray(params.center)) ** 2, axis=1)
    barrier = [s.values - params.coefficient * (sq + (params.time - s.time))
               for s in traj.snapshots]
    out = barrier_field(traj, params)
    np.testing.assert_array_equal(bits(out.values_matrix()), bits(barrier))
    np.testing.assert_array_equal(out.times, traj.times)

    reference = traj.values_matrix()[0] > 0.5
    spread = [neighborhood_radius(grid, s.values > 0.0, reference)
              for s in traj.snapshots]
    np.testing.assert_array_equal(bits(delta_of_t(traj, reference)), bits(spread))


@pytest.mark.parametrize("block", [3, 100])
def test_residual_blocks_give_the_bits_of_one_pass(monkeypatch, block):
    """The residual built in blocks of level pairs, or in one block, equals
    the per-level loop bit for bit; the barrier check's streamed rows give
    the residual of ``barrier_field``'s trajectory."""
    rng = np.random.default_rng(11)
    grid = Grid(origin=(-0.5, 0.0), extent=(1.0, 1.5), counts=(13, 11))
    dt = 0.9 * stability_limit(LAPLACE, grid)
    u0 = TemperatureField(grid, 0.1, rng.standard_normal(grid.total_cells))
    traj = solve_dirichlet(LAPLACE, u0, 0.0, 21 * dt, dt)
    monkeypatch.setattr(verify, "_BLOCK_PAIRS", block)

    np.testing.assert_array_equal(bits([f.values for f in heat_residual_field(traj)]),
                                  bits(per_level_residuals(traj)))
    params = BarrierParams(center=(0.1, 0.4), time=float(traj.times[-1]), dimension=2)
    np.testing.assert_array_equal(
        bits(verify._residuals(traj, verify._barrier_rows(traj, params))),
        bits(verify._residuals(barrier_field(traj, params))))


def audit_size_run():
    """A marched 64 x 64 run of 100 steps, the size of a stored benchmark audit."""
    grid = Grid(origin=(-4.0, -4.0), extent=(8.0, 8.0), counts=(64, 64))
    u0 = TemperatureField(grid, 0.0, np.random.default_rng(5).random(grid.total_cells) - 0.3)
    dt = 0.4 * stability_limit(LAPLACE, grid)
    return solve_dirichlet(LAPLACE, u0, 0.0, 99.5 * dt, dt)


@pytest.mark.parametrize("check", list(verify._CHECK_RUNNERS))
def test_verify_checks_peak_under_two_level_matrices(check):
    """Every check works in blocks of level pairs or in place: the memory it
    allocates peaks below 1.75 level matrices, where whole-run temporaries
    took 2.8 to 3.8."""
    traj = audit_size_run()
    run = verify._CHECK_RUNNERS[check]
    run(traj)  # what a first call imports is not the check's working set
    tracemalloc.start()
    try:
        run(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * traj.values_matrix().nbytes, \
        f"{check} peaked at {peak / traj.values_matrix().nbytes:.2f} level matrices"


def test_trajectory_built_from_snapshots_keeps_only_the_first():
    """A trajectory built from snapshots holds one copy of the levels: it
    keeps its first snapshot and rebuilds the later ones as read-only rows."""
    grid, marched = sine_run(n_steps=10)
    snaps = [TemperatureField(grid, t, row.copy())
             for t, row in zip(marched.times, marched.values_matrix())]
    refs = [weakref.ref(s) for s in snaps]
    traj = HeatTrajectory(snaps, marched.dt)
    del snaps
    assert refs[0]() is traj.snapshots[0]
    assert [r() for r in refs[1:]] == [None] * 10
    for k, snap in enumerate(traj.snapshots[1:], start=1):
        assert np.shares_memory(snap.values, traj.values_matrix()[k])
        assert not snap.values.flags.writeable
        assert snap.time == marched.times[k]


# ---------------------------------------------------------------------------
# positivity spread
# ---------------------------------------------------------------------------

def spreading_bump():
    grid = unit_grid(1, 41)
    x = grid.cell_centers()[:, 0]
    u0 = np.maximum(0.1 - np.abs(x - 0.5), 0.0)
    traj = solve_dirichlet(LAPLACE, TemperatureField(grid, 0.0, u0), 0.0,
                           duration=20 * 2e-4, dt=2e-4)
    return grid, traj


def test_delta_of_t_spreads_monotonically():
    grid, traj = spreading_bump()
    reference = traj.snapshots[0].values > 0.0
    deltas = delta_of_t(traj, reference)
    assert deltas.shape == (len(traj.snapshots),)
    assert deltas[0] == 0.0
    assert np.all(np.diff(deltas) >= 0.0)
    assert deltas[-1] > 0.0
    # explicit support spreads at most one cell per step
    n_steps = len(traj.snapshots) - 1
    assert deltas[-1] <= (n_steps + 1) * grid.spacing[0]


def test_delta_of_t_validation():
    grid, traj = spreading_bump()
    with pytest.raises(ValueError, match="conform"):
        delta_of_t(traj, np.ones(3, dtype=bool))
    with pytest.raises(ValueError, match="empty"):
        delta_of_t(traj, np.zeros(grid.total_cells, dtype=bool))


def test_neighborhood_radius_consistency():
    grid, traj = spreading_bump()
    reference = traj.snapshots[0].values > 0.0
    pos_end = traj.snapshots[-1].values > 0.0
    assert delta_of_t(traj, reference)[-1] == neighborhood_radius(
        grid, pos_end, reference)
