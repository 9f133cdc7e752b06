"""Graph-front 3D solver.

Column-linear profiles ``u = a (rho - z)`` are exact for every rule in the
coupled step (interior stencil, half-cell bottom row, the front cell on the
quadratic through the front, quadratic front fit), so they pin the front
law to rounding.  The flat similarity ladder guards the front's accuracy:
it must converge at second order.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from meltfront import (
    Grid,
    GraphFront,
    PhaseDomain,
    StefanSpec1D,
    StefanSpec3D,
    coupled_step_3d,
    front_field,
    similarity_oracle,
    solve3d,
    stability_limit_3d,
)
from meltfront.grid import read_field_csv
from meltfront.stefan3d import _ActiveBlock, _column_fits, _front_buffer, \
    _front_derivative, _front_offsets, _initial_domain, _padded_lipschitz, time_steps

DATA = Path(__file__).parent / "data"

BOX = Grid(origin=(0.0, 0.0, 0.0), extent=(1.0, 1.0, 1.0), counts=(6, 5, 24))
SECTION = Grid(origin=(0.0, 0.0), extent=(1.0, 1.0), counts=(6, 5))


def column_linear(grid, heights, a):
    """``u = a (rho - z)`` in the liquid, 0 in the solid."""
    zc = grid.axis_centers(2)
    h = heights[:, :, None]
    return np.where(zc[None, None, :] < h, a * (h - zc[None, None, :]), 0.0)


def flat_domain(rho, a, grid=BOX, section=SECTION, time=0.0):
    front = GraphFront(section, np.full(section.shape, rho))
    vals = column_linear(grid, front.heights, a)
    return PhaseDomain(grid, front, vals.reshape(-1), time=time)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_graph_front_validation():
    with pytest.raises(ValueError, match="2D"):
        GraphFront(Grid(origin=(0.0,), extent=(1.0,), counts=(4,)), np.zeros(4))
    with pytest.raises(ValueError, match="finite"):
        GraphFront(SECTION, np.full(SECTION.shape, np.nan))
    front = GraphFront(SECTION, np.full(30, 0.5))
    assert front.heights.shape == (6, 5)
    with pytest.raises(ValueError):
        front.heights[0, 0] = 1.0


def test_plane_slopes_and_lipschitz():
    c = 0.4
    xc = SECTION.axis_centers(0)
    front = GraphFront(SECTION, np.broadcast_to(0.45 + c * xc[:, None],
                                                SECTION.shape).copy())
    rx, ry = front.slopes()
    np.testing.assert_allclose(rx, c, rtol=1e-13)
    np.testing.assert_allclose(ry, 0.0, atol=1e-15)
    assert front.lipschitz_constant == pytest.approx(c, rel=1e-13)


def test_phase_domain_validation():
    front = GraphFront(SECTION, np.full(SECTION.shape, 0.5))
    vals = column_linear(BOX, front.heights, 1.0).reshape(-1)
    with pytest.raises(ValueError, match="3D"):
        PhaseDomain(SECTION, front, np.zeros(30))
    other = GraphFront(Grid(origin=(0.0, 0.0), extent=(2.0, 1.0),
                            counts=(6, 5)), np.full((6, 5), 0.5))
    with pytest.raises(ValueError, match="horizontal section"):
        PhaseDomain(BOX, other, vals)
    with pytest.raises(ValueError, match="vertical extent"):
        PhaseDomain(BOX, GraphFront(SECTION, np.full(SECTION.shape, 1.0)), vals)
    with pytest.raises(ValueError, match="values"):
        PhaseDomain(BOX, front, vals[:-1])
    bad = vals.copy()
    bad[-1] = 1.0  # topmost cell is solid
    with pytest.raises(ValueError, match="exactly 0"):
        PhaseDomain(BOX, front, bad)
    neg = vals.copy()
    neg[0] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        PhaseDomain(BOX, front, neg)


def shifted_section(origin_shift=0.0, extent_scale=1.0):
    """SECTION with its origin moved by ``origin_shift`` and its extent scaled."""
    return Grid(origin=(origin_shift, 0.0), extent=(1.0, extent_scale), counts=(6, 5))


@pytest.mark.parametrize("section, top", [
    (SECTION, -0.0),
    (shifted_section(origin_shift=1e-13), 0.0),
    (shifted_section(extent_scale=1.0 + 5e-6), 0.0),
], ids=["negative_zero_solid", "origin_off_1e-13", "extent_off_5e-6"])
def test_phase_domain_accepts_edge_inputs(section, top):
    """The edges the validation lets through: -0.0 equals 0, and the section
    matches the box to ``1e-12 + 1e-5 |box|`` per number."""
    front = GraphFront(section, np.full(section.shape, 0.5))
    vals = column_linear(BOX, front.heights, 1.0)
    vals[:, :, -1] = top
    dom = PhaseDomain(BOX, front, vals.reshape(-1))
    assert np.array_equal(bits(dom.values), bits(vals.reshape(-1)))


@pytest.mark.parametrize("section, top, match", [
    (SECTION, np.nan, "exactly 0"),
    (SECTION, 5e-324, "exactly 0"),
    (shifted_section(origin_shift=1e-11), 0.0, "horizontal section"),
    (shifted_section(extent_scale=1.0 + 2e-5), 0.0, "horizontal section"),
], ids=["nan_solid", "subnormal_solid", "origin_off_1e-11", "extent_off_2e-5"])
def test_phase_domain_rejects_edge_inputs(section, top, match):
    """The edges the validation refuses: any solid value but a zero, and a
    section off the box by more than ``1e-12 + 1e-5 |box|``."""
    front = GraphFront(section, np.full(section.shape, 0.5))
    vals = column_linear(BOX, front.heights, 1.0)
    vals[0, 0, -1] = top
    with pytest.raises(ValueError, match=match):
        PhaseDomain(BOX, front, vals.reshape(-1))


def test_padded_lipschitz_equals_graph_front():
    """The step's Lipschitz monitor, read off the edge-padded front buffer,
    equals ``np.gradient``'s value bit for bit, one-sided walls included."""
    rng = np.random.default_rng(22)
    for counts, extent in [((4, 4), (1.0, 1.0)), ((6, 5), (1.0, 1.0)),
                           ((12, 20), (0.9, 1.5)), ((9, 4), (0.3, 2.0)),
                           ((32, 32), (1.0, 1.0))]:
        section = Grid(origin=(0.0, 0.0), extent=extent, counts=counts)
        xc, yc = section.axis_centers(0)[:, None], section.axis_centers(1)[None, :]
        cases = [0.5 + 0.01 * rng.standard_normal(counts),
                 np.broadcast_to(0.45 + 0.4 * xc - 0.3 * yc, counts)]
        # a spike on each wall, in a corner and next to a wall
        for i, j in [(0, 1), (-1, 2), (1, 0), (2, -1), (0, 0), (1, 1)]:
            heights = np.full(counts, 0.5) + 1e-3 * rng.standard_normal(counts)
            heights[i, j] += rng.uniform(0.05, 0.2)
            cases.append(heights)
        for heights in cases:
            expected = GraphFront(section, heights).lipschitz_constant
            assert _padded_lipschitz(_front_buffer(heights)[2], section.spacing) == expected


def test_solve3d_lipschitz_report_equals_graph_fronts():
    """With a snapshot every step, the reported Lipschitz constants are the
    stored fronts' own, on a section neither square nor a power of two."""
    from meltfront.cli import _build_spec3d
    spec = _build_spec3d({
        "mode": "solve3d", "k1": 1, "t0": 0.25, "duration": 0.002,
        "grid": {"origin": [0, 0, 0], "extent": [0.9, 1.5, 1.1], "counts": [12, 20, 40]},
        "front": {"kind": "bump", "height": 0.6, "amplitude": 0.08, "width": 0.3},
        "initial": {"kind": "similarity"}, "snapshot_every": 1,
    })
    res = solve3d(spec)
    assert len(res.fronts) == res.report["steps"] + 1
    assert res.report["lipschitz_final"] == res.fronts[-1].lipschitz_constant
    assert res.report["lipschitz_max"] == max(f.lipschitz_constant for f in res.fronts)


def test_liquid_masks_and_layers():
    dom = flat_domain(0.5, 1.0)
    zc = BOX.axis_centers(2)
    per_column = int((zc < 0.5).sum())
    assert np.all(dom.liquid_layers() == per_column)
    assert dom.liquid_mask().sum() == per_column * 30
    ff = front_field(dom.front, dom.time)
    assert ff.grid.counts == (6, 5)
    np.testing.assert_array_equal(ff.values, 0.5)


# ---------------------------------------------------------------------------
# front kinematics on exact profiles
# ---------------------------------------------------------------------------

def front_samples(dom):
    """The top three liquid samples per column, as a step takes them, and the
    front offset ``theta``."""
    m, theta = _front_offsets(dom.liquid_layers(), dom.front.heights,
                              dom.grid.axis_centers(2), dom.grid.spacing[2])
    i, j = np.indices(m.shape)
    return [dom.cube()[i, j, m - k] for k in range(3)], theta


def test_normal_velocity_flat_linear():
    """A flat front over ``u = a (rho - z)`` moves up at ``k1 a``; ``k1`` must
    be positive."""
    a, k1 = 3.0, 2.0
    dom = flat_domain(0.6, a)
    samples, theta = front_samples(dom)
    d, _, _ = _front_derivative(_front_buffer(dom.front.heights), BOX.spacing, samples,
                                theta)
    np.testing.assert_allclose(-k1 * d, k1 * a, rtol=1e-12)
    with pytest.raises(ValueError, match="k1"):
        coupled_step_3d(dom, 0.0, a * 0.6, 0.5 * stability_limit_3d(BOX))


def test_normal_velocity_tilted_plane_interior():
    a, c = 3.0, 0.4
    xc = SECTION.axis_centers(0)
    heights = np.broadcast_to(0.45 + c * xc[:, None], SECTION.shape).copy()
    front = GraphFront(SECTION, heights)
    vals = column_linear(BOX, heights, a)
    dom = PhaseDomain(BOX, front, vals.reshape(-1))
    samples, theta = front_samples(dom)
    d, rx, ry = _front_derivative(_front_buffer(heights), BOX.spacing, samples, theta)
    vn = -d / np.sqrt(1.0 + rx * rx + ry * ry)  # V_n at k1 = 1
    # wall columns see a mirrored neighbor and lose half the x-derivative,
    # so only interior columns reproduce a sqrt(1 + c^2)
    np.testing.assert_allclose(vn[1:-1, :], a * np.sqrt(1 + c * c), rtol=1e-12)
    assert abs(vn[0, 0] - a * np.sqrt(1 + c * c)) > 0.1


def test_too_few_layers_rejected():
    zc = BOX.axis_centers(2)
    shallow = flat_domain(zc[1] + 0.25 * BOX.spacing[2], 1.0)  # 2 layers
    with pytest.raises(ValueError, match="3 liquid layers"):
        coupled_step_3d(shallow, 1.0, 0.0, 0.5 * stability_limit_3d(BOX))


def test_column_fits_recover_quadratics():
    """Samples of ``a d + b d^2`` at ``d = -(theta + k) dz`` give back ``a``
    and ``b``, over thin (theta < 1/2) and thick cells and both end points."""
    rng = np.random.default_rng(15)
    theta = np.concatenate([[np.nextafter(0.0, 1.0), 1e-12, 0.25, np.nextafter(0.5, 0.0),
                             0.5, 0.75, 1.0], 1.0 - rng.uniform(0.0, 1.0, 64)])
    for dz in (1 / 16, 1 / 64, 1 / 256):
        d = [-(theta + k) * dz for k in range(3)]
        a = rng.uniform(-5.0, 5.0, theta.shape)
        b = rng.uniform(-50.0, 50.0, theta.shape) / dz
        fa, fb = _column_fits(*(a * dk + b * dk * dk for dk in d), theta, dz)
        scale = np.abs(a) + np.abs(b) * dz
        assert np.all(np.abs(fa - a) <= 1e-13 * scale), dz
        assert np.all(np.abs(fb - b) * dz <= 1e-13 * scale), dz
        # a linear profile is fitted exactly: with the powers formed as
        # products, t1 = 2 s2 and t2 = 2 s3 bit for bit, so b cancels to 0
        fa, fb = _column_fits(*(2.0 * dk for dk in d), theta, dz)
        assert np.all(fa == 2.0) and np.all(fb == 0.0), dz


def spiked_domain():
    """Heat spike two layers under a flat front; the fit inverts its sign."""
    g = Grid(origin=(0.0, 0.0, 0.0), extent=(1.0, 1.0, 1.0), counts=(4, 4, 16))
    fx = Grid(origin=(0.0, 0.0), extent=(1.0, 1.0), counts=(4, 4))
    zc = g.axis_centers(2)
    rho = 0.75  # 12 layers, theta = 1/2
    m = int((zc < rho).sum()) - 1
    vals = np.zeros(g.shape)
    vals[:, :, m - 2] = 300.0
    return PhaseDomain(g, GraphFront(fx, np.full((4, 4), rho)),
                       vals.reshape(-1))


def test_clamp_suppresses_spurious_freezing():
    """Unclamped, the fit's slope would move the flat front down at a speed
    above 1000; the melting clamp caps the derivative at 0."""
    dom = spiked_domain()
    samples, theta = front_samples(dom)
    a, _ = _column_fits(*samples, theta, dom.grid.spacing[2])
    assert np.all(a > 1000.0)
    d, _, _ = _front_derivative(_front_buffer(dom.front.heights), dom.grid.spacing,
                                samples, theta)
    assert np.all(d == 0.0)


# ---------------------------------------------------------------------------
# coupled stepping
# ---------------------------------------------------------------------------

def test_stability_limit_formula():
    dx, dy, dz = BOX.spacing
    assert stability_limit_3d(BOX) == pytest.approx(
        1.0 / (2.0 / dx**2 + 2.0 / dy**2 + 4.0 / dz**2), rel=1e-15)


def test_coupled_step_guards():
    dom = flat_domain(0.6, 3.0)
    limit = stability_limit_3d(BOX)
    with pytest.raises(ValueError, match="stability"):
        coupled_step_3d(dom, 1.0, 1.0, 1.01 * limit)
    with pytest.raises(ValueError, match="nonnegative"):
        coupled_step_3d(dom, 1.0, lambda t: -1.0, 0.5 * limit)


def test_evolve_front_guards():
    """A step rejects a nonpositive ``dt`` or ``k1``, and a front that would
    leave the top of the box."""
    dom = flat_domain(0.6, 3.0)
    limit = stability_limit_3d(BOX)
    with pytest.raises(ValueError, match="dt"):
        coupled_step_3d(dom, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="k1"):
        coupled_step_3d(dom, -1.0, 1.0, 0.5 * limit)
    # the linear profile keeps its speed k1 a = 60, which lifts the front
    # 1.5 dz below the top by more than dz / 2
    rho = 1.0 - 1.5 * BOX.spacing[2]
    with pytest.raises(RuntimeError, match="top of the box"):
        coupled_step_3d(flat_domain(rho, 3.0), 20.0, 3.0 * rho, limit)


def test_linear_field_is_a_fixed_point():
    a, k1, rho = 3.0, 2.0, 0.6
    dom = flat_domain(rho, a)
    dt = 0.5 * stability_limit_3d(BOX)
    out = coupled_step_3d(dom, k1, a * rho, dt)
    np.testing.assert_allclose(out.front.heights, rho + dt * k1 * a,
                               rtol=1e-14)
    zc = BOX.axis_centers(2)
    still = np.broadcast_to(zc[None, None, :] < rho, BOX.shape)
    np.testing.assert_allclose(out.cube()[still],
                               column_linear(BOX, dom.front.heights, a)[still],
                               atol=1e-14)


def test_newly_liquid_cells_start_at_zero():
    zc = BOX.axis_centers(2)
    dz = BOX.spacing[2]
    m = int((zc < 0.6).sum()) - 1
    rho = zc[m] + 0.9 * dz
    dt = 0.5 * stability_limit_3d(BOX)
    a = 0.3 * dz / (dt * 2.0)  # one step lifts the front past the next center
    dom = flat_domain(rho, a)
    out = coupled_step_3d(dom, 2.0, a * rho, dt)
    newly = out.liquid_mask() & ~dom.liquid_mask()
    assert newly.sum() == 30
    assert np.all(out.values[newly] == 0.0)


def test_mass_retreat_is_a_breakdown():
    """The spike that, unclamped, would drag every column down (a mass
    retreat, which broke the graph description down) is a no-op front under
    the melting clamp."""
    dom = spiked_domain()
    out = coupled_step_3d(dom, 1.0, 0.0, 1e-4)
    np.testing.assert_array_equal(out.front.heights, dom.front.heights)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def test_spec3d_validation():
    with pytest.raises(ValueError, match="3D"):
        StefanSpec3D(grid=SECTION, k1=1.0, duration=1.0)
    with pytest.raises(ValueError, match="k1"):
        StefanSpec3D(grid=BOX, k1=0.0, duration=1.0)
    with pytest.raises(ValueError, match="duration"):
        StefanSpec3D(grid=BOX, k1=1.0, duration=0.0)
    with pytest.raises(ValueError, match="dt"):
        StefanSpec3D(grid=BOX, k1=1.0, duration=1.0, dt=-1.0)
    with pytest.raises(ValueError, match="3 liquid layers"):
        solve3d(StefanSpec3D(grid=BOX, k1=1.0, duration=1e-4,
                             initial_front=0.05, dt=1e-5))
    with pytest.raises(ValueError, match="vertical extent"):
        StefanSpec3D(grid=BOX, k1=1.0, duration=1e-4, initial_front=1.5, dt=1e-5)
    with pytest.raises(ValueError, match="nonnegative"):
        solve3d(StefanSpec3D(grid=BOX, k1=1.0, duration=1e-4,
                             initial=lambda p: -np.ones(len(p)), dt=1e-5))


@pytest.mark.parametrize("field, value", [
    ("k1", math.nan), ("duration", math.inf), ("dt", math.nan), ("t0", math.nan),
    ("t0", math.inf),
])
def test_spec3d_rejects_non_finite_numbers(field, value):
    """A NaN or infinite number is refused with its name, not run to a NaN time."""
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        StefanSpec3D(**dict(dict(grid=BOX, k1=1.0, duration=1e-3, dt=1e-5), **{field: value}))


CADENCE_SPECS = {
    "1d": lambda k: StefanSpec1D(k1=1.0, b=0.5, duration=1e-3, nx=20, snapshot_every=k),
    "3d": lambda k: StefanSpec3D(grid=BOX, k1=1.0, duration=1e-3, snapshot_every=k),
}


@pytest.mark.parametrize("kind", CADENCE_SPECS)
def test_specs_take_only_a_positive_integer_snapshot_cadence(kind):
    """``snapshot_every`` is ``None`` or a positive integer, refused by name
    otherwise rather than run to a wrong cadence or a late error."""
    for good in (None, 1, np.int64(3)):
        assert CADENCE_SPECS[kind](good).snapshot_every == good
    for bad in (0, -2, 2.5, 2.0, True):
        with pytest.raises(ValueError, match="snapshot_every"):
            CADENCE_SPECS[kind](bad)


@pytest.mark.parametrize("dt_factor, late_bottom, match", [
    (1.01, 1.0, "stability"),
    (0.5, -1.0, "nonnegative"),
    (0.5, float("nan"), "finite"),
])
def test_solve3d_step_guards(dt_factor, late_bottom, match):
    """The checks one step can fail fire inside solve3d's own loop; the
    bottom data turns bad only after three good steps."""
    dt = dt_factor * stability_limit_3d(BOX)
    spec = StefanSpec3D(grid=BOX, k1=1.0, duration=10 * dt, dt=dt,
                        initial_front=0.6,
                        bottom=lambda t: 1.0 if t < 2.5 * dt else late_bottom)
    with pytest.raises(ValueError, match=match):
        solve3d(spec)


@pytest.mark.parametrize("dt", [None, 1.5e-4], ids=["default_dt", "partial_last_step"])
def test_time_steps_is_the_run_plan_of_solve3d(dt):
    """The run plan the CLI vets a config against is the one solve3d runs."""
    spec = StefanSpec3D(grid=BOX, k1=1.0, duration=1e-3, bottom=0.5, dt=dt)
    rep = solve3d(spec).report
    assert time_steps(spec) == (rep["stability_limit"], rep["dt"], rep["steps"])


def test_solve3d_flat_linear_start():
    spec = StefanSpec3D(grid=BOX, k1=1.0, duration=5e-3, bottom=0.5,
                        initial_front=0.5, dt=2e-4,
                        initial=lambda p: np.maximum(0.5 - p[:, 2], 0.0))
    res = solve3d(spec)
    rep = res.report
    assert rep["steps"] == 25
    assert rep["u_min"] >= 0.0
    assert rep["lipschitz_max"] <= 1e-12  # flat stays flat
    assert rep["front_min"] > 0.5
    heights = res.final.front.heights
    assert np.ptp(heights) <= 1e-12
    assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(5e-3)
    assert_melting(res.fronts)


def assert_melting(fronts):
    """Each stored front is at or above the one before it, column by column."""
    for before, after in zip(fronts, fronts[1:]):
        assert np.all(after.heights >= before.heights)


def test_bump_run_regression():
    """Frozen end state of a short bump-front run; also checks flattening."""
    g = Grid(origin=(0.0, 0.0, 0.0), extent=(1.0, 1.0, 1.0), counts=(8, 8, 32))
    spec = StefanSpec3D(
        grid=g, k1=1.5, duration=8e-3, bottom=1.0, dt=2e-4, snapshot_every=10,
        initial_front=lambda x, y: 0.3 + 0.08 * np.exp(
            -((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.05),
    )
    res = solve3d(spec)
    golden = read_field_csv(DATA / "bump_front_40.csv")
    np.testing.assert_allclose(
        res.final.front.heights.reshape(-1), golden.values, atol=1e-12)
    # melting under a bump flattens it: the Lipschitz constant must not grow
    lip0 = res.fronts[0].lipschitz_constant
    assert res.report["lipschitz_max"] <= lip0 * (1 + 1e-12)
    assert res.report["lipschitz_final"] < lip0


def test_flat_front_converges_at_second_order():
    """From the flat similarity start, the mean front error against
    ``2 lambda sqrt(t)`` falls at second order in ``dz`` (4x4xnz, t 0.25 to
    0.5); a front-cell rule with an O(dz) truncation fails both bounds."""
    sim, t0 = similarity_oracle(1.0), 0.25
    ladder, errors = (16, 32, 64), []
    for nz in ladder:
        g = Grid(origin=(0.0, 0.0, 0.0), extent=(1.0, 1.0, 1.0), counts=(4, 4, nz))
        res = solve3d(StefanSpec3D(grid=g, k1=1.0, duration=0.25, t0=t0,
                                   initial_front=float(sim.front(t0)),
                                   initial=lambda p: sim.temperature(p[:, 2], t0)))
        errors.append(abs(np.mean(res.final.front.heights) - sim.front(res.times[-1])))
    order = -np.polyfit(np.log(ladder), np.log(errors), 1)[0]
    assert order >= 1.9, errors
    assert errors[-1] <= 5e-5, errors


# ---------------------------------------------------------------------------
# the active block
# ---------------------------------------------------------------------------

CLIMBING_BUMP = {
    "mode": "solve3d", "k1": 1, "t0": 0.25, "duration": 0.02, "bottom": 4,
    "grid": {"origin": [0, 0, 0], "extent": [1, 1, 1], "counts": [16, 16, 32]},
    "front": {"kind": "bump", "height": 0.6, "amplitude": 0.08, "width": 0.3},
    "initial": {"kind": "similarity"}, "snapshot_every": 1,
}


def high_flat_spec():
    """15 of 16 layers liquid: the active block is the whole box."""
    g = Grid(origin=(0.0, 0.0, 0.0), extent=(1.0, 1.0, 1.0), counts=(4, 4, 16))
    return StefanSpec3D(grid=g, k1=1.0, duration=10.5 * 0.8 * stability_limit_3d(g),
                        bottom=0.92, initial_front=0.92, snapshot_every=1,
                        initial=lambda p: np.maximum(0.92 - p[:, 2], 0.0))


def bits(x):
    return np.asarray(x).view(np.uint64)


@pytest.mark.parametrize("case", ["climbing_bump", "high_flat"])
def test_solve3d_matches_chained_coupled_steps(case):
    """solve3d keeps one active block across its steps, growing it as the
    front climbs; chaining the public step, which builds a block from each
    domain, lands on the same front bits at every step and on the same
    final domain.  Its thin-cell count sums the columns with theta < 1/2 of
    each chained domain before its step."""
    if case == "climbing_bump":
        from meltfront.cli import _build_spec3d
        spec = _build_spec3d(CLIMBING_BUMP)
    else:
        spec = high_flat_spec()
    res = solve3d(spec)
    domain = _initial_domain(spec)
    first, last = domain.liquid_layers().max(), res.final.liquid_layers().max()
    if case == "climbing_bump":
        assert first < last  # the block grows mid-run
        assert_melting(res.fronts)
    else:
        assert first == last == spec.grid.counts[2] - 1
    assert np.array_equal(bits(domain.front.heights), bits(res.fronts[0].heights))
    zc, dz = spec.grid.axis_centers(2), spec.grid.spacing[2]
    thin = 0
    for t, front in zip(res.times[1:], res.fronts[1:]):
        _, theta = _front_offsets(domain.liquid_layers(), domain.front.heights, zc, dz)
        thin += int(np.count_nonzero(theta < 0.5))
        domain = coupled_step_3d(domain, spec.k1, spec.bottom, res.report["dt"])
        assert domain.time == t
        assert np.array_equal(bits(domain.front.heights), bits(front.heights))
    assert domain.time == res.final.time
    assert np.array_equal(bits(domain.values), bits(res.final.values))
    assert res.report["thin_cell_steps"] == thin


def test_solve3d_off_cadence_last_snapshot():
    """A run whose last step is off the snapshot cadence still snapshots it,
    and its final domain is the one at the last time."""
    dt, t0 = 2.0**-13, 0.25  # exact sums: t0 + 10 dt is the tenth step's time
    spec = StefanSpec3D(grid=BOX, k1=1.0, duration=10 * dt, bottom=0.5, dt=dt, t0=t0,
                        initial_front=0.5, snapshot_every=4,
                        initial=lambda p: np.maximum(0.5 - p[:, 2], 0.0))
    res = solve3d(spec)
    assert res.report["steps"] == 10
    assert len(res.fronts) == len(res.times) == 4
    np.testing.assert_array_equal(res.times, t0 + dt * np.array([0, 4, 8, 10]))
    assert res.final.time == res.times[-1]
    assert np.array_equal(bits(res.final.front.heights), bits(res.fronts[-1].heights))


# ---------------------------------------------------------------------------
# snapshot checks on the active block
# ---------------------------------------------------------------------------

def stepped_block():
    """A climbing bump's active block after 5 steps, and its section grid."""
    from meltfront.cli import _build_spec3d
    spec = _build_spec3d(CLIMBING_BUMP)
    domain = _initial_domain(spec)
    block = _ActiveBlock(spec.grid, domain.cube(), domain.front.heights)
    _, dt, _ = time_steps(spec)
    t = spec.t0
    for _ in range(5):
        block.step(t, spec.k1, spec.bottom, dt)
        t += dt
    assert block.u.shape[2] - 2 < spec.grid.counts[2]  # cells above the block
    return block, domain.front.grid


def corrupted_block(edits):
    """:func:`stepped_block` with each ``(where, value)`` of ``edits`` written:
    into a liquid or a solid cell of the corner column (0, 15), or the height
    of the corner column (15, 0)."""
    block, fx = stepped_block()
    layers = int(block.layers[0, 15])
    for where, value in edits:
        if where == "height":
            block.heights[15, 0] = value
        else:
            k = layers // 2 if where == "liquid" else layers
            block.u[1, 16, k + 1] = value  # the block is edge-padded
    return block, fx


@pytest.mark.parametrize("edits, message", [
    ([("liquid", np.nan)], "finite"),
    ([("liquid", -1e-9)], "nonnegative"),
    ([("solid", 5e-324)], "exactly 0"),
    ([("solid", np.nan)], "exactly 0"),
    ([("height", 1.0)], "vertical extent"),
    ([("height", 1.0), ("solid", 1.0)], "vertical extent"),
    ([("height", np.nan)], "finite"),
], ids=["nan_liquid", "negative_liquid", "nonzero_solid", "nan_solid", "height_at_top",
        "top_before_solid", "nan_height"])
def test_block_snapshot_check_raises_as_the_full_domain(edits, message):
    """The block check raises the error that a PhaseDomain of the padded cube
    raises, the first failing check first."""
    block, fx = corrupted_block(edits)
    with pytest.raises(ValueError, match=message) as full:
        PhaseDomain(block.grid, GraphFront(fx, block.heights), block.cube())
    with pytest.raises(ValueError) as checked:
        block.checked_front(fx)
    assert str(checked.value) == str(full.value)


def test_block_snapshot_check_keeps_the_heights():
    block, fx = stepped_block()
    front = block.checked_front(fx)
    assert front.grid == fx
    assert np.array_equal(bits(front.heights), bits(GraphFront(fx, block.heights).heights))
    assert not front.heights.flags.writeable
    block.heights[0, 0] += 0.01  # a copy, not a view of the block
    assert not np.array_equal(front.heights, block.heights)
