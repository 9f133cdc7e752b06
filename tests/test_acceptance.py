"""End-to-end acceptance runs at pinned tolerances.

One test per advertised guarantee.  The heavy CLI runs (similarity
benchmark, convergence ladder, flat 3D box) execute once per session and
are shared between the per-guarantee tests and the determinism test.  Expected
values come from closed forms or from independently coded oracles inside
this file; none are copied out of solver output.
"""

import json
import time

import numpy as np
import pytest
from scipy.integrate import quad

from meltfront import (
    BarrierParams,
    Grid,
    HeatTrajectory,
    OperatorCoefficients,
    ParabolicCylinder,
    TemperatureField,
    barrier_field,
    barrier_residual_constant,
    build_kernel,
    caloric_replacement,
    cylinder_masks,
    heat_kernel_field,
    heat_residual_field,
    l2_convergence,
    max_principle_audit,
    mollify,
    radial_average,
    read_field_csv,
    similarity_oracle,
    smoothness_report,
    solve_dirichlet,
    solve_stefan,
    stability_limit,
)
from meltfront.cli import compare_runs, main, run_mollify
from meltfront.stefan1d import StefanSpec1D

# root of the transcendental front equation at Stefan number 1
LAMBDA_ST1 = 0.620062633313596

SIMILARITY_CFG = {"mode": "solve1d", "k1": 1.0, "duration": 0.75, "t0": 0.25,
                  "initial": {"kind": "similarity"}, "nx": 200}

BENCHMARK_CFG = {"mode": "benchmark", "ladder": [50, 100, 200, 400]}

FLAT3D_CFG = {"mode": "solve3d", "k1": 1.0, "duration": 0.25, "t0": 0.25,
              "grid": {"origin": [0.0, 0.0, 0.0], "extent": [1.0, 1.0, 1.0],
                       "counts": [4, 4, 64]},
              "front": 2.0 * LAMBDA_ST1 * 0.5,
              "initial": {"kind": "similarity"}}


def run_cli(root, name, cfg):
    """Run one CLI config into root/name; returns (outdir, wall seconds)."""
    cfg_path = root / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg, sort_keys=True))
    out = root / name
    start = time.perf_counter()
    rc = main([cfg["mode"], "--config", str(cfg_path), "--out", str(out)])
    wall = time.perf_counter() - start
    assert rc == 0, f"{name}: exit code {rc}"
    return out, wall


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def similarity_run(workdir):
    return run_cli(workdir, "similarity", SIMILARITY_CFG)


@pytest.fixture(scope="session")
def benchmark_run(workdir):
    return run_cli(workdir, "orders", BENCHMARK_CFG)


@pytest.fixture(scope="session")
def flat3d_run(workdir):
    return run_cli(workdir, "flat3d", FLAT3D_CFG)


# ---------------------------------------------------------------------------
# similarity benchmark
# ---------------------------------------------------------------------------

def test_similarity_benchmark(similarity_run):
    """Unit heating from a compatible start lands on s(t) = 2*lambda*sqrt(t)."""
    out, wall = similarity_run
    assert wall <= 10.0, f"similarity run took {wall:.1f} s"

    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["diagnostics"]["similarity_front_error"]["measured"] <= 1e-2

    # independent read of the trajectory: final front against the closed form
    rows = np.loadtxt(out / "front.csv", delimiter=",", skiprows=1)
    t_end, s_end = rows[-1, 0], rows[-1, 1]
    # the march stops at the first level past T, within one step of it
    assert 1.0 <= t_end <= 1.0 + 1e-4
    s_exact = 2.0 * LAMBDA_ST1 * np.sqrt(t_end)
    assert abs(s_end - s_exact) / s_exact <= 1e-2


# ---------------------------------------------------------------------------
# convergence orders
# ---------------------------------------------------------------------------

def test_convergence_orders(benchmark_run):
    out, _ = benchmark_run
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass"
    diag = report["diagnostics"]
    assert diag["space_order"]["measured"] >= 1.8
    assert diag["residual_ratio_min"]["measured"] >= 3.5

    data = report["data"]
    assert data["space"]["ladder"] == [50, 100, 200, 400]
    errors = data["space"]["front_error"]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert all(r >= 3.5 for r in data["residual"]["ratios"])


# ---------------------------------------------------------------------------
# maximum principle under randomized Dirichlet data
# ---------------------------------------------------------------------------

def test_max_principle_randomized_runs():
    """50 random caloric runs under CFL: the max sits on the parabolic boundary."""
    rng = np.random.default_rng(20260815)
    coeffs = OperatorCoefficients.laplacian()
    for run in range(50):
        dim = int(rng.integers(1, 3))
        if dim == 1:
            grid = Grid(origin=(0.0,), extent=(1.0,),
                        counts=(int(rng.integers(16, 65)),))
        else:
            grid = Grid(origin=(0.0, 0.0), extent=(1.0, 1.0),
                        counts=(int(rng.integers(8, 25)),
                                int(rng.integers(8, 25))))
        pts = grid.cell_centers()
        vals = np.zeros(len(pts))
        for _ in range(int(rng.integers(1, 4))):
            amp = rng.uniform(-2.0, 2.0)
            freq = rng.uniform(0.5, 3.0, size=dim)
            phase = rng.uniform(0.0, 2 * np.pi, size=dim)
            vals += amp * np.prod(np.sin(np.pi * freq * pts + phase), axis=1)
        level = rng.uniform(-1.0, 1.0)
        ramp = rng.uniform(-2.0, 2.0)
        boundary = lambda p, t, lv=level, rp=ramp: np.full(len(p), lv + rp * t)

        dt = rng.uniform(0.3, 1.0) * stability_limit(coeffs, grid)
        steps = int(rng.integers(20, 61))
        traj = solve_dirichlet(coeffs, TemperatureField(grid, 0.0, vals),
                               boundary, steps * dt, dt)

        audit = max_principle_audit(traj)
        scale = max(1.0, float(np.max(np.abs(traj.values_matrix()))))
        assert audit["attained_on_boundary"], (run, audit)
        assert audit["violation"] <= 1e-12 * scale, (run, audit)


# ---------------------------------------------------------------------------
# mollifier suite
# ---------------------------------------------------------------------------

def test_mollifier_suite():
    # unit mass, checked with adaptive quadrature over the radial profile
    surface = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}
    for dim in (1, 2, 3):
        kernel = build_kernel(0.25, dim)

        def shell(r, k=kernel, d=dim):
            point = np.array([[r] + [0.0] * (d - 1)])
            return surface[d] * r ** (d - 1) * float(k.eta(point)[0])

        mass, _ = quad(shell, 0.0, 0.25, epsabs=1e-12, epsrel=1e-12)
        assert abs(mass - 1.0) <= 1e-8, (dim, mass)

    grid = Grid(origin=(0.0,), extent=(1.0,), counts=(512,))
    x = grid.cell_centers()[:, 0]
    kernel = build_kernel(0.1, 1)

    # constants and affine data pass through untouched on admissible cells
    const = mollify(TemperatureField(grid, 0.0, np.ones_like(x)), kernel)
    inner = const.valid_mask()
    assert np.max(np.abs(const.values[inner] - 1.0)) <= 1e-8
    linear = mollify(TemperatureField(grid, 0.0, 2.0 * x - 0.3), kernel)
    assert np.max(np.abs(linear.values[inner] - (2.0 * x - 0.3)[inner])) <= 1e-8

    # step discontinuity: L2 distance decays like sqrt(epsilon), factor 2 slack
    step = TemperatureField(grid, 0.0, (x >= 0.5).astype(float))
    pairs = l2_convergence(step, [0.4, 0.2, 0.1])
    eps = np.log([p[0] for p in pairs])
    errs = np.log([p[1] for p in pairs])
    slope = np.polyfit(eps, errs, 1)[0]
    assert 0.25 <= slope <= 1.0, f"L2 slope {slope:.3f}"

    # difference quotients stay under C_m * eps^-m with a stable constant
    for order in (1, 2):
        constants = []
        for e in (0.1, 0.2, 0.4):
            entry = smoothness_report(step, build_kernel(e, 1), order)[order]
            assert entry["measured"] <= entry["bound"] * (1 + 1e-12)
            constants.append(entry["kernel_constant"])
        spread = max(constants) / min(constants)
        assert spread <= 1.10, (order, constants)


# ---------------------------------------------------------------------------
# heat kernel oracle
# ---------------------------------------------------------------------------

def test_heat_kernel_oracle():
    # constants are preserved away from the truncated tails
    grid = Grid(origin=(-8.0,), extent=(16.0,), counts=(320,))
    x = grid.cell_centers()[:, 0]
    ones = heat_kernel_field(TemperatureField(grid, 0.0, np.ones_like(x)), 0.5)
    core = np.abs(x) <= 2.0
    assert np.max(np.abs(ones.values[core] - 1.0)) <= 1e-8

    # Gaussian in, Gaussian out with variances added
    fine = Grid(origin=(-8.0,), extent=(16.0,), counts=(640,))
    xf = fine.cell_centers()[:, 0]
    sigma0, t = 0.5, 0.3
    start = TemperatureField(fine, 0.0, np.exp(-xf**2 / (2 * sigma0**2)))
    evolved = heat_kernel_field(start, t)
    var = sigma0**2 + 2.0 * t
    exact = sigma0 / np.sqrt(var) * np.exp(-xf**2 / (2 * var))
    inside = np.abs(xf) <= 3.0
    assert np.max(np.abs(evolved.values[inside] - exact[inside])) <= 1e-6

    # explicit stepping on a wide domain agrees with the convolution
    wide = Grid(origin=(-6.0,), extent=(12.0,), counts=(240,))
    xw = wide.cell_centers()[:, 0]
    bump = np.where(np.abs(xw) < 1.0,
                    np.exp(-1.0 / np.maximum(1.0 - xw**2, 1e-300)), 0.0)
    phi = TemperatureField(wide, 0.0, bump)
    dt = 1e-3
    traj = solve_dirichlet(OperatorCoefficients.laplacian(), phi,
                           lambda p, t_: np.zeros(len(p)), 0.25, dt)
    fd = traj.snapshots[-1]
    conv = heat_kernel_field(phi, traj.times[-1] - traj.times[0])
    ok = fd.valid_mask()
    gap = np.max(np.abs(fd.values[ok] - conv.values[ok]))
    h = wide.spacing[0]
    assert gap <= 5.0 * (h**2 + dt) * np.max(np.abs(bump))


# ---------------------------------------------------------------------------
# 3D box reduces to the 1D front
# ---------------------------------------------------------------------------

def test_flat_3d_run_matches_1d_front(flat3d_run):
    out, _ = flat3d_run
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass"

    manifest = json.loads((out / "manifest.json").read_text())
    times = manifest["times"]
    names = manifest["snapshots"]
    assert len(times) == len(names)

    sim = similarity_oracle(1.0)
    t0 = FLAT3D_CFG["t0"]
    spec = StefanSpec1D(k1=1.0, b=float(sim.front(t0)), duration=0.25,
                        boundary=1.0, initial=lambda xi: sim.temperature(xi, t0),
                        nx=100, t0=t0)
    reference = solve_stefan(spec).front

    for t, name in zip(times[1:], names[1:]):
        heights = read_field_csv(out / name).values
        assert np.ptp(heights) <= 1e-9, f"{name}: front not flat"
        s3 = float(np.mean(heights))
        s1 = float(reference.interpolate(t))
        assert abs(s3 - s1) / s1 <= 1e-4, (name, s3, s1)


# ---------------------------------------------------------------------------
# subcaloric comparison against its caloric replacement
# ---------------------------------------------------------------------------

def subcaloric_trajectory(rng, grid, dt, n_levels):
    """Random quadratic-plus-caloric sample with a strict interior margin.

    w = a(x-1/2)^2 + b(x-1/2) + c + alpha*t + gamma*cos(kx+phi)*exp(-k^2 t)
    has Lw - w_t = 2a - alpha = gap > 0; the cosine term is exactly caloric.
    """
    a = rng.uniform(0.4, 1.0)
    gap = rng.uniform(0.6, 1.2)
    alpha = 2.0 * a - gap
    b, c = rng.uniform(-1.0, 1.0, size=2)
    gamma = rng.uniform(0.05, 0.15)
    k = rng.uniform(np.pi, 2.5 * np.pi)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    x = grid.cell_centers()[:, 0]

    def w(t):
        return (a * (x - 0.5) ** 2 + b * (x - 0.5) + c + alpha * t
                + gamma * np.cos(k * x + phi) * np.exp(-k * k * t))

    snaps = [TemperatureField(grid, kk * dt, w(kk * dt))
             for kk in range(n_levels)]
    return HeatTrajectory(snaps, dt)


def naive_replacement_top(w, cyl):
    """Scalar-loop rewrite of the replacement; returns the top-level values."""
    g = w.grid
    _, _, interior = cylinder_masks(g, cyl)
    idx = np.flatnonzero(interior)
    i_top = w.level_near(cyl.t_top)
    i_bot = int(np.searchsorted(w.times, cyl.t_bottom - 1e-12))
    h2 = g.spacing[0] ** 2
    z = w.snapshots[i_bot].values.copy()
    for k in range(i_bot, i_top):
        nxt = w.snapshots[k + 1].values.copy()
        for i in idx:
            nxt[i] = z[i] + w.dt * (z[i - 1] - 2.0 * z[i] + z[i + 1]) / h2
        z = nxt
    return z


def test_subcaloric_replacement_ordering():
    """100 random subcaloric samples sit below their caloric replacement.

    The measured side and the radial-average trend are recorded next to the
    documented expectations; the first one disagrees and stays recorded as a
    disagreement rather than being patched over.
    """
    grid = Grid(origin=(0.0,), extent=(1.0,), counts=(64,))
    h = grid.spacing[0]
    dt = 0.8 * h * h / 2.0
    cyl = ParabolicCylinder((0.5,), t_top=512 * dt, radius=0.15)
    _, _, interior = cylinder_masks(grid, cyl)

    rng = np.random.default_rng(20260815)
    mins, maxs = [], []
    for run in range(100):
        w = subcaloric_trajectory(rng, grid, dt, n_levels=513)
        z = caloric_replacement(w, cyl)
        # z's levels start at the slab bottom; look its top level up by time
        z_top = z.snapshots[z.level_near(cyl.t_top)].values
        w_top = w.snapshots[w.level_near(cyl.t_top)].values
        gap_field = z_top - w_top
        if run < 5:
            # the loop-based oracle reproduces the vectorized replacement
            brute = naive_replacement_top(w, cyl)
            np.testing.assert_allclose(z_top, brute, rtol=0.0, atol=1e-12)
            brute_gap = brute - w_top
            assert np.sign(brute_gap[interior]).min() == np.sign(
                gap_field[interior]).min()
        scale = max(1.0, float(np.max(np.abs(w_top))))
        mins.append(float(np.min(gap_field[interior])))
        maxs.append(float(np.max(gap_field[interior])))
        assert mins[-1] >= -1e-12 * scale, (run, mins[-1])
        assert maxs[-1] > 1e-6, (run, maxs[-1])

    # sign is uniform across the ensemble: replacement above, never below
    assert min(mins) >= 0.0
    side = "above" if min(mins) >= 0.0 else "mixed"

    # radial averages over R < rho < 2R grow with R for the same family
    rng_r = np.random.default_rng(7)
    t_obs = 2048 * dt
    radii = (0.08, 0.12, 0.16, 0.2)
    monotone = True
    for _ in range(10):
        w = subcaloric_trajectory(rng_r, grid, dt, n_levels=2049)
        avgs = [radial_average(w, (0.5,), t_obs, r, n_radii=3) for r in radii]
        monotone = monotone and bool(np.all(np.diff(avgs) >= -1e-12))
    trend = "nondecreasing" if monotone else "mixed"

    # documented expectations: replacement below the input, averages growing
    claims = {
        "replacement_side": {"claimed": "below", "measured": side,
                             "agrees": side == "below"},
        "radial_trend": {"claimed": "nondecreasing", "measured": trend,
                         "agrees": trend == "nondecreasing"},
    }
    assert claims == {
        "replacement_side": {"claimed": "below", "measured": "above",
                             "agrees": False},
        "radial_trend": {"claimed": "nondecreasing",
                         "measured": "nondecreasing", "agrees": True},
    }, claims


# ---------------------------------------------------------------------------
# barrier residual constant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_barrier_residual_constant(n):
    """Pinned constant -(2n+1)/(8n) for the barrier residual at h = 1e-2.

    The field ``u = |x - xm|^2 + 2 n t`` is discretely caloric, and the
    library's barrier is ``v = u - c (|x - xm|^2 + (tm - t))`` with
    ``c = 1/(8 n)``.  Central differences are exact on quadratics, so the
    discrete ``Delta v`` is ``2 n - 2 n c``; forward differences are exact
    on functions linear in t, so ``v_t = 2 n + c``.  Hence

        Delta v - v_t = -(2 n + 1) c = -(2 n + 1) / (8 n)

    up to rounding, flat across the interior and negative in every
    dimension.  The constant -(2n-1)/(8n) belongs to the barrier
    ``c (|x - xm|^2 - (tm - t))`` with the opposite time term, which the
    library does not define.
    """
    h = 1e-2
    dt = h * h / 4.0
    counts = (int(round(1.0 / h)),) * n
    grid = Grid(origin=(0.0,) * n, extent=(1.0,) * n, counts=counts)
    center = (0.5,) * n
    pts = grid.cell_centers()
    sq = ((pts - np.asarray(center)) ** 2).sum(axis=1)

    t1 = 0.5
    snaps = [TemperatureField(grid, t, sq + 2.0 * n * t)
             for t in (t1, t1 + dt)]
    caloric = HeatTrajectory(snaps, dt)
    params = BarrierParams(center=center, time=t1 + dt, dimension=n)
    residual = heat_residual_field(barrier_field(caloric, params))[0]
    vals = residual.values[residual.valid_mask()]

    measured = float(np.mean(vals))
    assert np.ptp(vals) <= 1e-9, "residual is not constant across the interior"
    assert measured < 0.0, (
        f"n={n}: mean residual {measured:.12f} is not negative, but the "
        "derived constant -(2n+1)/(8n) is; the barrier's sign has changed")

    derived = -(2 * n + 1) / (8 * n)
    assert barrier_residual_constant(n) == derived, (
        f"n={n}: barrier_residual_constant gives "
        f"{barrier_residual_constant(n)!r}, the derivation {derived!r}")
    assert abs(measured - derived) <= 1e-9, (
        f"n={n}: measured residual constant {measured:.12f} differs from "
        f"the derived -(2n+1)/(8n) = {derived:.12f} by "
        f"{abs(measured - derived):.3e}")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_repeat_runs_are_byte_identical(workdir, similarity_run,
                                        benchmark_run, flat3d_run, capsys):
    """Every acceptance configuration rerun lands on byte-identical output."""
    for name, cfg, (first, _) in (
            ("similarity", SIMILARITY_CFG, similarity_run),
            ("flat3d", FLAT3D_CFG, flat3d_run)):
        second, _ = run_cli(workdir, f"{name}_repeat", cfg)
        report = compare_runs(first, second)
        assert report.status == "pass", (name, report.diagnostics)
        assert all(entry["identical"]
                   for entry in report.data["per_file"].values()), name
        assert report.diagnostics["reports_match"]["pass"], name

    # benchmark runs carry no trajectory manifest; compare the files directly
    first, _ = benchmark_run
    second, _ = run_cli(workdir, "orders_repeat", BENCHMARK_CFG)
    assert ((first / "config.json").read_bytes()
            == (second / "config.json").read_bytes())
    ra = json.loads((first / "report.json").read_text())
    rb = json.loads((second / "report.json").read_text())
    for r in (ra, rb):
        r["provenance"].pop("created_utc")
    assert ra == rb

    # the mollify command is deterministic as well; identical file names in
    # sibling directories, since the report records the names it wrote
    grid = Grid(origin=(0.0,), extent=(1.0,), counts=(128,))
    x = grid.cell_centers()[:, 0]
    from meltfront import write_field_csv
    src = workdir / "mollify_input.csv"
    write_field_csv(TemperatureField(grid, 0.0, np.sin(2 * np.pi * x)), src)
    outs = []
    for tag in ("a", "b"):
        sub = workdir / f"mollify_{tag}"
        sub.mkdir()
        rep_path = sub / "mollify.json"
        field_path = sub / "smooth.csv"
        run_mollify(src, 0.125, 2, rep_path, field_path)
        outs.append((rep_path, field_path))
    assert outs[0][1].read_bytes() == outs[1][1].read_bytes()
    ma = json.loads(outs[0][0].read_text())
    mb = json.loads(outs[1][0].read_text())
    for r in (ma, mb):
        r["provenance"].pop("created_utc")
    assert ma == mb
    capsys.readouterr()
