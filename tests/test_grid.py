"""Grid containers, stencils, set helpers, and the CSV round trip."""

import os
import threading
from functools import partial

import numpy as np
import pytest

from meltfront import (
    Grid,
    ParabolicCylinder,
    TemperatureField,
    discrete_laplacian,
    format_float,
    neighborhood_radius,
    read_field_csv,
    write_field_csv,
)
from meltfront import grid as grid_module
from meltfront.grid import field_job, field_name, interior_index, read_field_csvs, \
    refresh_edge_padding, second_differences, span_stencil, write_field_csvs


def test_grid_basic_geometry():
    g = Grid(origin=(0.0, -1.0), extent=(1.0, 2.0), counts=(4, 8))
    assert g.dim == 2
    assert g.spacing == (0.25, 0.25)
    assert g.shape == (4, 8)
    assert g.total_cells == 32
    np.testing.assert_allclose(g.axis_centers(0), [0.125, 0.375, 0.625, 0.875])
    assert g.axis_centers(1)[0] == -1.0 + 0.125


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(origin=(0.0,), extent=(1.0,), counts=(3,)),
        dict(origin=(0.0,), extent=(0.0,), counts=(8,)),
        dict(origin=(0.0,), extent=(-1.0,), counts=(8,)),
        dict(origin=(0.0, 0.0), extent=(1.0,), counts=(8,)),
        dict(origin=(0.0,) * 4, extent=(1.0,) * 4, counts=(8,) * 4),
        dict(origin=(float("nan"),), extent=(1.0,), counts=(8,)),
        dict(origin=(0.0,), extent=(float("inf"),), counts=(8,)),
        dict(origin=(0.0, float("-inf")), extent=(1.0, 1.0), counts=(8, 8)),
        dict(origin=(0.0,), extent=(float("nan"),), counts=(8,)),
    ],
)
def test_grid_rejects_bad_construction(kwargs):
    with pytest.raises(ValueError):
        Grid(**kwargs)


def test_cell_centers_row_major():
    g = Grid(origin=(0.0, 0.0), extent=(1.0, 1.0), counts=(4, 5))
    pts = g.cell_centers()
    assert pts.shape == (20, 2)
    # last axis varies fastest
    np.testing.assert_allclose(pts[0], [0.125, 0.1])
    np.testing.assert_allclose(pts[1], [0.125, 0.3])
    np.testing.assert_allclose(pts[5], [0.375, 0.1])


def test_interior_and_boundary_masks():
    g = Grid(origin=(0.0, 0.0), extent=(1.0, 1.0), counts=(5, 6))
    interior = g.interior_mask()
    assert interior.sum() == 3 * 4
    assert np.array_equal(g.boundary_mask(), ~interior)
    # corner cell is boundary, center cell interior
    assert not interior[np.ravel_multi_index((0, 0), g.shape)]
    assert interior[np.ravel_multi_index((2, 3), g.shape)]


def test_boundary_distance():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(10,))
    d = g.boundary_distance()
    np.testing.assert_allclose(d[0], 0.05)
    np.testing.assert_allclose(d[4], 0.45)
    np.testing.assert_allclose(d, d[::-1])


def test_grids_match():
    a = Grid(origin=(0.0,), extent=(1.0,), counts=(8,))
    assert a.grids_match(Grid(origin=(0.0,), extent=(1.0,), counts=(8,)))
    assert not a.grids_match(Grid(origin=(0.0,), extent=(2.0,), counts=(8,)))
    assert not a.grids_match(Grid(origin=(0.0,), extent=(1.0,), counts=(16,)))


def test_field_validation_and_views():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(6,))
    f = TemperatureField(g, 0.5, np.arange(6.0))
    assert f.reshaped().shape == (6,)
    assert f.valid_mask().all()
    with pytest.raises(ValueError):
        TemperatureField(g, 0.0, np.arange(5.0))
    with pytest.raises(ValueError):
        TemperatureField(g, 0.0, [0, 1, np.nan, 3, 4, 5])
    # non-finite allowed where the mask excludes the cell
    masked = np.array([0, 1, np.inf, 3, 4, 5.0])
    valid = np.array([True, True, False, True, True, True])
    TemperatureField(g, 0.0, masked, valid)
    with pytest.raises(ValueError):
        TemperatureField(g, 0.0, np.arange(6.0), valid[:4])


def test_field_values_frozen():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(6,))
    f = TemperatureField(g, 0.0, np.zeros(6))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_parabolic_cylinder():
    cyl = ParabolicCylinder(center=(0.5,), t_top=1.0, radius=0.25)
    assert cyl.t_bottom == 1.0 - 0.0625
    with pytest.raises(ValueError):
        ParabolicCylinder(center=(0.5,), t_top=1.0, radius=0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_discrete_laplacian_exact_on_quadratics(dim):
    """The central stencil differentiates |x|^2 exactly: result is 2*dim."""
    g = Grid(origin=(0.0,) * dim, extent=(1.0,) * dim, counts=(6,) * dim)
    pts = g.cell_centers()
    f = TemperatureField(g, 0.0, (pts**2).sum(axis=1))
    lap = discrete_laplacian(f)
    interior = g.interior_mask()
    assert np.array_equal(lap.valid, interior)
    np.testing.assert_allclose(lap.values[interior], 2.0 * dim, atol=1e-11)
    assert np.all(lap.values[~interior] == 0.0)


def test_discrete_laplacian_rejects_nonfinite():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(6,))
    vals = np.zeros(6)
    vals[2] = np.inf
    f = TemperatureField(g, 0.0, vals, np.isfinite(vals))
    with pytest.raises(ValueError):
        discrete_laplacian(f)


@pytest.mark.parametrize("counts, extent", [
    ((9,), (1.3,)),
    ((6, 8), (1.0, 2.1)),
    ((5, 6, 7), (0.7, 1.0, 1.9)),
])
def test_batched_second_differences_match_laplacian(counts, extent):
    """A leading batch axis gives every level's Laplacian bit for bit."""
    g = Grid(origin=(0.0,) * len(counts), extent=extent, counts=counts)
    stack = np.random.default_rng(3).standard_normal((4,) + counts)
    batched = sum(second_differences(stack, g.spacing, lead=1))
    assert batched.shape == (4,) + tuple(c - 2 for c in counts)
    for level, lap_level in zip(stack, batched):
        lap = discrete_laplacian(TemperatureField(g, 0.0, level))
        assert np.array_equal(lap.reshaped()[interior_index(g.dim)], lap_level)


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("counts, lead", [
    ((9,), 0),
    ((6, 8), 0),
    ((5, 6, 7), 0),
    ((3, 7), 1),
    ((2, 5, 6, 7), 1),
])
def test_span_second_differences_match_sliced(counts, lead):
    """``span_stencil`` equals the sliced form bit for bit on the interior of
    every row of an edge-padded random array (one row without a batch axis),
    in fresh buffers and in reused ones."""
    rng = np.random.default_rng(7)
    dim = len(counts) - lead
    u = np.pad(rng.standard_normal(counts), [(0, 0)] * lead + [(1, 1)] * dim,
               mode="edge")
    rows = u if lead else u[None]
    spacing = tuple(rng.uniform(0.05, 2.0, dim))
    span, centre, terms = span_stencil(rows, spacing)
    assert np.array_equal(centre, rows.reshape(len(rows), -1)[:, span])
    interior = interior_index(dim)
    out = list(np.full((dim, span.stop - span.start), np.nan))
    for k, row in enumerate(rows):
        sliced = [bits(t) for t in second_differences(row, spacing)]
        for _ in range(2):  # fresh buffers, then the same ones again
            got = terms(k, out)
            for want, term in zip(sliced, got):
                full = np.full(row.size, np.nan)
                full[span] = term
                assert np.array_equal(want, bits(full.reshape(row.shape)[interior]))
    with pytest.raises(ValueError, match="C-contiguous"):
        span_stencil(np.repeat(rows, 2, axis=-1)[..., ::2], spacing)


@pytest.mark.parametrize("counts", [(5,), (4, 6), (3, 4, 5)])
def test_refresh_edge_padding_rebuilds_the_pad(counts):
    inner = np.random.default_rng(11).standard_normal(counts)
    padded = np.pad(inner, 1, mode="edge")
    stale = padded.copy()
    for ax in range(len(counts)):
        np.moveaxis(stale, ax, 0)[0] = -9.0
        np.moveaxis(stale, ax, 0)[-1] = 9.0
    refresh_edge_padding(stale)
    assert np.array_equal(bits(stale), bits(padded))


def test_neighborhood_radius():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(10,))
    a = np.zeros(10, dtype=bool)
    b = np.zeros(10, dtype=bool)
    a[7] = True
    b[2] = True
    # centers 0.75 and 0.25
    assert neighborhood_radius(g, a, b) == pytest.approx(0.5)
    assert neighborhood_radius(g, b, b) == 0.0
    assert neighborhood_radius(g, np.zeros(10, dtype=bool), b) == 0.0
    with pytest.raises(ValueError):
        neighborhood_radius(g, a, np.zeros(10, dtype=bool))
    with pytest.raises(ValueError):
        neighborhood_radius(g, a[:5], b)


@pytest.mark.parametrize("extent, counts, values", [
    ((2.0, 1.0), (6, 4), np.random.default_rng(3).standard_normal(24)),
    ((2.0,), (4,), np.array([-0.0, 5e-324, 1e300, 1.0 / 3.0])),
    # more cells than one write formats at once
    ((2.0, 1.0), (72, 64), np.random.default_rng(5).standard_normal(72 * 64)),
], ids=["random_normals", "signed_zero_subnormal_huge_third", "two_chunks"])
def test_csv_round_trip_bit_exact(tmp_path, extent, counts, values):
    g = Grid(origin=(0.0,) * len(counts), extent=extent, counts=counts)
    f = TemperatureField(g, 0.125, values)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    assert len(path.read_text().splitlines()) == 1 + values.size
    back = read_field_csv(path)
    assert back.grid.counts == g.counts
    assert back.grid.spacing == g.spacing
    assert back.time == f.time
    # 17 significant digits round-trip doubles exactly, signed zero included
    assert np.array_equal(back.values, f.values)
    assert back.values.tobytes() == f.values.tobytes()
    # the header does not carry the origin
    assert back.grid.origin == (0.0,) * len(counts)


def test_csv_header_format(tmp_path):
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(4,))
    path = tmp_path / "f.csv"
    write_field_csv(TemperatureField(g, 0.5, np.zeros(4)), path)
    header = path.read_text().splitlines()[0]
    assert header == "# grid dim=1 counts=4 spacing=0.25 time=0.5"

    write_field_csv(TemperatureField(g, 1.0 / 3.0, [-0.0, 1.0 / 3.0, 0.0, 1.0]), path)
    assert path.read_text() == ("# grid dim=1 counts=4 spacing=0.25 time=0.33333333333333331\n"
                                "-0\n0.33333333333333331\n0\n1\n")


@pytest.mark.parametrize(
    "text",
    [
        "1.0\n2.0\n",
        "# grid dim=2 counts=4 spacing=0.25 time=0\n0\n0\n0\n0\n",
        "# grid dim=1 counts=x spacing=0.25 time=0\n0\n",
        "# grid dim=1 counts=4 spacing=0.25 time=0\n0\nx\n0\n0\n",
    ],
)
def test_csv_rejects_malformed_input(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_field_csv(path)


def test_format_float_round_trips():
    for x in (1.0 / 3.0, np.pi, 1e-300, -0.1):
        assert float(format_float(x)) == x


# ---------------------------------------------------------------------------
# CSV jobs shared between forked processes
# ---------------------------------------------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """The number of forks this process makes, as a one-item list."""
    made = [0]
    fork = os.fork

    def counted():
        made[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def level_fields(levels, counts=(64, 64)):
    """Random fields above the sharing size rule (4096 values each)."""
    g = Grid(origin=(0.0,) * len(counts), extent=(1.0,) * len(counts), counts=counts)
    rng = np.random.default_rng(7)
    return [TemperatureField(g, 0.25 * k, rng.standard_normal(g.total_cells))
            for k in range(levels)]


def write_levels(fields, outdir):
    """Write ``fields`` to ``u_*`` files in ``outdir`` as one job of
    ``field_job`` writes; returns the file names."""
    names = [field_name("u", k) for k in range(len(fields))]
    write_field_csvs([field_job(f, outdir / n) for f, n in zip(fields, names)])
    return names


def tagged(weights):
    """One ``(thunk, weight)`` job per weight; job ``k`` returns ``(k, pid)``,
    the pid of the process running it."""
    return [(lambda k=k: (k, os.getpid()), w) for k, w in enumerate(weights)]


def test_shared_map_returns_results_in_item_order(monkeypatch, forks):
    usable_cpus(monkeypatch, 3)
    results = grid_module._shared_map(tagged([grid_module._SHARE_MIN_VALUES] * 11))
    assert [k for k, _ in results] == list(range(11))
    assert len({pid for _, pid in results}) == 3 and forks[0] == 2
    assert {pid for k, pid in results if k % 3 == 0} == {os.getpid()}
    assert_no_children()


def test_shared_map_raises_the_first_failing_item(monkeypatch, forks):
    """Items 3 (the child's) and 6 (this process's) both fail: item 3's error
    is raised, with its type and message, as the in-process loop would."""
    usable_cpus(monkeypatch, 2)

    def job(k):
        if k in (3, 6):
            raise ValueError(f"item {k} is bad")
        return k

    with pytest.raises(ValueError, match="^item 3 is bad$"):
        grid_module._shared_map([(partial(job, k), grid_module._SHARE_MIN_VALUES)
                                 for k in range(9)])
    assert forks[0] == 1
    assert_no_children()


def shares_of(results):
    """The items each process ran, from ``(item, pid)`` results."""
    return sorted([k for k, p in results if p == pid] for pid in {p for _, p in results})


def test_equal_weights_deal_round_robin(monkeypatch, forks):
    """Equal weights deal item k to process k mod 3, this process first."""
    assert grid_module._deal([5] * 11, 3) == [[0, 3, 6, 9], [1, 4, 7, 10], [2, 5, 8]]
    usable_cpus(monkeypatch, 3)
    listed = grid_module._shared_map(tagged([grid_module._SHARE_MIN_VALUES] * 11))
    assert [k for k, _ in listed] == list(range(11)) and forks[0] == 2
    assert shares_of(listed) == [[0, 3, 6, 9], [1, 4, 7, 10], [2, 5, 8]]
    assert [k for k, pid in listed if pid == os.getpid()] == [0, 3, 6, 9]
    assert_no_children()


def test_unequal_weights_keep_the_heaviest_item_here(monkeypatch, forks):
    """The heaviest item (3) goes first, to this process; every lighter one then
    goes to the less-loaded child."""
    weights = [1, 2, 1, 10, 1]
    assert grid_module._deal(weights, 2) == [[3], [0, 1, 2, 4]]
    usable_cpus(monkeypatch, 2)
    results = grid_module._shared_map(tagged(weights), 1)
    assert [k for k, _ in results] == list(range(5)) and forks[0] == 1
    assert [k for k, pid in results if pid == os.getpid()] == [3]
    assert_no_children()


def test_weighted_deal_raises_the_first_failing_item(monkeypatch, forks):
    """Items 1 (the child's) and 3 (this process's, the heaviest) both fail:
    item 1's error is raised, as the in-process loop would."""
    usable_cpus(monkeypatch, 2)

    def job(k):
        if k in (1, 3):
            raise ValueError(f"item {k} is bad")
        return k

    with pytest.raises(ValueError, match="^item 1 is bad$"):
        grid_module._shared_map([(partial(job, k), w) for k, w in enumerate([1, 2, 1, 10, 1])],
                                1)
    assert forks[0] == 1
    assert_no_children()


def test_weighted_job_too_light_to_share_stays_here(monkeypatch):
    """Each process must get at least min_share of the total weight."""
    usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    results = grid_module._shared_map(tagged([1, 2, 1, 10, 1]), 8)
    assert results == [(k, os.getpid()) for k in range(5)]


@pytest.mark.parametrize("cpus", [1, 2])
def test_shared_and_in_process_field_jobs_agree_bit_for_bit(tmp_path, monkeypatch, forks,
                                                             cpus):
    fields = level_fields(12)
    usable_cpus(monkeypatch, 1)
    reference = tmp_path / "reference"
    reference.mkdir()
    names = write_levels(fields, reference)
    assert forks[0] == 0

    usable_cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    out.mkdir()
    write_levels(fields, out)
    back = read_field_csvs([out / n for n in names])
    assert forks[0] == 2 * (cpus - 1)
    assert_no_children()
    for name in names:
        assert (out / name).read_bytes() == (reference / name).read_bytes()
    assert [f.time for f in back] == [f.time for f in fields]
    for got, want in zip(back, fields):
        assert got.values.tobytes() == want.values.tobytes()
        assert not got.values.flags.writeable


def _truncate(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-3]))


def _poison(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[100] = "nan\n"
    path.write_text("".join(lines))


def _garble(path):
    path.write_bytes(b"\xff" + path.read_bytes()[1:])


@pytest.mark.parametrize("damage, reason", [
    (_truncate, "field has 4093 values for a grid of 4096 cells"),
    (_poison, "field contains non-finite values on valid cells"),
    (_garble, "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
              "invalid start byte"),
], ids=["truncated", "nan", "garbled"])
def test_bad_field_csv_error_names_its_file(tmp_path, monkeypatch, forks, damage, reason):
    """The ValueError names the file in process and from a child's share (file
    1 of 12 on two CPUs), with one message."""
    usable_cpus(monkeypatch, 1)
    names = write_levels(level_fields(12), tmp_path)
    damage(tmp_path / names[1])
    message = f"{tmp_path / names[1]}: {reason}"
    with pytest.raises(ValueError) as single:
        read_field_csv(tmp_path / names[1])
    assert str(single.value) == message
    usable_cpus(monkeypatch, 2)
    with pytest.raises(ValueError) as shared:
        read_field_csvs([tmp_path / n for n in names])
    assert str(shared.value) == message
    assert forks[0] == 1
    assert_no_children()


def _small_files(monkeypatch):
    usable_cpus(monkeypatch, 2)
    return level_fields(12, counts=(32, 32))


def _one_cpu(monkeypatch):
    usable_cpus(monkeypatch, 1)
    return level_fields(12)


@pytest.mark.parametrize("setup", [_small_files, _one_cpu], ids=["small_files", "one_cpu"])
def test_field_jobs_that_cannot_pay_never_fork(tmp_path, monkeypatch, setup):
    fields = setup(monkeypatch)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    names = write_levels(fields, tmp_path)
    assert len(read_field_csvs([tmp_path / n for n in names])) == len(fields)


def test_snapshot_sets_of_one_dimensional_runs_share(tmp_path, monkeypatch, forks):
    """202 files of 201 values (a solve1d run's snapshots) weigh 202 x (201 +
    _FILE_COST) = 92,314, so two CPUs fork once, and the bytes are those of
    one process."""
    fields = level_fields(202, counts=(201,))
    usable_cpus(monkeypatch, 1)
    (tmp_path / "single").mkdir()
    names = write_levels(fields, tmp_path / "single")
    assert forks[0] == 0
    usable_cpus(monkeypatch, 2)
    (tmp_path / "shared").mkdir()
    write_levels(fields, tmp_path / "shared")
    assert forks[0] == 1
    assert_no_children()
    for name in names:
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "single" / name).read_bytes()


def test_further_writes_deal_with_the_fields(tmp_path, monkeypatch, forks):
    """A further write listed first and heavier than any file stays in this
    process, ahead of the files of its share, and the files it outweighs go
    to the child."""
    usable_cpus(monkeypatch, 2)
    here = []  # a child appends to its own copy
    write = grid_module.write_field_csv
    monkeypatch.setattr(grid_module, "write_field_csv",
                        lambda f, path: here.append(path.name) or write(f, path))
    front = tmp_path / "front.txt"
    names = [field_name("u", k) for k in range(12)]
    write_field_csvs([(lambda: here.append(front.name) or front.write_text("s\n"),
                       11 * grid_module._file_weight(4096)),
                      *(field_job(f, tmp_path / n) for f, n in zip(level_fields(12), names))])
    assert forks[0] == 1
    assert_no_children()
    assert here == ["front.txt", names[-1]]
    assert front.read_text() == "s\n"
    assert all((tmp_path / n).exists() for n in names)


def test_field_jobs_stay_in_process_beside_a_live_thread(tmp_path, monkeypatch):
    usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        names = write_levels(level_fields(12), tmp_path)
        assert len(read_field_csvs([tmp_path / n for n in names])) == 12
    finally:
        release.set()
        thread.join()
