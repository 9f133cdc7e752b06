"""Grid containers, stencils, set helpers, and the CSV round trip."""

import numpy as np
import pytest

from meltfront import (
    Grid,
    ParabolicCylinder,
    TemperatureField,
    discrete_laplacian,
    format_float,
    neighborhood_radius,
    parabolic_distance,
    positivity_set,
    read_field_csv,
    write_field_csv,
)
from meltfront.grid import interior_index, refresh_edge_padding, second_differences, \
    span_stencil


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


def test_index_round_trip():
    g = Grid(origin=(0.0,) * 3, extent=(1.0,) * 3, counts=(4, 5, 6))
    for flat in (0, 17, 59, g.total_cells - 1):
        assert g.flat_index(g.multi_index(flat)) == flat
    assert g.flat_index((1, 2, 3)) == 1 * 30 + 2 * 6 + 3
    with pytest.raises(ValueError):
        g.flat_index((4, 0, 0))
    with pytest.raises(ValueError):
        g.multi_index(g.total_cells)


def test_interior_and_boundary_masks():
    g = Grid(origin=(0.0, 0.0), extent=(1.0, 1.0), counts=(5, 6))
    interior = g.interior_mask()
    assert interior.sum() == 3 * 4
    assert np.array_equal(g.boundary_mask(), ~interior)
    # corner cell is boundary, center cell interior
    assert not interior[g.flat_index((0, 0))]
    assert interior[g.flat_index((2, 3))]


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


def test_with_values_keeps_grid_and_mask():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(6,))
    valid = g.interior_mask()
    f = TemperatureField(g, 1.0, np.zeros(6), valid)
    f2 = f.with_values(np.ones(6), time=2.0)
    assert f2.time == 2.0
    assert f2.grid is g
    assert np.array_equal(f2.valid, valid)


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


def test_parabolic_distance():
    assert parabolic_distance([1.0, 0.0], 2.0, [0.0, 0.0], 1.0) == np.sqrt(2.0)
    assert parabolic_distance([0.0], 1.0, [0.0], 3.0) == np.sqrt(2.0)
    assert parabolic_distance([3.0, 4.0], 0.0, [0.0, 0.0], 0.0) == 5.0


def test_positivity_set_strict_and_region():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(5,))
    f = TemperatureField(g, 0.0, [-1.0, 0.0, 1e-300, 2.0, 3.0])
    mask = positivity_set(f)
    assert mask.tolist() == [False, False, True, True, True]
    region = np.array([True, True, True, True, False])
    assert positivity_set(f, region).tolist() == [False, False, True, True, False]
    with pytest.raises(ValueError):
        positivity_set(f, region[:3])


def test_positivity_set_ignores_invalid_cells():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(5,))
    valid = np.array([True, True, False, True, True])
    f = TemperatureField(g, 0.0, np.ones(5), valid)
    assert positivity_set(f).tolist() == [True, True, False, True, True]


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
