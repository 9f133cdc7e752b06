"""Bump-kernel construction, discrete convolution, and smoothing bounds."""

import math

import numpy as np
import pytest

from meltfront import (
    Grid,
    TemperatureField,
    admissible_mask,
    build_kernel,
    l2_convergence,
    mollify,
    smoothness_report,
)

# adaptive-quadrature values of 1 / integral_{B_1} exp(1/(|x|^2-1)) dx,
# frozen from scipy.integrate.quad at epsrel 1e-13
NORMALIZATION = {1: 2.2522836210435813, 2: 2.143565775792237, 3: 2.2671167396083267}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_normalization_matches_adaptive_quadrature(dim):
    kernel = build_kernel(0.5, dim)
    assert kernel.normalization == pytest.approx(NORMALIZATION[dim], rel=1e-9)


def test_build_kernel_argument_checks():
    with pytest.raises(ValueError):
        build_kernel(0.0, 1)
    with pytest.raises(ValueError):
        build_kernel(0.1, 4)
    with pytest.raises(ValueError):
        build_kernel(0.1, 1, samples_per_radius=2)
    # too coarse for the 1e-8 mass certificate; the message carries the mass
    with pytest.raises(ValueError, match="achieved mass"):
        build_kernel(0.1, 1, samples_per_radius=16)


def test_kernel_support_and_scaling():
    kernel = build_kernel(0.25, 1)
    assert np.all(kernel.eta_unit(np.array([[1.0], [-1.0], [2.0]])) == 0.0)
    assert kernel.eta_unit(np.array([[0.0]]))[0] == pytest.approx(
        kernel.normalization * math.exp(-1.0))
    # eta_eps(0) = eps^-n eta_unit(0)
    assert kernel.eta(np.array([[0.0]]))[0] == pytest.approx(
        4.0 * kernel.eta_unit(np.array([[0.0]]))[0])
    assert np.all(kernel.eta(np.array([[0.25], [0.3]])) == 0.0)


def test_taps_unit_sum_and_symmetry():
    kernel = build_kernel(0.2, 2)
    offsets, weights = kernel.taps((0.02, 0.025))
    assert float(weights.sum()) == pytest.approx(1.0, abs=1e-15)
    assert np.all(weights > 0)
    # every tap has its mirror image with the same weight
    table = {tuple(o): w for o, w in zip(offsets, weights)}
    for o, w in table.items():
        assert table[tuple(-c for c in o)] == w
    assert not offsets.flags.writeable and not weights.flags.writeable


def test_admissible_mask_distance():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(10,))
    mask = admissible_mask(g, 0.25)
    # centers at 0.05k + 0.05; admissible needs distance >= 0.25
    expected = (g.boundary_distance() >= 0.25 - 1e-13)
    assert np.array_equal(mask, expected)
    assert mask.sum() == 6


def test_mollify_reproduces_constants_and_linear():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(64,))
    kernel = build_kernel(0.125, 1)
    xc = g.axis_centers(0)
    const = mollify(TemperatureField(g, 0.0, np.full(64, 3.5)), kernel)
    mask = const.valid_mask()
    np.testing.assert_allclose(const.values[mask], 3.5, atol=1e-13)
    lin = mollify(TemperatureField(g, 0.0, 2.0 * xc - 1.0), kernel)
    np.testing.assert_allclose(lin.values[mask], (2.0 * xc - 1.0)[mask], atol=1e-13)
    assert np.all(lin.values[~mask] == 0.0)


@pytest.mark.parametrize("counts, extent, eps", [
    ((40,), (1.0,), 0.1),
    ((20, 16), (1.0, 0.8), 0.2),
    ((10, 12, 9), (1.0, 1.2, 0.9), 0.4),
], ids=["1d", "2d", "3d"])
def test_mollify_matches_direct_sum(counts, extent, eps):
    """Each cell of U_eps is the tap-ordered sum of ``w f(x - o h)``, bit for
    bit, and every other cell holds 0."""
    g = Grid(origin=(0.0,) * len(counts), extent=extent, counts=counts)
    vals = np.random.default_rng(7).standard_normal(g.total_cells)
    kernel = build_kernel(eps, g.dim)
    out = mollify(TemperatureField(g, 0.0, vals), kernel).values.reshape(counts)
    offsets, weights = kernel.taps(g.spacing)
    u = vals.reshape(counts)
    valid = admissible_mask(g, eps).reshape(counts)
    assert valid.any() and not valid.all()
    for idx in np.ndindex(*counts):
        acc = 0.0
        if valid[idx]:
            for off, w in zip(offsets, weights):
                acc += w * u[tuple(np.subtract(idx, off))]
        assert out[idx] == acc


def test_mollify_step_midpoint_symmetry():
    """Mirror cells across the jump average to the jump's half value."""
    g = Grid(origin=(-1.0,), extent=(2.0,), counts=(128,))
    xc = g.axis_centers(0)
    step = TemperatureField(g, 0.0, (xc > 0.0).astype(float))
    smooth = mollify(step, build_kernel(0.125, 1))
    mask = smooth.valid_mask()
    v = smooth.values
    paired = v[mask] + v[mask][::-1]
    np.testing.assert_allclose(paired, 1.0, atol=1e-13)


def test_mollify_argument_checks():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(8,))
    f = TemperatureField(g, 0.0, np.zeros(8))
    with pytest.raises(ValueError, match="too coarse"):
        mollify(f, build_kernel(0.25, 1))
    with pytest.raises(ValueError, match="dim"):
        mollify(f, build_kernel(0.5, 2))
    partial = TemperatureField(g, 0.0, np.zeros(8), g.interior_mask())
    with pytest.raises(ValueError, match="valid"):
        mollify(partial, build_kernel(0.5, 1))


def test_smoothness_report_bounds_hold():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(96,))
    xc = g.axis_centers(0)
    f = TemperatureField(g, 0.0, np.sign(np.sin(7.0 * xc)))
    kernel = build_kernel(0.1, 1)
    report = smoothness_report(f, kernel, 3)
    for m in (1, 2, 3):
        entry = report[m]
        assert entry["measured"] <= entry["bound"] * (1 + 1e-12)
        assert entry["kernel_constant"] > 0
    # higher orders cost more smoothness
    assert report[2]["bound"] > report[1]["bound"]
    with pytest.raises(ValueError):
        smoothness_report(f, kernel, 0)


def test_kernel_constants_stable_across_epsilon():
    """The bound's epsilon dependence is pure scaling: eps^m B_m is flat."""
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(128,))
    xc = g.axis_centers(0)
    f = TemperatureField(g, 0.0, (xc > 0.5).astype(float))
    consts = {m: [] for m in (1, 2)}
    for eps in (0.1, 0.2, 0.4):
        report = smoothness_report(f, build_kernel(eps, 1), 2)
        for m in (1, 2):
            consts[m].append(report[m]["kernel_constant"])
    for m, vals in consts.items():
        assert max(vals) / min(vals) < 1.05


def test_l2_convergence_on_a_step():
    g = Grid(origin=(0.0,), extent=(1.0,), counts=(512,))
    xc = g.axis_centers(0)
    f = TemperatureField(g, 0.0, (xc > 0.5).astype(float))
    ladder = l2_convergence(f, [0.2, 0.1, 0.05])
    errs = [e for _, e in ladder]
    assert errs[0] > errs[1] > errs[2]
    with pytest.raises(ValueError, match="decreasing"):
        l2_convergence(f, [0.1, 0.2])
