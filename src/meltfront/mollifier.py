"""Friedrichs mollification on cell-centered grids.

The kernel is the classical bump ``eta(x) = Z * exp(1/(|x|^2 - 1))`` inside
the unit ball (identically zero outside), rescaled as
``eta_eps(x) = eps^-n * eta(x/eps)``.  ``Z`` normalizes the continuum mass
to 1 and is certified at build time by comparing two Simpson rules; too few
quadrature samples are rejected with the achieved mass in the message.

Discrete convolution: ``f_eps = sum_o T_o f(. - o)`` over integer cell
offsets ``o`` with ``|o.h| < eps``.  The raw tap weights
``eta_eps(o.h) * prod(h)`` are renormalized to unit sum, so constants (and,
by symmetry, linear fields) are reproduced exactly on the admissible set;
the renormalization is a quadrature-consistent O((h/eps)^2) correction.
Outputs are valid on ``U_eps``, the cells at distance >= eps from the box
boundary, where every tap lands inside the domain.  No transform methods
are used; the sum is evaluated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, TemperatureField
from .heat import require_positive

__all__ = [
    "MollifierKernel",
    "build_kernel",
    "mollify",
    "admissible_mask",
    "smoothness_report",
    "l2_convergence",
]

_SURFACE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}  # S^{n-1} measure


def bump_profile(r: np.ndarray) -> np.ndarray:
    """Unnormalized radial profile ``exp(1/(r^2 - 1))`` for ``r < 1``, else 0."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(1.0 / (r[inside] ** 2 - 1.0))
    return out


def _radial_mass(dim: int, n_samples: int) -> float:
    """Simpson quadrature of ``int_{B_1} exp(1/(|x|^2-1)) dx`` via the radial profile."""
    if n_samples % 2 == 1:
        n_samples += 1
    r = np.linspace(0.0, 1.0, n_samples + 1)
    fr = bump_profile(r) * r ** (dim - 1)
    w = np.ones(n_samples + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(_SURFACE[dim] * (1.0 / n_samples / 3.0) * np.sum(w * fr))


@dataclass(frozen=True)
class MollifierKernel:
    """Normalized bump kernel of radius ``epsilon`` in ``dim`` dimensions."""

    epsilon: float
    dim: int
    normalization: float
    samples_per_radius: int

    def eta_unit(self, points: np.ndarray) -> np.ndarray:
        """Unit-radius kernel ``Z * exp(1/(|x|^2-1))``; exactly 0 for ``|x| >= 1``."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.sqrt((pts**2).sum(axis=1))
        return self.normalization * bump_profile(r)

    def eta(self, points: np.ndarray) -> np.ndarray:
        """Scaled kernel ``eps^-n * eta_unit(x / eps)``."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.epsilon ** (-self.dim) * self.eta_unit(pts / self.epsilon)

    def taps(self, spacing: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Discrete convolution weights for a grid spacing.

        Returns ``(offsets, weights)`` where ``offsets`` is ``(K, dim)`` int
        and ``weights`` sums to exactly 1; both are read-only.
        """
        ranges = [np.arange(-int(math.ceil(self.epsilon / h)), int(math.ceil(self.epsilon / h)) + 1)
                  for h in spacing]
        mesh = np.meshgrid(*ranges, indexing="ij")
        offsets = np.stack([m.ravel() for m in mesh], axis=-1)
        pts = offsets * np.asarray(spacing)
        w = self.eta(pts) * np.prod(spacing)
        keep = w > 0.0
        offsets, w = offsets[keep], w[keep]
        w = w / w.sum()
        offsets.setflags(write=False)
        w.setflags(write=False)
        return offsets, w


def build_kernel(epsilon: float, dim: int, samples_per_radius: int = 256) -> MollifierKernel:
    """Construct a kernel whose continuum mass is certified to ``1 +- 1e-8``.

    Raises
    ------
    ValueError
        For invalid epsilon/dim, or when ``samples_per_radius`` is too coarse
        for the mass tolerance (message reports the achieved mass).
    """
    require_positive(epsilon=epsilon)
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2, or 3, got {dim}")
    if samples_per_radius < 4:
        raise ValueError("need at least 4 quadrature samples per radius")
    mass = _radial_mass(dim, samples_per_radius)
    z = 1.0 / mass
    mass_fine = _radial_mass(dim, 2 * samples_per_radius)
    achieved = z * mass_fine
    if abs(achieved - 1.0) > 1e-8:
        raise ValueError(
            f"{samples_per_radius} samples per radius cannot normalize the kernel "
            f"to 1 +- 1e-8; achieved mass {achieved:.12g}"
        )
    return MollifierKernel(float(epsilon), dim, z, samples_per_radius)


def admissible_mask(grid: Grid, epsilon: float) -> np.ndarray:
    """Flat mask of ``U_eps``: cells at distance >= eps from the box boundary."""
    return grid.boundary_distance() >= epsilon * (1.0 - 1e-12)


def mollify(f: TemperatureField, kernel: MollifierKernel) -> TemperatureField:
    """Convolve a field with the kernel; valid on ``U_eps`` only.

    Raises
    ------
    ValueError
        If the grid is coarser than ``eps/4``, dimensions mismatch, or the
        input has invalid cells.
    """
    g = f.grid
    if g.dim != kernel.dim:
        raise ValueError(f"kernel dim {kernel.dim} does not match grid dim {g.dim}")
    if f.valid is not None and not bool(f.valid.all()):
        raise ValueError("mollify requires a fully valid input field")
    eps = kernel.epsilon
    if max(g.spacing) > eps / 4.0 + 1e-15:
        raise ValueError(
            f"grid spacing {max(g.spacing):g} too coarse for epsilon {eps:g}; "
            "need spacing <= eps/4"
        )
    offsets, weights = kernel.taps(g.spacing)
    # zero-padded by the reach of the taps on each axis; a padded zero only
    # reaches cells outside U_eps, which are zeroed below
    reach = np.abs(offsets).max(axis=0)
    u = np.pad(f.reshaped(), [(r, r) for r in reach])
    out = np.zeros(g.counts)
    for off, w in zip(offsets, weights):
        # f^eps(x) += w * f(x - o*h): destination index i reads source i - o
        out += w * u[tuple(slice(r - o, r - o + n) for o, r, n in zip(off, reach, g.counts))]
    valid = admissible_mask(g, eps)
    vals = out.ravel()
    vals[~valid] = 0.0
    return TemperatureField(g, f.time, vals, valid)


def _axis_slice(ndim: int, axis: int, lo: int | None, hi: int | None) -> tuple[slice, ...]:
    return tuple(slice(lo, hi) if j == axis else slice(None) for j in range(ndim))


def _difference_sup(values: np.ndarray, valid: np.ndarray, grid: Grid, order: int) -> float:
    """Sup of the order-th difference quotient over windows of valid cells."""
    v = values.reshape(grid.counts)
    ok = valid.reshape(grid.counts)
    best = 0.0
    for axis in range(grid.dim):
        n = grid.counts[axis]
        if n <= order:
            continue
        d = np.diff(v, order, axis=axis) / grid.spacing[axis] ** order
        win = ok[_axis_slice(grid.dim, axis, 0, n - order)].copy()
        for s in range(1, order + 1):
            win &= ok[_axis_slice(grid.dim, axis, s, n - order + s)]
        if win.any():
            best = max(best, float(np.max(np.abs(d[win]))))
    return best


def smoothness_report(
    f: TemperatureField, kernel: MollifierKernel, max_order: int
) -> dict[int, dict[str, float]]:
    """Measured difference-quotient norms of ``f_eps`` against kernel bounds.

    For each order ``m <= max_order`` reports the sup of the m-th difference
    quotient of the mollified field over ``U_eps``, the triangle-inequality
    bound ``sup|f| * M_m / eps^m``, and the kernel constant ``M_m`` (the
    discrete m-th derivative L1 bound of the kernel at this resolution).
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    fe = mollify(f, kernel)
    g = f.grid
    offsets, weights = kernel.taps(g.spacing)
    # dense tap array per axis box for differencing
    kmax = offsets.max(axis=0)
    kmin = offsets.min(axis=0)
    tap_box = np.zeros(tuple(kmax - kmin + 1))
    tap_box[tuple((offsets - kmin).T)] = weights
    sup_f = float(np.max(np.abs(f.values)))
    report: dict[int, dict[str, float]] = {}
    for m in range(1, max_order + 1):
        measured = _difference_sup(fe.values, fe.valid_mask(), g, m)
        b_m = 0.0
        for axis in range(g.dim):
            # zero-pad so the difference sequence covers the full tap support
            pad = [(0, 0)] * g.dim
            pad[axis] = (m, m)
            dk = np.diff(np.pad(tap_box, pad), m, axis=axis) / g.spacing[axis] ** m
            b_m = max(b_m, float(np.sum(np.abs(dk))))
        kernel_const = b_m * kernel.epsilon**m
        report[m] = {
            "measured": measured,
            "bound": sup_f * b_m,
            "kernel_constant": kernel_const,
        }
    return report


def l2_convergence(
    f: TemperatureField, epsilons: list[float], samples_per_radius: int = 256
) -> list[tuple[float, float]]:
    """L2(U_eps) distance between ``f`` and ``f_eps`` for a decreasing ladder.

    Raises
    ------
    ValueError
        If the ladder is not strictly decreasing.
    """
    eps_list = [float(e) for e in epsilons]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon ladder must be strictly decreasing")
    g = f.grid
    cell = float(np.prod(g.spacing))
    out = []
    for eps in eps_list:
        kernel = build_kernel(eps, g.dim, samples_per_radius)
        fe = mollify(f, kernel)
        mask = fe.valid_mask()
        err = math.sqrt(float(np.sum((fe.values[mask] - f.values[mask]) ** 2) * cell))
        out.append((eps, err))
    return out
