"""Twisted convolution, the two-index spectral transform, and the operator itself.

The convolution is evaluated by direct quadrature.  Grid differences
z_i - w_j fall on a lattice offset by half a spacing from the sample
lattice (the axes have an even point count), so the first factor is
resampled once onto that difference lattice with an FFT phase shift; the
fields handled here decay like exp(-|z|^2/4), which makes both the
periodization and the zero-extension outside the domain negligible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .basis import basis_matrix, phi_k as _phi_k_point
from .grids import Field, GridSpec, sample_field
from .indices import Truncation

_BASIS_CACHE: dict = {}


def cached_basis(tr: Truncation, grid: GridSpec, quad_order: int | None = None) -> np.ndarray:
    """Sampled basis of ``basis_matrix``, shared by every caller and therefore read-only."""
    key = (tr, grid, quad_order)
    if key not in _BASIS_CACHE:
        basis = basis_matrix(tr, grid, quad_order)
        basis.setflags(write=False)
        _BASIS_CACHE[key] = basis
    return _BASIS_CACHE[key]


@dataclass
class SpectralCoeffs:
    """Coefficients of an expansion over a truncated two-index basis."""

    truncation: Truncation
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (len(self.truncation),):
            raise ValueError("coefficient vector does not match truncation size")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")

    def energy(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def copy(self) -> "SpectralCoeffs":
        return SpectralCoeffs(self.truncation, self.coeffs.copy())


def _difference_resample(values: np.ndarray, M: int) -> np.ndarray:
    """Resample onto the difference lattice {k h : |k| <= M-1} along every axis.

    Zero-pads each axis to length 2M (boundary samples are ~1e-12 for the
    Gaussian-decaying fields used here) and applies a half-index Fourier
    shift; the result has length 2M-1 per axis, index k + (M-1) <-> k h.
    """
    out = values
    for axis in range(values.ndim):
        padded_shape = list(out.shape)
        padded_shape[axis] = 2 * M
        padded = np.zeros(padded_shape, dtype=complex)
        sl = [slice(None)] * out.ndim
        sl[axis] = slice(M // 2, M // 2 + M)
        padded[tuple(sl)] = out
        freq = np.fft.fftfreq(2 * M) * 2 * M
        phase = np.exp(2j * np.pi * freq * 0.5 / (2 * M))
        shape = [1] * out.ndim
        shape[axis] = 2 * M
        shifted = np.fft.ifft(np.fft.fft(padded, axis=axis) * phase.reshape(shape), axis=axis)
        sl[axis] = slice(0, 2 * M - 1)
        out = shifted[tuple(sl)]
    return out


def _convolve_reference(f: Field, g: Field) -> np.ndarray:
    """Readable any-dimension path: per-output gather over the difference lattice."""
    grid = f.grid
    M, n = grid.M, grid.n
    fd = _difference_resample(f.values, M).ravel()
    dim = 2 * n
    strides = [(2 * M - 1) ** (dim - 1 - a) for a in range(dim)]
    idx1d = np.arange(M)
    jmesh = np.meshgrid(*([idx1d] * dim), indexing="ij")
    jravel = sum(jm.ravel() * s for jm, s in zip(jmesh, strides))
    gw = (g.values * grid.weight_tensor).ravel()
    nodes = grid.axis
    # phase factors exp(+-i/2 * node_a * node_b), gathered per coordinate
    plus = np.exp(0.5j * np.outer(nodes, nodes))
    phase_rows = []
    for c in range(n):
        jx = jmesh[2 * c].ravel()
        jy = jmesh[2 * c + 1].ravel()
        phase_rows.append((plus[:, jx], np.conj(plus)[:, jy]))
    out = np.empty(grid.shape, dtype=complex)
    for i in np.ndindex(grid.shape):
        base = sum((i[a] + M - 1) * strides[a] for a in range(dim))
        vals = fd[base - jravel] * gw
        for c in range(n):
            ix, iy = i[2 * c], i[2 * c + 1]
            vals = vals * phase_rows[c][0][iy] * phase_rows[c][1][ix]
        out[i] = vals.sum()
    return out


def _convolve_fast_2d(f: Field, g: Field) -> np.ndarray:
    """Vectorized n=1 path; same quadrature sum as the reference implementation."""
    grid = f.grid
    M = grid.M
    fd = _difference_resample(f.values, M)
    nodes = grid.axis
    w = grid.axis_weights
    plus = np.exp(0.5j * np.outer(nodes, nodes))  # plus[iy, jx]
    gw = g.values * np.outer(w, w)
    out = np.empty((M, M), dtype=complex)
    for ix in range(M):
        rows = fd[ix + M - 1 - np.arange(M)]                  # rows[jx, m] = fd[ix-jx+M-1, m]
        # windows[jx, iy, r] = rows[jx, iy + r]; r = M-1-jy
        windows = np.lib.stride_tricks.sliding_window_view(rows, M, axis=1)
        g2 = gw * np.conj(plus)[ix]                           # g2[jx, jy]
        g2r = g2[:, ::-1]                                     # reindex jy -> r
        out[ix] = np.einsum("jir,jr,ij->i", windows, g2r, plus, optimize=True)
    return out


def twisted_convolve(f: Field, g: Field, method: str = "auto") -> Field:
    """Oscillatory convolution f x g with phase exp((i/2) Im(z . conj(w))).

    Direct quadrature at desk scale; values of f outside the domain are
    taken as zero (the fields of interest have Gaussian decay).
    """
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    if method == "auto":
        method = "fast" if f.grid.n == 1 else "reference"
    if method == "fast":
        if f.grid.n != 1:
            raise ValueError("fast path only implemented for n = 1")
        return Field(f.grid, _convolve_fast_2d(f, g))
    if method == "reference":
        return Field(f.grid, _convolve_reference(f, g))
    raise ValueError(f"unknown method {method!r}")


def phi_k_field(k: int, grid: GridSpec, quad_order: int | None = None) -> Field:
    """Diagonal eigenspace sum phi_k sampled on the grid."""
    return sample_field(grid, lambda *zs: _phi_k_point(k, np.stack(zs, axis=-1), grid.n, quad_order))


def forward_transform(f: Field, tr: Truncation, quad_order: int | None = None) -> SpectralCoeffs:
    """Coefficients (f, Phi_{mu nu}) for every pair in the truncation."""
    basis = cached_basis(tr, f.grid, quad_order)
    wvals = f.values * f.grid.weight_tensor
    coeffs = np.tensordot(np.conj(basis), wvals, axes=(tuple(range(1, basis.ndim)), tuple(range(wvals.ndim))))
    return SpectralCoeffs(tr, coeffs)


def inverse_transform(c: SpectralCoeffs, grid: GridSpec, quad_order: int | None = None) -> Field:
    basis = cached_basis(c.truncation, grid, quad_order)
    return Field(grid, np.tensordot(c.coeffs, basis, axes=(0, 0)))


def project_k(f: Field, k: int, tr: Truncation | None = None, method: str = "convolution") -> Field:
    """Projection onto the eigenspace of eigenvalue 2k + n.

    Two independent routes: twisted convolution with phi_k (default), or
    restriction of the spectral expansion to pairs with |nu| = k when a
    truncation is supplied.
    """
    n = f.grid.n
    if method == "convolution":
        return Field(
            f.grid,
            (2.0 * math.pi) ** (-n) * twisted_convolve(f, phi_k_field(k, f.grid)).values,
        )
    if method == "spectral":
        if tr is None:
            raise ValueError("spectral projection needs a truncation")
        if k > tr.k_max:
            raise ValueError(f"k={k} exceeds truncation degree {tr.k_max}")
        c = forward_transform(f, tr)
        mask = np.array([pair.nu.degree == k for pair in tr.index_set])
        return inverse_transform(SpectralCoeffs(tr, c.coeffs * mask), f.grid)
    raise ValueError(f"unknown method {method!r}")


_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _derivative_fd4(values: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    stencil = _D1 / h if order == 1 else _D2 / (h * h)
    return ndimage.correlate1d(values, stencil, axis=axis, mode="constant", cval=0.0)


def _derivative_fourier(values: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    m = values.shape[axis]
    kappa = 2.0 * np.pi * np.fft.fftfreq(m, d=h)
    mult = (1j * kappa) ** order
    shape = [1] * values.ndim
    shape[axis] = m
    return np.fft.ifft(np.fft.fft(values, axis=axis) * mult.reshape(shape), axis=axis)


def apply_twisted_laplacian(f: Field, method: str = "fourier") -> Field:
    """Apply the operator (1/2) sum_j (Z_j Zbar_j + Zbar_j Z_j) to sampled f.

    In real coordinates z_j = x_j + i y_j this is
    sum_j [ -(d_xx + d_yy) + (x_j^2 + y_j^2)/4 - i (x_j d_y - y_j d_x) ].

    ``method='fourier'`` differentiates spectrally (fields decay to ~1e-12 at
    the boundary, so the periodic wrap is negligible); ``method='fd4'`` uses
    4th-order centered stencils, whose truncation error dominates for high
    modes on desk-scale grids.
    """
    grid = f.grid
    if grid.M < 16:
        raise ValueError("grid too coarse for stable differentiation (need M >= 16)")
    deriv = _derivative_fourier if method == "fourier" else _derivative_fd4
    if method not in ("fourier", "fd4"):
        raise ValueError(f"unknown method {method!r}")
    h = grid.spacing
    coords = grid.zeta_coords()
    out = np.zeros(grid.shape, dtype=complex)
    for j in range(grid.n):
        ax_x, ax_y = 2 * j, 2 * j + 1
        x = coords[j].real
        y = coords[j].imag
        out += -(deriv(f.values, ax_x, h, 2) + deriv(f.values, ax_y, h, 2))
        out += 0.25 * (x * x + y * y) * f.values
        out += -1j * (x * deriv(f.values, ax_y, h, 1) - y * deriv(f.values, ax_x, h, 1))
    return Field(grid, out)
