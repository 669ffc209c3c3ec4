"""Twisted convolution, the two-index spectral transform, and the operator itself.

The convolution is a direct quadrature sum in factorized form.  Grid
differences z_i - w_j fall on a lattice offset by half a spacing from the
sample lattice (the axes have an even point count), so the first factor is
resampled once onto that difference lattice with an FFT phase shift; the
fields handled here decay like exp(-|z|^2/4), which makes both the
periodization and the zero-extension outside the domain negligible.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .basis import basis_matrix, phi_k as _phi_k_point
from .grids import Field, GridSpec, sample_field
from .indices import Truncation

# bases kept, least recently used evicted first: one n = 2 basis at M = 24 is 191 MB
_BASIS_CACHE_SIZE = 4
_BASIS_CACHE: OrderedDict = OrderedDict()


def cached_basis(tr: Truncation, grid: GridSpec, quad_order: int | None = None) -> np.ndarray:
    """Sampled basis of ``basis_matrix``, shared by every caller and therefore read-only."""
    key = (tr, grid, quad_order)
    basis = _BASIS_CACHE.pop(key, None)
    if basis is None:
        basis = basis_matrix(tr, grid, quad_order)
        basis.setflags(write=False)
    _BASIS_CACHE[key] = basis
    if len(_BASIS_CACHE) > _BASIS_CACHE_SIZE:
        _BASIS_CACHE.popitem(last=False)
    return basis


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

    def copy(self) -> "SpectralCoeffs":
        return SpectralCoeffs(self.truncation, self.coeffs.copy())


def _difference_samples(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Each field of ``values`` (B, *grid.shape) on the difference lattice, times exp(-(i/2) u.v).

    Every axis is zero-padded to 2M, shifted half an index by a Fourier phase
    and cut to {k h : |k| <= M-1} (index k + M - 1), whose x and y coordinates are u and v.
    """
    M, n = grid.M, grid.n
    # offset M/2 into the padding (exactly (-i)^k, M being even), then half an index
    shift = np.array([1, -1j, -1, 1j])[np.arange(2 * M) % 4] * np.exp(1j * np.pi * np.fft.fftfreq(2 * M))
    lattice = np.arange(1 - M, M) * grid.spacing
    chirp = np.exp(-0.5j * np.outer(lattice, lattice))
    out = values
    for axis in range(1, 2 * n + 1):
        shape = [1] * out.ndim
        shape[axis] = 2 * M
        out = np.fft.ifft(np.fft.fft(out, n=2 * M, axis=axis) * shift.reshape(shape), axis=axis)
        out = out[(slice(None),) * axis + (slice(0, 2 * M - 1),)]
    for c in range(n):
        out = out * np.expand_dims(chirp, [a for a in range(2 * n + 1) if a not in (1 + 2 * c, 2 + 2 * c)])
    return out


# complex entries per chunk of output x rows: bounds the g-side spectra held at once
_CHUNK_ENTRIES = 2**15


def _y_spectrum(a: np.ndarray, M: int, n: int) -> np.ndarray:
    """FFT of length 2M along each of the n trailing (y) axes, zero-padding them."""
    for axis in range(-n, 0):
        a = np.fft.fft(a, n=2 * M, axis=axis)
    return a


def twisted_convolve_batch(values: np.ndarray, g: Field) -> np.ndarray:
    """Twisted convolution of each field in ``values`` (shape (B, *grid.shape)) with g.

    With u = x_z - x_w and v = y_z - y_w the phase splits as
    y_z.x_w - x_z.y_w = x_z.y_z - u.v - y_w.(2 x_z - x_w): a factor of the
    output point, one of the difference (taken into f) and one of the output
    x and the point w (taken into g).  For a fixed output x multi-index the
    sum over w is then a sum over x_w of y-convolutions.  In y-frequency
    space (FFTs of length 2M per y axis; 2M - 1 points already keep
    wrap-around off the output window) that sum is one matrix product per
    frequency, followed by one inverse FFT per output x row.  The g-side
    spectra, O(M^{3n} log M), are computed once per chunk of output x rows
    and shared by the whole batch; each field then costs O(M^{3n}).
    """
    grid = g.grid
    if np.shape(values)[1:] != grid.shape:
        raise ValueError("fields live on different grids")
    M, n = grid.M, grid.n
    K = (2 * M) ** n  # y frequencies
    xy = [0] + [1 + a for a in (*range(0, 2 * n, 2), *range(1, 2 * n, 2))]  # batch, x axes, y axes
    ix = np.indices((M,) * n).reshape(n, -1)  # flat x multi-index -> coordinates
    plus = np.exp(0.5j * np.outer(grid.axis, grid.axis))
    # exp((i/2) x_a . x_b) for flat x multi-indices a, b, shaped [a, *b]
    phase = np.prod(plus[ix[:, :, None], ix[:, None, :]], axis=0).reshape((M**n,) + (M,) * n)
    gw = (g.values * grid.weight_tensor)[None].transpose(xy).reshape(phase.shape) * phase
    fd = _difference_samples(values, grid).transpose(xy)
    fhat = np.moveaxis(_y_spectrum(fd, M, n).reshape(fd.shape[: n + 1] + (K,)), -1, 0).copy()  # [k, b, *x diff]
    sums = np.empty((M**n, K, len(fd)), dtype=complex)  # [ix, k, b]
    step = max(1, _CHUNK_ENTRIES // (M**n * K))
    for start in range(0, M**n, step):
        rows = slice(start, start + step)
        ghat = _y_spectrum(gw * np.conj(phase[rows, None]) ** 2, M, n).reshape(-1, M**n, K)
        ghat = np.ascontiguousarray(ghat[:, ::-1].transpose(0, 2, 1))  # [ix, k, w], jx = M-1-w per coordinate
        for r, i in enumerate(range(M**n)[rows]):
            # f at x_z - x_w for jx = M-1-w: the M differences from x_z's own index on, per coordinate
            window = fhat[(slice(None),) * 2 + tuple(slice(c, c + M) for c in ix[:, i])]
            sums[i] = (window.reshape(K, -1, M**n) @ ghat[r, :, :, None])[..., 0]
    out = np.fft.ifftn(sums.transpose(2, 0, 1).reshape((-1, M**n) + (2 * M,) * n), axes=range(-n, 0))
    out = out[(Ellipsis,) + (slice(M - 1, 2 * M - 1),) * n] * phase  # the output window of each y axis
    return out.reshape((-1,) + (M,) * (2 * n)).transpose(np.argsort(xy))


def twisted_convolve(f: Field, g: Field) -> Field:
    """Oscillatory convolution f x g with phase exp((i/2) Im(z . conj(w))).

    Direct quadrature at desk scale (see ``twisted_convolve_batch``); values
    of f outside the domain are taken as zero (the fields of interest have
    Gaussian decay).
    """
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return Field(f.grid, twisted_convolve_batch(f.values[None], g)[0])


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


def _derivative(values: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    m = values.shape[axis]
    kappa = 2.0 * np.pi * np.fft.fftfreq(m, d=h)
    mult = (1j * kappa) ** order
    shape = [1] * values.ndim
    shape[axis] = m
    return np.fft.ifft(np.fft.fft(values, axis=axis) * mult.reshape(shape), axis=axis)


def apply_twisted_laplacian(f: Field) -> Field:
    """Apply the operator (1/2) sum_j (Z_j Zbar_j + Zbar_j Z_j) to sampled f.

    In real coordinates z_j = x_j + i y_j this is
    sum_j [ -(d_xx + d_yy) + (x_j^2 + y_j^2)/4 - i (x_j d_y - y_j d_x) ].

    Derivatives are spectral (fields decay to ~1e-12 at the boundary, so the
    periodic wrap is negligible).
    """
    grid = f.grid
    if grid.M < 16:
        raise ValueError("grid too coarse for stable differentiation (need M >= 16)")
    h = grid.spacing
    coords = grid.zeta_coords()
    out = np.zeros(grid.shape, dtype=complex)
    for j in range(grid.n):
        ax_x, ax_y = 2 * j, 2 * j + 1
        x = coords[j].real
        y = coords[j].imag
        out += -(_derivative(f.values, ax_x, h, 2) + _derivative(f.values, ax_y, h, 2))
        out += 0.25 * (x * x + y * y) * f.values
        out += -1j * (x * _derivative(f.values, ax_y, h, 1) - y * _derivative(f.values, ax_x, h, 1))
    return Field(grid, out)
