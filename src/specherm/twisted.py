"""Twisted convolution, the two-index spectral transform, and the operator itself.

The convolution is a direct quadrature sum by one n = 1 kernel.  Every g
convolved with here is a product over the complex coordinates, as is the
phase exp((i/2) Im(z . conj(w))), so an n >= 2 convolution is n passes of
that kernel, one per coordinate, the others in the batch.  Grid differences
z_i - w_j fall on a lattice offset by half a spacing from the sample
lattice (the axes have an even point count), so the first factor is
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
from .grids import Field, GridSpec, make_grid, sample_field
from .indices import Truncation, multi_indices

# bases kept, least recently used evicted first: one n = 2 basis at M = 24 is 191 MB
_BASIS_CACHE_SIZE = 4
_BASIS_CACHE: OrderedDict = OrderedDict()


def cached_basis(tr: Truncation, grid: GridSpec) -> np.ndarray:
    """Sampled basis of ``basis_matrix``, shared by every caller and therefore read-only."""
    key = (tr, grid)
    basis = _BASIS_CACHE.pop(key, None)
    if basis is None:
        basis = basis_matrix(tr, grid)
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


def _difference_samples(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Each field of ``values`` (B, M, M) on the difference lattice, times exp(-(i/2) u v).

    Both axes are zero-padded to 2M, shifted half an index by a Fourier phase
    and cut to {k h : |k| <= M-1} (index k + M - 1), whose x and y coordinates are u and v.
    """
    M = grid.M
    # offset M/2 into the padding (exactly (-i)^k, M being even), then half an index
    shift = np.array([1, -1j, -1, 1j])[np.arange(2 * M) % 4] * np.exp(1j * np.pi * np.fft.fftfreq(2 * M))
    lattice = np.arange(1 - M, M) * grid.spacing
    out = np.fft.ifft(np.fft.fft(values, n=2 * M, axis=1) * shift[:, None], axis=1)[:, : 2 * M - 1]
    out = np.fft.ifft(np.fft.fft(out, n=2 * M, axis=2) * shift, axis=2)[:, :, : 2 * M - 1]
    return out * np.exp(-0.5j * np.outer(lattice, lattice))


def _convolve_plane(values: np.ndarray, g: Field) -> np.ndarray:
    """The n = 1 kernel: twisted convolution of each field of ``values`` (B, M, M) with g."""
    grid, M = g.grid, g.grid.M
    phase = np.exp(0.5j * np.outer(grid.axis, grid.axis))  # exp((i/2) a b) for axis points a, b
    ghat = np.fft.fft(g.values * grid.weight_tensor * phase * np.conj(phase[:, None]) ** 2, n=2 * M, axis=-1)
    ghat = np.ascontiguousarray(ghat[:, ::-1].transpose(0, 2, 1))  # [x_z, k, w], x_w = M-1-w
    fd = _difference_samples(values, grid)
    fhat = np.moveaxis(np.fft.fft(fd, n=2 * M, axis=-1), -1, 0).copy()  # [k, b, x diff]
    sums = np.empty((M, 2 * M, len(fd)), dtype=complex)  # [x_z, k, b]
    for i in range(M):
        # f at x_z - x_w for x_w = M-1-w: the M differences from x_z's own index on
        sums[i] = (fhat[:, :, i : i + M] @ ghat[i, :, :, None])[..., 0]
    out = np.fft.ifft(sums.transpose(2, 0, 1), axis=-1)
    return out[..., M - 1 : 2 * M - 1] * phase  # the output window of the y axis


# complex entries of the batch given to one kernel call: each one-coordinate
# field passes through difference-lattice spectra several times its size
_CHUNK_ENTRIES = 2**18


def twisted_convolve_batch(values: np.ndarray, g) -> np.ndarray:
    """Twisted convolution of each field in ``values`` (shape (B, *grid.shape)) with g.

    g = g_1(z_1) ... g_n(z_n) is given by the tuple of its factors on the
    one-coordinate grid ``make_grid(1, L, M)``; at n = 1 a lone Field also
    does.  The phase and the quadrature split over the coordinates, so pass j
    convolves every (x_j, y_j) plane of the batch with g_j, at most
    ``_CHUNK_ENTRIES`` entries per kernel call.

    In a plane, with u = x_z - x_w and v = y_z - y_w the phase splits as
    y_z x_w - x_z y_w = x_z y_z - u v - y_w (2 x_z - x_w): a factor of the
    output point, one of the difference (taken into f) and one of the output
    x and the point w (taken into g).  For a fixed output x the sum over w is
    a sum over x_w of y-convolutions: in y-frequency space (FFTs of length
    2M, which keep wrap-around off the output window) one matrix product per
    frequency, then one inverse FFT.  A plane costs O(M^3), a call O(n B M^{2n+1}).
    """
    factors = (g,) if isinstance(g, Field) else tuple(g)
    grid = factors[0].grid
    if grid.n != 1:
        raise ValueError("an n >= 2 g is given by its n factors on the one-coordinate grid")
    M, n = grid.M, len(factors)
    if any(h.grid != grid for h in factors) or np.shape(values)[1:] != (M,) * (2 * n):
        raise ValueError("fields live on different grids")
    out, step = np.asarray(values), max(1, _CHUNK_ENTRIES // (M * M))
    for j, factor in enumerate(factors):
        planes = np.moveaxis(out, (1 + 2 * j, 2 + 2 * j), (-2, -1))
        flat = planes.reshape(-1, M, M)
        done = np.empty(flat.shape, dtype=complex)
        for start in range(0, len(flat), step):
            done[start : start + step] = _convolve_plane(flat[start : start + step], factor)
        out = np.moveaxis(done.reshape(planes.shape), (-2, -1), (1 + 2 * j, 2 + 2 * j))
    return out


def twisted_convolve(f: Field, g) -> Field:
    """Oscillatory convolution f x g with phase exp((i/2) Im(z . conj(w))).

    g is as in ``twisted_convolve_batch``; values of f outside the domain are
    taken as zero (the fields of interest have Gaussian decay).
    """
    if (g if isinstance(g, Field) else g[0]).grid.L != f.grid.L:
        raise ValueError("fields live on different grids")
    return Field(f.grid, twisted_convolve_batch(f.values[None], g)[0])


def phi_k_field(k: int, grid: GridSpec) -> Field:
    """Diagonal eigenspace sum phi_k sampled on the grid."""
    return sample_field(grid, lambda *zs: _phi_k_point(k, np.stack(zs, axis=-1), grid.n))


def forward_transform(f: Field, tr: Truncation) -> SpectralCoeffs:
    """Coefficients (f, Phi_{mu nu}) for every pair in the truncation."""
    basis = cached_basis(tr, f.grid)
    wvals = f.values * f.grid.weight_tensor
    coeffs = np.tensordot(np.conj(basis), wvals, axes=(tuple(range(1, basis.ndim)), tuple(range(wvals.ndim))))
    return SpectralCoeffs(tr, coeffs)


def inverse_transform(c: SpectralCoeffs, grid: GridSpec) -> Field:
    basis = cached_basis(c.truncation, grid)
    return Field(grid, np.tensordot(c.coeffs, basis, axes=(0, 0)))


def project_k(f: Field, k: int) -> Field:
    """Projection onto the eigenspace of eigenvalue 2k + n: P_k f = (2 pi)^{-n} f x phi_k."""
    n = f.grid.n
    # phi_k = sum over k_1 + ... + k_n = k of phi_{k_1}(z_1) ... phi_{k_n}(z_n)
    plane = make_grid(1, f.grid.L, f.grid.M)
    parts = [twisted_convolve(f, tuple(phi_k_field(kj, plane) for kj in nu.entries)).values
             for nu in multi_indices(n, k) if nu.degree == k]
    return Field(f.grid, (2.0 * math.pi) ** (-n) * sum(parts))


def _derivatives(values: np.ndarray, axis: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """First and second spectral derivatives along ``axis``, from one FFT."""
    m = values.shape[axis]
    shape = [1] * values.ndim
    shape[axis] = m
    kappa = 2.0 * np.pi * np.fft.fftfreq(m, d=h)
    mult = (1j * kappa).reshape(shape)
    spectrum = np.fft.fft(values, axis=axis)
    return np.fft.ifft(spectrum * mult, axis=axis), np.fft.ifft(spectrum * mult**2, axis=axis)


def apply_twisted_laplacian(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Apply the operator (1/2) sum_j (Z_j Zbar_j + Zbar_j Z_j) to each field of ``values`` (..., *grid.shape).

    In real coordinates z_j = x_j + i y_j this is
    sum_j [ -(d_xx + d_yy) + (x_j^2 + y_j^2)/4 - i (x_j d_y - y_j d_x) ].

    Derivatives are spectral (fields decay to ~1e-12 at the boundary, so the
    periodic wrap is negligible); leading axes are a batch.
    """
    if grid.M < 16:
        raise ValueError("grid too coarse for stable differentiation (need M >= 16)")
    h = grid.spacing
    coords = grid.zeta_coords()
    out = np.zeros(values.shape, dtype=complex)
    for j in range(grid.n):
        ax_x = 2 * j - 2 * grid.n
        x = coords[j].real
        y = coords[j].imag
        dx, dxx = _derivatives(values, ax_x, h)
        dy, dyy = _derivatives(values, ax_x + 1, h)
        out += -(dxx + dyy)
        out += 0.25 * (x * x + y * y) * values
        out += -1j * (x * dy - y * dx)
    return out
