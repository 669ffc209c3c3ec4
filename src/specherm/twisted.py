"""Twisted convolution, the two-index spectral transform, and the operator itself.

The convolution is a direct quadrature sum by one n = 1 kernel.  Every g
convolved with here is a product over the complex coordinates, as is the
phase exp((i/2) Im(z . conj(w))), so an n >= 2 convolution is n passes of
that kernel, one per coordinate, the others in the batch.  Grid differences
z_i - w_j fall on a lattice offset by half a spacing from the sample
lattice (the axes have an even point count), so the first factor is
resampled once onto that difference lattice with an FFT phase shift (as a
matrix, applied to both axes of the whole batch); the fields handled here
decay like exp(-|z|^2/4), which makes both the periodization and the
zero-extension outside the domain negligible.  The g side of the kernel
depends on g alone, so a ``TwistedConvolver`` builds it once per factor and
reuses it for every batch it convolves.
"""
from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .basis import basis_matrix
from .grids import Field, GridSpec
from .indices import Truncation

# bases kept, least recently used evicted first: one n = 2 basis at M = 24 is 191 MB
_BASIS_CACHE_SIZE = 4
_BASIS_CACHE: OrderedDict = OrderedDict()


def cached_basis(tr: Truncation, grid: GridSpec) -> np.ndarray:
    """Sampled basis of ``basis_matrix``, shared by every caller and therefore read-only.

    A truncation and a grid of different dimension n are rejected before anything is built.
    """
    if tr.n != grid.n:
        raise ValueError(f"truncation of dimension n = {tr.n} on a grid of dimension n = {grid.n}")
    key = (tr, grid)
    basis = _BASIS_CACHE.pop(key, None)
    if basis is None:
        basis = basis_matrix(tr, grid)
        basis.setflags(write=False)
    _BASIS_CACHE[key] = basis
    if len(_BASIS_CACHE) > _BASIS_CACHE_SIZE:
        _BASIS_CACHE.popitem(last=False)
    return basis


def coefficient_vector(c, tr: Truncation) -> np.ndarray:
    """``c`` as a complex array over the truncation; ValueError unless it has one finite entry per pair."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (len(tr),):
        raise ValueError("coefficient vector does not match truncation size")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    return c


def _difference_samples(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Each field of ``values`` (B, M, M) on the difference lattice, times exp(-(i/2) u v).

    Both axes are zero-padded to 2M, shifted half an index by a Fourier phase
    and cut to {k h : |k| <= M-1} (index k + M - 1), whose x and y coordinates are u and v.
    That map is the (2M-1) x M matrix S, built by applying it to the identity,
    so the batch is resampled as S f S^T in two matrix products.  The result
    is a view of a [v, b, u] array, the layout the kernel transforms in.
    """
    M, B = grid.M, len(values)
    # offset M/2 into the padding (exactly (-i)^k, M being even), then half an index
    shift = np.array([1, -1j, -1, 1j])[np.arange(2 * M) % 4] * np.exp(1j * np.pi * np.fft.fftfreq(2 * M))
    S = np.fft.ifft(np.fft.fft(np.eye(M), n=2 * M, axis=0) * shift[:, None], axis=0)[: 2 * M - 1]
    lattice = np.arange(1 - M, M) * grid.spacing
    rows = values.transpose(2, 0, 1).reshape(M * B, M) @ S.T  # [y, b, u]
    out = (S @ rows.reshape(M, B * (2 * M - 1))).reshape(2 * M - 1, B, 2 * M - 1)  # [v, b, u]
    out *= np.exp(-0.5j * np.outer(lattice, lattice))[:, None]  # symmetric in u and v
    return out.transpose(1, 2, 0)


def _kernel_spectrum(g: Field) -> np.ndarray:
    """The g side of the n = 1 kernel, which depends on g alone: [x_z, k, w] with x_w = M-1-w.

    For each output x_z, the y-spectrum (FFT length 2M) of g(x_w, y) times its
    quadrature weight, exp((i/2) x_w y) and exp(-i x_z y); 2 M^3 complex entries.
    """
    grid, M = g.grid, g.grid.M
    phase = np.exp(0.5j * np.outer(grid.axis, grid.axis))  # exp((i/2) a b) for axis points a, b
    weighted = np.ascontiguousarray((g.values * grid.weight_tensor * phase)[::-1].T)  # [y_w, w]
    return np.fft.fft(np.conj(phase)[:, :, None] ** 2 * weighted, n=2 * M, axis=1)


def _convolve_plane(values: np.ndarray, ghat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The n = 1 kernel: twisted convolution of each field of ``values`` (B, M, M) with the g of ``ghat``."""
    M = grid.M
    fhat = np.fft.fft(_difference_samples(values, grid).transpose(2, 0, 1), n=2 * M, axis=0)  # [k, b, x diff]
    # f at x_z - x_w for x_w = M-1-w: window i holds the M differences from x_z's own index on
    windows = np.lib.stride_tricks.sliding_window_view(fhat, M, axis=2).transpose(2, 0, 1, 3)  # [x_z, k, b, w]
    sums = (windows @ ghat[..., None])[..., 0]  # [x_z, k, b]
    del fhat, windows  # the call's largest array, freed before the inverse transform allocates
    out = np.fft.ifft(sums.transpose(2, 0, 1), axis=-1)
    return out[..., M - 1 : 2 * M - 1] * np.exp(0.5j * np.outer(grid.axis, grid.axis))  # the y output window


# complex entries of the batch given to one kernel call: each one-coordinate
# field passes through difference-lattice spectra several times its size
_CHUNK_ENTRIES = 2**18


class TwistedConvolver:
    """Twisted convolution with one g, applied to any number of batches of fields.

    g = g_1(z_1) ... g_n(z_n) is given by the tuple of its factors on the
    one-coordinate grid ``make_grid(1, L, M)``; at n = 1 a lone Field also
    does.  The kernel spectrum of each distinct factor (``_kernel_spectrum``;
    the same object passed twice is one factor) is built here, once, and
    held as long as the convolver is.
    """

    def __init__(self, g):
        factors = (g,) if isinstance(g, Field) else tuple(g)
        self.grid = factors[0].grid
        if self.grid.n != 1:
            raise ValueError("an n >= 2 g is given by its n factors on the one-coordinate grid")
        if any(h.grid != self.grid for h in factors):
            raise ValueError("fields live on different grids")
        spectra: dict = {}
        for h in factors:
            if id(h) not in spectra:
                spectra[id(h)] = _kernel_spectrum(h)
        self._spectra = [spectra[id(h)] for h in factors]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Twisted convolution of each field in ``values`` (shape (B, *grid.shape)) with g.

        The phase and the quadrature split over the coordinates, so pass j
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
        values = np.asarray(values)
        M, n = self.grid.M, len(self._spectra)
        if values.ndim != 1 + 2 * n:
            raise ValueError(f"g has {n} factor(s), one per complex coordinate, "
                             f"but the fields have dimension {(values.ndim - 1) / 2:g}")
        if values.shape[1:] != (M,) * (2 * n):
            raise ValueError("fields live on different grids")
        out, step = values, max(1, _CHUNK_ENTRIES // (M * M))
        for j, ghat in enumerate(self._spectra):
            planes = np.moveaxis(out, (1 + 2 * j, 2 + 2 * j), (-2, -1))
            flat = planes.reshape(-1, M, M)
            done = np.empty(flat.shape, dtype=complex)
            for start in range(0, len(flat), step):
                done[start : start + step] = _convolve_plane(flat[start : start + step], ghat, self.grid)
            out = np.moveaxis(done.reshape(planes.shape), (-2, -1), (1 + 2 * j, 2 + 2 * j))
        return out


def twisted_convolve(f: Field, g) -> Field:
    """Oscillatory convolution f x g with phase exp((i/2) Im(z . conj(w))).

    g is as in ``TwistedConvolver``; values of f outside the domain are
    taken as zero (the fields of interest have Gaussian decay).
    """
    if (g if isinstance(g, Field) else g[0]).grid.L != f.grid.L:
        raise ValueError("fields live on different grids")
    return Field(f.grid, TwistedConvolver(g).apply(f.values[None])[0])


def forward_transform(f: Field, tr: Truncation) -> np.ndarray:
    """Coefficients (f, Phi_{mu nu}) for every pair in the truncation, in its order."""
    basis = cached_basis(tr, f.grid)
    wvals = f.values * f.grid.weight_tensor
    return np.tensordot(np.conj(basis), wvals, axes=(tuple(range(1, basis.ndim)), tuple(range(wvals.ndim))))


def inverse_transform(c, tr: Truncation, grid: GridSpec) -> Field:
    """The expansion sum_p c_p Phi_p over the truncation, sampled on the grid."""
    return Field(grid, np.tensordot(coefficient_vector(c, tr), cached_basis(tr, grid), axes=(0, 0)))


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
