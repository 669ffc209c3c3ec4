"""Stable evaluation of Hermite and twisted-Laplacian eigenfunctions.

All evaluations go through the normalized three-term recurrence; raw
Hermite polynomials with factorial normalization overflow long before
degree 64.  The two-index eigenfunctions are defined through a Wigner-type
integral which factorizes coordinate-wise; each 1D factor is computed with
Gauss-Hermite quadrature after shifting the contour so the oscillatory
phase is absorbed into the Gaussian weight, which makes the rule exact for
the remaining polynomial integrand.
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from .indices import Truncation, multi_indices

# underflow threshold for the e^{-|zeta|^2/4} envelope: beyond this the
# value is exactly 0.0 in double precision
_ENVELOPE_CUTOFF = 2960.0


def default_quad_order(k_max: int) -> int:
    return 2 * k_max + 20


@lru_cache(maxsize=32)
def _gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.hermite.hermgauss(order)
    return x, w


def hermite_1d(k: int, x):
    """Normalized Hermite function h_k(x) = (2^k sqrt(pi) k!)^{-1/2} H_k(x) e^{-x^2/2}.

    Evaluated via h_{k+1}(x) = x sqrt(2/(k+1)) h_k(x) - sqrt(k/(k+1)) h_{k-1}(x),
    which is uniformly stable and bounded for all degrees.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    x = np.asarray(x, dtype=float)
    h_prev = np.zeros_like(x)
    h = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    for j in range(k):
        h, h_prev = x * math.sqrt(2.0 / (j + 1)) * h - math.sqrt(j / (j + 1)) * h_prev, h
    return h if h.shape else float(h)


def _poly_table(k_max: int, arg: np.ndarray) -> np.ndarray:
    """p_k(arg) for k = 0..k_max, where h_k = p_k * exp(-arg^2/2).

    Same recurrence as ``hermite_1d`` with the Gaussian stripped; supports
    complex arguments (needed after the contour shift).
    """
    out = np.empty((k_max + 1,) + arg.shape, dtype=complex)
    out[0] = math.pi ** (-0.25)
    if k_max >= 1:
        out[1] = arg * math.sqrt(2.0) * out[0]
    for j in range(1, k_max):
        out[j + 1] = arg * math.sqrt(2.0 / (j + 1)) * out[j] - math.sqrt(j / (j + 1)) * out[j - 1]
    return out


def _sh1d_table(k_max: int, x: np.ndarray, y: np.ndarray, quad_order: int) -> np.ndarray:
    """All 1D two-index values T[mu, nu, ...] at zeta = x + iy for degrees <= k_max.

    1D core:  (2 pi)^{-1/2} * integral of e^{i x xi} h_mu(xi + y/2) h_nu(xi - y/2).
    Substituting xi = u + ix/2 turns the integrand into
    e^{-(x^2+y^2)/4} p_mu(u + (y+ix)/2) p_nu(u + (ix-y)/2) e^{-u^2},
    so Gauss-Hermite in u is exact once the order exceeds the polynomial
    degree; the default order carries margin well beyond that.
    """
    nodes, weights = _gauss_hermite(quad_order)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # points past the envelope cutoff evaluate to exactly 0.0; clip them out
    # so the polynomial factor cannot overflow before the envelope kills it
    far = x * x + y * y > _ENVELOPE_CUTOFF
    if np.any(far):
        x = np.where(far, 0.0, x)
        y = np.where(far, 0.0, y)
    shift = 0.5 * (1j * x)
    a = nodes.reshape((-1,) + (1,) * x.ndim) + shift + 0.5 * y
    b = nodes.reshape((-1,) + (1,) * x.ndim) + shift - 0.5 * y
    pa = _poly_table(k_max, a)
    pb = _poly_table(k_max, b)
    envelope = np.exp(-0.25 * (x * x + y * y))
    table = np.einsum("q,aq...,bq...->ab...", weights, pa, pb)
    out = (2.0 * math.pi) ** (-0.5) * envelope * table
    if np.any(far):
        out = np.where(far, 0.0, out)
    return out


def _as_coords(zeta, n: int) -> tuple[np.ndarray, np.ndarray]:
    z = np.atleast_1d(np.asarray(zeta, dtype=complex))
    if z.shape[-1] != n and not (n == 1 and z.ndim == 1):
        raise ValueError(f"point has {z.shape[-1]} complex coordinates, expected {n}")
    if n == 1 and z.ndim == 1:
        z = z[..., None]
    return z.real, z.imag


def special_hermite(mu, nu, zeta) -> complex:
    """Two-index eigenfunction Phi_{mu nu}(zeta), zeta in C^n, for integer sequences mu and nu of length n.

    The defining integral factorizes over coordinates, so this is a product
    of n one-dimensional quadratures at the order of the larger of |mu| and |nu|.
    """
    mu, nu = (tuple(operator.index(e) for e in m) for m in (mu, nu))
    if not mu or len(mu) != len(nu):
        raise ValueError(f"need two multi-indices of the same length >= 1, got {mu} and {nu}")
    if min(mu + nu) < 0:
        raise ValueError(f"multi-index entries must be non-negative, got {mu} and {nu}")
    quad_order = default_quad_order(max(sum(mu), sum(nu)))
    x, y = _as_coords(zeta, len(mu))
    out = 1.0 + 0.0j
    for j, (m, v) in enumerate(zip(mu, nu)):
        out = out * _sh1d_table(max(m, v), x[..., j], y[..., j], quad_order)[m, v]
    if np.ndim(out) == 0 or np.shape(out) == (1,):
        return complex(np.ravel(out)[0])
    return out


def phi_k(k: int, zeta, n: int):
    """Diagonal eigenspace sum (2 pi)^{n/2} * sum over |nu| = k of Phi_{nu nu}(zeta)."""
    if k < 0:
        raise ValueError("degree must be non-negative")
    nus = multi_indices(n, k)
    total = 0.0 + 0.0j
    for nu in nus[nus.sum(axis=1) == k]:
        total = total + special_hermite(nu, nu, zeta)
    return (2.0 * math.pi) ** (n / 2.0) * total


def basis_matrix(tr: Truncation, grid) -> np.ndarray:
    """Samples of every basis function in ``tr`` on ``grid``, at the quadrature order k_max needs.

    Returns a complex array of shape (len(tr), *grid.shape); rows follow the
    truncation's ordering.
    """
    # one 1D table T[mu, nu, x, y] on the M x M plane; Phi_{mu nu} is the outer product of n of its entries
    x, y = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    table = _sh1d_table(tr.k_max, x, y, default_quad_order(tr.k_max))
    out = table[tr.mu[:, 0], tr.nu[:, 0]]
    for j in range(1, tr.n):
        factor = table[tr.mu[:, j], tr.nu[:, j]]
        out = out[..., None, None] * np.expand_dims(factor, tuple(range(1, out.ndim)))
    return out
