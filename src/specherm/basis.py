"""Closed-form evaluation of the twisted-Laplacian eigenfunctions.

The two-index eigenfunctions factorize over the complex coordinates, and
each n = 1 factor is a phase times a normalized Laguerre function of
|zeta|^2 / 2 (the Hecke-Bochner structure of special Hermite expansions,
Thangavelu, *Lectures on Hermite and Laguerre Expansions*, 1993):

    Phi_{mu nu}(zeta) = (2 pi)^{-1/2} i^{|mu - nu|} e^{-i (mu - nu) theta} l^{|mu - nu|}_{min(mu, nu)}(|zeta|^2 / 2),

with zeta = |zeta| e^{i theta}.  The Laguerre functions come from their
normalized three-term recurrence, which stays bounded at every degree,
where raw Laguerre polynomials and factorial normalizations overflow.
Far from the origin the values underflow to exactly 0.0.
"""
from __future__ import annotations

import math
import operator

import numpy as np

from .indices import Truncation, multi_indices

# i^a for a mod 4, exact
_I_POWERS = np.array([1, 1j, -1, -1j])


def laguerre_table(k_max: int, s) -> np.ndarray:
    """Normalized Laguerre functions T[a, j, ...] = l_j^a(s) for a + j <= k_max; zero elsewhere.

    l_j^a(s) = (j! / (j + a)!)^{1/2} s^{a/2} e^{-s/2} L_j^{(a)}(s), from
    l_0^a = exp((a ln s - s - ln a!) / 2) and
    l_{j+1} = [(2j + 1 + a - s) l_j - (j (j + a))^{1/2} l_{j-1}] / ((j + 1)(j + 1 + a))^{1/2}.
    """
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore"):
        log_s = np.log(s)
    table = np.zeros((k_max + 1, k_max + 1) + s.shape)
    for a in range(k_max + 1):
        # a ln s is 0 at a = 0, also at s = 0
        ell_prev, ell = 0.0, np.exp(0.5 * ((a * log_s if a else 0.0) - s - math.lgamma(a + 1)))
        for j in range(k_max + 1 - a):
            table[a, j] = ell
            ell_next = ((2 * j + 1 + a - s) * ell - math.sqrt(j * (j + a)) * ell_prev) / math.sqrt((j + 1) * (j + 1 + a))
            ell, ell_prev = ell_next, ell
    return table


def _sh1d(mu, nu, x, y) -> np.ndarray:
    """n = 1 values Phi_{mu nu}(x + iy) for integer arrays mu and nu: shape (mu - nu).shape + x.shape."""
    mu, nu = np.asarray(mu), np.asarray(nu)
    d = mu - nu
    k_max = int(np.maximum(mu, nu).max())
    point_axes = (...,) + (None,) * x.ndim
    radial = laguerre_table(k_max, 0.5 * (x * x + y * y))[np.abs(d), np.minimum(mu, nu)]
    # e^{-i d theta} for every d in [-k_max, k_max], built once and indexed per row
    phases = np.exp(-1j * np.arange(-k_max, k_max + 1)[point_axes] * np.arctan2(y, x))
    return (2.0 * math.pi) ** (-0.5) * _I_POWERS[np.abs(d) % 4][point_axes] * phases[d + k_max] * radial


def _as_coords(zeta, n: int) -> tuple[np.ndarray, np.ndarray]:
    z = np.atleast_1d(np.asarray(zeta, dtype=complex))
    if z.shape[-1] != n and not (n == 1 and z.ndim == 1):
        raise ValueError(f"point has {z.shape[-1]} complex coordinates, expected {n}")
    if n == 1 and z.ndim == 1:
        z = z[..., None]
    return z.real, z.imag


def special_hermite(mu, nu, zeta) -> complex:
    """Two-index eigenfunction Phi_{mu nu}(zeta), zeta in C^n, for integer sequences mu and nu of length n.

    The product over coordinates j of the n = 1 closed form at (mu_j, nu_j).
    """
    mu, nu = (tuple(operator.index(e) for e in m) for m in (mu, nu))
    if not mu or len(mu) != len(nu):
        raise ValueError(f"need two multi-indices of the same length >= 1, got {mu} and {nu}")
    if min(mu + nu) < 0:
        raise ValueError(f"multi-index entries must be non-negative, got {mu} and {nu}")
    x, y = _as_coords(zeta, len(mu))
    out = 1.0 + 0.0j
    for j, (m, v) in enumerate(zip(mu, nu)):
        out = out * _sh1d(m, v, x[..., j], y[..., j])
    if np.ndim(out) == 0 or np.shape(out) == (1,):
        return complex(np.ravel(out)[0])
    return out


def phi_k(k: int, zeta, n: int):
    """Diagonal eigenspace sum (2 pi)^{n/2} * sum over |nu| = k of Phi_{nu nu}(zeta).

    By the Laguerre addition formula this is L_k^{(n-1)}(|zeta|^2 / 2) e^{-|zeta|^2 / 4}.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    nus = multi_indices(n, k)
    total = 0.0 + 0.0j
    for nu in nus[nus.sum(axis=1) == k]:
        total = total + special_hermite(nu, nu, zeta)
    return (2.0 * math.pi) ** (n / 2.0) * total


def basis_matrix(tr: Truncation, grid) -> np.ndarray:
    """Samples of every basis function in ``tr`` on ``grid``.

    Returns a complex array of shape (len(tr), *grid.shape); rows follow the
    truncation's ordering.
    """
    # one n = 1 table T[mu, nu, x, y] on the M x M plane; Phi_{mu nu} is the outer product of n of its entries
    x, y = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    degrees = np.arange(tr.k_max + 1)
    table = _sh1d(degrees[:, None], degrees[None, :], x, y)
    out = table[tr.mu[:, 0], tr.nu[:, 0]]
    for j in range(1, tr.n):
        factor = table[tr.mu[:, j], tr.nu[:, j]]
        out = out[..., None, None] * np.expand_dims(factor, tuple(range(1, out.ndim)))
    return out
