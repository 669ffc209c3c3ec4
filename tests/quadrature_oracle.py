"""Gauss-Hermite route to the n = 1 special Hermite values: an independent oracle.

Each value is the defining Wigner-type integral, evaluated by Gauss-Hermite
quadrature after shifting the contour so the oscillatory phase is absorbed
into the Gaussian weight.  The sum cancels at high degree, so the route
holds to about 1e-11 only up to k_max 12; ``specherm.basis`` uses the
closed Laguerre form instead, and the tests compare the two.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

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
