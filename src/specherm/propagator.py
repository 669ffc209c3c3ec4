"""Complex-time semigroup and unitary propagator of the twisted Laplacian.

Two independent realizations: a closed-form Gaussian kernel applied by
twisted convolution, and a diagonal multiplier in coefficient space.  The
time argument is reduced mod 2*pi before any exponential is formed so that
periodicity holds bit-exactly.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .grids import Field, GridSpec, make_grid, time_nodes
from .indices import Truncation
from .twisted import cached_basis, coefficient_vector, twisted_convolve

_TWO_PI = 2.0 * math.pi


class SingularTimeError(ValueError):
    """Kernel evaluation requested at a parameter where 1 - e^{-2 eta} vanishes."""


@dataclass(frozen=True)
class ComplexTime:
    """Semigroup parameter eta = r + i t with r >= 0 and t in [-pi, pi]."""

    r: float
    t: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("real part must be non-negative")
        if not (-math.pi <= self.t <= math.pi):
            raise ValueError("imaginary part must lie in [-pi, pi]; use ComplexTime.reduced")

    @classmethod
    def reduced(cls, r: float, t: float) -> "ComplexTime":
        return cls(r, math.remainder(t, _TWO_PI))

    @property
    def eta(self) -> complex:
        return complex(self.r, self.t)


def mehler_kernel(eta: ComplexTime, zeta, n: int = 1):
    """Closed-form semigroup kernel.

    K_eta(z) = (2 pi)^{-n} e^{-n eta} (1 - w)^{-n} exp(-((1+w)/(1-w)) |z|^2 / 4),
    w = e^{-2 eta}.  Singular exactly where 1 - w vanishes (eta = 0 or
    purely imaginary with sin t = 0).
    """
    w = cmath.exp(-2.0 * eta.eta)
    one_minus = 1.0 - w
    if abs(one_minus) <= 1e-12:
        raise SingularTimeError(f"kernel singular at eta={eta.eta}")
    z = np.asarray(zeta, dtype=complex)
    if n == 1 and (z.ndim == 0 or z.shape[-1] != 1):
        r2 = np.abs(z) ** 2
    else:
        r2 = np.sum(np.abs(z) ** 2, axis=-1)
    pref = (2.0 * math.pi) ** (-n) * cmath.exp(-n * eta.eta) * one_minus ** (-n)
    out = pref * np.exp(-((1.0 + w) / one_minus) * r2 / 4.0)
    return complex(out) if np.ndim(out) == 0 else out


def mehler_kernel_field(eta: ComplexTime, grid: GridSpec) -> Field:
    return Field(grid, mehler_kernel(eta, np.stack(grid.zeta_coords(), axis=-1), grid.n))


def evolve_spectral(c, tr: Truncation, eta: ComplexTime) -> np.ndarray:
    """Diagonal action on a coefficient vector over ``tr``: each entry is damped/rotated by e^{-eta (2|nu| + n)}."""
    return coefficient_vector(c, tr) * np.exp(-eta.eta * tr.eigenvalues)


def evolve_kernel(f: Field, eta: ComplexTime) -> Field:
    """Semigroup applied through the closed-form kernel (twisted convolution path).

    The kernel is the product of n one-coordinate kernels, K_eta(z) = K_eta(z_1) ... K_eta(z_n).
    """
    kernel = mehler_kernel_field(eta, make_grid(1, f.grid.L, f.grid.M))
    return twisted_convolve(f, (kernel,) * f.grid.n)


def propagate_coeffs(c, tr: Truncation, t: float) -> np.ndarray:
    """Unitary evolution in coefficient space; every multiplier has modulus 1."""
    return evolve_spectral(c, tr, ComplexTime.reduced(0.0, t))


def level_parts(coeffs, tr: Truncation, grid: GridSpec, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalue levels 2d + n of ``tr`` and the part P_d of u in each level's eigenspace.

    e^{-i t L} multiplies each eigenspace by one phase, so e^{-i t L} u = sum_d e^{-i t (2d + n)} P_d.
    ``tr`` orders its S^2 pairs with mu slowest and nu fastest, so the basis rows with nu = nu_k are the
    strided view B[:, k] of the basis as (S, S, grid.size), which BLAS reads in place, and
    P_d = sum_{|nu_k| = d} B[:, k]^T C[:, k].  ``coeffs`` is as in ``propagate_samples``; the parts, of
    shape (levels, grid.size * N) with the function axis innermost, go into ``out`` if it is given.
    """
    S = math.isqrt(len(tr))
    c = np.asarray(coeffs, dtype=complex).reshape(S, S, -1)
    basis = cached_basis(tr, grid).reshape(S, S, -1)
    degrees = tr.nu[:S].sum(axis=1)  # |nu_k|, nondecreasing in k
    shape = (tr.k_max + 1, basis.shape[2], c.shape[2])
    parts = np.empty(shape, dtype=complex) if out is None else out.reshape(shape)
    for k, d in enumerate(degrees):
        if k and degrees[k - 1] == d:
            parts[d] += basis[:, k].T @ c[:, k]
        else:
            np.matmul(basis[:, k].T, c[:, k], out=parts[d])
    return tr.level_blocks[0], parts.reshape(len(parts), -1)


def _half_period_nodes(n_t: int) -> int:
    """How many leading nodes of an n_t-node time grid determine e^{-i t L} on all of them.

    Every eigenvalue 2|nu| + n has the parity of n, so e^{-i (t + pi) L} = (-1)^n e^{-i t L}.
    On an even grid the node t_{a + n_t/2} is t_a + pi, and the first n_t/2
    nodes fix the rest; an odd grid pairs no nodes this way.
    """
    return n_t // 2 if n_t % 2 == 0 else n_t


def synthesize(levels: np.ndarray, parts: np.ndarray, nodes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e^{-i t L} u at each time t in ``nodes`` from ``level_parts``: one product, one row per time."""
    return np.matmul(np.exp(-1j * np.outer(nodes, levels)), parts, out=out)


def propagate_samples(coeffs, tr: Truncation, n_t: int, grid: GridSpec) -> np.ndarray:
    """Samples of e^{-i t L} u at the n_t ``time_nodes`` on the spatial grid.

    ``coeffs`` holds the coefficients of u over ``tr``; a matrix with one
    column per function gives a trailing function axis.  Returns shape
    (n_t, *grid.shape) or (n_t, *grid.shape, N).  On an even grid only the
    first half of the nodes is synthesized; the second is (-1)^n times it.  Any other
    coefficient shape raises ``ValueError`` before the basis is read.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim not in (1, 2) or c.shape[0] != len(tr):
        raise ValueError(f"coefficient array of shape {c.shape} is neither ({len(tr)},) nor ({len(tr)}, N)")
    half = _half_period_nodes(n_t)
    half_nodes = time_nodes(n_t)[:half]
    levels, parts = level_parts(c, tr, grid)
    vals = np.empty((n_t, parts.shape[1]), dtype=complex)
    synthesize(levels, parts, half_nodes, out=vals[:half])
    np.multiply(vals[:half], (-1) ** grid.n, out=vals.reshape(-1, half, parts.shape[1])[1:])
    return vals.reshape((n_t,) + grid.shape + c.shape[1:])
