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

from .grids import Field, GridSpec, make_grid, sample_field, time_nodes
from .indices import Truncation
from .twisted import cached_basis, coefficient_vector, twisted_convolve

_TWO_PI = 2.0 * math.pi


class SingularTimeError(ValueError):
    """Kernel evaluation requested at a parameter where 1 - e^{-2 eta} vanishes."""


def _reduce_angle(t: float) -> float:
    return math.remainder(t, _TWO_PI)


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
        return cls(r, _reduce_angle(t))

    @property
    def eta(self) -> complex:
        return complex(self.r, self.t)

    @property
    def omega(self) -> complex:
        return cmath.exp(-2.0 * self.eta)


def mehler_kernel(eta: ComplexTime, zeta, n: int = 1):
    """Closed-form semigroup kernel.

    K_eta(z) = (2 pi)^{-n} e^{-n eta} (1 - w)^{-n} exp(-((1+w)/(1-w)) |z|^2 / 4),
    w = e^{-2 eta}.  Singular exactly where 1 - w vanishes (eta = 0 or
    purely imaginary with sin t = 0).
    """
    w = eta.omega
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
    return sample_field(grid, lambda *zs: mehler_kernel(eta, np.stack(zs, axis=-1), grid.n))


def evolve_spectral(c, tr: Truncation, eta: ComplexTime) -> np.ndarray:
    """Diagonal action on a coefficient vector over ``tr``: each entry is damped/rotated by e^{-eta (2|nu| + n)}."""
    return coefficient_vector(c, tr) * np.exp(-eta.eta * tr.eigenvalues())


def evolve_kernel(f: Field, eta: ComplexTime) -> Field:
    """Semigroup applied through the closed-form kernel (twisted convolution path).

    The kernel is the product of n one-coordinate kernels, K_eta(z) = K_eta(z_1) ... K_eta(z_n).
    """
    kernel = mehler_kernel_field(eta, make_grid(1, f.grid.L, f.grid.M))
    return twisted_convolve(f, (kernel,) * f.grid.n)


def propagate_coeffs(c, tr: Truncation, t: float) -> np.ndarray:
    """Unitary evolution in coefficient space; every multiplier has modulus 1."""
    return evolve_spectral(c, tr, ComplexTime.reduced(0.0, t))


def level_parts(coeffs, tr: Truncation, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalue levels of ``tr`` and the part of u in each level's eigenspace.

    e^{-i t L} multiplies the eigenspace of the level lambda_i by the one phase
    e^{-i t lambda_i}, so e^{-i t L} u = sum_i e^{-i t lambda_i} B_i^T C_i, with
    B_i the basis rows and C_i the coefficient rows of the pairs at that level.
    ``coeffs`` is as in ``propagate_samples``; the parts B_i^T C_i have shape
    (levels, grid.size * N), the function axis innermost.
    """
    c = np.asarray(coeffs, dtype=complex).reshape(len(tr), -1)
    basis = cached_basis(tr, grid).reshape(len(tr), -1)
    levels, blocks = tr.level_blocks
    parts = np.empty((len(levels), basis.shape[1], c.shape[1]), dtype=complex)
    for part, block in zip(parts, blocks):
        np.matmul(basis[block].T, c[block], out=part)
    return levels, parts.reshape(len(levels), -1)


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
    first half of the nodes is synthesized; the second is (-1)^n times it.
    """
    half = _half_period_nodes(n_t)
    half_nodes = time_nodes(n_t)[:half]
    c = np.asarray(coeffs, dtype=complex)
    levels, parts = level_parts(c, tr, grid)
    vals = np.empty((n_t, parts.shape[1]), dtype=complex)
    synthesize(levels, parts, half_nodes, out=vals[:half])
    np.multiply(vals[:half], (-1) ** grid.n, out=vals.reshape(-1, half, parts.shape[1])[1:])
    return vals.reshape((n_t,) + grid.shape + c.shape[1:])
