"""Tensor grids on C^n and the time circle, with quadrature and mixed norms.

Spatial grids are uniform with trapezoidal weights: after a twisted
convolution the fields are no longer polynomial-times-Gaussian, so Gauss
rules buy nothing, while a uniform lattice keeps the convolution sum
factorizable.  Time nodes are offset by half a spacing so |sin t| never
vanishes on a node.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _read_only(a: np.ndarray) -> np.ndarray:
    """Freeze a cached array: every caller of the grid or truncation that holds it shares it."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid on [-L, L]^{2n} with trapezoidal weights."""

    n: int
    L: float
    M: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if not 0 < self.L < math.inf:  # NaN fails both comparisons
            raise ValueError("half-width must be positive and finite")
        if self.M < 8 or self.M % 2 != 0:
            raise ValueError("points per axis must be an even integer >= 8")
        # the corner weight (spacing/2)^{2n}, formed as weight_tensor forms it, is the smallest
        corner = math.prod([self.spacing * 0.5] * (2 * self.n))
        if not sys.float_info.min <= corner <= sys.float_info.max:
            raise ValueError(
                f"half-width {self.L} gives a smallest quadrature weight {corner:.3g}, not a normal float"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.L / (self.M - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.M,) * (2 * self.n)

    @property
    def size(self) -> int:
        return self.M ** (2 * self.n)

    @cached_property
    def axis(self) -> np.ndarray:
        return _read_only(np.linspace(-self.L, self.L, self.M))

    @cached_property
    def axis_weights(self) -> np.ndarray:
        w = np.full(self.M, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return _read_only(w)

    def zeta_coords(self) -> list[np.ndarray]:
        """Complex coordinate arrays z_j = x_j + i y_j, each of shape ``self.shape``.

        Axis layout is (x_1, y_1, ..., x_n, y_n), row-major.
        """
        mesh = np.meshgrid(*([self.axis] * (2 * self.n)), indexing="ij")
        return [mesh[2 * j] + 1j * mesh[2 * j + 1] for j in range(self.n)]

    @cached_property
    def weight_tensor(self) -> np.ndarray:
        w = self.axis_weights
        out = w
        for _ in range(2 * self.n - 1):
            out = np.multiply.outer(out, w)
        return _read_only(out)


def make_grid(n: int, L: float, M: int) -> GridSpec:
    return GridSpec(n=n, L=float(L), M=int(M))


def default_half_width(n: int, k_max: int) -> float:
    """sqrt(2(2 k_max + n)) + 6, which does not cover the highest modes' tails at large k_max.

    The outermost n = 1 mode (mu = nu = k_max) turns at |zeta| = 2 sqrt(2 k_max + 1),
    sqrt(2) farther out than the first term, so the margin past it is 4.2 at
    k_max 4 and 1.3 at k_max 32 (where |Phi| is 1.3e-3 on the grid edge and the
    Gram error 4.7e-6 at M 128), and past k_max 51 the turning point lies outside
    [-L, L].  Every default output depends on this formula; the discretization
    rule of ROADMAP item 6 is where it changes.
    """
    return math.sqrt(2.0 * (2 * k_max + n)) + 6.0


@dataclass
class Field:
    """Complex-valued function sampled on a GridSpec."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


def sample_field(grid: GridSpec, fn) -> Field:
    """Sample ``fn(z_1, ..., z_n)`` (complex coordinate arrays) on the grid."""
    return Field(grid, np.asarray(fn(*grid.zeta_coords()), dtype=complex))


def lp_norm(f: Field, p: float) -> float:
    """L^p norm over the spatial grid; p = inf gives the max modulus over nodes."""
    if not p >= 1:  # NaN fails the comparison
        raise ValueError("exponent must be in [1, inf]")
    a = np.abs(f.values)
    if math.isinf(p):
        return float(a.max())
    if p == 1:
        return float(np.sum(a * f.grid.weight_tensor))
    return float(np.sum(a**p * f.grid.weight_tensor) ** (1.0 / p))


def time_nodes(n_t: int) -> np.ndarray:
    """n_t uniform nodes on [-pi, pi), offset by half a spacing from the endpoints."""
    if n_t < 1:
        raise ValueError("need at least one time node")
    return -math.pi + (np.arange(n_t) + 0.5) * (2.0 * math.pi / n_t)


def mixed_norm(values: np.ndarray, grid: GridSpec, p: float, q: float, measure: str = "dt") -> float:
    """Space-time norm L^p_t L^q_z of samples of shape (n_t, *grid.shape) at the n_t ``time_nodes``.

    ``measure`` is the measure on the time circle: the raw ``"dt"`` or the
    normalized ``"dt/2pi"``, under which the circle has unit mass.  p and q
    may be inf; the inf cases are explicit branches rather than
    large-exponent limits so golden values are bit-stable.
    """
    values = np.ascontiguousarray(values)  # one memory layout, one summation order: bit-stable norms
    if values.shape[1:] != grid.shape or not len(values):
        raise ValueError(f"shape {values.shape} is not (n_t >= 1, *{grid.shape})")
    if not p >= 1 or not q >= 1:  # NaN fails the comparison
        raise ValueError("exponents must be in [1, inf]")
    if measure not in ("dt", "dt/2pi"):
        raise ValueError(f"unknown time measure {measure!r}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    n_t = len(values)
    a = np.abs(values).reshape(n_t, -1)
    w = grid.weight_tensor.ravel()
    if math.isinf(q):
        spatial = a.max(axis=1)
    elif q == 1:
        spatial = a @ w
    else:
        spatial = (a**q @ w) ** (1.0 / q)
    tw = 2.0 * math.pi / n_t
    if measure == "dt/2pi":
        tw /= 2.0 * math.pi
    if math.isinf(p):
        return float(spatial.max())
    if p == 1:
        return float(np.sum(spatial * tw))
    return float(np.sum(spatial**p * tw) ** (1.0 / p))

