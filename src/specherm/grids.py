"""Tensor grids on C^n and the time circle, with quadrature and mixed norms.

Spatial grids are uniform with trapezoidal weights: after a twisted
convolution the fields are no longer polynomial-times-Gaussian, so Gauss
rules buy nothing, while a uniform lattice keeps the convolution sum
factorizable.  Time nodes are offset by half a spacing so |sin t| never
vanishes on a node.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _read_only(a: np.ndarray) -> np.ndarray:
    """Freeze an array cached on a grid: every caller of the grid shares it."""
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
        if self.L <= 0:
            raise ValueError("half-width must be positive")
        if self.M < 8 or self.M % 2 != 0:
            raise ValueError("points per axis must be an even integer >= 8")

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
    """Covers the classical turning point of the highest mode plus tail margin.

    The margin of 6 keeps the polynomial-enhanced Gaussian tail of the
    highest modes below ~1e-8 at the boundary, which Gram and eigenrelation
    accuracies at desk-scale M depend on.
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


def zero_field(grid: GridSpec) -> Field:
    return Field(grid, np.zeros(grid.shape, dtype=complex))


def inner_product(f: Field, g: Field) -> complex:
    """Quadrature approximation of the L^2 pairing (f, g) = integral of f * conj(g)."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return complex(np.sum(f.values * np.conj(g.values) * f.grid.weight_tensor))


def lp_norm(f: Field, p: float) -> float:
    """L^p norm over the spatial grid; p = inf gives the max modulus over nodes."""
    if p < 1:
        raise ValueError("exponent must be in [1, inf]")
    a = np.abs(f.values)
    if math.isinf(p):
        return float(a.max())
    if p == 1:
        return float(np.sum(a * f.grid.weight_tensor))
    return float(np.sum(a**p * f.grid.weight_tensor) ** (1.0 / p))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes on [-pi, pi), offset by half a spacing from the endpoints."""

    n_t: int

    def __post_init__(self):
        if self.n_t < 1:
            raise ValueError("need at least one time node")

    @cached_property
    def nodes(self) -> np.ndarray:
        h = 2.0 * math.pi / self.n_t
        return _read_only(-math.pi + (np.arange(self.n_t) + 0.5) * h)

    @property
    def weight(self) -> float:
        return 2.0 * math.pi / self.n_t

    @cached_property
    def weights(self) -> np.ndarray:
        return _read_only(np.full(self.n_t, self.weight))


def make_time_grid(n_t: int) -> TimeGrid:
    return TimeGrid(n_t=int(n_t))


def mixed_norm(
    values: np.ndarray, tg: TimeGrid, grid: GridSpec, p: float, q: float, measure: str = "dt"
) -> float:
    """Space-time norm L^p_t L^q_z of time-indexed samples of shape (n_t, *grid.shape).

    ``measure`` is the measure on the time circle: the raw ``"dt"`` or the
    normalized ``"dt/2pi"``, under which the circle has unit mass.  p and q
    may be inf; the inf cases are explicit branches rather than
    large-exponent limits so golden values are bit-stable.
    """
    values = np.ascontiguousarray(values)  # one memory layout, one summation order: bit-stable norms
    if values.shape != (tg.n_t,) + grid.shape:
        raise ValueError(f"shape {values.shape} inconsistent with time/space grids")
    if p < 1 or q < 1:
        raise ValueError("exponents must be in [1, inf]")
    if measure not in ("dt", "dt/2pi"):
        raise ValueError(f"unknown time measure {measure!r}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    a = np.abs(values).reshape(tg.n_t, -1)
    w = grid.weight_tensor.ravel()
    if math.isinf(q):
        spatial = a.max(axis=1)
    elif q == 1:
        spatial = a @ w
    else:
        spatial = (a**q @ w) ** (1.0 / q)
    tw = tg.weights if measure == "dt" else tg.weights / (2.0 * math.pi)
    if math.isinf(p):
        return float(spatial.max())
    if p == 1:
        return float(np.sum(spatial * tw))
    return float(np.sum(spatial**p * tw) ** (1.0 / p))

