"""Empirical mixed-norm inequalities for densities of orthonormal systems.

The quantity under test is the space-time norm of
sum_j n_j |e^{-i t L} u_j|^2 against the l^{2q/(q+1)} norm of the
coefficients.  Systems are sampled in coefficient space so orthonormality
holds exactly by construction; the evolution is diagonal there, which
makes time sweeps cheap.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .grids import ExponentPair, GridSpec, TimeGrid, make_time_grid, mixed_norm
from .indices import Truncation
from .propagator import propagate_samples


def admissible_exponents(n: int, q: float) -> float:
    """The p paired with q on the scaling line 1/p + n/q = n.

    q = 1 forces p = infinity (the triangle-inequality endpoint); the other
    end of the admissible range, q = 1 + 1/n, gives the diagonal
    p = q = (n+1)/n.
    """
    if not (1.0 <= q <= 1.0 + 1.0 / n):
        raise ValueError(f"q={q} outside the admissible range [1, {1 + 1/n}]")
    if q == 1.0:
        return math.inf
    return q / (n * (q - 1.0))


@dataclass(frozen=True)
class OrthonormalSystem:
    """N coefficient vectors with exactly orthonormal columns."""

    truncation: Truncation
    coeffs: np.ndarray  # (|truncation|, N)
    seed: int | None = None

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=complex)
        if c.ndim != 2 or c.shape[0] != len(self.truncation):
            raise ValueError("coefficient matrix inconsistent with truncation")
        object.__setattr__(self, "coeffs", c)

    @property
    def size(self) -> int:
        return self.coeffs.shape[1]

    def gram(self) -> np.ndarray:
        return self.coeffs.conj().T @ self.coeffs


@dataclass(frozen=True)
class CoefficientVector:
    """Density weights n_j; must be finite, and nonzero for ratio quotients."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=complex))
        if not np.all(np.isfinite(v)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    def dual_norm(self, q: float) -> float:
        """The l^{2q/(q+1)} norm appearing on the inequality's right-hand side."""
        e = 2.0 * q / (q + 1.0)
        return float(np.sum(np.abs(self.values) ** e) ** (1.0 / e))


def sample_orthonormal_system(tr: Truncation, N: int, seed: int) -> OrthonormalSystem:
    """Orthonormalized complex Gaussian columns; deterministic given the seed."""
    if N > len(tr):
        raise ValueError(f"system size {N} exceeds truncation dimension {len(tr)}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((len(tr), N)) + 1j * rng.standard_normal((len(tr), N))
    # column k of Q is column k of g orthogonalized against the previous ones,
    # up to a unit phase that no density sum_j n_j |u_j|^2 sees
    q = linalg.qr(g, mode="economic")[0]
    return OrthonormalSystem(truncation=tr, coeffs=q, seed=seed)


def eigenfunction_system(tr: Truncation, N: int) -> OrthonormalSystem:
    """The first N basis pairs themselves, as coefficient unit vectors."""
    if N > len(tr):
        raise ValueError(f"system size {N} exceeds truncation dimension {len(tr)}")
    return OrthonormalSystem(truncation=tr, coeffs=np.eye(len(tr), N, dtype=complex))


def density(
    sys: OrthonormalSystem,
    nj: CoefficientVector,
    tg: TimeGrid,
    grid: GridSpec,
) -> np.ndarray:
    """Pointwise density sum_j n_j |e^{-i t L} u_j|^2, shape (n_t, *grid.shape)."""
    if len(nj) != sys.size:
        raise ValueError("coefficient vector length differs from system size")
    weights = nj.values.real if np.all(nj.values.imag == 0.0) else nj.values
    # |u|^2 = re^2 + im^2: square the interleaved parts in place, weight both by n_j
    parts = propagate_samples(sys.coeffs, sys.truncation, tg, grid).view(np.float64)
    parts *= parts
    return parts @ np.repeat(weights, 2)


def strichartz_ratio(
    sys: OrthonormalSystem,
    nj: CoefficientVector,
    p: float,
    q: float,
    tg: TimeGrid,
    grid: GridSpec,
) -> float:
    """Quotient of the density's L^p_t L^q_z norm by the dual coefficient norm."""
    pair = ExponentPair(p=p, q=q, n=grid.n)
    if not pair.admissible():
        warnings.warn(f"exponents (p={p}, q={q}) are off the admissible line", stacklevel=2)
    rhs = nj.dual_norm(q)
    if rhs == 0.0:
        raise ValueError("coefficient vector is identically zero")
    dens = density(sys, nj, tg, grid)
    return mixed_norm(dens, tg, grid, p, q) / rhs


@dataclass
class SweepConfig:
    """Grid of exponents, system sizes and trials for one sweep run."""

    truncation: Truncation
    grid: GridSpec
    n_t: int = 32
    q_values: tuple = (1.0, 1.25, 1.5, 2.0)
    system_sizes: tuple = (1, 2, 4, 8, 16)
    trials: int = 20
    seed: int = 0

    def __post_init__(self):
        if max(self.system_sizes) > len(self.truncation):
            raise ValueError("largest system size exceeds truncation dimension")


@dataclass
class SweepReport:
    """Row-level results plus per-(q, N) maxima and the N-growth fit."""

    rows: list = field(default_factory=list)  # (n, p, q, N, trial, ratio, lhs, rhs)
    max_ratio_by_cell: dict = field(default_factory=dict)  # (q, N) -> max ratio
    growth_exponent: float = math.nan
    off_line_cells: list = field(default_factory=list)

    @property
    def max_ratio(self) -> float:
        return max(r[5] for r in self.rows)


def fit_growth_exponent(sizes, lhs_values) -> float:
    """Least-squares slope of log LHS against log N, restricted to N >= 2."""
    sizes = np.asarray(sizes, dtype=float)
    lhs = np.asarray(lhs_values, dtype=float)
    keep = sizes >= 2
    if np.sum(keep) < 2:
        raise ValueError("need at least two system sizes >= 2 for a growth fit")
    return float(np.polyfit(np.log(sizes[keep]), np.log(lhs[keep]), 1)[0])


def sweep(config: SweepConfig) -> SweepReport:
    """Run the full exponent/size/trial grid and summarize.

    Ratios use the admissible p for each q.  The growth-exponent fit is done
    at (p, q) = (2, 2) with unit coefficients on the canonical eigenfunction
    systems (first N basis modes): these are deterministic and exhibit the
    orthonormality gain, whereas Gaussian random systems in a fixed finite
    truncation have densities dominated by their mean and fit a slope near 1
    at every truncation size.
    """
    tr, grid = config.truncation, config.grid
    tg = make_time_grid(config.n_t)
    report = SweepReport()
    n = grid.n
    for N in config.system_sizes:
        for trial in range(config.trials):
            sys = sample_orthonormal_system(tr, N, seed=config.seed + 1000 * N + trial)
            nj = CoefficientVector(np.ones(N))
            dens = density(sys, nj, tg, grid)
            for q in config.q_values:
                p = admissible_exponents(n, q)
                pair = ExponentPair(p=p, q=q, n=n)
                if not pair.admissible():
                    cell = (q, N)
                    if cell not in report.off_line_cells:
                        report.off_line_cells.append(cell)
                lhs = mixed_norm(dens, tg, grid, p, q)
                rhs = nj.dual_norm(q)
                ratio = lhs / rhs
                report.rows.append((n, p, q, N, trial, ratio, lhs, rhs))
                key = (q, N)
                report.max_ratio_by_cell[key] = max(report.max_ratio_by_cell.get(key, 0.0), ratio)
    sizes = sorted(config.system_sizes)
    fit_lhs = []
    for N in sizes:
        dens = density(eigenfunction_system(tr, N), CoefficientVector(np.ones(N)), tg, grid)
        fit_lhs.append(mixed_norm(dens, tg, grid, 2.0, 2.0))
    report.growth_exponent = fit_growth_exponent(sizes, fit_lhs)
    report.rows.sort()
    return report
