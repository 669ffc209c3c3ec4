"""Empirical mixed-norm inequalities for densities of orthonormal systems.

The quantity under test is the space-time norm of
sum_j n_j |e^{-i t L} u_j|^2 against the l^{2q/(q+1)} norm of the
coefficients.  Systems are sampled in coefficient space so orthonormality
holds exactly by construction; the evolution is diagonal there, which
makes time sweeps cheap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec, TimeGrid, make_time_grid, mixed_norm
from .indices import Truncation
from .propagator import level_parts, synthesize

# complex entries of e^{-i t L} u_j that ``density`` holds at a time (at least one
# time node): a chunk squared in one reused buffer, never the whole (n_t, M^2n, N) block
_CHUNK_ENTRIES = 2**19


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


def sample_orthonormal_system(tr: Truncation, N: int, seed: int) -> np.ndarray:
    """Orthonormalized complex Gaussian columns, shape (|tr|, N); deterministic given the seed."""
    if N > len(tr):
        raise ValueError(f"system size {N} exceeds truncation dimension {len(tr)}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((len(tr), N)) + 1j * rng.standard_normal((len(tr), N))
    # column k of Q is column k of g orthogonalized against the previous ones,
    # up to a unit phase that no density sum_j n_j |u_j|^2 sees
    return np.linalg.qr(g, mode="reduced")[0]


def eigenfunction_system(tr: Truncation, N: int) -> np.ndarray:
    """The first N basis pairs themselves, as coefficient unit vectors (columns)."""
    if N > len(tr):
        raise ValueError(f"system size {N} exceeds truncation dimension {len(tr)}")
    return np.eye(len(tr), N, dtype=complex)


def density(coeffs: np.ndarray, nj: np.ndarray, tr: Truncation, tg: TimeGrid, grid: GridSpec) -> np.ndarray:
    """Pointwise density sum_j n_j |e^{-i t L} u_j|^2, shape (n_t, *grid.shape).

    ``coeffs`` holds the system's coefficient vectors u_j over ``tr`` as its
    N columns and ``nj`` the N real weights.  Synthesized from the level parts
    of the system one chunk of time nodes at a time.
    """
    coeffs = np.asarray(coeffs)
    weights = np.asarray(nj, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[0] != len(tr):
        raise ValueError(f"coefficient matrix of shape {coeffs.shape} does not have {len(tr)} rows")
    if weights.shape != coeffs.shape[1:]:
        raise ValueError("weight vector length differs from system size")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    levels, parts = level_parts(coeffs, tr, grid)
    step = max(1, _CHUNK_ENTRIES // max(1, parts.shape[1]))
    buf = np.empty((min(step, tg.n_t), parts.shape[1]), dtype=complex)
    out = np.empty((tg.n_t, grid.size))
    w2 = np.repeat(weights, 2)
    for start in range(0, tg.n_t, step):
        nodes = tg.nodes[start : start + step]
        # |u|^2 = re^2 + im^2: square the interleaved parts in place, weight both by n_j
        sq = synthesize(levels, parts, nodes, out=buf[: len(nodes)]).view(np.float64)
        sq *= sq
        out[start : start + len(nodes)] = sq.reshape(len(nodes), grid.size, -1) @ w2
    return out.reshape((tg.n_t,) + grid.shape)


@dataclass
class SweepConfig:
    """Grid of exponents, system sizes and trials for one sweep run."""

    truncation: Truncation
    grid: GridSpec
    n_t: int = 32
    system_sizes: tuple = (1, 2, 4, 8, 16)
    trials: int = 20
    seed: int = 0

    def __post_init__(self):
        if max(self.system_sizes) > len(self.truncation):
            raise ValueError("largest system size exceeds truncation dimension")
        if sum(N >= 2 for N in self.system_sizes) < 2:
            raise ValueError(f"system sizes {self.system_sizes} have fewer than two sizes >= 2 for the growth fit")


@dataclass
class SweepReport:
    """Row-level results plus per-(q, N) maxima and the N-growth fit."""

    rows: list = field(default_factory=list)  # (n, p, q, N, trial, ratio, lhs, rhs)
    max_ratio_by_cell: dict = field(default_factory=dict)  # (q, N) -> max ratio
    growth_exponent: float = math.nan

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

    The exponents are q = 1 + j/(4n) for j = 0, 1, 2, 4, from the
    triangle-inequality endpoint q = 1 to the diagonal q = 1 + 1/n, each with
    its admissible p.  The growth-exponent fit is done
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
    q_values = tuple(1.0 + j / (4 * n) for j in (0, 1, 2, 4))
    for N in config.system_sizes:
        for trial in range(config.trials):
            nj = np.ones(N)
            dens = density(sample_orthonormal_system(tr, N, seed=config.seed + 1000 * N + trial), nj, tr, tg, grid)
            for q in q_values:
                p = admissible_exponents(n, q)
                lhs = mixed_norm(dens, tg, grid, p, q)
                rhs = float(np.linalg.norm(nj, 2.0 * q / (q + 1.0)))  # the dual coefficient norm
                ratio = lhs / rhs
                report.rows.append((n, p, q, N, trial, ratio, lhs, rhs))
                key = (q, N)
                report.max_ratio_by_cell[key] = max(report.max_ratio_by_cell.get(key, 0.0), ratio)
    sizes = sorted(config.system_sizes)
    fit_lhs = []
    for N in sizes:
        dens = density(eigenfunction_system(tr, N), np.ones(N), tr, tg, grid)
        fit_lhs.append(mixed_norm(dens, tg, grid, 2.0, 2.0))
    report.growth_exponent = fit_growth_exponent(sizes, fit_lhs)
    report.rows.sort()
    return report
