"""Empirical mixed-norm inequalities for densities of orthonormal systems.

The quantity under test is the space-time norm of
sum_j n_j |e^{-i t L} u_j|^2 against the l^{2q/(q+1)} norm of the
coefficients.  Systems are sampled in coefficient space so orthonormality
holds exactly by construction; the evolution is diagonal there, which
makes time sweeps cheap.
"""
from __future__ import annotations

import math

import numpy as np

from .grids import GridSpec, mixed_norm, time_nodes
from .indices import Truncation
from .propagator import _half_period_nodes, level_parts, synthesize

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


def _check_sizes(tr: Truncation, sizes, least: int = 0) -> None:
    """Reject a system size outside [least, |tr|] with a ``ValueError`` that names it."""
    for N in sizes:
        if not least <= N <= len(tr):
            raise ValueError(f"system size {N} outside [{least}, {len(tr)}] (the truncation dimension)")


def sample_orthonormal_system(tr: Truncation, N: int, seed: int) -> np.ndarray:
    """Orthonormalized complex Gaussian columns, shape (|tr|, N); deterministic given the seed."""
    _check_sizes(tr, (N,))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((len(tr), N)) + 1j * rng.standard_normal((len(tr), N))
    # column k of Q is column k of g orthogonalized against the previous ones,
    # up to a unit phase that no density sum_j n_j |u_j|^2 sees
    return np.linalg.qr(g, mode="reduced")[0]


def eigenfunction_system(tr: Truncation, N: int) -> np.ndarray:
    """The first N basis pairs themselves, as coefficient unit vectors (columns)."""
    _check_sizes(tr, (N,))
    return np.eye(len(tr), N, dtype=complex)


def density(coeffs: np.ndarray, nj: np.ndarray, tr: Truncation, n_t: int, grid: GridSpec) -> np.ndarray:
    """Pointwise density sum_j n_j |e^{-i t L} u_j|^2 at the n_t ``time_nodes``, shape (n_t, *grid.shape).

    ``coeffs`` holds the system's coefficient vectors u_j over ``tr`` as its
    N columns and ``nj`` the N real weights.  Synthesized from the level parts
    of the system one chunk of time nodes at a time.  The density is
    pi-periodic in t, so on an even grid only the first half of the nodes is
    synthesized and squared, and the second half is a copy of it.
    """
    coeffs = np.asarray(coeffs)
    weights = np.asarray(nj, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[0] != len(tr):
        raise ValueError(f"coefficient matrix of shape {coeffs.shape} does not have {len(tr)} rows")
    if weights.shape != coeffs.shape[1:]:
        raise ValueError("weight vector length differs from system size")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    half = _half_period_nodes(n_t)
    half_nodes = time_nodes(n_t)[:half]
    levels, parts = level_parts(coeffs, tr, grid)
    step = max(1, _CHUNK_ENTRIES // max(1, parts.shape[1]))
    buf = np.empty((min(step, half), parts.shape[1]), dtype=complex)
    out = np.empty((n_t, grid.size))
    w2 = np.repeat(weights, 2)
    for start in range(0, half, step):
        nodes = half_nodes[start : start + step]
        # |u|^2 = re^2 + im^2: square the interleaved parts in place, weight both by n_j
        sq = synthesize(levels, parts, nodes, out=buf[: len(nodes)]).view(np.float64)
        sq *= sq
        out[start : start + len(nodes)] = (sq.reshape(len(nodes) * grid.size, -1) @ w2).reshape(len(nodes), -1)
    out.reshape(-1, half, grid.size)[1:] = out[:half]
    return out.reshape((n_t,) + grid.shape)


def density_norm(dens: np.ndarray, grid: GridSpec, p: float, q: float, measure: str = "dt") -> float:
    """L^p_t L^q_z norm of a density from ``density``, read off one half-period.

    The density is pi-periodic in t, so on an even grid its first n_t/2 nodes,
    each at twice the node weight, give the norm of all n_t; an odd grid norms every node.
    """
    return mixed_norm(dens[: _half_period_nodes(len(dens))], grid, p, q, measure)


def fit_growth_exponent(sizes, lhs_values) -> float:
    """Least-squares slope of log LHS against log N, restricted to N >= 2."""
    sizes = np.asarray(sizes, dtype=float)
    lhs = np.asarray(lhs_values, dtype=float)
    keep = sizes >= 2
    if np.sum(keep) < 2:
        raise ValueError("need at least two system sizes >= 2 for a growth fit")
    return float(np.polyfit(np.log(sizes[keep]), np.log(lhs[keep]), 1)[0])


def sweep(tr: Truncation, n_t: int, grid: GridSpec, sizes, trials: int, seed: int) -> list:
    """Strichartz quotients of random orthonormal systems, as sorted rows (n, p, q, N, trial, ratio, lhs, rhs).

    The exponents are q = 1 + j/(4n) for j = 0, 1, 2, 4, from the
    triangle-inequality endpoint q = 1 to the diagonal q = 1 + 1/n, each with
    its admissible p.  Trial ``trial`` of size N samples its system with the
    seed ``seed + 1000 N + trial`` and gives every function the weight 1.
    """
    _check_sizes(tr, sizes, least=1)
    n = grid.n
    q_values = tuple(1.0 + j / (4 * n) for j in (0, 1, 2, 4))
    rows = []
    for N in sizes:
        for trial in range(trials):
            nj = np.ones(N)
            dens = density(sample_orthonormal_system(tr, N, seed=seed + 1000 * N + trial), nj, tr, n_t, grid)
            for q in q_values:
                p = admissible_exponents(n, q)
                lhs = density_norm(dens, grid, p, q)
                rhs = float(np.linalg.norm(nj, 2.0 * q / (q + 1.0)))  # the dual coefficient norm
                rows.append((n, p, q, N, trial, lhs / rhs, lhs, rhs))
    return sorted(rows)


def eigenfunction_growth(tr: Truncation, n_t: int, grid: GridSpec, sizes) -> float:
    """Growth exponent in N of the (2, 2) norm of the first-N-modes density, fitted over the sizes N >= 2.

    The canonical eigenfunction systems (first N basis modes, unit
    coefficients) are deterministic and exhibit the orthonormality gain,
    whereas Gaussian random systems in a fixed finite truncation have
    densities dominated by their mean and fit a slope near 1 at every
    truncation size.
    """
    fit_sizes = sorted(N for N in sizes if N >= 2)
    if len(fit_sizes) < 2:
        raise ValueError(f"system sizes {sizes} have fewer than two sizes >= 2 for the growth fit")
    _check_sizes(tr, fit_sizes)
    lhs = [density_norm(density(eigenfunction_system(tr, N), np.ones(N), tr, n_t, grid), grid, 2.0, 2.0)
           for N in fit_sizes]
    return fit_growth_exponent(fit_sizes, lhs)
