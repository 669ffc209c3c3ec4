"""Empirical mixed-norm inequalities for densities of orthonormal systems.

The quantity under test is the space-time norm of
sum_j n_j |e^{-i t L} u_j|^2 against the l^{2q/(q+1)} norm of the
coefficients.  Systems are sampled in coefficient space so orthonormality
holds exactly by construction; the evolution is diagonal there, which
makes time sweeps cheap.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .basis import laguerre_row
from .grids import GridSpec, _read_only, mixed_norm, time_nodes
from .indices import Truncation
from .propagator import _half_period_nodes, level_parts, synthesize

# complex entries that ``density`` holds beyond its result: one pass's level parts and synthesized nodes
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

    ``coeffs`` holds the system's coefficient vectors u_j over ``tr`` as its N columns and ``nj`` the
    N real weights.  The columns go in passes of as many as fit their level parts and synthesized half
    period into ``_CHUNK_ENTRIES`` complex entries, and at least one; only a column that fills it alone
    has its nodes split into chunks, each given the entries its parts leave free.  So for every N the
    memory beyond the result stays near that budget.  The density is pi-periodic in t, so on an even
    grid only the first half of the nodes is synthesized and squared, and the second half is a copy.
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
    n_levels = tr.k_max + 1
    cols = max(1, _CHUNK_ENTRIES // (grid.size * (n_levels + half)))
    width = grid.size * min(cols, len(weights))  # entries per level or per node of the widest pass
    step = max(1, (_CHUNK_ENTRIES - n_levels * width) // max(1, width))
    parts_buf, nodes_buf = np.empty(n_levels * width, dtype=complex), np.empty(min(step, half) * width, dtype=complex)
    out = np.zeros((n_t, grid.size))
    for first in range(0, len(weights), cols):
        w2 = np.repeat(weights[first : first + cols], 2)
        m = grid.size * len(w2) // 2
        levels, parts = level_parts(coeffs[:, first : first + cols], tr, grid, out=parts_buf[: n_levels * m])
        for start in range(0, half, step):
            nodes = half_nodes[start : start + step]
            buf = nodes_buf[: len(nodes) * m].reshape(len(nodes), m)
            # |u|^2 = re^2 + im^2: square the interleaved parts in place, weight both by n_j
            sq = synthesize(levels, parts, nodes, out=buf).view(np.float64)
            sq *= sq
            out[start : start + len(nodes)] += (sq.reshape(len(nodes) * grid.size, -1) @ w2).reshape(len(nodes), -1)
    out.reshape(-1, half, grid.size)[1:] = out[:half]
    return out.reshape((n_t,) + grid.shape)


def density_norm(dens: np.ndarray, grid: GridSpec, p: float, q: float, measure: str = "dt") -> float:
    """L^p_t L^q_z norm of a density from ``density``, read off one half-period.

    The density is pi-periodic in t, so on an even grid its first n_t/2 nodes,
    each at twice the node weight, give the norm of all n_t; an odd grid norms every node.
    """
    return mixed_norm(dens[: _half_period_nodes(len(dens))], grid, p, q, measure)


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
    return float(np.polyfit(np.log(fit_sizes), np.log(lhs), 1)[0])


def radial_family_density(n: int, K: int, s) -> np.ndarray:
    """Density sum_{j <= K} l_j^{(n-1)}(s)^2 / (c_n s^{n-1}), c_n = (2 pi)^n / (n-1)!, of the radial family at s = |z|^2/2.

    The family is gamma_K = sum_{j <= K} |phi_j><phi_j|, phi_j the normalized U(n)-radial eigenfunction of
    level 2j + n (Thangavelu 1993): stationary, of mass K + 1 under dz = c_n s^{n-1} ds, and C(K+n, n) / (2 pi)^n
    at the origin, where at n >= 2 this form is 0/0.
    """
    if n < 1 or K < 0:
        raise ValueError(f"need n >= 1 and K >= 0, got n = {n}, K = {K}")
    s = np.asarray(s, dtype=float)
    ell = laguerre_row(n - 1, K, s)
    return (ell * ell).sum(axis=0) * math.factorial(n - 1) / ((2.0 * math.pi) ** n * s ** (n - 1))


@lru_cache(maxsize=8)
def _s_grid(K: int) -> tuple[np.ndarray, np.ndarray]:
    """m = 12K + 200 Gauss-Legendre nodes in s on [0, 4K + 80] and their weights, read-only.

    Newton's method on P_m from x_k = -cos(pi (k - 1/4) / (m + 1/2)), all nodes at once, with P_m and
    P_{m-1} from the three-term recurrence and weights 2 / ((1 - x^2) P_m'(x)^2): O(m^2) work.
    """
    m = 12 * K + 200
    x = -np.cos(np.pi * (np.arange(1, m + 1) - 0.25) / (m + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for j in range(2, m + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = m * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= 1e-15:
            break
    return _read_only((2 * K + 40) * (x + 1.0)), _read_only((2 * K + 40) * 2.0 / ((1.0 - x * x) * dp * dp))


def radial_family_ratio(n: int, K: int, q: float) -> float:
    """Quotient ||rho_K||_{L^q(C^n)} / (K + 1)^{(q+1)/(2q)} of ``radial_family_density``, on the nodes of ``_s_grid``.

    gamma_K is stationary, so under dt/2pi its L^p_t L^q_z norm is this L^q norm for every p.
    """
    if not q >= 1:  # NaN fails the comparison
        raise ValueError("exponent must be >= 1")
    s, w = _s_grid(K)
    dz = (2.0 * math.pi) ** n / math.factorial(n - 1) * s ** (n - 1) * w
    return float(np.sum(radial_family_density(n, K, s) ** q * dz)) ** (1.0 / q) / (K + 1) ** ((q + 1) / (2 * q))
