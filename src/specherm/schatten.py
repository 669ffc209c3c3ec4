"""Finite realizations of the time-extension operator and its Schatten analysis.

Operators on L^2 of (time circle) x C^n are represented in the weighted
sample basis: a function F becomes the vector F(t_a, z_b) sqrt(w_a w_b),
so multiplication operators are diagonal and adjoints are conjugate
transposes.  The circle carries the normalized measure dt / (2 pi)
throughout this module, which makes e^{-i lambda t} an orthonormal family
and the propagation frame A (columns e^{-i t lambda_p} Phi_p(z) sqrt(w_t w_z),
one per basis pair) an isometry.  A itself is never formed: the sandwich,
the matched systems and the duality check all read off the pairs x pairs
weighted Gram K(W) = A* |W|^2 A, and the Schatten norms of the multiplier
family T_z off the basis Gram, one frequency block at a time.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

import numpy as np

from .grids import GridSpec, make_grid, mixed_norm, time_nodes
from .indices import Truncation
from .propagator import ComplexTime, _half_period_nodes, mehler_kernel_field, propagate_samples
from .singularity import gamma
from .strichartz import density, density_norm
from .twisted import TwistedConvolver, cached_basis

# relative floor under which singular values are treated as exact zeros:
# rank-deficient sandwiches otherwise pollute trace-class sums with noise
_SV_CLAMP = 1e-10

_MAX_MATRIX_ENTRIES = int(2e7)


def schatten_from_singular_values(s: np.ndarray, r: float) -> float:
    """Schatten r-norm from singular values: r = 1 trace, r = 2 Hilbert-Schmidt, r = inf operator norm."""
    if not r >= 1:  # NaN fails the comparison
        raise ValueError("Schatten exponent must be in [1, inf]")
    s = np.sort(np.abs(np.asarray(s, dtype=float)))[::-1]
    if s.size and s[0] > 0:
        s = np.where(s < _SV_CLAMP * s[0], 0.0, s)
    if math.isinf(r):
        return float(s[0]) if s.size else 0.0
    return float(np.sum(s**r) ** (1.0 / r))


def g_z_weight(z: complex, nu, lam: int) -> complex:
    """Analytic-family weight (lam - (2|nu| + n))_+^z / Gamma(z + 1), n the length of ``nu``.

    Zero when the gap is non-positive; the z = -1 surface-delta case is a
    dedicated path in build_t_z, not a pointwise formula, so negative
    integers are rejected here.
    """
    z = _pointwise_z(z)
    gap = int(lam - (2 * sum(nu) + len(nu)))
    if gap <= 0:
        return 0.0 + 0.0j
    return complex(gap**z / gamma(z + 1))


def _pointwise_z(z: complex) -> complex:
    """``z`` as a complex, rejected at the negative integers of the surface-delta path."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= -1.0 and z.real == int(z.real):
        raise ValueError("negative-integer z is handled only by the surface-delta path")
    return z


def default_lambda_cut(tr: Truncation) -> int:
    return 2 * tr.k_max + tr.n + 8


def _sqrt_weights(n_t: int, grid: GridSpec) -> np.ndarray:
    """sqrt(w_t w_z) of the weighted sample basis, shape (n_t, n_space)."""
    return np.sqrt(np.outer(np.full(n_t, 1.0 / n_t), grid.weight_tensor.ravel()))


def _dense_rows(n_t: int, grid: GridSpec) -> int:
    """Row count n_t * M^{2n} of a dense time x space operator, refused above _MAX_MATRIX_ENTRIES entries."""
    rows = n_t * grid.size
    if rows * rows > _MAX_MATRIX_ENTRIES:
        raise ValueError(f"dense operator would hold {rows * rows} entries (limit {_MAX_MATRIX_ENTRIES})")
    return rows


def build_t_z(z: complex, tr: Truncation, n_t: int, grid: GridSpec) -> np.ndarray:
    """Matrix of the Fourier-side multiplier family on the samples at the n_t ``time_nodes`` x space.

    T_z = F diag(g) F^H with F the lambda-grid frame, columns
    Phi_{mu nu}(z) e^{-i lambda t} sqrt(w_t w_z).  At z = -1 the weight
    degenerates to the surface delta and the matrix is assembled by summing
    over surface triples only, which reproduces the composition of the
    extension operator with its adjoint exactly.
    """
    rows = _dense_rows(n_t, grid)
    lams, weights = _t_z_factors(z, tr, n_t)
    basis = cached_basis(tr, grid).reshape(len(tr), -1)
    phases = np.exp(-1j * np.outer(time_nodes(n_t), lams))  # (n_t, n_lam)
    frame = np.einsum("al,pz,az->azpl", phases, basis, _sqrt_weights(n_t, grid)).reshape(rows, -1)
    return (frame * weights.ravel()) @ frame.conj().T


def _t_z_factors(z, tr, n_t):
    """Frequencies lambda_l and the weights g[p, l] of the frame columns (pair p, frequency lambda_l)."""
    cut = default_lambda_cut(tr)
    if n_t <= 2 * cut:
        raise ValueError(f"need more than {2 * cut} time nodes for frequency range +-{cut}")
    if complex(z) == -1.0 + 0.0j:
        lams = tr.level_blocks[0]
        weights = (tr.eigenvalues()[:, None] == lams).astype(float)
    else:
        z = _pointwise_z(z)
        lams = np.arange(-cut, cut + 1)
        gap = (lams[None, :] - tr.eigenvalues()[:, None]).astype(float)
        weights = np.where(gap > 0, np.maximum(gap, 1.0) ** z, 0.0) / gamma(z + 1)
    return lams, weights


def t_z_schatten(z: complex, tr: Truncation, n_t: int, grid: GridSpec, r: float) -> float:
    """Schatten norm of the multiplier family, read off the pairs x pairs basis Gram.

    The nodes are equispaced and n_t > 2 cut, so the Gram of the frame F of
    ``build_t_z`` is F^H F = G_b (x) I, with G_b = conj(B) diag(w_z) B^T the
    basis Gram.  For any R with R^H R = G_b the nonzero singular values of
    T = F diag(g) F^H are therefore those of R diag(g[:, l]) R^H, one block
    per frequency lambda_l.  R comes from ``eigh`` with the eigenvalues
    clamped at 0, so a rank-deficient Gram on a coarse grid is allowed.
    """
    _, weights = _t_z_factors(z, tr, n_t)
    basis = cached_basis(tr, grid).reshape(len(tr), -1)
    evals, evecs = np.linalg.eigh((basis.conj() * grid.weight_tensor.ravel()) @ basis.T)
    R = np.sqrt(np.maximum(evals, 0.0))[:, None] * evecs.conj().T
    blocks = (R * weights.T[:, None, :]) @ R.conj().T  # (n_lam, pairs, pairs)
    s = np.linalg.svd(blocks, compute_uv=False).ravel()
    return schatten_from_singular_values(s, r)


def extension_gram_matrix(tr: Truncation, n_t: int, grid: GridSpec) -> np.ndarray:
    """E_S E_S* as F F^H, F the sqrt(w_t w_z)-weighted synthesis of every basis pair at the n_t ``time_nodes``."""
    rows = _dense_rows(n_t, grid)
    F = propagate_samples(np.eye(len(tr)), tr, n_t, grid).reshape(rows, len(tr))
    F *= _sqrt_weights(n_t, grid).reshape(rows, 1)
    return F @ F.conj().T


def weighted_gram(w_samples: np.ndarray, tr: Truncation, grid: GridSpec) -> np.ndarray:
    """K(W) = A* |W|^2 A, the pairs x pairs Gram of the propagation frame weighted by |W|^2.

    ``w_samples`` has shape (n_t, *grid.shape), W at the n_t ``time_nodes``.  The time sum is taken
    first: with c_d = sum_a e^{i t_a d} w_z |W_a|^2 / n_t, one row per
    eigenvalue difference d, entry (p, q) is sum_z conj(B_p) c_{lambda_p - lambda_q} B_q.
    The block row of the eigenspace lambda_i is therefore
    conj(B_i) (B * c_{lambda_i - lambda})^T, so K costs one spatial Gram
    rather than one per time node, and the frame A is never formed.  Every
    difference d is even, so e^{i t d} is pi-periodic: on an even grid the
    weights |W_a|^2 and |W_{a + n_t/2}|^2 are summed before the phases multiply them.
    """
    w = np.asarray(w_samples)
    if w.shape[1:] != grid.shape or not len(w):
        raise ValueError(f"weight samples of shape {w.shape} are not (n_t >= 1, *{grid.shape})")
    basis = cached_basis(tr, grid).reshape(len(tr), -1)
    lam = tr.eigenvalues()
    levels, blocks = tr.level_blocks
    diffs, index = np.unique(levels[:, None] - lam, return_inverse=True)
    index = index.reshape(len(levels), len(lam))
    half = _half_period_nodes(len(w))
    w2 = (np.abs(w.reshape(-1, half, grid.size)) ** 2).sum(axis=0) * (grid.weight_tensor.ravel() / len(w))
    c = np.exp(1j * np.outer(diffs, time_nodes(len(w))[:half])) @ w2  # (n_diffs, n_space)
    K = np.empty((len(tr), len(tr)), dtype=complex)
    for block, row in zip(blocks, index):
        K[block] = basis[block].conj() @ (basis * c[row]).T
    return K


def sandwich_schatten(w_samples: np.ndarray, tr: Truncation, grid: GridSpec, r: float) -> float:
    """Schatten r-norm of the sandwich W (A A*) conj(W) on the time-space samples.

    The conjugate in the second multiplier makes the sandwich positive
    semidefinite; its nonzero eigenvalues, hence its singular values, are
    those of K(W) = A* |W|^2 A.
    """
    K = weighted_gram(w_samples, tr, grid)
    return schatten_from_singular_values(np.linalg.eigvalsh(K), r)


def duality_check(
    tr: Truncation,
    grid: GridSpec,
    weights: Iterable[np.ndarray],
    alpha: float,
    density_exponents: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray, int]:
    """Both duality-principle ratios, one sample per weight: (sandwich_ratios, density_ratios, skipped).

    ``weights`` yields sampled multiplication weights of shape (n_t, *grid.shape),
    each read once, in turn.  One eigendecomposition of K(W) gives both
    sides: the Schatten-alpha norm of the sandwich, compared with the squared
    mixed norm of W, and the matched system of ``matched_system``, whose density sum
    n_j |e^{-i t L} u_j|^2 has its mixed norm compared with the dual-exponent
    coefficient norm.  By the duality principle (Frank-Sabin 2017) a density
    in L^p_t L^q_z pairs with a weight in L^{2p'}_t L^{2q'}_z (1' = inf), so
    ``density_exponents`` = (p, q) fixes the weight's.  A side that
    degenerates (zero weight norm, empty system) is skipped and counted, so a
    zero weight counts twice; a side left with no ratio at all raises ``ValueError``.
    """
    if not alpha >= 1:  # NaN fails the comparison
        raise ValueError("alpha must be >= 1")
    alpha_dual = math.inf if alpha == 1 else alpha / (alpha - 1)
    weight_exponents = [math.inf if e == 1 else 2 * e / (e - 1) for e in density_exponents]
    sandwich_ratios = []
    density_ratios = []
    skipped = 0
    for w in weights:
        evals, evecs = np.linalg.eigh(weighted_gram(w, tr, grid))
        wn = mixed_norm(w, grid, *weight_exponents, measure="dt/2pi")
        if wn == 0.0:
            skipped += 1
        else:
            sandwich_ratios.append(schatten_from_singular_values(evals, alpha) / wn**2)
        coeffs, nj = _system_from_eigh(evals, evecs, alpha)
        if not np.any(nj):
            skipped += 1
            continue
        dn = density_norm(density(coeffs, nj, tr, len(w), grid), grid, *density_exponents, measure="dt/2pi")
        density_ratios.append(dn / float(np.linalg.norm(nj, ord=alpha_dual)))
    if not sandwich_ratios or not density_ratios:
        raise ValueError(
            f"duality check has no ratio on a side: every weight was degenerate ({skipped} sides skipped)"
        )
    return np.array(sandwich_ratios), np.array(density_ratios), skipped


def random_smoothed_weights(n_t: int, grid: GridSpec, seeds: Iterable[int]) -> Iterator[np.ndarray]:
    """Generic integrable weights at the n_t ``time_nodes``, one per seed: complex white noise mollified by e^{-0.2 L}.

    Each time slice of a complex Gaussian sample field (from
    ``default_rng(seed)``, the real parts drawn before the imaginary parts) is
    smoothed by one application of the semigroup (via its closed-form
    kernel), then the whole field is normalized to unit L^4_t L^4_z norm
    (``mixed_norm`` with measure dt/2pi).  One convolver serves every seed, so the kernel's
    spectrum is built once and released with the generator.
    """
    kernel = mehler_kernel_field(ComplexTime(0.2, 0.0), make_grid(1, grid.L, grid.M))
    smoothing = TwistedConvolver((kernel,) * grid.n)
    raw = np.empty((n_t,) + grid.shape, dtype=complex)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        raw.real = rng.standard_normal(raw.shape)
        raw.imag = rng.standard_normal(raw.shape)
        smooth = smoothing.apply(raw)
        smooth /= mixed_norm(smooth, grid, 4.0, 4.0, measure="dt/2pi")
        yield smooth


def matched_system(tr: Truncation, grid: GridSpec, w_samples: np.ndarray, alpha: float):
    """System adapted to a weight: eigenvectors of K(W) = A* |W|^2 A with the dual-optimal n_j.

    Pairing the density against |W|^2 then saturates the Schatten bound, so
    the two duality constants can be compared without a search.
    """
    evals, evecs = np.linalg.eigh(weighted_gram(w_samples, tr, grid))
    return _system_from_eigh(evals, evecs, alpha)


def _system_from_eigh(evals: np.ndarray, evecs: np.ndarray, alpha: float):
    """Columns and n_j = eigenvalue^(alpha - 1) of the eigenpairs above the clamp, largest first."""
    order = np.argsort(evals)[::-1]
    evals, evecs = np.maximum(evals[order], 0.0), evecs[:, order]
    keep = evals > _SV_CLAMP * (evals[0] if evals.size and evals[0] > 0 else 1.0)
    nj = evals[keep] ** (alpha - 1.0)
    return evecs[:, keep], nj
