"""Finite realizations of the time-extension operator and its Schatten analysis.

Operators on L^2 of (time circle) x C^n are represented in the weighted
sample basis: a function F becomes the vector F(t_a, z_b) sqrt(w_a w_b),
so multiplication operators are diagonal and adjoints are conjugate
transposes.  The circle carries the normalized measure dt / (2 pi)
throughout this module, which makes e^{-i lambda t} an orthonormal family
and the propagation matrix an isometry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.special import gamma as _gamma

from .grids import Field, GridSpec, TimeGrid, mixed_norm
from .indices import MultiIndex, MultiIndexPair, Truncation
from .twisted import SpectralCoeffs, cached_basis

# relative floor under which singular values are treated as exact zeros:
# rank-deficient sandwiches otherwise pollute trace-class sums with noise
_SV_CLAMP = 1e-10

_MAX_MATRIX_ENTRIES = int(2e7)


@dataclass(frozen=True)
class SurfacePoint:
    """Triple (mu, nu, lambda); lies on the spectral surface iff lambda = 2|nu| + n."""

    mu: MultiIndex
    nu: MultiIndex
    lam: int

    def __post_init__(self):
        if self.mu.n != self.nu.n:
            raise ValueError("dimension mismatch")

    def on_surface(self) -> bool:
        return self.lam == 2 * self.nu.degree + self.mu.n


@dataclass
class SchattenReport:
    """Singular values and the Schatten r-norm of an operator."""

    singular_values: np.ndarray
    r: float
    norm: float
    shape: tuple[int, int]


def _clamped_svals(s: np.ndarray) -> np.ndarray:
    s = np.sort(np.abs(s))[::-1]
    if s.size and s[0] > 0:
        s = np.where(s < _SV_CLAMP * s[0], 0.0, s)
    return s


def schatten_from_singular_values(s: np.ndarray, r: float, shape) -> SchattenReport:
    s = _clamped_svals(np.asarray(s, dtype=float))
    if math.isinf(r):
        norm = float(s[0]) if s.size else 0.0
    else:
        norm = float(np.sum(s**r) ** (1.0 / r))
    return SchattenReport(singular_values=s, r=r, norm=norm, shape=tuple(shape))


def schatten_norm(T: np.ndarray, r: float) -> SchattenReport:
    """Schatten r-norm via singular value decomposition.

    r = 1 is the trace norm, r = 2 Hilbert-Schmidt, r = inf the operator norm.
    """
    if r < 1:
        raise ValueError("Schatten exponent must be in [1, inf]")
    T = np.asarray(T)
    if not np.all(np.isfinite(T)):
        raise ValueError("matrix has non-finite entries")
    s = linalg.svdvals(T)
    return schatten_from_singular_values(s, r, T.shape)


@dataclass
class PropagationMatrix:
    """Discretized propagator rows (t, z), columns basis pairs; an isometry.

    Entries e^{-i t lambda} Phi_{mu nu}(z) sqrt(w_t w_z) with the normalized
    circle measure, so the column Gram is the identity up to quadrature error.
    """

    truncation: Truncation
    time_grid: TimeGrid
    grid: GridSpec
    matrix: np.ndarray = field(repr=False)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    def gram(self) -> np.ndarray:
        return self.matrix.conj().T @ self.matrix

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """Samples (unweighted) of the propagated functions.

        A coefficient vector gives shape (n_t, *grid.shape); a matrix with
        one column per function gives a trailing function axis.
        """
        c = np.asarray(coeffs, dtype=complex)
        out = self.matrix @ c
        sqrtw = self._sqrt_weights().ravel()
        if c.ndim == 1:
            return (out / sqrtw).reshape((self.time_grid.n_t,) + self.grid.shape)
        return (out / sqrtw[:, None]).reshape((self.time_grid.n_t,) + self.grid.shape + (c.shape[1],))

    def _sqrt_weights(self) -> np.ndarray:
        wt = np.full(self.time_grid.n_t, 1.0 / self.time_grid.n_t)
        wz = self.grid.weight_tensor.ravel()
        return np.sqrt(np.outer(wt, wz))


def build_propagation_matrix(tr: Truncation, tg: TimeGrid, grid: GridSpec) -> PropagationMatrix:
    entries = tg.n_t * grid.size * len(tr)
    if entries > _MAX_MATRIX_ENTRIES:
        raise ValueError(f"propagation matrix would hold {entries} entries (limit {_MAX_MATRIX_ENTRIES})")
    basis = cached_basis(tr, grid).reshape(len(tr), -1)
    lam = np.array(tr.eigenvalues(), dtype=float)
    phases = np.exp(-1j * np.outer(tg.nodes, lam))  # (n_t, n_pairs)
    wt = np.full(tg.n_t, 1.0 / tg.n_t)
    wz = grid.weight_tensor.ravel()
    sqrtw = np.sqrt(np.outer(wt, wz))  # (n_t, n_space)
    mat = np.einsum("ap,pz,az->azp", phases, basis, sqrtw).reshape(tg.n_t * grid.size, len(tr))
    return PropagationMatrix(truncation=tr, time_grid=tg, grid=grid, matrix=mat)


def extension_operator(fhat: dict, tg: TimeGrid, grid: GridSpec, tr: Truncation) -> np.ndarray:
    """Synthesis sum over surface triples: sum of fhat * Phi_{mu nu}(z) e^{-i lambda t}.

    ``fhat`` maps SurfacePoint (or (pair, lambda) tuples) to coefficients;
    off-surface support is rejected.  Returns samples of shape (n_t, *grid.shape).
    """
    basis = cached_basis(tr, grid)
    out = np.zeros((tg.n_t,) + grid.shape, dtype=complex)
    for key, value in fhat.items():
        if isinstance(key, SurfacePoint):
            pair, lam = MultiIndexPair(key.mu, key.nu), key.lam
        else:
            pair, lam = key
        if lam != pair.eigenvalue():
            raise ValueError(f"triple {(pair.mu, pair.nu, lam)} lies off the spectral surface")
        i = tr.position(pair)
        out += value * np.exp(-1j * lam * tg.nodes).reshape((-1,) + (1,) * len(grid.shape)) * basis[i]
    return out


def surface_coefficients(u_hat: SpectralCoeffs) -> dict:
    """The canonical lift of spatial coefficients onto the surface: (2 pi)^n * u_hat."""
    n = u_hat.truncation.n
    scale = (2.0 * math.pi) ** n
    return {
        (pair, pair.eigenvalue()): scale * u_hat.coeffs[i]
        for i, pair in enumerate(u_hat.truncation.index_set)
        if u_hat.coeffs[i] != 0
    }


def g_z_weight(z: complex, mu: MultiIndex, nu: MultiIndex, lam: int) -> complex:
    """Analytic-family weight (lam - (2|nu| + n))_+^z / Gamma(z + 1).

    Zero when the gap is non-positive; the z = -1 surface-delta case is a
    dedicated path in build_t_z, not a pointwise formula, so negative
    integers are rejected here.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= -1.0 and z.real == int(z.real):
        raise ValueError("negative-integer z is handled only by the surface-delta path")
    gap = lam - (2 * nu.degree + mu.n)
    if gap <= 0:
        return 0.0 + 0.0j
    return complex(gap**z / _gamma(z + 1))


def default_lambda_cut(tr: Truncation) -> int:
    return 2 * tr.k_max + tr.n + 8


def _fourier_frame(tr: Truncation, tg: TimeGrid, grid: GridSpec, lams: np.ndarray) -> np.ndarray:
    """Columns Phi_{mu nu}(z) e^{-i lambda t} sqrt(w_t w_z): orthonormal when n_t > 2 max|lambda|."""
    basis = cached_basis(tr, grid).reshape(len(tr), -1)
    wt = np.full(tg.n_t, 1.0 / tg.n_t)
    wz = grid.weight_tensor.ravel()
    sqrtw = np.sqrt(np.outer(wt, wz))  # (n_t, n_space)
    phases = np.exp(-1j * np.outer(tg.nodes, lams))  # (n_t, n_lam)
    cols = np.einsum("al,pz,az->azpl", phases, basis, sqrtw)
    return cols.reshape(tg.n_t * grid.size, len(tr) * len(lams))


def build_t_z(
    z: complex,
    tr: Truncation,
    tg: TimeGrid,
    grid: GridSpec,
    lambda_cut: int | None = None,
) -> np.ndarray:
    """Matrix of the Fourier-side multiplier family on time x space samples.

    At z = -1 the weight degenerates to the surface delta and the matrix is
    assembled by summing over surface triples only, which reproduces the
    composition of the extension operator with its adjoint exactly.
    """
    frame, weights = _t_z_factors(z, tr, tg, grid, lambda_cut)
    rows = frame.shape[0]
    if rows * rows > _MAX_MATRIX_ENTRIES:
        raise ValueError(f"dense operator would hold {rows * rows} entries (limit {_MAX_MATRIX_ENTRIES})")
    return (frame * weights) @ frame.conj().T


def _t_z_factors(z, tr, tg, grid, lambda_cut=None):
    cut = default_lambda_cut(tr) if lambda_cut is None else lambda_cut
    if cut < default_lambda_cut(tr):
        raise ValueError(f"lambda cut {cut} below required {default_lambda_cut(tr)}")
    if tg.n_t <= 2 * cut:
        raise ValueError(f"need more than {2 * cut} time nodes for frequency range +-{cut}")
    if complex(z) == -1.0 + 0.0j:
        lams = np.array(sorted({p.eigenvalue() for p in tr.index_set}))
        weights = np.array(
            [1.0 if p.eigenvalue() == lam else 0.0 for p in tr.index_set for lam in lams]
        )
    else:
        lams = np.arange(-cut, cut + 1)
        weights = np.array(
            [g_z_weight(z, p.mu, p.nu, int(lam)) for p in tr.index_set for lam in lams]
        )
    if tg.n_t * grid.size * len(tr) * len(lams) > 4 * _MAX_MATRIX_ENTRIES:
        raise ValueError("frame too large; shrink the grid, truncation, or frequency cut")
    return _fourier_frame(tr, tg, grid, lams), weights


def t_z_schatten(z: complex, tr: Truncation, tg: TimeGrid, grid: GridSpec, r: float, lambda_cut: int | None = None) -> SchattenReport:
    """Schatten norm of the multiplier family without forming the dense matrix.

    With T = F diag(g) F^H and F = QR, the nonzero singular values of T are
    those of the small matrix R diag(g) R^H, so the cost is set by the frame
    width rather than by the number of grid samples.
    """
    frame, weights = _t_z_factors(z, tr, tg, grid, lambda_cut)
    R = linalg.qr(frame, mode="economic")[1]
    small = (R * weights) @ R.conj().T
    rows = frame.shape[0]
    return schatten_from_singular_values(linalg.svdvals(small), r, (rows, rows))


def extension_gram_matrix(tr: Truncation, tg: TimeGrid, grid: GridSpec) -> np.ndarray:
    """E_S E_S* assembled directly from the extension operator's surface frame."""
    rows = tg.n_t * grid.size
    if rows * rows > _MAX_MATRIX_ENTRIES:
        raise ValueError(f"dense operator would hold {rows * rows} entries (limit {_MAX_MATRIX_ENTRIES})")
    lams = np.array(sorted({p.eigenvalue() for p in tr.index_set}))
    frame = _fourier_frame(tr, tg, grid, lams)
    mask = np.array(
        [1.0 if p.eigenvalue() == lam else 0.0 for p in tr.index_set for lam in lams]
    )
    cols = frame[:, mask > 0]
    return cols @ cols.conj().T


@dataclass
class SandwichOperator:
    """The operator W (A A*) conj(W), held in factored form X X^H, X = diag(W) A.

    The conjugate in the second multiplier makes the sandwich positive
    semidefinite; its singular values are the squared singular values of X.
    """

    factor: np.ndarray = field(repr=False)

    def singular_values(self) -> np.ndarray:
        return _clamped_svals(linalg.svdvals(self.factor) ** 2)

    def schatten(self, r: float) -> SchattenReport:
        n = self.factor.shape[0]
        return schatten_from_singular_values(self.singular_values(), r, (n, n))

    def rank(self, tol: float = 1e-8) -> int:
        s = self.singular_values()
        return int(np.sum(s > tol * (s[0] if s.size and s[0] > 0 else 1.0)))

    def matrix(self) -> np.ndarray:
        n = self.factor.shape[0]
        if n * n > _MAX_MATRIX_ENTRIES:
            raise ValueError("dense sandwich too large; use the factored accessors")
        return self.factor @ self.factor.conj().T


def sandwich_operator(w_samples: np.ndarray, A: PropagationMatrix) -> SandwichOperator:
    """Sandwich a multiplication weight around A A*.

    ``w_samples`` has shape (n_t, *grid.shape); in the weighted sample basis
    multiplication by W is diagonal, so the factor is diag(W) A.
    """
    w = np.asarray(w_samples, dtype=complex)
    if w.shape != (A.time_grid.n_t,) + A.grid.shape:
        raise ValueError("weight samples inconsistent with the operator's grids")
    return SandwichOperator(factor=w.reshape(-1, 1) * A.matrix)


@dataclass
class DualityReport:
    """Empirical constants for the two sides of the sandwich/density duality."""

    alpha: float
    alpha_dual: float
    sandwich_ratios: np.ndarray
    density_ratios: np.ndarray
    skipped: int

    @property
    def max_sandwich(self) -> float:
        return float(np.max(self.sandwich_ratios))

    @property
    def max_density(self) -> float:
        return float(np.max(self.density_ratios))


def duality_check(
    A: PropagationMatrix,
    systems: list[tuple[np.ndarray, np.ndarray]],
    weights: list[np.ndarray],
    alpha: float,
    w_exponents: tuple[float, float],
    density_exponents: tuple[float, float],
) -> DualityReport:
    """Evaluate both duality-principle inequalities on paired samples.

    ``systems`` holds (coefficient matrix with orthonormal columns, n_j);
    ``weights`` holds sampled multiplication weights on the time-space grid.
    For each weight the Schatten-alpha norm of the sandwich is compared with
    the squared mixed norm of W; for each system the mixed norm of the
    density sum n_j |A u_j|^2 is compared with the dual-exponent coefficient
    norm.  Degenerate (zero) samples are skipped and counted.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    alpha_dual = math.inf if alpha == 1 else alpha / (alpha - 1)
    tg, grid = A.time_grid, A.grid
    sandwich_ratios = []
    skipped = 0
    for w in weights:
        wn = mixed_norm(
            np.asarray(w).reshape((tg.n_t,) + grid.shape), tg, grid, *w_exponents, measure="dt/2pi"
        )
        if wn == 0.0:
            skipped += 1
            continue
        rep = sandwich_operator(w, A).schatten(alpha)
        sandwich_ratios.append(rep.norm / wn**2)
    density_ratios = []
    for coeffs, nj in systems:
        nj = np.asarray(nj, dtype=complex)
        if not np.any(nj):
            skipped += 1
            continue
        fields = A.apply(coeffs)  # (n_t, *space, N) ... coeffs (n_pairs, N)
        dens = np.einsum("j,a...j->a...", nj, np.abs(fields) ** 2)
        dn = mixed_norm(dens, tg, grid, *density_exponents, measure="dt/2pi")
        if math.isinf(alpha_dual):
            coeff_norm = float(np.max(np.abs(nj)))
        else:
            coeff_norm = float(np.sum(np.abs(nj) ** alpha_dual) ** (1.0 / alpha_dual))
        density_ratios.append(dn / coeff_norm)
    return DualityReport(
        alpha=alpha,
        alpha_dual=alpha_dual,
        sandwich_ratios=np.array(sandwich_ratios),
        density_ratios=np.array(density_ratios),
        skipped=skipped,
    )


def random_smoothed_weight(tg: TimeGrid, grid: GridSpec, seed: int) -> np.ndarray:
    """Generic integrable weight: complex white noise mollified by e^{-0.2 L}.

    Each time slice of a complex Gaussian sample field is smoothed by one
    application of the semigroup (via its closed-form kernel), then the
    whole field is normalized to unit L^4 norm on the product measure.
    """
    from .propagator import ComplexTime, mehler_kernel_field
    from .twisted import twisted_convolve

    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((tg.n_t,) + grid.shape) + 1j * rng.standard_normal((tg.n_t,) + grid.shape)
    kernel = mehler_kernel_field(ComplexTime(0.2, 0.0), grid)
    smooth = np.stack(
        [twisted_convolve(Field(grid, raw[a]), kernel).values for a in range(tg.n_t)]
    )
    norm = mixed_norm(smooth, tg, grid, 4.0, 4.0, measure="dt/2pi")
    return smooth / norm


def matched_system(A: PropagationMatrix, w_samples: np.ndarray, alpha: float, n_modes: int | None = None):
    """System adapted to a weight: eigenvectors of A* |W|^2 A with the dual-optimal n_j.

    Pairing the density against |W|^2 then saturates the Schatten bound, so
    the two duality constants can be compared without a search.
    """
    w2 = np.abs(np.asarray(w_samples).reshape(-1)) ** 2
    K = A.matrix.conj().T @ (w2[:, None] * A.matrix)
    evals, evecs = linalg.eigh(K)
    order = np.argsort(evals)[::-1]
    evals, evecs = np.maximum(evals[order], 0.0), evecs[:, order]
    if n_modes is not None:
        evals, evecs = evals[:n_modes], evecs[:, :n_modes]
    keep = evals > _SV_CLAMP * (evals[0] if evals.size and evals[0] > 0 else 1.0)
    nj = evals[keep] ** (alpha - 1.0)
    return evecs[:, keep], nj
