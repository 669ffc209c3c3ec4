"""Pass/fail checks shared by the CLI subcommands and the acceptance criteria.

Each check measures one quantity and compares it with its bound, written only
here; the caller picks the truncation, grids, times and samples it runs at.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Field, GridSpec, lp_norm
from .indices import Truncation
from .propagator import ComplexTime, evolve_kernel, evolve_spectral, mehler_kernel, propagate_coeffs
from .schatten import random_smoothed_weights, sandwich_schatten
from .singularity import h_kernel_rate
from .strichartz import density, density_norm, eigenfunction_system
from .twisted import apply_twisted_laplacian, cached_basis, inverse_transform


@dataclass(frozen=True)
class Check:
    """One measured quantity and whether it is within its bound."""

    name: str
    value: float
    passed: bool
    detail: str


def gram_identity(tr: Truncation, grid: GridSpec) -> Check:
    """Largest entry of the sampled basis Gram matrix minus the identity."""
    basis = cached_basis(tr, grid).reshape(len(tr), -1)
    err = float(np.abs((basis * grid.weight_tensor.ravel()) @ basis.conj().T - np.eye(len(tr))).max())
    return Check("gram-identity", err, err <= 1e-6, f"max err {err:.3e}")


# entries of the stack of basis fields per Laplacian call: the whole n = 1 basis, a few n = 2 fields
_STACK_ENTRIES = 1 << 20


def eigenrelation(tr: Truncation, grid: GridSpec) -> Check:
    """Largest relative L2 residual of L Phi = lambda Phi; ValueError if the grid is too coarse for L."""
    basis = cached_basis(tr, grid)
    lam = tr.eigenvalues.reshape(-1, *[1] * (2 * grid.n))
    w = grid.weight_tensor.ravel()
    step = max(1, _STACK_ENTRIES // grid.size)
    worst = 0.0
    for i in range(0, len(tr), step):
        f = basis[i : i + step]
        res = apply_twisted_laplacian(f, grid) - lam[i : i + step] * f
        res_norm, f_norm = (np.sqrt((np.abs(a.reshape(len(f), -1)) ** 2 * w).sum(axis=1)) for a in (res, f))
        worst = float(np.maximum(worst, np.max(res_norm / f_norm)))  # a NaN residual stays NaN and fails
    return Check("eigenrelation", worst, worst <= 1e-3, f"max residual {worst:.3e}")


def kernel_vs_spectral(c: np.ndarray, tr: Truncation, grid: GridSpec, eta: ComplexTime) -> Check:
    """Relative L2 gap between the kernel and the diagonal spectral semigroup at eta, from ``c`` over ``tr``."""
    via_kernel = evolve_kernel(inverse_transform(c, tr, grid), eta)
    via_spectral = inverse_transform(evolve_spectral(c, tr, eta), tr, grid)
    rel = lp_norm(Field(grid, via_kernel.values - via_spectral.values), 2) / lp_norm(via_spectral, 2)
    return Check("kernel-vs-spectral", rel, rel <= 1e-6, f"rel L2 err {rel:.3e}")


def kernel_modulus_law(ts, zs, n: int) -> Check:
    """Largest |K_{it}(z)| |sin t|^n: the kernel grows no faster than |sin t|^{-n}."""
    bound = max(abs(mehler_kernel(ComplexTime(0.0, t), z, n)) * abs(math.sin(t)) ** n for t in ts for z in zs)
    return Check("kernel-modulus-law", bound, bound <= 2.0, f"max |K||sin t|^n {bound:.4f}")


def periodicity(c: np.ndarray, tr: Truncation, t: float) -> Check:
    """Largest coefficient change from time t to t + 2 pi, which must be exactly zero."""
    diff = float(np.abs(propagate_coeffs(c, tr, t) - propagate_coeffs(c, tr, t + 2.0 * math.pi)).max())
    return Check("periodicity", diff, diff == 0.0, f"max coeff diff {diff:.1e}")


def unitarity(c: np.ndarray, tr: Truncation, t: float) -> Check:
    """Change of the coefficient l2 norm under the evolution to time t."""
    drift = float(np.abs(np.linalg.norm(propagate_coeffs(c, tr, t)) - np.linalg.norm(c)))
    return Check("unitarity", drift, drift <= 1e-12, f"norm drift {drift:.1e}")


def remainder_tau_stable(coarse: np.ndarray, fine: np.ndarray) -> Check:
    """Relative change of sup |b| between the remainders b at two Abel parameters; b must not depend on tau."""
    sup_coarse, sup_fine = (float(np.abs(b).max()) for b in (coarse, fine))
    drift = abs(sup_coarse - sup_fine) / sup_fine
    return Check("remainder-tau-stable", drift, drift <= 0.10, f"drift {drift:.2%}")


def kernel_rate_law(n: int) -> Check:
    """Largest error of the fitted blow-up rate of |H| against -(z + 1 + n)."""
    worst = max(abs(h_kernel_rate(complex(z), n=n) + (z + 1 + n)) for z in (-0.25, -0.5, -1.0, -1.5, -2.0))
    return Check("kernel-rate-law", worst, worst <= 0.1, f"max slope err {worst:.3f}")


def schatten_ratios(tr: Truncation, n_t: int, grid: GridSpec, seeds) -> np.ndarray:
    """Schatten-4 norm of the sandwich over ||W||^2 in L^4_t L^4_z, one per random weight.

    ``random_smoothed_weights`` normalizes each W to ||W|| = 1 in L^4_t L^4_z
    (measure dt/2pi), so the ratio is the Schatten norm itself.
    """
    return np.array([sandwich_schatten(W, tr, grid, 4.0) for W in random_smoothed_weights(n_t, grid, seeds)])


def max_over_median(ratios: np.ndarray) -> Check:
    """Spread of the Schatten ratios: a uniform bound keeps the largest near the median."""
    spread = float(ratios.max() / np.median(ratios))
    return Check("max-over-median", spread, spread <= 5.0, f"{spread:.3f}")


def weight_ratios_finite(ratios: np.ndarray) -> Check:
    """Every Schatten ratio of a run over random weights is finite."""
    return Check("ratios-finite", float(ratios.max()), bool(np.all(np.isfinite(ratios))), f"{len(ratios)} weights")


def ratios_finite(ratios: np.ndarray) -> Check:
    """Every Strichartz quotient of a sweep is finite; the value is the largest, NaN if any quotient is NaN."""
    worst = float(np.max(ratios))
    return Check("ratios-finite", worst, bool(np.all(np.isfinite(ratios))), f"max {worst:.4f}")


def single_mode_closed_form(tr: Truncation, n_t: int, grid: GridSpec) -> Check:
    """Error of the (2, 2) quotient of the first mode alone.

    The density of Phi_00 is (2 pi)^{-n} e^{-|z|^2/2} at every t, so the exact
    value is 2^{1/2-n} pi^{(1-n)/2} (2^{-1/2} at n = 1).  The weights (1) have
    dual norm 1, so the quotient is the density's L^2_t L^2_z norm; (2, 2) is
    chosen for this closed form and is off the admissible line at n >= 2.
    """
    r0 = density_norm(density(eigenfunction_system(tr, 1), [1.0], tr, n_t, grid), grid, 2.0, 2.0)
    n = grid.n
    err = abs(r0 - 2 ** (0.5 - n) * math.pi ** ((1 - n) / 2))
    return Check("single-mode-closed-form", err, err <= 1e-3, f"ratio {r0:.6f}")


def growth_exponent(slope: float) -> Check:
    """Fitted N-growth of the density norm: theory 0.75, the triangle inequality's rate 1."""
    return Check("growth-exponent", slope, 0.6 <= slope <= 0.85, f"{slope:.4f}")


def constants_finite(max_sandwich: float, max_density: float) -> Check:
    """Both empirical duality constants are finite."""
    ok = math.isfinite(max_sandwich) and math.isfinite(max_density)
    detail = f"sandwich {max_sandwich:.4f}, density {max_density:.4f}"
    return Check("constants-finite", max(max_sandwich, max_density), ok, detail)


def constants_comparable(max_sandwich: float, max_density: float) -> Check:
    """Ratio of the larger duality constant to the smaller."""
    factor = max(max_sandwich, max_density) / min(max_sandwich, max_density)
    return Check("constants-comparable", factor, factor <= 3.0, f"factor {factor:.3f}")
