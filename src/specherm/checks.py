"""Pass/fail checks shared by the CLI subcommands and the acceptance criteria.

Each check measures one quantity and compares it with its bound, written only
here; the caller picks the truncation, grids, times and samples it runs at.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Field, GridSpec, TimeGrid, lp_norm, mixed_norm
from .indices import Truncation
from .propagator import ComplexTime, evolve_kernel, evolve_spectral, mehler_kernel, propagate_coeffs
from .schatten import DualityReport, random_smoothed_weight, sandwich_schatten
from .singularity import RemainderProfile, h_kernel_rate
from .strichartz import CoefficientVector, eigenfunction_system, strichartz_ratio
from .twisted import SpectralCoeffs, apply_twisted_laplacian, cached_basis, inverse_transform


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


def eigenrelation(tr: Truncation, grid: GridSpec) -> Check:
    """Largest relative L2 residual of L Phi = lambda Phi; ValueError if the grid is too coarse for L."""
    worst = 0.0
    for pair, values in zip(tr.index_set, cached_basis(tr, grid)):
        f = Field(grid, values)
        res = Field(grid, apply_twisted_laplacian(f).values - pair.eigenvalue() * f.values)
        worst = max(worst, lp_norm(res, 2) / lp_norm(f, 2))
    return Check("eigenrelation", worst, worst <= 1e-3, f"max residual {worst:.3e}")


def kernel_vs_spectral(c: SpectralCoeffs, grid: GridSpec, eta: ComplexTime) -> Check:
    """Relative L2 gap between the kernel and the diagonal spectral semigroup at eta."""
    via_kernel = evolve_kernel(inverse_transform(c, grid), eta)
    via_spectral = inverse_transform(evolve_spectral(c, eta), grid)
    rel = lp_norm(Field(grid, via_kernel.values - via_spectral.values), 2) / lp_norm(via_spectral, 2)
    return Check("kernel-vs-spectral", rel, rel <= 1e-6, f"rel L2 err {rel:.3e}")


def kernel_modulus_law(ts, zs, n: int) -> Check:
    """Largest |K_{it}(z)| |sin t|^n: the kernel grows no faster than |sin t|^{-n}."""
    bound = max(abs(mehler_kernel(ComplexTime(0.0, t), z, n)) * abs(math.sin(t)) ** n for t in ts for z in zs)
    return Check("kernel-modulus-law", bound, bound <= 2.0, f"max |K||sin t|^n {bound:.4f}")


def periodicity(c: SpectralCoeffs, t: float) -> Check:
    """Largest coefficient change from time t to t + 2 pi, which must be exactly zero."""
    diff = float(np.abs(propagate_coeffs(c, t).coeffs - propagate_coeffs(c, t + 2.0 * math.pi).coeffs).max())
    return Check("periodicity", diff, diff == 0.0, f"max coeff diff {diff:.1e}")


def unitarity(c: SpectralCoeffs, t: float) -> Check:
    """Change of the coefficient l2 norm under the evolution to time t."""
    drift = float(np.abs(np.linalg.norm(propagate_coeffs(c, t).coeffs) - np.linalg.norm(c.coeffs)))
    return Check("unitarity", drift, drift <= 1e-12, f"norm drift {drift:.1e}")


def remainder_tau_stable(coarse: RemainderProfile, fine: RemainderProfile) -> Check:
    """Relative change of sup |b| between two Abel parameters; b must not depend on tau."""
    drift = abs(coarse.sup_abs - fine.sup_abs) / fine.sup_abs
    return Check("remainder-tau-stable", drift, drift <= 0.10, f"drift {drift:.2%}")


def kernel_rate_law(n: int) -> Check:
    """Largest error of the fitted blow-up rate of |H| against -(z + 1 + n)."""
    worst = max(abs(h_kernel_rate(complex(z), n=n) + (z + 1 + n)) for z in (-0.25, -0.5, -1.0, -1.5, -2.0))
    return Check("kernel-rate-law", worst, worst <= 0.1, f"max slope err {worst:.3f}")


def schatten_ratios(tr: Truncation, tg: TimeGrid, grid: GridSpec, seeds) -> np.ndarray:
    """Schatten-4 norm of the sandwich over ||W||^2 in L^4_t L^4_z, one per random weight."""
    ratios = []
    for seed in seeds:
        W = random_smoothed_weight(tg, grid, seed)
        num = sandwich_schatten(W, tr, tg, grid, 4.0).norm
        ratios.append(num / mixed_norm(W, tg, grid, 4.0, 4.0, measure="dt/2pi") ** 2)
    return np.array(ratios)


def max_over_median(ratios: np.ndarray) -> Check:
    """Spread of the Schatten ratios: a uniform bound keeps the largest near the median."""
    spread = float(ratios.max() / np.median(ratios))
    return Check("max-over-median", spread, spread <= 5.0, f"{spread:.3f}")


def ratios_finite(max_ratio: float) -> Check:
    """The largest Strichartz quotient of a sweep is finite."""
    return Check("ratios-finite", max_ratio, math.isfinite(max_ratio), f"max {max_ratio:.4f}")


def single_mode_closed_form(tr: Truncation, tg: TimeGrid, grid: GridSpec) -> Check:
    """Error of the (2, 2) quotient of the first mode alone, whose exact value is 2^{-1/2}."""
    r0 = strichartz_ratio(eigenfunction_system(tr, 1), CoefficientVector([1.0]), 2.0, 2.0, tg, grid)
    err = abs(r0 - 2**-0.5)
    return Check("single-mode-closed-form", err, err <= 1e-3, f"ratio {r0:.6f}")


def growth_exponent(slope: float) -> Check:
    """Fitted N-growth of the density norm: theory 0.75, the triangle inequality's rate 1."""
    return Check("growth-exponent", slope, 0.6 <= slope <= 0.85, f"{slope:.4f}")


def constants_finite(rep: DualityReport) -> Check:
    """Both empirical duality constants are finite."""
    ok = math.isfinite(rep.max_sandwich) and math.isfinite(rep.max_density)
    detail = f"sandwich {rep.max_sandwich:.4f}, density {rep.max_density:.4f}"
    return Check("constants-finite", max(rep.max_sandwich, rep.max_density), ok, detail)


def constants_comparable(rep: DualityReport) -> Check:
    """Ratio of the larger duality constant to the smaller."""
    factor = max(rep.max_sandwich, rep.max_density) / min(rep.max_sandwich, rep.max_density)
    return Check("constants-comparable", factor, factor <= 3.0, f"factor {factor:.3f}")
