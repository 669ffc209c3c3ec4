"""End-to-end acceptance battery.

One test per criterion; each prints a single pass/fail line (run with -s or
rely on pytest's captured output on failure).  Everything runs at desk
scale: n = 1, degree cap at most 8, at most 64 grid points per axis, at
most 64 time nodes.
"""
import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma, zeta

from specherm.grids import (
    Field,
    default_half_width,
    lp_norm,
    make_grid,
    make_time_grid,
    mixed_norm,
)
from specherm.indices import MultiIndex, MultiIndexPair, enumerate_pairs
from specherm.propagator import ComplexTime, evolve_kernel, evolve_spectral, mehler_kernel, propagate_coeffs
from specherm.schatten import (
    build_t_z,
    default_lambda_cut,
    duality_check,
    extension_gram_matrix,
    g_z_weight,
    random_smoothed_weight,
    sandwich_schatten,
)
from specherm.singularity import abel_sum, default_config, h_kernel_rate, remainder_profile, singular_term
from specherm.strichartz import (
    CoefficientVector,
    SweepConfig,
    eigenfunction_system,
    strichartz_ratio,
    sweep,
)
from specherm.twisted import (
    SpectralCoeffs,
    apply_twisted_laplacian,
    cached_basis,
    forward_transform,
    inverse_transform,
    twisted_convolve_batch,
)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_coeffs(tr, seed=0):
    rng = np.random.default_rng(seed)
    return SpectralCoeffs(tr, rng.standard_normal(len(tr)) + 1j * rng.standard_normal(len(tr)))


def test_criterion_1_basis_fidelity():
    tr = enumerate_pairs(1, 8)
    grid = make_grid(1, default_half_width(1, 8), 64)
    basis = cached_basis(tr, grid).reshape(len(tr), -1)
    w = grid.weight_tensor.ravel()
    gram_err = float(np.abs((basis * w) @ basis.conj().T - np.eye(len(tr))).max())

    tr6 = enumerate_pairs(1, 6)
    grid6 = make_grid(1, default_half_width(1, 6), 64)
    basis6 = cached_basis(tr6, grid6)
    worst = 0.0
    for i, pair in enumerate(tr6.index_set):
        f = Field(grid6, basis6[i])
        lf = apply_twisted_laplacian(f)
        res = lp_norm(Field(grid6, lf.values - pair.eigenvalue() * f.values), 2) / lp_norm(f, 2)
        worst = max(worst, res)
    report(
        "criterion 1 basis fidelity",
        gram_err <= 1e-6 and worst <= 1e-3,
        f"gram err {gram_err:.2e} (<=1e-6), eigen residual {worst:.2e} (<=1e-3)",
    )


def test_criterion_2_twisted_orthogonality():
    tr = enumerate_pairs(1, 3)
    grid = make_grid(1, default_half_width(1, 3), 48)
    basis = cached_basis(tr, grid)
    fields = {p: Field(grid, basis[i]) for i, p in enumerate(tr.index_set)}
    worst = 0.0
    root = math.sqrt(2 * math.pi)
    for pg in tr.index_set:
        products = twisted_convolve_batch(basis, fields[pg])  # every pf at once
        for pf, got in zip(tr.index_set, products):
            if pf.nu == pg.mu:
                want = root * fields[MultiIndexPair(pf.mu, pg.nu)].values
            else:
                want = 0.0
            worst = max(worst, float(np.abs(got - want).max()))
    report("criterion 2 twisted orthogonality", worst <= 1e-4, f"max entry error {worst:.2e} (<=1e-4)")


def test_criterion_3_kernel_law():
    bound = max(
        abs(mehler_kernel(ComplexTime(0.0, t), z)) * abs(math.sin(t))
        for t in np.linspace(0.25, math.pi - 0.25, 9)
        for z in (0.0, 0.7 + 0.4j, 2.0 - 1.0j)
    )
    tr = enumerate_pairs(1, 8)
    grid = make_grid(1, default_half_width(1, 8), 64)
    c = random_coeffs(tr, seed=1)
    eta = ComplexTime(0.5, 0.0)
    via_kernel = evolve_kernel(inverse_transform(c, grid), eta)
    via_spectral = inverse_transform(evolve_spectral(c, eta), grid)
    rel = lp_norm(Field(grid, via_kernel.values - via_spectral.values), 2) / lp_norm(via_spectral, 2)
    t = 6.5 - 2 * math.pi  # t + 2 pi is exactly representable
    periodic = np.array_equal(
        propagate_coeffs(c, t).coeffs, propagate_coeffs(c, t + 2 * math.pi).coeffs
    )
    report(
        "criterion 3 kernel law",
        bound <= 2.0 and rel <= 1e-6 and periodic,
        f"|K||sin t| max {bound:.4f} (<=2), path agreement {rel:.2e} (<=1e-6), exact periodicity {periodic}",
    )


def test_criterion_4_plancherel_unitarity():
    tr = enumerate_pairs(1, 6)
    grid = make_grid(1, default_half_width(1, 6), 64)
    c = random_coeffs(tr, seed=2)
    f = inverse_transform(c, grid)
    energy = float(np.sum(np.abs(forward_transform(f, tr).coeffs) ** 2))
    plancherel_err = abs(energy - lp_norm(f, 2) ** 2)
    drift = abs(np.linalg.norm(propagate_coeffs(c, 1.234).coeffs) - np.linalg.norm(c.coeffs))
    report(
        "criterion 4 plancherel and unitarity",
        plancherel_err <= 1e-6 and drift <= 1e-12,
        f"plancherel err {plancherel_err:.2e} (<=1e-6), norm drift {drift:.1e}",
    )


def test_criterion_5_abel_singularity():
    # Li_{-z}(e^{-s}) = Gamma(z+1) s^{-z-1} + zeta(-z) + O(s): the smooth
    # remainder tends to zeta(-z), so the reference is the two-term expansion
    z = -0.5
    cfg = default_config(z, 1e-4)
    limit = zeta(-z)
    dev = dev_singular = 0.0
    for t in np.linspace(0.01, 0.05, 5):
        a, s = abel_sum(cfg, t), singular_term(z, t, cfg.tau)
        dev = max(dev, abs(a - (s + limit)) / abs(s + limit))
        dev_singular = max(dev_singular, abs(a - s) / abs(s))
    ts = tuple(np.linspace(0.2, math.pi - 0.2, 9))
    sup = {tau: remainder_profile(default_config(-0.5, tau, t_samples=ts)).sup_abs for tau in (1e-4, 1e-5)}
    stability = abs(sup[1e-4] - sup[1e-5]) / sup[1e-5]
    slope_err = max(
        abs(h_kernel_rate(complex(z)) + (z + 2.0)) for z in (-0.25, -0.5, -1.0, -1.5, -2.0)
    )
    report(
        "criterion 5 abel singularity",
        dev <= 0.05 and stability <= 0.10 and slope_err <= 0.1,
        f"max deviation {dev:.2%} (<=5%) from singular term + zeta(-z), "
        f"{dev_singular:.1%} from singular term alone, zeta(-z) = {limit:.4f}; "
        f"remainder stability {stability:.1%} (<=10%), "
        f"slope err {slope_err:.3f} (<=0.1)",
    )


def test_criterion_6_endpoint_multiplier():
    tr = enumerate_pairs(1, 2)
    cut = default_lambda_cut(tr)
    ok_weights = True
    for s in (0.0, 1.0, 2.0):
        bound = abs(1.0 / gamma(1.0 + 1j * s))
        gmax = max(
            abs(g_z_weight(complex(0.0, s), p.mu, p.nu, lam))
            for p in tr.index_set
            for lam in range(-cut, cut + 1)
        )
        # |gap^{is}| = 1 analytically; complex pow rounds by a few ulps
        ok_weights = ok_weights and gmax <= bound * (1.0 + 1e-13)
    tg = make_time_grid(28)
    grid = make_grid(1, 9.2, 10)
    diff = float(np.abs(build_t_z(-1.0, tr, tg, grid) - extension_gram_matrix(tr, tg, grid)).max())
    report(
        "criterion 6 endpoint multiplier",
        ok_weights and diff <= 1e-8,
        f"|G_is| within Gamma bound {ok_weights}, surface-path matrix diff {diff:.1e} (<=1e-8)",
    )


def test_criterion_7_schatten_diagonal_bound():
    tr = enumerate_pairs(1, 4)
    tg = make_time_grid(16)
    maxima = {}
    for M in (48, 64):
        grid = make_grid(1, default_half_width(1, 4), M)
        ratios = []
        for seed in range(50):
            W = random_smoothed_weight(tg, grid, seed)
            num = sandwich_schatten(W, tr, tg, grid, 4.0).norm
            den = mixed_norm(W, tg, grid, 4.0, 4.0, measure="dt/2pi") ** 2
            ratios.append(num / den)
        arr = np.array(ratios)
        maxima[M] = (float(arr.max()), float(arr.max() / np.median(arr)))
    spread_ok = maxima[48][1] <= 5.0 and maxima[64][1] <= 5.0
    drift = abs(maxima[48][0] - maxima[64][0]) / maxima[64][0]
    report(
        "criterion 7 schatten diagonal bound",
        spread_ok and drift <= 0.20,
        f"max/median {maxima[48][1]:.2f} and {maxima[64][1]:.2f} (<=5), "
        f"grid drift {drift:.1%} (<=20%)",
    )


def test_criterion_8_strichartz_quotient():
    tr = enumerate_pairs(1, 4)
    maxima = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for M in (48, 64):
            grid = make_grid(1, default_half_width(1, 4), M)
            cfg = SweepConfig(
                truncation=tr, grid=grid, n_t=32,
                q_values=(1.0, 1.25, 1.5, 2.0), system_sizes=(1, 2, 4, 8, 16), trials=20, seed=0,
            )
            maxima[M] = sweep(cfg).max_ratio
    drift = abs(maxima[48] - maxima[64]) / maxima[64]
    grid = make_grid(1, default_half_width(1, 4), 48)
    tg = make_time_grid(32)
    r0 = strichartz_ratio(eigenfunction_system(tr, 1), CoefficientVector([1.0]), 2.0, 2.0, tg, grid)
    closed_err = abs(r0 - 2.0**-0.5)
    report(
        "criterion 8 strichartz quotient",
        math.isfinite(maxima[48]) and drift <= 0.20 and closed_err <= 1e-3,
        f"max ratio {maxima[48]:.4f}, grid drift {drift:.1%} (<=20%), "
        f"closed-form error {closed_err:.1e} (<=1e-3)",
    )


def test_criterion_9_orthonormality_gain():
    tr = enumerate_pairs(1, 4)
    grid = make_grid(1, default_half_width(1, 4), 48)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = SweepConfig(
            truncation=tr, grid=grid, n_t=32,
            q_values=(2.0,), system_sizes=(1, 2, 4, 8, 16), trials=1, seed=0,
        )
        slope = sweep(cfg).growth_exponent
    report(
        "criterion 9 orthonormality gain",
        0.6 <= slope <= 0.85,
        f"fitted growth exponent {slope:.4f} (in [0.6, 0.85], theory 0.75, triangle rate 1)",
    )


def test_criterion_10_duality_principle():
    tr = enumerate_pairs(1, 6)
    tg = make_time_grid(16)
    grid = make_grid(1, default_half_width(1, 6), 48)
    weights = [random_smoothed_weight(tg, grid, seed) for seed in range(20)]
    rep = duality_check(tr, tg, grid, weights, alpha=4.0, w_exponents=(4.0, 4.0), density_exponents=(2.0, 2.0))
    finite = math.isfinite(rep.max_sandwich) and math.isfinite(rep.max_density)
    factor = max(rep.max_sandwich, rep.max_density) / min(rep.max_sandwich, rep.max_density)
    report(
        "criterion 10 duality principle",
        finite and factor <= 3.0,
        f"sandwich constant {rep.max_sandwich:.4f}, density constant {rep.max_density:.4f}, "
        f"factor {factor:.3f} (<=3)",
    )
