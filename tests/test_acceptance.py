"""End-to-end acceptance battery.

One test per criterion; each prints a single pass/fail line (run with -s or
rely on pytest's captured output on failure).  Checks the CLI also runs come
from specherm.checks, which holds their bounds; the quantities only a
criterion measures keep their bounds here.  Everything runs at desk
scale: n = 1, degree cap at most 8, at most 64 grid points per axis, at
most 64 time nodes.
"""
import math

import numpy as np
from scipy.special import gamma, zeta

from specherm import checks
from specherm.grids import Field, default_half_width, lp_norm, make_grid, make_time_grid
from specherm.indices import enumerate_pairs
from specherm.propagator import ComplexTime
from specherm.schatten import (
    build_t_z,
    default_lambda_cut,
    duality_check,
    extension_gram_matrix,
    g_z_weight,
    random_smoothed_weights,
)
from specherm.singularity import abel_sum, default_config, remainder_profile, singular_term
from specherm.strichartz import eigenfunction_growth, sweep
from specherm.twisted import (
    TwistedConvolver,
    cached_basis,
    forward_transform,
    inverse_transform,
)


def report(name, results, ok=True, detail=""):
    """Print the criterion's line; it passes when ``ok`` holds and every check passed.

    ``detail`` reports the quantities only this criterion measures.
    """
    ok = ok and all(check.passed for check in results)
    line = ", ".join([f"{check.name} ({check.detail})" for check in results] + ([detail] if detail else []))
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {line}")
    assert ok, f"{name}: {line}"


def random_coeffs(tr, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(len(tr)) + 1j * rng.standard_normal(len(tr))


def test_criterion_1_basis_fidelity():
    gram = checks.gram_identity(enumerate_pairs(1, 8), make_grid(1, default_half_width(1, 8), 64))
    eigen = checks.eigenrelation(enumerate_pairs(1, 6), make_grid(1, default_half_width(1, 6), 64))
    report("criterion 1 basis fidelity", [gram, eigen])


def test_criterion_2_twisted_orthogonality():
    tr = enumerate_pairs(1, 3)
    grid = make_grid(1, default_half_width(1, 3), 48)
    basis = cached_basis(tr, grid)
    labels = list(zip(tr.mu[:, 0].tolist(), tr.nu[:, 0].tolist()))  # n = 1: (mu, nu) of each row
    row_of = {label: i for i, label in enumerate(labels)}
    worst = 0.0
    root = math.sqrt(2 * math.pi)
    for (g_mu, g_nu), g in zip(labels, basis):
        products = TwistedConvolver(Field(grid, g)).apply(basis)  # every f at once
        for (f_mu, f_nu), got in zip(labels, products):
            want = root * basis[row_of[f_mu, g_nu]] if f_nu == g_mu else 0.0
            worst = max(worst, float(np.abs(got - want).max()))
    report("criterion 2 twisted orthogonality", [], worst <= 1e-4, f"max entry error {worst:.2e} (<=1e-4)")


def test_criterion_3_kernel_law():
    tr = enumerate_pairs(1, 8)
    c = random_coeffs(tr, seed=1)
    results = [
        checks.kernel_modulus_law(np.linspace(0.25, math.pi - 0.25, 9), (0.0, 0.7 + 0.4j, 2.0 - 1.0j), 1),
        checks.kernel_vs_spectral(c, tr, make_grid(1, default_half_width(1, 8), 64), ComplexTime(0.5, 0.0)),
        checks.periodicity(c, tr, 6.5 - 2 * math.pi),  # t + 2 pi is exactly representable
    ]
    report("criterion 3 kernel law", results)


def test_criterion_4_plancherel_unitarity():
    tr = enumerate_pairs(1, 6)
    grid = make_grid(1, default_half_width(1, 6), 64)
    c = random_coeffs(tr, seed=2)
    f = inverse_transform(c, tr, grid)
    energy = float(np.sum(np.abs(forward_transform(f, tr)) ** 2))
    plancherel_err = abs(energy - lp_norm(f, 2) ** 2)
    report(
        "criterion 4 plancherel and unitarity",
        [checks.unitarity(c, tr, 1.234)],
        plancherel_err <= 1e-6,
        f"plancherel err {plancherel_err:.2e} (<=1e-6)",
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
    profiles = (remainder_profile(default_config(-0.5, tau, t_samples=ts)) for tau in (1e-4, 1e-5))
    coarse, fine = (abel - singular for _, abel, singular in profiles)
    report(
        "criterion 5 abel singularity",
        [checks.remainder_tau_stable(coarse, fine), checks.kernel_rate_law(1)],
        dev <= 0.05,
        f"max deviation {dev:.2%} (<=5%) from singular term + zeta(-z), "
        f"{dev_singular:.1%} from singular term alone, zeta(-z) = {limit:.4f}",
    )


def test_criterion_6_endpoint_multiplier():
    tr = enumerate_pairs(1, 2)
    cut = default_lambda_cut(tr)
    ok_weights = True
    for s in (0.0, 1.0, 2.0):
        bound = abs(1.0 / gamma(1.0 + 1j * s))
        gmax = max(
            abs(g_z_weight(complex(0.0, s), nu, lam))
            for nu in tr.nu
            for lam in range(-cut, cut + 1)
        )
        # |gap^{is}| = 1 analytically; complex pow rounds by a few ulps
        ok_weights = ok_weights and gmax <= bound * (1.0 + 1e-13)
    tg = make_time_grid(28)
    grid = make_grid(1, 9.2, 10)
    diff = float(np.abs(build_t_z(-1.0, tr, tg, grid) - extension_gram_matrix(tr, tg, grid)).max())
    report(
        "criterion 6 endpoint multiplier",
        [],
        ok_weights and diff <= 1e-8,
        f"|G_is| within Gamma bound {ok_weights}, surface-path matrix diff {diff:.1e} (<=1e-8)",
    )


def test_criterion_7_schatten_diagonal_bound():
    tr = enumerate_pairs(1, 4)
    tg = make_time_grid(16)
    ratios = {
        M: checks.schatten_ratios(tr, tg, make_grid(1, default_half_width(1, 4), M), range(50)) for M in (48, 64)
    }
    drift = abs(ratios[48].max() - ratios[64].max()) / ratios[64].max()
    report(
        "criterion 7 schatten diagonal bound",
        [checks.max_over_median(ratios[48]), checks.max_over_median(ratios[64])],
        drift <= 0.20,
        f"grid drift {drift:.1%} (<=20%) from M = 48 to M = 64",
    )


def test_criterion_8_strichartz_quotient():
    tr = enumerate_pairs(1, 4)
    ratios = {}
    for M in (48, 64):
        grid = make_grid(1, default_half_width(1, 4), M)
        rows = sweep(tr, make_time_grid(32), grid, (1, 2, 4, 8, 16), trials=20, seed=0)
        ratios[M] = np.array([row[5] for row in rows])
    drift = abs(ratios[48].max() - ratios[64].max()) / ratios[64].max()
    grid = make_grid(1, default_half_width(1, 4), 48)
    report(
        "criterion 8 strichartz quotient",
        [checks.ratios_finite(ratios[48]), checks.single_mode_closed_form(tr, make_time_grid(32), grid)],
        drift <= 0.20,
        f"grid drift {drift:.1%} (<=20%)",
    )


def test_criterion_9_orthonormality_gain():
    tr = enumerate_pairs(1, 4)
    grid = make_grid(1, default_half_width(1, 4), 48)
    slope = eigenfunction_growth(tr, make_time_grid(32), grid, (1, 2, 4, 8, 16))
    report("criterion 9 orthonormality gain", [checks.growth_exponent(slope)])


def test_criterion_10_duality_principle():
    tr = enumerate_pairs(1, 6)
    tg = make_time_grid(16)
    grid = make_grid(1, default_half_width(1, 6), 48)
    weights = random_smoothed_weights(tg, grid, range(20))
    sandwich, density, _ = duality_check(tr, tg, grid, weights, alpha=4.0, density_exponents=(2.0, 2.0))
    maxima = float(sandwich.max()), float(density.max())
    report("criterion 10 duality principle", [checks.constants_finite(*maxima), checks.constants_comparable(*maxima)])
