import cmath
import csv
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma
from scipy.special import zeta

from specherm import checks
from specherm.singularity import (
    _BLOCK,
    ProbeConfig,
    _series_plan,
    abel_sum,
    default_config,
    gamma,
    h_kernel,
    h_kernel_rate,
    remainder_profile,
    singular_term,
)


def direct_abel_sum(cfg, ts):
    """The per-term sums sum_{k=1}^{k_cut} k^z e^{-(tau + i t) k}, one per time in ts: the reference for the blocked one.

    The weights k^z e^{-tau k} are formed once and shared by all the times.
    """
    k = np.arange(1, cfg.k_cut + 1, dtype=float)
    w = k**cfg.z * np.exp(-cfg.tau * k)
    return np.array([np.sum(w * np.exp(-1j * t * k)) for t in ts])


def geometric_closed_form(tau: float, t: float) -> complex:
    """Exact value of the z = 0 series: e^{-s}/(1 - e^{-s}) with s = tau + i t."""
    w = np.exp(-(tau + 1j * t))
    return complex(w / (1.0 - w))


def zeta_series(z, s, terms=40):
    """sum_{m<terms} zeta(-z-m) (-s)^m / m!, the smooth part of Li_{-z}(e^{-s}) for |s| < 2 pi."""
    return sum(zeta(-z - m) * (-s) ** m / math.factorial(m) for m in range(terms))


class TestProbeConfig:
    def test_rejects_bad_z(self):
        with pytest.raises(ValueError):
            ProbeConfig(z=-1.5, tau=1e-4, k_cut=300000)
        with pytest.raises(ValueError):
            ProbeConfig(z=0.5, tau=1e-4, k_cut=300000)

    def test_rejects_undersized_cutoff(self):
        with pytest.raises(ValueError):
            ProbeConfig(z=-0.5, tau=1e-4, k_cut=1000)

    def test_rejects_zero_time_sample(self):
        with pytest.raises(ValueError):
            default_config(-0.5, t_samples=(0.1, 0.0))

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            ProbeConfig(z=-0.5, tau=0.0, k_cut=300000)


class TestAbelSum:
    def test_geometric_closed_form_at_z_zero(self):
        # cutoff deep enough that the geometric tail is below the tolerance
        cfg = ProbeConfig(z=0.0, tau=1e-4, k_cut=350000)
        t = 0.3
        assert abel_sum(cfg, t) == pytest.approx(geometric_closed_form(cfg.tau, t), abs=1e-12)

    @pytest.mark.parametrize("cfg", [
        default_config(-0.5, 1e-4),
        default_config(-0.3 + 0.2j, 1e-4),
        default_config(0.0, 1e-4),
        ProbeConfig(z=0.0, tau=1e-4, k_cut=240007),  # no multiple of the block length
    ], ids=["z=-0.5", "z=-0.3+0.2i", "z=0", "z=0,k_cut=240007"])
    def test_array_matches_direct_sum(self, cfg):
        ts = np.array([-math.pi, -1.3, -0.05, 0.01, 0.3, 2.9, math.pi])
        got = abel_sum(cfg, ts)
        assert got.shape == ts.shape
        want = direct_abel_sum(cfg, ts)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_cutoff_drops_exactly_the_terms_past_it(self):
        # the tail past k_cut is below 1e-10 by construction, too small for the
        # comparison above to see terms past k_cut summed in a partly filled block
        ts = np.array([-math.pi, 0.3, 2.9])
        short, long = (ProbeConfig(z=0.0, tau=1e-4, k_cut=k) for k in (240007, 240107))
        k = np.arange(240008, 240108, dtype=float)
        tail = np.exp(-(1e-4 + 1j * ts[:, None]) * k).sum(axis=1)
        np.testing.assert_allclose(abel_sum(long, ts) - abel_sum(short, ts), tail, rtol=1e-3)

    def test_scalar_t_is_the_array_entry(self):
        cfg = default_config(-0.3 + 0.2j, 1e-4)
        ts = np.array([-1.3, 0.3, 2.9])
        arr = abel_sum(cfg, ts)
        for t, a in zip(ts, arr):
            got = abel_sum(cfg, float(t))
            assert type(got) is complex
            assert got == pytest.approx(a, rel=1e-12)

    def test_doubled_cutoff_oracle(self):
        tau = 1e-4
        base = default_config(-0.5, tau)
        doubled = ProbeConfig(z=-0.5, tau=tau, k_cut=2 * base.k_cut)
        for t in (0.05, 0.5):
            assert abel_sum(base, t) == pytest.approx(abel_sum(doubled, t), rel=1e-9)

    def test_bounded_away_from_singularity(self):
        for tau in (1e-3, 1e-4, 1e-5):
            cfg = default_config(-0.5, tau)
            assert abs(abel_sum(cfg, math.pi)) <= 10.0

    def test_tau_consistency(self):
        a1 = abel_sum(default_config(-0.5, 1e-4), 0.05)
        a2 = abel_sum(default_config(-0.5, 5e-5), 0.05)
        assert abs(a1 - a2) / abs(a2) <= 0.01


CLI_TIMES = np.linspace(0.2, math.pi - 0.2, 9)


class TestBinomialBlocks:
    """The binomial block expansion against the per-term sum, where its plan changes."""

    def test_large_imaginary_z(self):
        # the series with H = 32 and a fixed 12 terms is 3.6e-8 off at t = 0.3
        cfg = default_config(-0.5 + 60j, 1e-4)
        ts = np.array([-2.0, 0.3, 1.7])
        want = direct_abel_sum(cfg, ts)
        np.testing.assert_allclose(abel_sum(cfg, ts), want, rtol=1e-10, atol=0)

    def test_cutoff_below_one_block(self):
        cfg = ProbeConfig(z=-0.5, tau=1.0, k_cut=24)
        ts = np.array([-1.0, 0.3, 3.0])
        want = direct_abel_sum(cfg, ts)
        np.testing.assert_allclose(abel_sum(cfg, ts), want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("z", [-0.5, -0.3 + 0.2j])
    @pytest.mark.parametrize("offset", [-1, 1, _BLOCK + 1])
    def test_cutoff_next_to_the_head(self, z, offset):
        # k_cut = H B - 1 and H B + 1 leave no expanded block; H B + B + 1 leaves one
        head = _series_plan(complex(z))[0] * _BLOCK
        cfg = ProbeConfig(z=z, tau=0.01, k_cut=head + offset)
        ts = np.array([-math.pi, 0.3, 2.9])
        want = direct_abel_sum(cfg, ts)
        np.testing.assert_allclose(abel_sum(cfg, ts), want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("z", [-0.5, -0.3 + 0.2j])
    def test_one_expanded_block_adds_exactly_its_terms(self, z):
        # blocks next to k_cut are damped below 1e-10, too little for the comparison
        # above to see a lost or doubled one; a difference of two cutoffs shows it
        head = _series_plan(complex(z))[0] * _BLOCK
        tau = 24.0 / head
        short, long = (ProbeConfig(z=z, tau=tau, k_cut=head + d) for d in (1, _BLOCK + 1))
        ts = np.array([-math.pi, 0.3, 2.9])
        k = np.arange(head + 2, head + _BLOCK + 2, dtype=float)
        terms = (k ** complex(z) * np.exp(-(tau + 1j * ts[:, None]) * k)).sum(axis=1)
        np.testing.assert_allclose(abel_sum(long, ts) - abel_sum(short, ts), terms, rtol=1e-3)

    @pytest.mark.parametrize("z", [-0.5, -0.3 + 0.2j])
    def test_cli_grid_at_fine_tau(self, z):
        cfg = default_config(z, 1e-5)
        want = direct_abel_sum(cfg, CLI_TIMES)
        np.testing.assert_allclose(abel_sum(cfg, CLI_TIMES), want, rtol=1e-10, atol=0)

    def test_traced_peak_at_cli_defaults(self):
        # 2,214,624 bytes is the peak of the per-term-weight blocked pass this
        # expansion replaced (numpy 2.4); the expansion must not hold more
        cfg = default_config(-0.5, 1e-5)
        abel_sum(cfg, CLI_TIMES)
        tracemalloc.start()
        try:
            abel_sum(cfg, CLI_TIMES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_214_624


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestGamma:
    def test_factorials(self):
        for k in range(11):
            assert rel_err(gamma(k + 1), math.factorial(k)) <= 1e-13

    def test_half(self):
        assert rel_err(gamma(0.5), math.sqrt(math.pi)) <= 1e-13

    def test_modulus_on_the_line_re_one(self):
        # |Gamma(1 + is)|^2 = pi s / sinh(pi s), and 1 at s = 0
        for s in np.linspace(-3.0, 3.0, 25):
            want = math.pi * s / math.sinh(math.pi * s) if s != 0.0 else 1.0
            assert rel_err(abs(gamma(complex(1.0, s))) ** 2, want) <= 1e-13

    def test_recurrence_off_the_real_axis(self):
        for x in np.linspace(-2.3, 3.1, 13):
            for y in (-2.5, -0.4, 0.15, 1.0, 2.9):
                z = complex(x, y)
                assert rel_err(gamma(z + 1), z * gamma(z)) <= 1e-13

    def test_reflection_off_the_real_axis(self):
        for x in np.linspace(-1.7, 2.6, 10):
            for y in (-2.2, -0.3, 0.05, 0.8, 2.7):
                z = complex(x, y)
                assert rel_err(gamma(z) * gamma(1.0 - z), math.pi / cmath.sin(math.pi * z)) <= 1e-13

    def test_agrees_with_scipy_on_a_complex_grid(self):
        # scipy is a test-only reference; the grid holds real points too
        for x in np.linspace(-1.9, 3.0, 15):
            for y in np.linspace(-3.0, 3.0, 13):
                z = complex(x, y)
                assert rel_err(gamma(z), complex(scipy_gamma(z))) <= 2e-14

    def test_poles_rejected(self):
        for z in (0.0, -1, -2.0 + 0.0j, -7.0):
            with pytest.raises(ValueError, match="pole"):
                gamma(z)


class TestSingularTerm:
    def test_z_zero_reduces_to_reciprocal(self):
        t = 0.7
        assert singular_term(0.0, t, 0.0) == pytest.approx(1.0 / (1j * t), rel=1e-14)

    def test_half_pole_modulus(self):
        got = abs(singular_term(-0.5, 0.01, 0.0))
        assert got == pytest.approx(math.sqrt(math.pi) / math.sqrt(0.01), rel=1e-12)

    def test_conjugate_symmetry(self):
        z, t, tau = -0.3 + 0.2j, 0.4, 1e-3
        lhs = singular_term(z, -t, tau)
        rhs = singular_term(z.conjugate(), t, tau).conjugate()
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_branch_ambiguous_origin_rejected(self):
        with pytest.raises(ValueError):
            singular_term(-0.5, 0.0, 0.0)

    def test_gamma_pole_rejected(self):
        # Gamma(z + 1) has a pole at z = -1, -2, ...: an error, not inf + nan j
        with pytest.raises(ValueError, match="pole at z = 0"):
            singular_term(-1, 0.3, 1e-4)
        with pytest.raises(ValueError, match="pole at z = -1"):
            singular_term(-2.0, 0.3, 1e-4)


class TestRemainderProfile:
    def test_smooth_part_tau_stable(self):
        ts = tuple(np.linspace(0.2, math.pi - 0.2, 9))
        sup = {}
        for tau in (1e-4, 1e-5):
            sup[tau] = remainder_profile(default_config(-0.5, tau, t_samples=ts)).sup_abs
        assert abs(sup[1e-4] - sup[1e-5]) / sup[1e-5] < 0.10

    def test_z_zero_remainder_matches_closed_form(self):
        ts = (0.3, 0.8, 1.5)
        cfg = ProbeConfig(z=0.0, tau=1e-4, k_cut=350000, t_samples=ts)
        prof = remainder_profile(cfg)
        for t, rem in zip(prof.t_samples, prof.remainder):
            want = geometric_closed_form(cfg.tau, t) - singular_term(0.0, t, cfg.tau)
            assert rem == pytest.approx(want, abs=1e-10)

    def test_remainder_limit_is_zeta(self):
        # the smooth part at t -> 0 equals the analytic continuation zeta(-z)
        for z in (-0.5, -0.25):
            cfg = default_config(z, 1e-5, t_samples=(0.002,))
            prof = remainder_profile(cfg)
            assert prof.remainder[0] == pytest.approx(zeta(-z), abs=5e-3)

    def test_abel_sum_matches_zeta_series(self):
        # Li_{-z}(e^{-s}) = Gamma(z+1) s^{-z-1} + sum_m zeta(-z-m) (-s)^m / m!
        # for |s| < 2 pi (Erdelyi et al., Higher Transcendental Functions I, 1.11)
        tau = 1e-4
        for z in (-0.5, -0.25):
            cfg = default_config(z, tau)
            for t in np.linspace(0.01, 0.05, 5):
                s = complex(tau, t)
                want = singular_term(z, t, tau) + zeta_series(z, s, terms=30)
                assert abel_sum(cfg, t) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("tau", [1e-4, 1e-5])
    def test_profile_matches_zeta_series_on_cli_grid(self, tau):
        # the singularity subcommand's grid, far from the t -> 0 window above
        z = -0.5
        ts = tuple(np.linspace(0.2, math.pi - 0.2, 9))
        prof = remainder_profile(default_config(z, tau, t_samples=ts))
        want = np.array([zeta_series(z, complex(tau, t)) for t in prof.t_samples])
        np.testing.assert_allclose(prof.remainder, want, rtol=1e-9, atol=0)

    def test_singular_term_growth_rate(self):
        # |singular_term| ~ |t|^{-Re z - 1} on the fit window
        z = -0.5
        ts = np.geomspace(0.01, 0.3, 10)
        vals = [abs(singular_term(z, t, 1e-4)) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert slope == pytest.approx(-z - 1, abs=0.05)

    def test_remainder_bounded_while_singularity_grows(self):
        cfg = default_config(-0.5, 1e-4, t_samples=tuple(np.linspace(0.05, 0.5, 10)))
        prof = remainder_profile(cfg)
        assert prof.sup_abs < 2.0
        assert abs(prof.singular[0]) > abs(prof.singular[-1])

    def test_five_percent_deviation_near_origin(self):
        # the smooth remainder tends to zeta(1/2) = -1.4604, 8%-18% of the
        # singular term here, so the reference is singular term + zeta(-z)
        z = -0.5
        cfg = default_config(z, 1e-4)
        for t in (0.01, 0.03, 0.05):
            a = abel_sum(cfg, t)
            ref = singular_term(z, t, cfg.tau) + zeta(-z)
            assert abs(a - ref) / abs(ref) <= 0.05


class TestHKernelRate:
    def test_slope_law(self):
        for z, want in [(-0.25, -1.75), (-0.5, -1.5), (-1.0, -1.0), (-1.5, -0.5), (-2.0, 0.0)]:
            assert h_kernel_rate(complex(z)) == pytest.approx(want, abs=0.1)

    def test_bounded_kernel_at_critical_line(self):
        # Re z = -(n+1) makes |H| bounded in t
        assert abs(h_kernel_rate(complex(-2.0))) <= 0.1

    def test_rate_law_check_passes_at_n2(self):
        # the check behind `singularity --n 2`: the slopes at n = 2 are -(z + 3)
        result = checks.kernel_rate_law(2)
        assert result.passed, result.detail

    def test_kernel_value_matches_direct_formula(self):
        from specherm.propagator import ComplexTime, mehler_kernel

        z, t, tau = -0.5, 0.1, 1e-6
        got = h_kernel(z, 0.3 + 0.1j, 0.1 - 0.2j, t, tau)
        want = t ** (-z - 1) * 2 * math.pi * mehler_kernel(ComplexTime(tau, t), 0.2 + 0.3j)
        assert got == pytest.approx(want, rel=1e-12)



class TestCsvOutput:
    def test_columns_and_rows(self, tmp_path):
        from click.testing import CliRunner

        from specherm.cli import main

        path = tmp_path / "probe.csv"
        result = CliRunner().invoke(main, ["singularity", "--out", str(path), "--format", "csv"])
        assert result.exit_code == 0, result.output
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "z_re", "z_im", "t", "tau",
            "abel_re", "abel_im", "singular_re", "singular_im", "remainder_abs",
        ]
        ts = tuple(float(row[2]) for row in rows[1:])
        assert len(ts) == 9
        prof = remainder_profile(default_config(-0.5, 1e-4, t_samples=ts))
        for row, a, s, r in zip(rows[1:], prof.abel, prof.singular, prof.remainder):
            assert [float(x) for x in row[:2]] == [-0.5, 0.0]
            assert float(row[3]) == 1e-4
            assert complex(float(row[4]), float(row[5])) == pytest.approx(a, rel=1e-12)
            assert complex(float(row[6]), float(row[7])) == pytest.approx(s, rel=1e-12)
            assert float(row[8]) == pytest.approx(abs(r), rel=1e-9)
