import cmath
import csv
import math

import numpy as np
import pytest
from scipy.special import zeta

from specherm.singularity import (
    ProbeConfig,
    abel_sum,
    default_config,
    geometric_closed_form,
    h_kernel,
    h_kernel_rate,
    remainder_profile,
    singular_term,
)


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
                series = sum(zeta(-z - m) * (-s) ** m / math.factorial(m) for m in range(30))
                want = singular_term(z, t, tau) + series
                assert abel_sum(cfg, t) == pytest.approx(want, rel=1e-9)

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

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            h_kernel_rate(-0.5, t_samples=[0.02, 0.05, 0.1])

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
