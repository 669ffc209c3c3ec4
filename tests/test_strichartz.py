import math
import warnings

import numpy as np
import pytest

from specherm.grids import default_half_width, make_grid, make_time_grid
from specherm.indices import enumerate_pairs
from specherm.propagator import propagate
from specherm.strichartz import (
    CoefficientVector,
    OrthonormalSystem,
    SweepConfig,
    admissible_exponents,
    density,
    eigenfunction_system,
    fit_growth_exponent,
    sample_orthonormal_system,
    strichartz_ratio,
    sweep,
)
from specherm.twisted import SpectralCoeffs


class TestAdmissibleExponents:
    def test_diagonal_point(self):
        assert admissible_exponents(1, 2.0) == 2.0

    def test_triangle_endpoint(self):
        assert admissible_exponents(1, 1.0) == math.inf

    def test_higher_dimension_endpoint(self):
        assert admissible_exponents(2, 1.5) == pytest.approx(1.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            admissible_exponents(1, 2.5)
        with pytest.raises(ValueError):
            admissible_exponents(1, 0.9)


class TestSampling:
    def test_single_vector_is_unit(self, tr4):
        sys = sample_orthonormal_system(tr4, 1, seed=0)
        assert np.linalg.norm(sys.coeffs[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_gram_identity(self, tr4):
        sys = sample_orthonormal_system(tr4, 8, seed=1)
        assert np.abs(sys.gram() - np.eye(8)).max() < 1e-10

    def test_seed_determinism(self, tr4):
        a = sample_orthonormal_system(tr4, 4, seed=7)
        b = sample_orthonormal_system(tr4, 4, seed=7)
        c = sample_orthonormal_system(tr4, 4, seed=8)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        assert np.abs(a.coeffs - c.coeffs).max() > 1e-3

    def test_oversized_system_rejected(self, tr4):
        with pytest.raises(ValueError):
            sample_orthonormal_system(tr4, len(tr4) + 1, seed=0)


class TestDensity:
    def test_ground_state_density_static(self, tr4, grid4, tg16):
        sys = eigenfunction_system(tr4, 1)
        d = density(sys, CoefficientVector([1.0]), tg16, grid4)
        # eigenfunction modulus is time-independent
        assert np.abs(d - d[0]).max() < 1e-12
        from specherm.twisted import cached_basis

        want = np.abs(cached_basis(tr4, grid4)[0]) ** 2
        assert np.abs(d[0] - want).max() < 1e-10

    def test_zero_coefficients(self, tr4, grid4, tg16):
        sys = eigenfunction_system(tr4, 3)
        d = density(sys, CoefficientVector(np.zeros(3)), tg16, grid4)
        assert np.abs(d).max() == 0.0

    def test_mass_conservation(self, tr4, grid4, tg16):
        sys = sample_orthonormal_system(tr4, 5, seed=3)
        nj = CoefficientVector([1.0, 0.5, 2.0, 0.25, 1.5])
        d = density(sys, nj, tg16, grid4)
        masses = np.array([np.sum(d[a] * grid4.weight_tensor) for a in range(tg16.n_t)])
        assert np.abs(masses - np.sum(nj.values.real)).max() < 1e-6

    def test_pointwise_nonnegative(self, tr4, grid4, tg16):
        sys = sample_orthonormal_system(tr4, 4, seed=5)
        d = density(sys, CoefficientVector([0.1, 0.2, 0.3, 0.4]), tg16, grid4)
        assert np.isrealobj(d)
        assert d.min() >= 0.0

    def test_shape_mismatch(self, tr4, grid4, tg16):
        sys = eigenfunction_system(tr4, 2)
        with pytest.raises(ValueError):
            density(sys, CoefficientVector([1.0]), tg16, grid4)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_per_node_synthesis(self, n, tr4, grid4, tg16):
        # oracle: each u_j propagated in coefficient space and synthesized
        # node by node through inverse_transform
        if n == 1:
            tr, grid, tg = tr4, grid4, tg16
        else:
            tr = enumerate_pairs(2, 1)
            grid = make_grid(2, default_half_width(2, 1), 10)
            tg = make_time_grid(6)
        N = 5
        sys = sample_orthonormal_system(tr, N, seed=4)
        nj = CoefficientVector([1.0, 0.5, 2.0, 0.25, 1.5])
        want = np.stack([
            sum(
                nj.values[j].real * np.abs(propagate(SpectralCoeffs(tr, sys.coeffs[:, j]), t, grid=grid).values) ** 2
                for j in range(N)
            )
            for t in tg.nodes
        ])
        got = density(sys, nj, tg, grid)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestStrichartzRatio:
    def test_closed_form_single_mode(self, tr4, grid4, tg16):
        # || |Phi_00|^2 ||_{L2 L2} / 1 = sqrt(2 pi) * ||Phi_00||_{L4}^2 = 2^{-1/2}
        sys = eigenfunction_system(tr4, 1)
        r = strichartz_ratio(sys, CoefficientVector([1.0]), 2.0, 2.0, tg16, grid4)
        assert r == pytest.approx(2.0**-0.5, abs=1e-3)

    def test_scaling_invariance(self, tr4, grid4, tg16):
        sys = sample_orthonormal_system(tr4, 3, seed=2)
        nj = np.array([0.5, 1.5, 1.0])
        r1 = strichartz_ratio(sys, CoefficientVector(nj), 2.0, 2.0, tg16, grid4)
        r2 = strichartz_ratio(sys, CoefficientVector(3.0 * nj), 2.0, 2.0, tg16, grid4)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_eigenfunction_ratios_uniformly_bounded(self, grid4, tg16):
        tr = enumerate_pairs(1, 4)
        ratios = [
            strichartz_ratio(eigenfunction_system(tr, N), CoefficientVector(np.ones(N)), 2.0, 2.0, tg16, grid4)
            for N in (1, 5, 10, 20)
        ]
        assert max(ratios) <= 1.0

    def test_triangle_endpoint_equality(self, tr4, grid4, tg16):
        sys = eigenfunction_system(tr4, 6)
        r = strichartz_ratio(sys, CoefficientVector(np.ones(6)), math.inf, 1.0, tg16, grid4)
        assert r <= 1.0 + 1e-6
        assert r == pytest.approx(1.0, abs=1e-6)

    def test_zero_coefficients_rejected(self, tr4, grid4, tg16):
        sys = eigenfunction_system(tr4, 2)
        with pytest.raises(ValueError):
            strichartz_ratio(sys, CoefficientVector([0.0, 0.0]), 2.0, 2.0, tg16, grid4)

    def test_off_line_warns(self, tr4, grid4, tg16):
        sys = eigenfunction_system(tr4, 1)
        with pytest.warns(UserWarning):
            strichartz_ratio(sys, CoefficientVector([1.0]), 2.0, 3.0, tg16, grid4)


@pytest.fixture(scope="module")
def report(tr4, grid4):
    cfg = SweepConfig(
        truncation=tr4, grid=grid4, n_t=16,
        q_values=(1.0, 1.5, 2.0), system_sizes=(1, 2, 4, 8), trials=4, seed=0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return sweep(cfg)


class TestSweep:
    def test_all_ratios_finite(self, report):
        assert math.isfinite(report.max_ratio)
        assert all(math.isfinite(row[5]) for row in report.rows)

    def test_row_count(self, report):
        assert len(report.rows) == 3 * 4 * 4  # q values x sizes x trials

    def test_growth_exponent_in_gain_window(self, report):
        assert 0.6 <= report.growth_exponent <= 0.85

    def test_triangle_cells_bounded(self, report):
        for (q, N), v in report.max_ratio_by_cell.items():
            if q == 1.0:
                assert v <= 1.0 + 1e-6

class TestGrowthFit:
    def test_exact_power_law_recovered(self):
        sizes = [1, 2, 4, 8, 16]
        lhs = [float(N) ** 0.75 for N in sizes]
        assert fit_growth_exponent(sizes, lhs) == pytest.approx(0.75, abs=1e-12)

    def test_needs_two_large_sizes(self):
        with pytest.raises(ValueError):
            fit_growth_exponent([1, 2], [1.0, 2.0])


class TestValidation:
    def test_coefficient_vector_finite(self):
        with pytest.raises(ValueError):
            CoefficientVector([np.inf])

    def test_system_shape_checked(self, tr4):
        with pytest.raises(ValueError):
            OrthonormalSystem(tr4, np.ones((3, 2), dtype=complex))
