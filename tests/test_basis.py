import math

import numpy as np
import pytest
from scipy import integrate

from specherm.basis import (
    InsufficientQuadratureError,
    basis_matrix,
    default_quad_order,
    hermite_1d,
    phi_k,
    special_hermite,
)
from specherm.grids import make_grid
from specherm.indices import MultiIndex, MultiIndexPair, Truncation, enumerate_pairs, multi_indices


def pair(mu, nu):
    return MultiIndexPair(MultiIndex(tuple(mu)), MultiIndex(tuple(nu)))


class TestHermite1d:
    def test_ground_state_at_origin(self):
        assert hermite_1d(0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-14)

    def test_odd_function_vanishes_at_origin(self):
        assert hermite_1d(1, 0.0) == 0.0

    def test_degree_five_against_exact_polynomial(self):
        # H_5(x) = 32 x^5 - 160 x^3 + 120 x with exact integer coefficients
        x = 1.3
        h5 = 32 * x**5 - 160 * x**3 + 120 * x
        expected = h5 * math.exp(-(x**2) / 2) / math.sqrt(2**5 * math.sqrt(math.pi) * math.factorial(5))
        assert hermite_1d(5, x) == pytest.approx(expected, rel=1e-13)

    def test_uniform_boundedness_high_degree(self):
        xs = np.linspace(-20, 20, 801)
        for k in (16, 32, 64):
            assert np.abs(hermite_1d(k, xs)).max() <= 1.1

    def test_l2_normalization(self):
        for k in (0, 3, 8):
            val, _ = integrate.quad(lambda x: hermite_1d(k, x) ** 2, -15, 15)
            assert val == pytest.approx(1.0, abs=1e-10)


def _defining_integral_1d(mu, nu, zeta):
    """Direct adaptive quadrature of the defining Wigner-type integral."""
    x, y = zeta.real, zeta.imag

    def integrand(xi):
        return np.exp(1j * x * xi) * hermite_1d(mu, xi + y / 2) * hermite_1d(nu, xi - y / 2)

    re, _ = integrate.quad(lambda s: integrand(s).real, -12, 12, limit=200)
    im, _ = integrate.quad(lambda s: integrand(s).imag, -12, 12, limit=200)
    return (re + 1j * im) / math.sqrt(2 * math.pi)


class TestSpecialHermite:
    def test_ground_state_origin(self):
        got = special_hermite(pair([0], [0]), 0.0)
        assert got == pytest.approx((2 * math.pi) ** -0.5, rel=1e-12)

    def test_ground_state_gaussian_profile(self):
        got = special_hermite(pair([0], [0]), 2.0 + 0.0j)
        assert got == pytest.approx((2 * math.pi) ** -0.5 * math.exp(-1.0), rel=1e-12)

    def test_against_adaptive_quadrature(self):
        zeta = 0.7 + 0.3j
        for mu, nu in [(1, 0), (2, 3), (0, 4)]:
            got = special_hermite(pair([mu], [nu]), zeta)
            want = _defining_integral_1d(mu, nu, zeta)
            assert got == pytest.approx(want, abs=1e-11)

    def test_doubled_quadrature_agrees(self):
        p = pair([3], [2])
        base = special_hermite(p, 1.1 - 0.4j)
        refined = special_hermite(p, 1.1 - 0.4j, quad_order=2 * default_quad_order(3))
        assert base == pytest.approx(refined, rel=1e-12)

    def test_coordinate_factorization(self):
        z1, z2 = 0.5 + 0.2j, -0.3 + 0.9j
        got = special_hermite(pair([1, 2], [0, 1]), np.array([z1, z2]))
        want = special_hermite(pair([1], [0]), z1) * special_hermite(pair([2], [1]), z2)
        assert got == pytest.approx(want, rel=1e-10)

    def test_diagonal_value_real_at_origin(self):
        for k in range(5):
            v = special_hermite(pair([k], [k]), 0.0)
            assert abs(v.imag) < 1e-10

    def test_far_field_is_zero(self):
        assert special_hermite(pair([0], [0]), 80.0 + 0.0j) == 0.0

    def test_insufficient_quadrature_rejected(self):
        with pytest.raises(InsufficientQuadratureError):
            special_hermite(pair([4], [4]), 0.0, quad_order=10)
        with pytest.raises(InsufficientQuadratureError):
            basis_matrix(enumerate_pairs(1, 4), make_grid(1, 6.0, 16), quad_order=10)


class TestPhiK:
    def test_ground_level_origin(self):
        assert phi_k(0, 0.0, 1) == pytest.approx(1.0, rel=1e-12)

    def test_ground_level_gaussian(self):
        z = 1.2 - 0.7j
        assert phi_k(0, z, 1) == pytest.approx(math.exp(-abs(z) ** 2 / 4), rel=1e-10)

    def test_matches_term_by_term_sum(self):
        # k = 2, n = 2: the three nu with |nu| = 2 summed explicitly
        z = np.array([0.4 + 0.1j, -0.2 + 0.3j])
        terms = sum(
            special_hermite(MultiIndexPair(nu, nu), z)
            for nu in multi_indices(2, 2)
            if nu.degree == 2
        )
        want = (2 * math.pi) ** 1 * terms
        assert phi_k(2, z, 2) == pytest.approx(want, rel=1e-10)


class TestIndices:
    def test_smallest_truncations(self):
        assert len(enumerate_pairs(1, 0)) == 1
        assert len(enumerate_pairs(1, 1)) == 4
        assert len(enumerate_pairs(2, 1)) == 9

    def test_ordering_deterministic(self):
        a = enumerate_pairs(1, 3)
        b = enumerate_pairs(1, 3)
        assert a.index_set == b.index_set

    def test_no_duplicates(self):
        tr = enumerate_pairs(2, 2)
        assert len(set(tr.index_set)) == len(tr)

    def test_eigenvalue(self):
        assert pair([0], [3]).eigenvalue() == 7
        assert pair([1, 1], [2, 0]).eigenvalue() == 6

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex((-1,))
