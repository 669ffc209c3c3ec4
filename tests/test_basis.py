import math
import tracemalloc
from functools import reduce
from itertools import product

import numpy as np
import pytest
from quadrature_oracle import _sh1d_table, default_quad_order, hermite_1d
from reference_basis import reference_basis_matrix
from scipy import integrate
from scipy.special import eval_genlaguerre, gammaln

from specherm import checks, twisted
from specherm.basis import basis_matrix, laguerre_table, phi_k, special_hermite
from specherm.grids import default_half_width, make_grid
from specherm.indices import Truncation, multi_indices


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


class TestLaguerreTable:
    def test_triangle_origin_and_scipy(self):
        # T[a, j] = l_j^a(s) for a + j <= k_max and 0 elsewhere; l_j^0(0) = 1 and l_j^a(0) = 0 for a > 0
        k_max, s = 5, np.array([0.0, 1.5, 9.0])
        table = laguerre_table(k_max, s)
        assert table.shape == (k_max + 1, k_max + 1, 3)
        for a, j in product(range(k_max + 1), repeat=2):
            if a + j > k_max:
                assert not table[a, j].any()
                continue
            want = math.sqrt(math.factorial(j) / math.factorial(j + a)) * s ** (a / 2) * np.exp(-s / 2) * eval_genlaguerre(j, a, s)
            assert table[a, j, 0] == (1.0 if a == 0 else 0.0)
            assert np.abs(table[a, j] - want).max() <= 1e-14


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
        got = special_hermite([0], [0], 0.0)
        assert got == pytest.approx((2 * math.pi) ** -0.5, rel=1e-12)

    def test_ground_state_gaussian_profile(self):
        got = special_hermite([0], [0], 2.0 + 0.0j)
        assert got == pytest.approx((2 * math.pi) ** -0.5 * math.exp(-1.0), rel=1e-12)

    def test_against_adaptive_quadrature(self):
        zeta = 0.7 + 0.3j
        for mu, nu in [(1, 0), (2, 3), (0, 4)]:
            got = special_hermite([mu], [nu], zeta)
            want = _defining_integral_1d(mu, nu, zeta)
            assert got == pytest.approx(want, abs=1e-11)

    def test_doubled_quadrature_agrees(self):
        base = special_hermite([3], [2], 1.1 - 0.4j)
        refined = complex(_sh1d_table(3, 1.1, -0.4, 2 * default_quad_order(3))[3, 2])
        assert base == pytest.approx(refined, rel=1e-12)

    def test_coordinate_factorization(self):
        z1, z2 = 0.5 + 0.2j, -0.3 + 0.9j
        got = special_hermite([1, 2], [0, 1], np.array([z1, z2]))
        want = special_hermite([1], [0], z1) * special_hermite([2], [1], z2)
        assert got == pytest.approx(want, rel=1e-10)

    def test_diagonal_value_real_at_origin(self):
        for k in range(5):
            v = special_hermite([k], [k], 0.0)
            assert abs(v.imag) < 1e-10

    def test_far_field_is_zero(self):
        assert special_hermite([0], [0], 80.0 + 0.0j) == 0.0


class TestBasisMatrix:
    def test_n2_outer_products_match_pointwise_values(self):
        # outer products of the one-coordinate table on the M x M plane against
        # special_hermite evaluated at each of the M^4 grid points on its own
        tr = Truncation(2, 2)
        grid = make_grid(2, default_half_width(2, 2), 10)
        points = np.stack(grid.zeta_coords(), axis=-1)
        want = np.stack([special_hermite(mu, nu, points) for mu, nu in zip(tr.mu, tr.nu)])
        got = basis_matrix(tr, grid)
        assert got.shape == (len(tr),) + grid.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("k_max", [32, 48])
    def test_high_degree_against_scipy_laguerre(self, k_max):
        # Phi_{mu nu} = (2 pi)^{-1/2} i^{|mu-nu|} e^{-i(mu-nu) theta} l^{|mu-nu|}_{min(mu,nu)}(|zeta|^2/2),
        # with scipy's generalized Laguerre polynomial and log-gamma normalization
        tr = Truncation(1, k_max)
        grid = make_grid(1, default_half_width(1, k_max), 10)
        (z,) = grid.zeta_coords()
        s = np.abs(z) ** 2 / 2
        mu, nu = tr.mu[:, :1, None], tr.nu[:, :1, None]
        a, j = np.abs(mu - nu), np.minimum(mu, nu)
        norm = np.exp(0.5 * (gammaln(j + 1) - gammaln(j + a + 1)) - s / 2) * s ** (a / 2)
        i_power = np.array([1j**e for e in a.ravel()]).reshape(a.shape)
        want = (2 * math.pi) ** -0.5 * i_power * np.exp(-1j * (mu - nu) * np.angle(z)) * norm * eval_genlaguerre(j, a, s)
        assert np.abs(basis_matrix(tr, grid) - want).max() <= 1e-12

    def test_gram_identity_at_kmax_24(self):
        # the Gauss-Hermite basis this replaced read 2.4e-06 here, above the check's 1e-6
        tr, grid = Truncation(1, 24), make_grid(1, default_half_width(1, 24), 106)
        result = checks.gram_identity(tr, grid)
        twisted._basis.cache_clear()  # frees the 112 MB basis, which no other test reads
        assert result.passed, result.detail

    def test_n3_rows_are_outer_products_of_n1_rows(self):
        # the first n at which the per-coordinate broadcast runs twice; a
        # pointwise special_hermite reference at n = 3 is too slow here
        tr, tr1 = Truncation(3, 1), Truncation(1, 1)
        grid = make_grid(3, default_half_width(3, 1), 8)
        rows = basis_matrix(tr1, make_grid(1, grid.L, grid.M))
        row_of = {(m, v): i for i, (m, v) in enumerate(zip(tr1.mu[:, 0].tolist(), tr1.nu[:, 0].tolist()))}
        got = basis_matrix(tr, grid)
        assert got.shape == (len(tr),) + grid.shape
        for i, (mu, nu) in enumerate(zip(tr.mu.tolist(), tr.nu.tolist())):
            want = reduce(np.multiply.outer, [rows[row_of[m, v]] for m, v in zip(mu, nu)])
            np.testing.assert_array_equal(got[i], want)


    @pytest.mark.parametrize("n, k_max, M", [(1, 16, 84), (1, 6, 48), (2, 2, 16), (3, 1, 8), (1, 0, 8)])
    def test_bitwise_equal_to_reference_builder(self, n, k_max, M):
        # the in-place products and the n = 1 table read in place change no bit
        tr, grid = Truncation(n, k_max), make_grid(n, default_half_width(n, k_max), M)
        assert np.array_equal(basis_matrix(tr, grid), reference_basis_matrix(tr, grid))

    def test_peak_memory_near_result(self):
        # the reference builder peaks at 2.6 times its result here (81.5 MiB for 31.1 MiB)
        tr, grid = Truncation(1, 16), make_grid(1, default_half_width(1, 16), 84)
        tracemalloc.start()
        try:
            result = basis_matrix(tr, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * result.nbytes, f"peak {peak / 2**20:.1f} MiB for a {result.nbytes / 2**20:.1f} MiB result"


class TestPhiK:
    def test_ground_level_origin(self):
        assert phi_k(0, 0.0, 1) == pytest.approx(1.0, rel=1e-12)

    def test_ground_level_gaussian(self):
        z = 1.2 - 0.7j
        assert phi_k(0, z, 1) == pytest.approx(math.exp(-abs(z) ** 2 / 4), rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2])
    def test_laguerre_addition_formula(self, n):
        # phi_k(z) = L_k^{(n-1)}(|z|^2/2) e^{-|z|^2/4} at the origin and at 12 points with coordinates in [-3, 3]
        rng = np.random.default_rng(7)
        z = np.concatenate([np.zeros((1, n)), rng.uniform(-3, 3, (12, n)) + 1j * rng.uniform(-3, 3, (12, n))])
        r2 = (np.abs(z) ** 2).sum(axis=1)
        for k in range(7):
            want = eval_genlaguerre(k, n - 1, r2 / 2) * np.exp(-r2 / 4)
            got = phi_k(k, z if n > 1 else z[:, 0], n)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_matches_term_by_term_sum(self):
        # k = 2, n = 2: the three nu with |nu| = 2 summed explicitly
        z = np.array([0.4 + 0.1j, -0.2 + 0.3j])
        terms = sum(special_hermite(nu, nu, z) for nu in [(2, 0), (1, 1), (0, 2)])
        want = (2 * math.pi) ** 1 * terms
        assert phi_k(2, z, 2) == pytest.approx(want, rel=1e-10)


class TestIndices:
    def test_smallest_truncations(self):
        assert len(Truncation(1, 0)) == 1
        assert len(Truncation(1, 1)) == 4
        assert len(Truncation(2, 1)) == 9

    def test_ordering_deterministic(self):
        # graded-lex: by degree, then lexicographic; pairs by mu, then by nu
        singles = sorted((c for c in product(range(2), repeat=2) if sum(c) <= 1), key=lambda c: (sum(c), c))
        assert multi_indices(2, 1).tolist() == [list(c) for c in singles] == [[0, 0], [0, 1], [1, 0]]
        tr = Truncation(2, 1)
        assert tr.mu.dtype == tr.nu.dtype == np.int64
        assert tr.mu.tolist() == [list(m) for m in singles for _ in singles]
        assert tr.nu.tolist() == [list(v) for _ in singles for v in singles]
        a, b = Truncation(1, 3), Truncation(1, 3)
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.nu, b.nu)

    def test_truncation_is_its_n_and_kmax(self):
        tr = Truncation(2, 1)
        assert tr == Truncation(2, 1) and hash(tr) == hash(Truncation(2, 1))
        assert tr != Truncation(2, 2)
        for n, k_max in ((0, 1), (1, -1)):
            with pytest.raises(ValueError):
                Truncation(n, k_max)

    def test_no_duplicates(self):
        tr = Truncation(2, 2)
        assert len(np.unique(np.hstack([tr.mu, tr.nu]), axis=0)) == len(tr)
        for name in ("mu", "nu"):  # built once, shared, read-only
            a = getattr(tr, name)
            assert a is getattr(tr, name) and a.shape == (len(tr), 2)
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1

    def test_eigenvalue(self):
        def eigenvalue(tr, mu, nu):
            (i,) = np.flatnonzero((tr.mu == mu).all(axis=1) & (tr.nu == nu).all(axis=1))
            return tr.eigenvalues[i]

        assert eigenvalue(Truncation(1, 3), (0,), (3,)) == 7
        assert eigenvalue(Truncation(2, 2), (1, 1), (2, 0)) == 6

    def test_eigenvalues_one_read_only_integer_array(self):
        tr = Truncation(2, 2)
        lam = tr.eigenvalues
        assert lam is tr.eigenvalues
        assert lam.dtype.kind == "i"
        assert lam.tolist() == [2 * sum(nu) + 2 for nu in tr.nu.tolist()]
        with pytest.raises(ValueError):
            lam[0] = 0

    @pytest.mark.parametrize("n, k_max", [(1, 4), (2, 2)])
    def test_level_blocks_partition_by_eigenvalue(self, n, k_max):
        tr = Truncation(n, k_max)
        levels, blocks = tr.level_blocks
        assert tr.level_blocks is tr.level_blocks
        assert np.all(np.diff(levels) > 0)
        assert len(blocks) == len(levels)
        assert sorted(np.concatenate(blocks).tolist()) == list(range(len(tr)))
        for level, block in zip(levels, blocks):
            assert block.size and np.all(tr.eigenvalues[block] == level)
        for a in (levels, *blocks):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_negative_entries_rejected(self):
        # special_hermite takes (mu, nu) as plain integer sequences and checks them itself
        for mu, nu in [((-1,), (0,)), ((0, 1), (0, -2)), ((0, 1), (0,)), ((), ())]:
            with pytest.raises(ValueError):
                special_hermite(mu, nu, 0.0)
