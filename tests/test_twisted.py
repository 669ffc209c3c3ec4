import math

import numpy as np
import pytest

from specherm.grids import Field, inner_product, lp_norm, make_grid, zero_field
from specherm.indices import MultiIndex, MultiIndexPair, enumerate_pairs
from specherm.twisted import (
    SpectralCoeffs,
    apply_twisted_laplacian,
    cached_basis,
    forward_transform,
    inverse_transform,
    phi_k_field,
    project_k,
    twisted_convolve,
)


def mode(tr, grid, mu, nu):
    p = MultiIndexPair(MultiIndex((mu,)), MultiIndex((nu,)))
    return Field(grid, cached_basis(tr, grid)[tr.position(p)])


def random_band_limited(tr, grid, seed=0):
    rng = np.random.default_rng(seed)
    c = SpectralCoeffs(tr, rng.standard_normal(len(tr)) + 1j * rng.standard_normal(len(tr)))
    return c, inverse_transform(c, grid)


class TestTwistedConvolve:
    def test_ground_state_self_convolution(self, tr4, grid4):
        f = mode(tr4, grid4, 0, 0)
        got = twisted_convolve(f, f)
        err = np.abs(got.values - math.sqrt(2 * math.pi) * f.values).max()
        assert err < 1e-6

    def test_mismatched_inner_indices_annihilate(self, tr4, grid4):
        f = mode(tr4, grid4, 0, 1)
        g = mode(tr4, grid4, 0, 0)
        assert np.abs(twisted_convolve(f, g).values).max() < 1e-6

    def test_orthogonality_rule_general(self, tr4, grid4):
        # Phi_{mu nu} x Phi_{alpha beta} = sqrt(2 pi) delta_{nu alpha} Phi_{mu beta}
        basis = cached_basis(tr4, grid4)
        for (m, n, a, b) in [(1, 2, 2, 0), (2, 1, 1, 3), (0, 3, 3, 2)]:
            f = mode(tr4, grid4, m, n)
            g = mode(tr4, grid4, a, b)
            got = twisted_convolve(f, g).values
            want = math.sqrt(2 * math.pi) * mode(tr4, grid4, m, b).values if n == a else 0.0
            assert np.abs(got - want).max() < 1e-6

    def test_zero_absorbing(self, grid4, tr4):
        f = mode(tr4, grid4, 1, 1)
        out = twisted_convolve(f, zero_field(grid4))
        assert np.abs(out.values).max() == 0.0

    def test_fast_path_matches_reference(self, tr4, grid4):
        rng = np.random.default_rng(2)
        small = make_grid(1, 6.0, 24)
        f = Field(small, rng.standard_normal(small.shape) + 1j * rng.standard_normal(small.shape))
        g = Field(small, rng.standard_normal(small.shape))
        fast = twisted_convolve(f, g, method="fast")
        ref = twisted_convolve(f, g, method="reference")
        assert np.abs(fast.values - ref.values).max() < 1e-8

    def test_grid_mismatch(self, grid4):
        other = make_grid(1, grid4.L, grid4.M + 2)
        with pytest.raises(ValueError):
            twisted_convolve(zero_field(grid4), zero_field(other))


class TestTransforms:
    def test_mode_maps_to_unit_vector(self, tr4, grid4):
        c = forward_transform(mode(tr4, grid4, 0, 0), tr4)
        e0 = np.zeros(len(tr4))
        e0[tr4.position(MultiIndexPair(MultiIndex((0,)), MultiIndex((0,))))] = 1.0
        assert np.abs(c.coeffs - e0).max() < 1e-6

    def test_plancherel(self, tr4, grid4):
        _, f = random_band_limited(tr4, grid4, seed=4)
        c = forward_transform(f, tr4)
        assert np.sum(np.abs(c.coeffs) ** 2) == pytest.approx(lp_norm(f, 2) ** 2, abs=1e-6)

    def test_zero_field_zero_coeffs(self, tr4, grid4):
        assert np.all(forward_transform(zero_field(grid4), tr4).coeffs == 0.0)

    def test_round_trip_band_limited(self, tr4, grid4):
        c0, f = random_band_limited(tr4, grid4, seed=9)
        c1 = forward_transform(f, tr4)
        assert np.abs(c1.coeffs - c0.coeffs).max() < 1e-6

    def test_cached_basis_is_read_only(self, tr4, grid4):
        before = cached_basis(tr4, grid4)[0].copy()
        f = Field(grid4, cached_basis(tr4, grid4)[0])  # aliases the cache
        with pytest.raises(ValueError):
            f.values *= 0
        np.testing.assert_array_equal(cached_basis(tr4, grid4)[0], before)

    def test_inverse_of_zero(self, tr4, grid4):
        c = SpectralCoeffs(tr4, np.zeros(len(tr4), dtype=complex))
        assert np.all(inverse_transform(c, grid4).values == 0.0)


class TestProjections:
    def test_projector_fixes_own_level(self, tr4, grid4):
        f = mode(tr4, grid4, 0, 0)
        got = project_k(f, 0)
        assert np.abs(got.values - f.values).max() < 1e-6

    def test_projector_kills_other_levels(self, tr4, grid4):
        f = mode(tr4, grid4, 0, 0)
        assert np.abs(project_k(f, 1).values).max() < 1e-6

    def test_idempotent(self, tr4, grid4):
        _, f = random_band_limited(tr4, grid4, seed=1)
        p1 = project_k(f, 2)
        p2 = project_k(p1, 2)
        assert np.abs(p2.values - p1.values).max() < 1e-6

    def test_levels_resolve_identity(self, tr4, grid4):
        _, f = random_band_limited(tr4, grid4, seed=6)
        total = sum(project_k(f, k).values for k in range(tr4.k_max + 1))
        assert np.abs(total - f.values).max() < 1e-6

    def test_convolution_and_spectral_paths_agree(self, tr4, grid4):
        _, f = random_band_limited(tr4, grid4, seed=8)
        via_conv = project_k(f, 1, method="convolution")
        via_spec = project_k(f, 1, tr=tr4, method="spectral")
        assert np.abs(via_conv.values - via_spec.values).max() < 1e-6

    def test_phi_k_field_gaussian(self, grid4):
        f = phi_k_field(0, grid4)
        want = np.exp(-(grid4.zeta_coords()[0].__abs__() ** 2) / 4)
        assert np.abs(f.values - want).max() < 1e-10


class TestTwistedLaplacian:
    def test_eigenrelation_low_modes(self, tr4, grid4):
        for mu, nu, lam in [(0, 0, 1), (0, 1, 3), (2, 3, 7)]:
            f = mode(tr4, grid4, mu, nu)
            lf = apply_twisted_laplacian(f)
            res = lp_norm(Field(grid4, lf.values - lam * f.values), 2) / lp_norm(f, 2)
            assert res < 1e-3

    def test_zero_field(self, grid4):
        assert np.all(apply_twisted_laplacian(zero_field(grid4)).values == 0.0)

    def test_symmetry(self, tr4, grid4):
        _, f = random_band_limited(tr4, grid4, seed=12)
        _, g = random_band_limited(tr4, grid4, seed=13)
        lhs = inner_product(apply_twisted_laplacian(f), g)
        rhs = inner_product(f, apply_twisted_laplacian(g))
        assert abs(lhs - rhs) <= 1e-4 * lp_norm(f, 2) * lp_norm(g, 2)

    def test_coarse_grid_rejected(self):
        g = make_grid(1, 4.0, 12)
        with pytest.raises(ValueError):
            apply_twisted_laplacian(zero_field(g))
