import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specherm import checks
from specherm.grids import Field, default_half_width, lp_norm, make_grid, time_nodes
from specherm.indices import enumerate_pairs
from specherm.propagator import (
    ComplexTime,
    SingularTimeError,
    evolve_kernel,
    evolve_spectral,
    level_parts,
    mehler_kernel,
    mehler_kernel_field,
    propagate_coeffs,
    propagate_samples,
    synthesize,
)
from specherm.twisted import cached_basis, forward_transform, inverse_transform


def random_coeffs(tr, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(len(tr)) + 1j * rng.standard_normal(len(tr))


def per_pair_samples(coeffs, tr, n_t, grid):
    """e^{-i t L} u with every basis pair rotated by its own phase and one GEMM per time node.

    The reference for the level synthesis of ``propagate_samples``.
    """
    c = np.asarray(coeffs, dtype=complex)
    basis = cached_basis(tr, grid).reshape(len(tr), -1)
    lam = np.array(tr.eigenvalues(), dtype=float)
    phases = np.exp(-1j * np.outer(time_nodes(n_t), lam))  # (n_t, n_pairs)
    rotated = phases[:, :, None] * c.reshape(len(tr), -1)[None, :, :]  # (n_t, n_pairs, N)
    vals = basis.T @ rotated
    return vals.reshape((n_t,) + grid.shape + c.shape[1:])


class TestComplexTime:
    def test_validation(self):
        with pytest.raises(ValueError):
            ComplexTime(-0.1, 0.0)
        with pytest.raises(ValueError):
            ComplexTime(0.0, 4.0)

    def test_reduction(self):
        eta = ComplexTime.reduced(0.0, 1.0 + 2 * math.pi)
        assert eta.t == pytest.approx(1.0)


class TestMehlerKernel:
    def test_origin_value_real_time(self):
        r = 0.7
        want = (2 * math.pi) ** -1 * math.exp(-r) / (1 - math.exp(-2 * r))
        assert mehler_kernel(ComplexTime(r, 0.0), 0.0) == pytest.approx(want, rel=1e-13)

    def test_exact_periodicity(self):
        # t chosen so that t + 2 pi is itself exactly representable
        t = 6.5 - 2 * math.pi
        z = 0.8 - 0.3j
        a = mehler_kernel(ComplexTime.reduced(0.4, t), z)
        b = mehler_kernel(ComplexTime.reduced(0.4, t + 2 * math.pi), z)
        assert a == b

    def test_paper_modulus_bound(self):
        eta = ComplexTime(0.1, 1.0)
        for z in (0.0, 1.0 + 0.5j, 2.0 - 1.0j):
            assert abs(mehler_kernel(eta, z)) <= 2.0 / abs(math.sin(1.0))

    def test_unitary_boundary_envelope(self):
        # on r = 0 the modulus law is |K_{it}| |sin t| = (4 pi)^{-1}
        for t in (0.3, 1.0, 2.5):
            val = abs(mehler_kernel(ComplexTime(0.0, t), 1.0 + 1.0j)) * abs(math.sin(t))
            assert val <= (4 * math.pi) ** -1 * 1.01
            assert val <= 2.0

    def test_singular_time_rejected(self):
        with pytest.raises(SingularTimeError):
            mehler_kernel(ComplexTime(0.0, 0.0), 0.0)


class TestEvolveSpectral:
    def test_zero_time_identity(self, tr4):
        c = random_coeffs(tr4)
        out = evolve_spectral(c, tr4, ComplexTime(0.0, 0.0))
        np.testing.assert_array_equal(out, c)

    def test_imaginary_time_unimodular(self, tr4):
        c = random_coeffs(tr4)
        out = evolve_spectral(c, tr4, ComplexTime(0.0, 0.9))
        np.testing.assert_allclose(np.abs(out), np.abs(c), rtol=1e-14)

    def test_real_time_damping_ratios(self, tr4):
        c = np.ones(len(tr4), dtype=complex)
        r = 0.3
        out = evolve_spectral(c, tr4, ComplexTime(r, 0.0))
        # the modes (mu, nu) = (0, 0) and (0, 2)
        (i0,), (i1,) = (np.flatnonzero((tr4.mu[:, 0] == 0) & (tr4.nu[:, 0] == nu)) for nu in (0, 2))
        got = out[i1] / out[i0]
        assert got == pytest.approx(math.exp(-2 * r * 2), rel=1e-13)

    def test_semigroup_property(self, tr4):
        c = random_coeffs(tr4, seed=5)
        one = evolve_spectral(evolve_spectral(c, tr4, ComplexTime(0.2, 0.5)), tr4, ComplexTime(0.3, 0.1))
        two = evolve_spectral(c, tr4, ComplexTime(0.5, 0.6))
        np.testing.assert_allclose(one, two, rtol=1e-12)

    @pytest.mark.parametrize("size_change", [-1, 1])
    def test_rejects_wrong_length(self, tr4, size_change):
        with pytest.raises(ValueError, match="truncation size"):
            evolve_spectral(np.ones(len(tr4) + size_change, dtype=complex), tr4, ComplexTime(0.2, 0.5))

    def test_rejects_nan(self, tr4):
        c = random_coeffs(tr4)
        c[3] = np.nan
        with pytest.raises(ValueError, match="coefficients must be finite"):
            evolve_spectral(c, tr4, ComplexTime(0.2, 0.5))


class TestMehlerKernelField:
    def test_n2_is_outer_product_of_n1(self):
        eta = ComplexTime(0.3, 0.7)
        grid = make_grid(2, 5.0, 10)
        one = mehler_kernel_field(eta, make_grid(1, 5.0, 10)).values
        want = np.multiply.outer(one, one)
        got = mehler_kernel_field(eta, grid).values
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestEvolveKernel:
    def test_agrees_with_spectral_path(self, tr4, grid4):
        c = random_coeffs(tr4, seed=3)
        eta = ComplexTime(0.5, 0.0)
        via_kernel = evolve_kernel(inverse_transform(c, tr4, grid4), eta)
        via_spectral = inverse_transform(evolve_spectral(c, tr4, eta), tr4, grid4)
        diff = lp_norm(Field(grid4, via_kernel.values - via_spectral.values), 2)
        assert diff <= 1e-6 * lp_norm(via_spectral, 2)

    def test_ground_state_decay(self, tr4, grid4):
        f = Field(grid4, cached_basis(tr4, grid4)[0])
        r = 0.8
        out = evolve_kernel(f, ComplexTime(r, 0.0))
        assert np.abs(out.values - math.exp(-r) * f.values).max() < 1e-6

    def test_zero_field(self, grid4):
        out = evolve_kernel(Field(grid4, np.zeros(grid4.shape)), ComplexTime(0.4, 0.0))
        assert np.abs(out.values).max() == 0.0

    def test_n2_kernel_vs_spectral_passes_at_m32(self):
        # the first n = 2 end-to-end check: the kernel path as one n = 1 pass per coordinate,
        # the spectral path through the n = 2 basis; M = 24 still misses the bound (3.8e-6)
        tr = enumerate_pairs(2, 1)
        grid = make_grid(2, default_half_width(2, 1), 32)
        result = checks.kernel_vs_spectral(random_coeffs(tr, seed=0), tr, grid, ComplexTime(0.5, 0.3))
        assert result.passed, result.detail


class TestPropagate:
    def test_zero_time_identity(self, tr4):
        c = random_coeffs(tr4, seed=7)
        np.testing.assert_array_equal(propagate_coeffs(c, tr4, 0.0), c)

    def test_norm_preserved(self, tr4):
        c = random_coeffs(tr4, seed=8)
        out = propagate_coeffs(c, tr4, 2.13)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(c), rel=1e-15)

    def test_eigenfunction_phase(self, tr4, grid4):
        f = Field(grid4, cached_basis(tr4, grid4)[0])
        t = 0.77
        out = inverse_transform(propagate_coeffs(forward_transform(f, tr4), tr4, t), tr4, grid4)
        assert np.abs(out.values - cmath.exp(-1j * t) * f.values).max() < 1e-6

    def test_exact_periodicity_in_coefficients(self, tr4):
        c = random_coeffs(tr4, seed=10)
        t = 6.5 - 2 * math.pi
        a = propagate_coeffs(c, tr4, t)
        b = propagate_coeffs(c, tr4, t + 2 * math.pi)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n, k_max", [(1, 4), (2, 2)])
    def test_half_period_sign(self, n, k_max):
        # every eigenvalue 2|nu| + n has the parity of n: e^{-i (t + pi) L} = (-1)^n e^{-i t L}
        tr = enumerate_pairs(n, k_max)
        rng = np.random.default_rng(13)
        for t in rng.uniform(-math.pi, 0.0, 8):
            c = random_coeffs(tr, seed=int(rng.integers(2**16)))
            a = propagate_coeffs(c, tr, t)
            b = propagate_coeffs(c, tr, t + math.pi)
            assert np.abs(b - (-1) ** n * a).max() <= 1e-14 * np.abs(c).max()

    def test_field_round_trip(self, tr4, grid4):
        c = random_coeffs(tr4, seed=11)
        f = inverse_transform(c, tr4, grid4)
        out = inverse_transform(propagate_coeffs(forward_transform(f, tr4), tr4, 0.9), tr4, grid4)
        back = inverse_transform(propagate_coeffs(forward_transform(out, tr4), tr4, -0.9), tr4, grid4)
        assert np.abs(back.values - f.values).max() < 1e-6


class TestPropagateSamples:
    @pytest.mark.parametrize("n, k_max, M, n_t, N", [
        (1, 4, 48, 16, None),
        (1, 4, 48, 16, 1),
        (1, 4, 48, 16, 16),
        (2, 1, 10, 6, 4),
    ], ids=["n1-vector", "n1-N1", "n1-N16", "n2-N4"])
    def test_matches_per_pair_reference(self, n, k_max, M, n_t, N):
        tr = enumerate_pairs(n, k_max)
        grid = make_grid(n, default_half_width(n, k_max), M)
        rng = np.random.default_rng(12)
        shape = (len(tr),) if N is None else (len(tr), N)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = per_pair_samples(coeffs, tr, n_t, grid)
        got = propagate_samples(coeffs, tr, n_t, grid)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n, k_max, M", [(1, 4, 48), (2, 1, 10)])
    def test_second_half_is_signed_first_half(self, n, k_max, M):
        # on an even grid t_{a + n_t/2} = t_a + pi, where e^{-i t L} u changes by (-1)^n
        tr = enumerate_pairs(n, k_max)
        grid = make_grid(n, default_half_width(n, k_max), M)
        n_t = 6
        vals = propagate_samples(random_coeffs(tr, seed=14), tr, n_t, grid)
        assert np.array_equal(vals[3:], (-1) ** n * vals[:3])

    @settings(max_examples=25, deadline=None)
    @given(s=st.floats(-2 * math.pi, 2 * math.pi), seed=st.integers(0, 2**16))
    def test_group_law_on_time_grid(self, s, seed, tr4, grid4, nt16):
        # e^{-i t L} e^{-i s L} u = e^{-i (t + s) L} u: rotating the coefficients by s,
        # then synthesizing at the nodes, equals synthesizing at the shifted nodes
        c = random_coeffs(tr4, seed=seed)
        rotated_first = synthesize(*level_parts(propagate_coeffs(c, tr4, s), tr4, grid4), time_nodes(nt16))
        shifted_nodes = synthesize(*level_parts(c, tr4, grid4), time_nodes(nt16) + s)
        assert np.abs(rotated_first - shifted_nodes).max() <= 1e-12 * np.abs(shifted_nodes).max()
