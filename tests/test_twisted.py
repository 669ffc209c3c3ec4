import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specherm import checks, twisted
from specherm.basis import phi_k
from specherm.grids import (
    Field,
    default_half_width,
    lp_norm,
    make_grid,
    mixed_norm,
    sample_field,
)
from specherm.indices import enumerate_pairs, multi_indices
from specherm.propagator import ComplexTime, mehler_kernel_field
from specherm.schatten import random_smoothed_weights, weighted_gram
from specherm.strichartz import density
from specherm.twisted import (
    TwistedConvolver,
    apply_twisted_laplacian,
    cached_basis,
    forward_transform,
    inverse_transform,
    twisted_convolve,
)


def position(tr, mu, nu):
    """Row of the pair (mu, nu) in the truncation's order."""
    (i,) = np.flatnonzero((tr.mu == mu).all(axis=1) & (tr.nu == nu).all(axis=1))
    return i


def mode(tr, grid, mu, nu):
    return Field(grid, cached_basis(tr, grid)[position(tr, mu, nu)])


def phi_k_field(k, grid):
    """Diagonal eigenspace sum phi_k sampled on the grid."""
    return sample_field(grid, lambda *zs: phi_k(k, np.stack(zs, axis=-1), grid.n))


def project_k(f, k):
    """Projection onto the eigenspace of eigenvalue 2k + n: P_k f = (2 pi)^{-n} f x phi_k.

    The twisted-convolution route, one convolution per composition of k, and
    with it an oracle of the n >= 2 convolution against ``spectral_projection``.
    """
    n = f.grid.n
    # phi_k = sum over k_1 + ... + k_n = k of phi_{k_1}(z_1) ... phi_{k_n}(z_n)
    plane = make_grid(1, f.grid.L, f.grid.M)
    nus = multi_indices(n, k)
    parts = [twisted_convolve(f, tuple(phi_k_field(kj, plane) for kj in nu)).values for nu in nus[nus.sum(axis=1) == k]]
    return Field(f.grid, (2.0 * math.pi) ** (-n) * sum(parts))


def spectral_projection(f, k, tr):
    """P_k f by forward transform, restriction to the pairs with |nu| = k and inverse transform.

    The reference for ``project_k``'s twisted convolution with phi_k.
    """
    mask = tr.nu.sum(axis=1) == k
    return inverse_transform(forward_transform(f, tr) * mask, tr, f.grid)


def random_band_limited(tr, grid, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(len(tr)) + 1j * rng.standard_normal(len(tr))
    return c, inverse_transform(c, tr, grid)


def difference_resample(values, M):
    """Zero-pad every axis to 2M, shift half an index, keep the 2M - 1 lattice points."""
    out = values
    for axis in range(values.ndim):
        padded_shape = list(out.shape)
        padded_shape[axis] = 2 * M
        padded = np.zeros(padded_shape, dtype=complex)
        sl = [slice(None)] * out.ndim
        sl[axis] = slice(M // 2, M // 2 + M)
        padded[tuple(sl)] = out
        freq = np.fft.fftfreq(2 * M) * 2 * M
        shape = [1] * out.ndim
        shape[axis] = 2 * M
        phase = np.exp(2j * np.pi * freq * 0.5 / (2 * M)).reshape(shape)
        sl[axis] = slice(0, 2 * M - 1)
        out = np.fft.ifft(np.fft.fft(padded, axis=axis) * phase, axis=axis)[tuple(sl)]
    return out


def gather_reference(f, g):
    """Per-output gather over the difference lattice, O(M^{4n}): the former reference path."""
    grid = f.grid
    M, n = grid.M, grid.n
    fd = difference_resample(f.values, M).ravel()
    dim = 2 * n
    strides = [(2 * M - 1) ** (dim - 1 - a) for a in range(dim)]
    jmesh = np.meshgrid(*([np.arange(M)] * dim), indexing="ij")
    jravel = sum(jm.ravel() * s for jm, s in zip(jmesh, strides))
    gw = (g.values * grid.weight_tensor).ravel()
    plus = np.exp(0.5j * np.outer(grid.axis, grid.axis))
    phase_rows = [(plus[:, jmesh[2 * c].ravel()], np.conj(plus)[:, jmesh[2 * c + 1].ravel()]) for c in range(n)]
    out = np.empty(grid.shape, dtype=complex)
    for i in np.ndindex(grid.shape):
        base = sum((i[a] + M - 1) * strides[a] for a in range(dim))
        vals = fd[base - jravel] * gw
        for c in range(n):
            vals = vals * phase_rows[c][0][i[2 * c + 1]] * phase_rows[c][1][i[2 * c]]
        out[i] = vals.sum()
    return out


def random_fields(grid, count, seed):
    rng = np.random.default_rng(seed)
    shape = (count,) + grid.shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_factors(grid, seed):
    """n random fields on the one-coordinate grid: the factors of g = g_1 (x) ... (x) g_n."""
    plane = make_grid(1, grid.L, grid.M)
    return tuple(Field(plane, v) for v in random_fields(plane, grid.n, seed))


def max_rel(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


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
        for (m, n, a, b) in [(1, 2, 2, 0), (2, 1, 1, 3), (0, 3, 3, 2)]:
            f = mode(tr4, grid4, m, n)
            g = mode(tr4, grid4, a, b)
            got = twisted_convolve(f, g).values
            want = math.sqrt(2 * math.pi) * mode(tr4, grid4, m, b).values if n == a else 0.0
            assert np.abs(got - want).max() < 1e-6

    def test_orthogonality_rule_n2(self):
        # Phi_{mu nu} x Phi_{alpha beta} = 2 pi delta_{nu alpha} Phi_{mu beta} at n = 2.  The
        # bound, 1e-3 on the largest entry error against a result of size ~1, was fixed before
        # the first run: on L = 7, M = 16 (h = 0.93) the phase aliasing exp(-(2 pi / h)^2 / 4)
        # and the Gaussian tail at the edge are both ~1e-5.
        tr = enumerate_pairs(2, 1)
        grid = make_grid(2, 7.0, 16)
        basis = cached_basis(tr, grid)

        # g = Phi_{(1,0)(0,1)} = Phi_10 (x) Phi_01, passed as its two one-coordinate factors
        plane, tr1 = make_grid(1, 7.0, 16), enumerate_pairs(1, 1)
        g = (mode(tr1, plane, 1, 0), mode(tr1, plane, 0, 1))
        np.testing.assert_array_equal(np.multiply.outer(g[0].values, g[1].values), basis[position(tr, (1, 0), (0, 1))])
        matched, unmatched = position(tr, (0, 1), (1, 0)), position(tr, (0, 0), (0, 1))
        got = TwistedConvolver(g).apply(basis[[matched, unmatched]])
        assert np.abs(got[0] - 2 * math.pi * basis[position(tr, (0, 1), (0, 1))]).max() < 1e-3
        assert np.abs(got[1]).max() < 1e-3

    def test_zero_absorbing(self, grid4, tr4):
        f = mode(tr4, grid4, 1, 1)
        out = twisted_convolve(f, Field(grid4, np.zeros(grid4.shape)))
        assert np.abs(out.values).max() == 0.0

    def test_fast_path_matches_reference(self):
        # n = 1: the factorized FFT path sums the same quadrature as the per-output gather
        small = make_grid(1, 6.0, 24)
        f, g = (Field(small, v) for v in random_fields(small, 2, seed=2))
        assert max_rel(twisted_convolve(f, g).values, gather_reference(f, g)) < 1e-12

    def test_n2_matches_reference(self):
        # n = 2, g = g_1 (x) g_2: one n = 1 pass per coordinate against the gather over the product field
        tr = enumerate_pairs(2, 1)
        grid = make_grid(2, default_half_width(2, 1), 8)
        f = random_band_limited(tr, grid, seed=3)[1]
        g = random_factors(grid, seed=4)
        got = twisted_convolve(f, g).values
        assert max_rel(got, gather_reference(f, Field(grid, np.multiply.outer(g[0].values, g[1].values)))) < 1e-12

    @pytest.mark.parametrize("n, M", [(1, 24), (2, 8)])
    def test_batch_equals_single_calls(self, n, M):
        grid = make_grid(n, 6.0, M)
        values = random_fields(grid, 3, seed=5)
        g = random_factors(grid, seed=6)
        batch = TwistedConvolver(g).apply(values)
        assert batch.shape == values.shape
        for v, got in zip(values, batch):
            # the batch changes only the order of the frequency-space sums (BLAS)
            assert max_rel(got, twisted_convolve(Field(grid, v), g).values) < 1e-12

    def test_n2_chunked_batch_equals_one_chunk(self, monkeypatch):
        # chunks of 5 planes split the 3 x 64 planes of each coordinate pass unevenly
        grid = make_grid(2, 6.0, 8)
        values = random_fields(grid, 3, seed=7)
        g = random_factors(grid, seed=8)
        whole = TwistedConvolver(g).apply(values)
        monkeypatch.setattr(twisted, "_CHUNK_ENTRIES", 5 * 8 * 8)
        assert max_rel(TwistedConvolver(g).apply(values), whole) < 1e-12

    def test_n2_field_kernel_rejected(self):
        # an n >= 2 g is given by its one-coordinate factors, never as a field on the n = 2 grid
        grid = make_grid(2, 6.0, 8)
        g = Field(grid, random_fields(grid, 1, seed=9)[0])
        with pytest.raises(ValueError, match="one-coordinate"):
            twisted_convolve(Field(grid, np.zeros(grid.shape)), g)
        with pytest.raises(ValueError, match="one-coordinate"):
            TwistedConvolver(g)

    def test_grid_mismatch(self, grid4):
        other = make_grid(1, grid4.L, grid4.M + 2)
        with pytest.raises(ValueError):
            twisted_convolve(Field(grid4, np.zeros(grid4.shape)), Field(other, np.zeros(other.shape)))
        with pytest.raises(ValueError):
            TwistedConvolver(Field(grid4, np.zeros(grid4.shape))).apply(np.zeros((2,) + other.shape))
        other = make_grid(1, grid4.L + 1.0, grid4.M)  # same M, other half-width
        with pytest.raises(ValueError):
            twisted_convolve(Field(grid4, np.zeros(grid4.shape)), Field(other, np.zeros(other.shape)))

    @pytest.mark.parametrize("n_factors, n", [(2, 1), (1, 2)])
    def test_factor_count_must_match_field_dimension(self, n_factors, n):
        # g has one factor per complex coordinate of the fields it convolves
        g = random_factors(make_grid(n_factors, 6.0, 8), seed=10)
        grid = make_grid(n, 6.0, 8)
        f = Field(grid, np.zeros(grid.shape))
        message = f"g has {n_factors} factor.*dimension {n}"
        with pytest.raises(ValueError, match=message):
            twisted_convolve(f, g)
        with pytest.raises(ValueError, match=message):
            TwistedConvolver(g).apply(np.zeros((2,) + f.grid.shape))

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("M", [8, 24, 48])
    def test_matrix_resample_matches_fft_formula(self, M, B):
        # S f S^T against the pad-shift-cut FFT formula applied field by field; the bound,
        # 1e-13 relative to the largest entry, was fixed before the first run
        grid = make_grid(1, 6.0, M)
        values = random_fields(grid, B, seed=11)
        lattice = np.arange(1 - M, M) * grid.spacing
        want = np.stack([difference_resample(v, M) for v in values]) * np.exp(-0.5j * np.outer(lattice, lattice))
        assert max_rel(twisted._difference_samples(values, grid), want) < 1e-13


class TestConvolver:
    """A convolver builds each distinct factor's kernel spectrum once, whatever it convolves."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The factors ``_kernel_spectrum`` is called with, in order."""
        calls = []
        spectrum = twisted._kernel_spectrum

        def counting(g):
            calls.append(g)
            return spectrum(g)

        monkeypatch.setattr(twisted, "_kernel_spectrum", counting)
        return calls

    def test_repeated_factor_built_once_over_chunks_and_passes(self, built, monkeypatch):
        # chunks of 5 planes: 13 chunks in each of the two coordinate passes
        monkeypatch.setattr(twisted, "_CHUNK_ENTRIES", 5 * 8 * 8)
        grid = make_grid(2, 6.0, 8)
        k = random_factors(grid, seed=12)[0]
        twisted_convolve(Field(grid, random_fields(grid, 1, seed=13)[0]), (k, k))
        assert built == [k]

    @pytest.mark.parametrize("n, M", [(1, 16), (2, 8)])
    def test_weight_generator_builds_one_spectrum(self, built, n, M):
        weights = list(random_smoothed_weights(4, make_grid(n, 6.0, M), [0, 1, 2]))
        assert len(weights) == 3
        assert len(built) == 1

    def test_weights_match_gather_reference(self):
        # each weight against one built without the generator: the noise drawn as default_rng(seed)
        # draws it, real block then imaginary block, each time slice convolved with the Mehler kernel
        # by the per-output gather, then normalized in L^4_t L^4_z, which checks.schatten_ratios relies on
        n_t, grid = 4, make_grid(1, 6.0, 16)
        kernel = mehler_kernel_field(ComplexTime(0.2, 0.0), grid)
        seeds = [3, 4]
        weights = list(random_smoothed_weights(n_t, grid, seeds))
        assert len(weights) == len(seeds)
        shape = (n_t,) + grid.shape
        for seed, got in zip(seeds, weights):
            rng = np.random.default_rng(seed)
            raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            want = np.stack([gather_reference(Field(grid, v), kernel) for v in raw])
            want /= mixed_norm(want, grid, 4.0, 4.0, measure="dt/2pi")
            assert max_rel(got, want) < 1e-12
            assert abs(mixed_norm(got, grid, 4.0, 4.0, measure="dt/2pi") - 1.0) <= 1e-14


class TestConvolutionProperties:
    """Hypothesis checks of the algebra twisted convolution must obey."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        a=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        b=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    )
    def test_bilinear(self, seed, a, b):
        grid = make_grid(1, 6.0, 24)
        f1, f2, g1, g2 = random_fields(grid, 4, seed)
        g = Field(grid, g1)
        convolve = TwistedConvolver(g).apply
        lhs = convolve((a * f1 + b * f2)[None])[0]
        parts = convolve(np.stack([f1, f2]))
        scale = abs(a) * np.abs(parts[0]).max() + abs(b) * np.abs(parts[1]).max()
        assert np.abs(lhs - (a * parts[0] + b * parts[1])).max() <= 1e-12 * scale
        f = Field(grid, f1)
        rhs = twisted_convolve(f, Field(grid, a * g1 + b * g2)).values
        left, right = twisted_convolve(f, Field(grid, g1)).values, twisted_convolve(f, Field(grid, g2)).values
        scale = abs(a) * np.abs(left).max() + abs(b) * np.abs(right).max()
        assert np.abs(rhs - (a * left + b * right)).max() <= 1e-12 * scale

    @settings(max_examples=15, deadline=None)
    @given(picks=st.lists(st.integers(0, 8), min_size=3, max_size=3))
    def test_associative_on_modes(self, picks, grid4):
        # (f x g) x h = f x (g x h) for basis modes with k_max = 2, to criterion 2's 1e-4
        tr = enumerate_pairs(1, 2)
        f, g, h = (Field(grid4, cached_basis(tr, grid4)[i]) for i in picks)
        left = twisted_convolve(twisted_convolve(f, g), h).values
        right = twisted_convolve(f, twisted_convolve(g, h)).values
        assert np.abs(left - right).max() < 1e-4


class TestTransforms:
    def test_mode_maps_to_unit_vector(self, tr4, grid4):
        c = forward_transform(mode(tr4, grid4, 0, 0), tr4)
        e0 = np.zeros(len(tr4))
        e0[position(tr4, 0, 0)] = 1.0
        assert np.abs(c - e0).max() < 1e-6

    def test_plancherel(self, tr4, grid4):
        _, f = random_band_limited(tr4, grid4, seed=4)
        c = forward_transform(f, tr4)
        assert np.sum(np.abs(c) ** 2) == pytest.approx(lp_norm(f, 2) ** 2, abs=1e-6)

    def test_zero_field_zero_coeffs(self, tr4, grid4):
        assert np.all(forward_transform(Field(grid4, np.zeros(grid4.shape)), tr4) == 0.0)

    def test_round_trip_band_limited(self, tr4, grid4):
        c0, f = random_band_limited(tr4, grid4, seed=9)
        c1 = forward_transform(f, tr4)
        assert np.abs(c1 - c0).max() < 1e-6

    def test_cached_basis_is_read_only(self, tr4, grid4):
        before = cached_basis(tr4, grid4)[0].copy()
        f = Field(grid4, cached_basis(tr4, grid4)[0])  # aliases the cache
        with pytest.raises(ValueError):
            f.values *= 0
        np.testing.assert_array_equal(cached_basis(tr4, grid4)[0], before)

    def test_cached_basis_is_bounded_lru(self):
        tr, grid = enumerate_pairs(1, 1), make_grid(1, 6.0, 16)
        first = cached_basis(tr, grid)
        assert cached_basis(tr, grid) is first  # a hit is the same object
        assert not first.flags.writeable
        for M in range(18, 18 + 2 * twisted._BASIS_CACHE_SIZE, 2):  # evicts (tr, grid)
            cached_basis(tr, make_grid(1, 6.0, M))
        assert len(twisted._BASIS_CACHE) == twisted._BASIS_CACHE_SIZE
        rebuilt = cached_basis(tr, grid)
        assert rebuilt is not first
        np.testing.assert_array_equal(rebuilt, first)
        assert not rebuilt.flags.writeable
        assert cached_basis(tr, grid) is rebuilt

    @pytest.mark.parametrize("tr_n, grid_n", [(2, 1), (1, 2)])
    def test_dimension_mismatch_rejected_before_any_basis(self, tr_n, grid_n, monkeypatch):
        # every basis consumer passes through cached_basis; an n = 2, k_max 1 truncation on an
        # n = 1, M = 16 grid would otherwise build and cache a (9, 16^4) basis, then fail in numpy
        monkeypatch.setattr(twisted, "_BASIS_CACHE", OrderedDict())
        tr, grid = enumerate_pairs(tr_n, 1), make_grid(grid_n, 8.0, 16)
        calls = [
            lambda: checks.gram_identity(tr, grid),
            lambda: density(np.eye(len(tr), 1), [1.0], tr, 4, grid),
            lambda: weighted_gram(np.ones((4,) + grid.shape), tr, grid),
            lambda: inverse_transform(np.ones(len(tr)), tr, grid),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"dimension n = {tr_n} on a grid of dimension n = {grid_n}"):
                call()
        assert not twisted._BASIS_CACHE

    def test_inverse_of_zero(self, tr4, grid4):
        c = np.zeros(len(tr4), dtype=complex)
        assert np.all(inverse_transform(c, tr4, grid4).values == 0.0)

    @pytest.mark.parametrize("size_change", [-1, 1])
    def test_inverse_rejects_wrong_length(self, tr4, grid4, size_change):
        with pytest.raises(ValueError, match="truncation size"):
            inverse_transform(np.ones(len(tr4) + size_change, dtype=complex), tr4, grid4)

    def test_inverse_rejects_nan(self, tr4, grid4):
        c = np.ones(len(tr4), dtype=complex)
        c[3] = np.nan
        with pytest.raises(ValueError, match="coefficients must be finite"):
            inverse_transform(c, tr4, grid4)


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
        via_conv = project_k(f, 1)
        via_spec = spectral_projection(f, 1, tr4)
        assert np.abs(via_conv.values - via_spec.values).max() < 1e-6

    def test_n2_convolution_and_spectral_paths_agree(self):
        # phi_1 at n = 2 is phi_1 (x) phi_0 + phi_0 (x) phi_1: one convolution per term; M = 32 is
        # the grid on which the n = 2 kernel path meets 1e-6 (see the kernel-vs-spectral check)
        tr = enumerate_pairs(2, 1)
        grid = make_grid(2, default_half_width(2, 1), 32)
        _, f = random_band_limited(tr, grid, seed=8)
        via_conv = project_k(f, 1)
        via_spec = spectral_projection(f, 1, tr)
        assert np.abs(via_conv.values - via_spec.values).max() < 1e-6

    def test_phi_k_field_gaussian(self, grid4):
        f = phi_k_field(0, grid4)
        want = np.exp(-(grid4.zeta_coords()[0].__abs__() ** 2) / 4)
        assert np.abs(f.values - want).max() < 1e-10


class TestTwistedLaplacian:
    def test_eigenrelation_low_modes(self, tr4, grid4):
        for mu, nu, lam in [(0, 0, 1), (0, 1, 3), (2, 3, 7)]:
            f = mode(tr4, grid4, mu, nu)
            lf = apply_twisted_laplacian(f.values, grid4)
            res = lp_norm(Field(grid4, lf - lam * f.values), 2) / lp_norm(f, 2)
            assert res < 1e-3

    def test_zero_field(self, grid4):
        assert np.all(apply_twisted_laplacian(np.zeros(grid4.shape, dtype=complex), grid4) == 0.0)

    def test_eigenrelation_check_fails_on_nan(self, tr4, grid4, monkeypatch):
        # a NaN residual must not vanish from the running maximum: max(0.0, nan) is 0.0
        basis = cached_basis(tr4, grid4).copy()
        basis[2, 5, 7] = np.nan
        monkeypatch.setattr(checks, "cached_basis", lambda tr, grid: basis)
        result = checks.eigenrelation(tr4, grid4)
        assert math.isnan(result.value)
        assert not result.passed

    def test_symmetry(self, tr4, grid4):
        _, f = random_band_limited(tr4, grid4, seed=12)
        _, g = random_band_limited(tr4, grid4, seed=13)
        # the quadrature pairing (a, b) = sum a conj(b) w
        lf, lg = (apply_twisted_laplacian(h.values, grid4) for h in (f, g))
        lhs = np.sum(lf * np.conj(g.values) * grid4.weight_tensor)
        rhs = np.sum(f.values * np.conj(lg) * grid4.weight_tensor)
        assert abs(lhs - rhs) <= 1e-4 * lp_norm(f, 2) * lp_norm(g, 2)

    def test_coarse_grid_rejected(self):
        g = make_grid(1, 4.0, 12)
        with pytest.raises(ValueError):
            apply_twisted_laplacian(np.zeros(g.shape, dtype=complex), g)
