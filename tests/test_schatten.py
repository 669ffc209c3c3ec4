import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, linalg
from scipy.special import gamma

from specherm import twisted
from specherm.grids import default_half_width, make_grid, mixed_norm, time_nodes
from specherm.indices import Truncation
from specherm.propagator import propagate_coeffs, propagate_samples
from specherm.schatten import (
    _SV_CLAMP,
    _t_z_factors,
    build_t_z,
    default_lambda_cut,
    duality_check,
    extension_gram_matrix,
    g_z_weight,
    matched_system,
    random_smoothed_weights,
    sandwich_schatten,
    schatten_from_singular_values,
    t_z_schatten,
    weighted_gram,
)
from specherm.strichartz import density, sample_orthonormal_system
from specherm.twisted import cached_basis, inverse_transform


@pytest.fixture(scope="module")
def small_setup():
    tr = Truncation(1, 2)
    grid = make_grid(1, 9.2, 32)
    n_t = 28  # > 2 * (2*2 + 1 + 8)
    return tr, n_t, grid


@pytest.fixture(scope="module")
def n2_setup():
    tr = Truncation(2, 1)
    grid = make_grid(2, default_half_width(2, 1), 10)
    n_t = 6
    return tr, n_t, grid


@pytest.fixture(scope="module")
def small_odd_setup(small_setup):
    # an odd n_t pairs no node with its half-period shift: the unfolded time sum
    tr, _, grid = small_setup
    return tr, 7, grid


@pytest.fixture(scope="module")
def n2_odd_setup(n2_setup):
    tr, _, grid = n2_setup
    return tr, 5, grid


def dense_frame(tr, n_t, grid):
    """The propagation frame A, rows (t, z) and one column per pair, from ``propagate_coeffs``.

    Column p holds e^{-i t L} Phi_p sampled at every node, times sqrt(w_t w_z)
    under the normalized circle measure: the reference that K(W) = A* |W|^2 A
    must match without forming it.
    """
    sqrtw = np.sqrt(np.outer(np.full(n_t, 1.0 / n_t), grid.weight_tensor.ravel())).ravel()
    cols = []
    for e in np.eye(len(tr), dtype=complex):
        cols.append(np.concatenate([inverse_transform(propagate_coeffs(e, tr, float(t)), tr, grid).values.ravel()
                                    for t in time_nodes(n_t)]))
    return np.stack(cols, axis=1) * sqrtw[:, None]


@pytest.fixture(scope="module")
def kmax4_setup():
    tr = Truncation(1, 4)
    grid = make_grid(1, default_half_width(1, 4), 48)
    n_t = 16
    return tr, n_t, grid


@pytest.fixture(scope="module")
def kmax4_odd_setup(kmax4_setup):
    tr, _, grid = kmax4_setup
    return tr, 7, grid


def node_loop_gram(W, tr, n_t, grid):
    """K(W) summed one time node at a time: the weighted spatial Gram
    conj(B) diag(w_z |W_a|^2 / n_t) B^T of node t_a, rotated by the phases
    e^{i t_a (lambda_p - lambda_q)}.  The reference for the time-Fourier form.
    """
    basis = cached_basis(tr, grid).reshape(len(tr), -1)
    lam = np.array(tr.eigenvalues, dtype=float)
    w2 = np.abs(W.reshape(n_t, -1)) ** 2 * (grid.weight_tensor.ravel() / n_t)
    K = np.zeros((len(tr), len(tr)), dtype=complex)
    for t, w2a in zip(time_nodes(n_t), w2):
        phase = np.exp(1j * t * lam)
        K += np.outer(phase, phase.conj()) * ((basis.conj() * w2a) @ basis.T)
    return K


@pytest.fixture(scope="module")
def coarse_setup():
    # on this grid the basis Gram is far from the identity
    tr = Truncation(1, 2)
    grid = make_grid(1, 9.2, 10)
    n_t = 28
    return tr, n_t, grid


def frame_qr_singular_values(z, tr, n_t, grid):
    """Singular values of T_z by the QR of the dense lambda-grid frame F, built here.

    F has columns Phi_p(z) e^{-i lambda t} sqrt(w_t w_z), pair-major; with
    F = QR the nonzero singular values of F diag(g) F^H are those of
    R diag(g) R^H.  This is the reference for the basis-Gram block form.
    """
    cut = default_lambda_cut(tr)
    lams = np.arange(-cut, cut + 1)
    basis = np.stack([inverse_transform(e, tr, grid).values.ravel() for e in np.eye(len(tr), dtype=complex)])
    sqrtw = np.sqrt(np.outer(np.full(n_t, 1.0 / n_t), grid.weight_tensor.ravel()))
    phases = np.exp(-1j * np.outer(time_nodes(n_t), lams))
    F = np.einsum("al,pz,az->azpl", phases, basis, sqrtw).reshape(n_t * grid.size, -1)
    g = np.array([g_z_weight(z, nu, int(lam)) for nu in tr.nu for lam in lams])
    R = linalg.qr(F, mode="economic")[1]
    return linalg.svdvals((R * g) @ R.conj().T)


def gaussian_weight(n_t, grid, seed):
    rng = np.random.default_rng(seed)
    shape = (n_t,) + grid.shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSchattenNorm:
    def test_diagonal_hilbert_schmidt(self):
        assert schatten_from_singular_values(np.array([3.0, 4.0]), 2) == pytest.approx(5.0)

    def test_identity_any_exponent(self):
        for r in (1, 2, 4, math.inf):
            want = 6.0 ** (1.0 / r) if not math.isinf(r) else 1.0
            assert schatten_from_singular_values(np.ones(6), r) == pytest.approx(want)

    def test_hilbert_schmidt_is_frobenius(self):
        rng = np.random.default_rng(0)
        T = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert schatten_from_singular_values(linalg.svdvals(T), 2) == pytest.approx(np.linalg.norm(T), abs=1e-10)

    def test_monotone_in_exponent(self):
        rng = np.random.default_rng(1)
        s = linalg.svdvals(rng.standard_normal((8, 8)))
        norms = [schatten_from_singular_values(s, r) for r in (1, 2, 4, math.inf)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_invalid_inputs(self):
        for r in (0.5, 0.0, math.nan):
            with pytest.raises(ValueError):
                schatten_from_singular_values(np.ones(2), r)

    def test_singular_values_sorted_nonnegative(self):
        # r = inf reads the first entry after the sort by |s|: unsorted it is 1.0, without abs 4.0,
        # and without abs the clamp would also drop -9 from the trace
        s = np.array([1.0, -9.0, 4.0])
        assert schatten_from_singular_values(s, 1) == pytest.approx(14.0)
        assert schatten_from_singular_values(s, math.inf) == 9.0

    def test_relative_clamp_zeroes_noise(self):
        # relative to the largest: kept just above the floor, zeroed below it, and the
        # dropped 0.5 * _SV_CLAMP would move the exact trace by far more than an ulp
        s = np.array([0.5, 0.5 * _SV_CLAMP, 1.0, 2.0 * _SV_CLAMP])
        assert schatten_from_singular_values(s, 1) == 1.0 + 0.5 + 2.0 * _SV_CLAMP
        assert schatten_from_singular_values(s, math.inf) == 1.0


class TestPropagationMatrix:
    """The propagation frame A, seen through K(1) = A*A and the time-grid synthesis."""

    def test_columns_orthonormal(self, small_setup):
        tr, n_t, grid = small_setup
        K = weighted_gram(np.ones((n_t,) + grid.shape), tr, grid)
        err = np.abs(K - np.eye(len(tr))).max()
        assert err < 1e-5

    def test_single_pair_unit_column(self, small_setup):
        _, n_t, grid = small_setup
        tr1 = Truncation(1, 0)
        K = weighted_gram(np.ones((n_t,) + grid.shape), tr1, grid)
        assert K.shape == (1, 1)
        assert math.sqrt(K[0, 0].real) == pytest.approx(1.0, abs=1e-6)

    def test_matches_propagator_on_basis_vector(self, small_setup):
        tr, n_t, grid = small_setup
        e0 = np.zeros(len(tr))
        e0[0] = 1.0
        samples = propagate_samples(e0, tr, n_t, grid)
        assert samples.shape == (n_t,) + grid.shape
        for a in (0, n_t // 2):
            want = inverse_transform(propagate_coeffs(e0, tr, float(time_nodes(n_t)[a])), tr, grid).values
            assert np.abs(samples[a] - want).max() < 1e-8

    def test_function_axis_matches_columns(self, small_setup):
        tr, n_t, grid = small_setup
        rng = np.random.default_rng(6)
        coeffs = rng.standard_normal((len(tr), 3)) + 1j * rng.standard_normal((len(tr), 3))
        samples = propagate_samples(coeffs, tr, n_t, grid)
        assert samples.shape == (n_t,) + grid.shape + (3,)
        for j in range(3):
            assert np.abs(samples[..., j] - propagate_samples(coeffs[:, j], tr, n_t, grid)).max() < 1e-13


class TestWeightedGram:
    @pytest.mark.parametrize("setup", ["small_setup", "n2_setup", "small_odd_setup", "n2_odd_setup"])
    def test_matches_dense_frame(self, setup, request):
        tr, n_t, grid = request.getfixturevalue(setup)
        W = gaussian_weight(n_t, grid, seed=7)
        A = dense_frame(tr, n_t, grid)
        want = A.conj().T @ (np.abs(W.reshape(-1, 1)) ** 2 * A)
        got = weighted_gram(W, tr, grid)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("setup", ["kmax4_setup", "n2_setup", "kmax4_odd_setup", "n2_odd_setup"])
    def test_matches_node_loop(self, setup, request):
        tr, n_t, grid = request.getfixturevalue(setup)
        W = gaussian_weight(n_t, grid, seed=9)
        want = node_loop_gram(W, tr, n_t, grid)
        got = weighted_gram(W, tr, grid)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("system, n_t", [
        pytest.param("matched", 16, id="matched"),
        pytest.param("random", 16, id="random"),
        pytest.param("matched", 7, id="matched-odd"),
        pytest.param("random", 7, id="random-odd"),
    ])
    def test_density_pairing_identity(self, system, n_t):
        # int int rho_gamma |W|^2 dt/2pi dz = sum_j n_j (U^H K(W) U)_jj exactly on
        # the quadrature, at criterion 10's discretization: ties the density
        # synthesis to the weighted Gram
        tr = Truncation(1, 6)
        grid = make_grid(1, default_half_width(1, 6), 48)
        W = next(random_smoothed_weights(n_t, grid, [0]))
        if system == "matched":
            U, nj = matched_system(tr, grid, W, alpha=4.0)
        else:
            U = sample_orthonormal_system(tr, 12, seed=1)
            nj = np.random.default_rng(1).uniform(0.1, 1.0, 12)
        rho = density(U, nj, tr, n_t, grid)
        lhs = np.sum(rho * np.abs(W) ** 2 * grid.weight_tensor) / n_t
        K = weighted_gram(W, tr, grid)
        rhs = np.sum(nj * np.einsum("pj,pq,qj->j", U.conj(), K, U).real)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @pytest.mark.parametrize("setup", ["small_setup", "n2_setup"])
    def test_sandwich_spectrum_matches_factor_svd(self, setup, request):
        # the sandwich W A A* conj(W) = X X^H with X = diag(W) A: its singular
        # values are those of X, squared
        tr, n_t, grid = request.getfixturevalue(setup)
        W = gaussian_weight(n_t, grid, seed=8)
        X = W.reshape(-1, 1) * dense_frame(tr, n_t, grid)
        want = linalg.svdvals(X) ** 2
        got = np.linalg.eigvalsh(weighted_gram(W, tr, grid))[::-1]
        kept = want > _SV_CLAMP * want[0]
        assert got.shape == want.shape
        np.testing.assert_allclose(got[kept], want[kept], rtol=1e-10)
        assert sandwich_schatten(W, tr, grid, 4.0) == pytest.approx(schatten_from_singular_values(want, 4.0),
                                                                         rel=1e-10)


class TestExtensionOperator:
    """E_S on the surface lambda = 2|nu| + n is ``propagate_samples`` of the surface coefficients."""

    def test_surface_delta_gives_rotating_mode(self, small_setup):
        # the surface delta at Phi_00, lambda = 1: e^{-it} Phi_00
        tr, n_t, grid = small_setup
        e0 = np.eye(len(tr))[0].astype(complex)
        out = propagate_samples(e0, tr, n_t, grid)
        phi00 = inverse_transform(e0, tr, grid).values
        for a in (0, 5):
            want = np.exp(-1j * time_nodes(n_t)[a]) * phi00
            assert np.abs(out[a] - want).max() < 1e-10

    def test_zero_input(self, small_setup):
        tr, n_t, grid = small_setup
        assert np.all(propagate_samples(np.zeros(len(tr)), tr, n_t, grid) == 0.0)

    def test_reproduces_scaled_propagation(self, small_setup):
        # the canonical lift (2 pi)^n u_hat onto the surface gives 2 pi times the propagation at n = 1
        tr, n_t, grid = small_setup
        rng = np.random.default_rng(4)
        u = rng.standard_normal(len(tr)) + 1j * rng.standard_normal(len(tr))
        out = propagate_samples(2 * math.pi * u, tr, n_t, grid) / (2 * math.pi)
        for a in (2, 9):
            want = inverse_transform(propagate_coeffs(u, tr, float(time_nodes(n_t)[a])), tr, grid).values
            assert np.abs(out[a] - want).max() < 1e-8


class TestGzWeight:
    def test_indicator_at_zero(self):
        nu = (1,)  # eigenvalue 3
        assert g_z_weight(0.0, nu, 5) == 1.0
        assert g_z_weight(0.0, nu, 3) == 0.0
        assert g_z_weight(0.0, nu, 1) == 0.0

    def test_half_pole_value(self):
        nu = (0,)  # eigenvalue 1, gap 4 at lambda = 5
        want = 0.5 / math.sqrt(math.pi)
        assert g_z_weight(-0.5, nu, 5) == pytest.approx(want, rel=1e-12)

    def test_negative_integer_rejected(self):
        with pytest.raises(ValueError):
            g_z_weight(-2.0, (0,), 5)
        with pytest.raises(ValueError):
            g_z_weight(-1.0, (0,), 5)

    def test_frame_weights_match_pointwise_weights(self):
        # _t_z_factors forms every (pair, lambda) weight with one Gamma(z + 1)
        tr, n_t = Truncation(1, 4), 64
        grid = make_grid(1, default_half_width(1, 4), 8)
        for z in (0.0, -0.5, 1.3, 0.5j, -0.3 + 0.7j, 2.0 - 1.5j):
            lams, weights = _t_z_factors(z, tr, n_t)
            assert weights.shape == (len(tr), len(lams))
            want = np.array([[g_z_weight(z, nu, int(lam)) for lam in lams] for nu in tr.nu])
            assert np.all((weights == 0) == (want == 0))
            assert np.all(np.abs(weights - want) <= 1e-15 * np.abs(want))

    def test_frame_weights_reject_negative_integers(self):
        tr, n_t = Truncation(1, 2), 64
        grid = make_grid(1, default_half_width(1, 2), 8)
        for z in (-2.0, -3.0 + 0.0j):
            with pytest.raises(ValueError, match="negative-integer"):
                _t_z_factors(z, tr, n_t)

    def test_delta_limit_by_extrapolation(self):
        # pairing (lam - c)_+^z / Gamma(z+1) against a smooth bump over the
        # continuum recovers the bump value at the surface as z -> -1
        c = 3.0
        phi = lambda lam: np.exp(-(((lam - c) / 6.0) ** 2))

        def paired(eps):
            f = lambda x: phi(c + x) * x ** (eps - 1.0) / gamma(eps)
            val, _ = integrate.quad(f, 0.0, 60.0, points=[1e-3, 0.1, 1.0], limit=300)
            return val

        s1, s2, s3 = paired(0.1), paired(0.05), paired(0.025)
        r1, r2 = 2 * s2 - s1, 2 * s3 - s2
        extrapolated = (4 * r2 - r1) / 3
        assert extrapolated == pytest.approx(phi(c), abs=1e-3)


class TestBuildTz:
    def test_zero_weight_is_indicator_multiplier(self, small_setup):
        tr, n_t, grid = small_setup
        # G_0 keeps exactly the frequencies strictly above the surface, each
        # contributing a unit singular value, so the trace norm counts them
        cut = default_lambda_cut(tr)
        kept = sum(1 for ev in tr.eigenvalues for lam in range(-cut, cut + 1) if lam > ev)
        assert t_z_schatten(0.0, tr, n_t, grid, 1.0) == pytest.approx(kept, rel=1e-5)

    def test_surface_path_equals_extension_gram(self, small_setup):
        tr, n_t, _ = small_setup
        grid = make_grid(1, 9.2, 10)
        T = build_t_z(-1.0, tr, n_t, grid)
        TS = extension_gram_matrix(tr, n_t, grid)
        assert np.abs(T - TS).max() <= 1e-8

    def test_time_resolution_guard(self, small_setup):
        tr, _, _ = small_setup
        grid = make_grid(1, 9.2, 10)
        with pytest.raises(ValueError):
            build_t_z(0.0, tr, 20, grid)

    def test_imaginary_axis_operator_norms(self, small_setup):
        tr, n_t, grid = small_setup
        for s in (0.0, 1.0, 2.0):
            norm = t_z_schatten(complex(0.0, s), tr, n_t, grid, math.inf)
            bound = abs(1.0 / gamma(1.0 + 1j * s))
            assert norm <= bound * (1 + 1e-6)
            assert norm == pytest.approx(bound, rel=1e-5)

    @pytest.mark.parametrize("z", [0.5j, -0.5 + 1j, 1.0])
    def test_block_form_matches_frame_qr_on_coarse_grid(self, z, coarse_setup):
        tr, n_t, grid = coarse_setup
        B = cached_basis(tr, grid).reshape(len(tr), -1)
        G_b = (B.conj() * grid.weight_tensor.ravel()) @ B.T
        assert np.abs(G_b - np.eye(len(tr))).max() > 0.1  # the factor order of the blocks matters here
        want = frame_qr_singular_values(z, tr, n_t, grid)
        for r in (1.0, 2.0, 4.0, math.inf):
            got = t_z_schatten(z, tr, n_t, grid, r)
            assert got == pytest.approx(schatten_from_singular_values(want, r), rel=1e-10)

    @pytest.mark.parametrize("s", [0.0, 0.7])
    def test_imaginary_axis_at_kmax_4(self, s):
        # k_max = 4, M = 48, n_t = 64: a lambda-grid frame here would hold 129 M entries
        tr = Truncation(1, 4)
        grid = make_grid(1, default_half_width(1, 4), 48)
        norm = t_z_schatten(complex(0.0, s), tr, 64, grid, math.inf)
        assert norm == pytest.approx(abs(1.0 / gamma(1.0 + 1j * s)), rel=1e-12)


class TestSandwich:
    def test_unit_weight_gives_projector_spectrum(self, small_setup):
        tr, n_t, grid = small_setup
        W = np.ones((n_t,) + grid.shape)
        s = np.linalg.eigvalsh(weighted_gram(W, tr, grid))
        assert s.size == len(tr)
        assert np.abs(s - 1.0).max() < 1e-5

    def test_zero_weight(self, small_setup):
        tr, n_t, grid = small_setup
        W = np.zeros((n_t,) + grid.shape)
        assert np.all(np.linalg.eigvalsh(weighted_gram(W, tr, grid)) == 0.0)
        assert sandwich_schatten(W, tr, grid, 4.0) == 0.0

    def test_positive_semidefinite(self, small_setup):
        tr, n_t, grid = small_setup
        W = next(random_smoothed_weights(n_t, grid, [1]))
        K = weighted_gram(W, tr, grid)  # same nonzero spectrum as the sandwich
        evals = np.linalg.eigvalsh(K)
        assert evals.min() >= -1e-8 * evals.max()

    @pytest.mark.parametrize("n_t", [0, -1])
    def test_random_weights_reject_node_count_before_any_work(self, n_t, monkeypatch):
        calls = []
        monkeypatch.setattr(twisted, "_kernel_spectrum", lambda g: calls.append(g))
        with pytest.raises(ValueError, match=f"got n_t = {n_t}"):
            next(random_smoothed_weights(n_t, make_grid(1, 6.0, 16), [0]))
        assert calls == []

    def test_shape_mismatch(self, small_setup):
        tr, n_t, grid = small_setup
        with pytest.raises(ValueError):
            sandwich_schatten(np.ones((n_t,) + grid.shape)[..., :-1], tr, grid, 4.0)
        with pytest.raises(ValueError, match="n_t >= 1"):
            weighted_gram(np.ones((0,) + grid.shape), tr, grid)

    def test_exponent_below_one_rejected(self, small_setup):
        tr, n_t, grid = small_setup
        with pytest.raises(ValueError):
            sandwich_schatten(np.ones((n_t,) + grid.shape), tr, grid, 0.5)
        with pytest.raises(ValueError):
            t_z_schatten(0.5j, tr, n_t, grid, 0.5)


_PROPERTY_SETUP = (Truncation(1, 2), make_grid(1, 9.2, 32))


class TestGramProperties:
    weights = st.integers(0, 2**16).map(lambda seed: next(random_smoothed_weights(6, _PROPERTY_SETUP[1], [seed])))
    scalars = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False)

    @settings(max_examples=15, deadline=None)
    @given(W=weights)
    def test_hermitian_positive_semidefinite(self, W):
        K = weighted_gram(W, *_PROPERTY_SETUP)
        evals = np.linalg.eigvalsh(K)
        top = np.abs(evals).max()
        assert np.abs(K - K.conj().T).max() <= 1e-12 * top
        assert evals.min() >= -1e-12 * top

    @settings(max_examples=15, deadline=None)
    @given(W=weights, c=scalars)
    def test_quadratic_in_weight(self, W, c):
        K = weighted_gram(W, *_PROPERTY_SETUP)
        Kc = weighted_gram(c * W, *_PROPERTY_SETUP)
        assert np.abs(Kc - abs(c) ** 2 * K).max() <= 1e-12 * abs(c) ** 2 * np.abs(K).max()

    @settings(max_examples=15, deadline=None)
    @given(W=weights)
    def test_schatten_norm_nonincreasing_in_r(self, W):
        norms = [sandwich_schatten(W, *_PROPERTY_SETUP, r) for r in (1.0, 2.0, 4.0, math.inf)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


class TestDuality:
    EXPONENTS = dict(alpha=4.0, density_exponents=(2.0, 2.0))

    def test_single_function_ratios_positive(self, small_setup):
        tr, n_t, grid = small_setup
        W = next(random_smoothed_weights(n_t, grid, [2]))
        sandwich, density_ratios, skipped = duality_check(tr, grid, [W], **self.EXPONENTS)
        assert sandwich.shape == density_ratios.shape == (1,)
        assert sandwich[0] > 0 and math.isfinite(sandwich[0])
        assert density_ratios[0] > 0 and math.isfinite(density_ratios[0])
        assert skipped == 0

    def test_density_side_homogeneity(self, small_setup):
        tr, n_t, grid = small_setup
        W = next(random_smoothed_weights(n_t, grid, [3]))
        sandwich1, density1, _ = duality_check(tr, grid, [W], **self.EXPONENTS)
        sandwich2, density2, _ = duality_check(tr, grid, [2.0 * W], **self.EXPONENTS)
        # scaling W scales K(W), hence the sandwich and all n_j, and both
        # ratios are homogeneous of degree 0
        assert sandwich2[0] == pytest.approx(sandwich1[0], rel=1e-10)
        assert density2[0] == pytest.approx(density1[0], rel=1e-10)

    def test_one_gram_matches_separate_calls(self, small_setup):
        tr, n_t, grid = small_setup
        W = next(random_smoothed_weights(n_t, grid, [5]))
        sandwich, density_ratios, _ = duality_check(tr, grid, [W], **self.EXPONENTS)
        wn = mixed_norm(W, grid, 4.0, 4.0, measure="dt/2pi")
        assert sandwich[0] == pytest.approx(sandwich_schatten(W, tr, grid, 4.0) / wn**2, rel=1e-12)
        coeffs, nj = matched_system(tr, grid, W, alpha=4.0)
        dens = density(coeffs, nj, tr, n_t, grid)
        dn = mixed_norm(dens, grid, 2.0, 2.0, measure="dt/2pi")
        assert density_ratios[0] == pytest.approx(dn / np.linalg.norm(nj, ord=4.0 / 3.0), rel=1e-12)

    def test_weight_exponents_are_twice_the_density_duals(self, small_setup):
        # the density in L^3_t L^1.5_z pairs with the weight in L^{2 * 3/2}_t L^{2 * 3}_z = L^3_t L^6_z
        tr, n_t, grid = small_setup
        W = next(random_smoothed_weights(n_t, grid, [6]))
        sandwich, _, _ = duality_check(tr, grid, [W], alpha=4.0, density_exponents=(3.0, 1.5))
        want = sandwich_schatten(W, tr, grid, 4.0) / mixed_norm(W, grid, 3, 6, measure="dt/2pi") ** 2
        assert sandwich[0] == pytest.approx(want, rel=1e-12)

    def test_matched_system_diagonalizes_gram(self, small_setup):
        tr, n_t, grid = small_setup
        W = next(random_smoothed_weights(n_t, grid, [4]))
        coeffs, nj = matched_system(tr, grid, W, alpha=4.0)
        K = weighted_gram(W, tr, grid)
        evals = nj ** (1.0 / 3.0)  # n_j = eigenvalue^(alpha - 1)
        assert np.abs(coeffs.conj().T @ coeffs - np.eye(len(nj))).max() < 1e-12
        assert np.abs(K @ coeffs - coeffs * evals).max() < 1e-12 * evals.max()
        assert np.all(np.diff(evals) <= 0)

    @pytest.mark.parametrize("alpha", [0.5, math.nan])
    def test_alpha_below_one_rejected(self, small_setup, alpha):
        tr, n_t, grid = small_setup
        with pytest.raises(ValueError, match="alpha"):
            duality_check(tr, grid, [], alpha=alpha, density_exponents=(2.0, 2.0))

    def test_degenerate_samples_skipped(self, small_setup):
        tr, n_t, grid = small_setup
        W0 = np.zeros((n_t,) + grid.shape)
        W = next(random_smoothed_weights(n_t, grid, [2]))
        sandwich, density_ratios, skipped = duality_check(tr, grid, [W0, W], **self.EXPONENTS)
        # a zero weight has no sandwich ratio and an empty matched system
        assert skipped == 2
        assert sandwich.shape == density_ratios.shape == (1,)

    def test_only_zero_weights_rejected(self, small_setup):
        tr, n_t, grid = small_setup
        W0 = np.zeros((n_t,) + grid.shape)
        with pytest.raises(ValueError, match=r"every weight was degenerate \(4 sides skipped\)"):
            duality_check(tr, grid, [W0, W0], **self.EXPONENTS)

    def test_sandwich_constant_stable_over_weights(self, small_setup):
        tr, n_t, grid = small_setup
        ratios = []
        for W in random_smoothed_weights(n_t, grid, range(10)):
            num = sandwich_schatten(W, tr, grid, 4.0)
            den = mixed_norm(W, grid, 4.0, 4.0, measure="dt/2pi") ** 2
            ratios.append(num / den)
        r = np.array(ratios)
        assert np.all(np.isfinite(r))
        assert r.max() / np.median(r) <= 1.2  # tightly clustered at fixed discretization
