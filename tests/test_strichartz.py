import math
import tracemalloc

import numpy as np
import pytest

from specherm import strichartz
from specherm.grids import default_half_width, make_grid, make_time_grid, mixed_norm
from specherm.indices import enumerate_pairs
from specherm.propagator import propagate_coeffs
from specherm.strichartz import (
    admissible_exponents,
    density,
    density_norm,
    eigenfunction_growth,
    eigenfunction_system,
    fit_growth_exponent,
    sample_orthonormal_system,
    sweep,
)
from specherm.twisted import cached_basis, inverse_transform


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

    @pytest.mark.parametrize("n", [1, 2])
    def test_sweep_exponents_on_the_scaling_line(self, n):
        # every (p, q) that sweep runs satisfies 1/p + n/q = n
        for j in (0, 1, 2, 4):
            q = 1.0 + j / (4 * n)
            p = admissible_exponents(n, q)
            inv_p = 0.0 if math.isinf(p) else 1.0 / p
            assert abs(inv_p + n / q - n) < 1e-12


class TestSampling:
    def test_single_vector_is_unit(self, tr4):
        U = sample_orthonormal_system(tr4, 1, seed=0)
        assert U.shape == (len(tr4), 1)
        assert np.linalg.norm(U[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_gram_identity(self, tr4):
        U = sample_orthonormal_system(tr4, 8, seed=1)
        assert np.abs(U.conj().T @ U - np.eye(8)).max() < 1e-10

    def test_seed_determinism(self, tr4):
        a = sample_orthonormal_system(tr4, 4, seed=7)
        b = sample_orthonormal_system(tr4, 4, seed=7)
        c = sample_orthonormal_system(tr4, 4, seed=8)
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - c).max() > 1e-3

    def test_oversized_system_rejected(self, tr4):
        with pytest.raises(ValueError):
            sample_orthonormal_system(tr4, len(tr4) + 1, seed=0)


class TestDensity:
    def test_ground_state_density_static(self, tr4, grid4, tg16):
        d = density(eigenfunction_system(tr4, 1), [1.0], tr4, tg16, grid4)
        # eigenfunction modulus is time-independent
        assert np.abs(d - d[0]).max() < 1e-12
        from specherm.twisted import cached_basis

        want = np.abs(cached_basis(tr4, grid4)[0]) ** 2
        assert np.abs(d[0] - want).max() < 1e-10

    def test_zero_coefficients(self, tr4, grid4, tg16):
        d = density(eigenfunction_system(tr4, 3), np.zeros(3), tr4, tg16, grid4)
        assert np.abs(d).max() == 0.0

    def test_mass_conservation(self, tr4, grid4, tg16):
        nj = np.array([1.0, 0.5, 2.0, 0.25, 1.5])
        d = density(sample_orthonormal_system(tr4, 5, seed=3), nj, tr4, tg16, grid4)
        masses = np.array([np.sum(d[a] * grid4.weight_tensor) for a in range(tg16.n_t)])
        assert np.abs(masses - np.sum(nj)).max() < 1e-6

    def test_pointwise_nonnegative(self, tr4, grid4, tg16):
        d = density(sample_orthonormal_system(tr4, 4, seed=5), [0.1, 0.2, 0.3, 0.4], tr4, tg16, grid4)
        assert np.isrealobj(d)
        assert d.min() >= 0.0

    def test_empty_system_is_zero(self, tr4, grid4, tg16):
        d = density(eigenfunction_system(tr4, 0), np.ones(0), tr4, tg16, grid4)
        assert d.shape == (tg16.n_t,) + grid4.shape
        assert not np.any(d)

    def test_shape_mismatch(self, tr4, grid4, tg16):
        with pytest.raises(ValueError, match="length"):
            density(eigenfunction_system(tr4, 2), [1.0], tr4, tg16, grid4)

    @pytest.mark.parametrize("n, n_t", [
        pytest.param(1, 16, id="1"),
        pytest.param(2, 6, id="2"),
        pytest.param(1, 7, id="1-odd"),  # an odd grid: every node synthesized
        pytest.param(2, 5, id="2-odd"),
    ])
    def test_matches_per_node_synthesis(self, n, n_t, tr4, grid4):
        # oracle: each u_j propagated in coefficient space and synthesized
        # node by node through inverse_transform
        if n == 1:
            tr, grid = tr4, grid4
        else:
            tr = enumerate_pairs(2, 1)
            grid = make_grid(2, default_half_width(2, 1), 10)
        tg = make_time_grid(n_t)
        N = 5
        U = sample_orthonormal_system(tr, N, seed=4)
        nj = np.array([1.0, 0.5, 2.0, 0.25, 1.5])
        want = np.stack([
            sum(
                nj[j] * np.abs(inverse_transform(propagate_coeffs(U[:, j], tr, t), tr, grid).values) ** 2
                for j in range(N)
            )
            for t in tg.nodes
        ])
        got = density(U, nj, tr, tg, grid)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n, k_max, M", [(1, 4, 48), (2, 1, 10)])
    def test_second_half_copies_first_half(self, n, k_max, M):
        # the density is pi-periodic in t and t_{a + n_t/2} = t_a + pi
        tr = enumerate_pairs(n, k_max)
        grid = make_grid(n, default_half_width(n, k_max), M)
        tg = make_time_grid(6)
        d = density(sample_orthonormal_system(tr, 3, seed=2), [1.0, 0.5, 0.25], tr, tg, grid)
        assert np.array_equal(d[3:], d[:3])

    @pytest.mark.parametrize("nodes_per_chunk", [0, 3])
    def test_chunked_density_matches_one_chunk(self, nodes_per_chunk, tr4, grid4, tg16, monkeypatch):
        # 0: a chunk holds less than one node, so each node is its own chunk;
        # 3: 16 nodes in chunks of 3, the last one short
        U = sample_orthonormal_system(tr4, 7, seed=9)
        nj = np.linspace(0.2, 1.4, 7)
        monkeypatch.setattr(strichartz, "_CHUNK_ENTRIES", tg16.n_t * grid4.size * len(nj))
        whole = density(U, nj, tr4, tg16, grid4)
        monkeypatch.setattr(strichartz, "_CHUNK_ENTRIES", max(1, nodes_per_chunk * grid4.size * len(nj)))
        chunked = density(U, nj, tr4, tg16, grid4)
        assert np.abs(chunked - whole).max() <= 1e-12 * np.abs(whole).max()
        assert chunked.min() >= 0.0

    def test_peak_memory_below_one_synthesis_block(self):
        # criterion 10's size: the density never holds all n_t x M^2 x N complex samples at once
        tr = enumerate_pairs(1, 6)
        grid = make_grid(1, default_half_width(1, 6), 48)
        tg = make_time_grid(16)
        U = sample_orthonormal_system(tr, len(tr), seed=0)
        nj = np.linspace(0.1, 1.0, len(tr))
        cached_basis(tr, grid)
        block_bytes = tg.n_t * grid.size * len(nj) * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            density(U, nj, tr, tg, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block_bytes, f"peak {peak / 2**20:.1f} MiB, one block {block_bytes / 2**20:.1f} MiB"


class TestDensityNorm:
    @pytest.mark.parametrize("measure", ["dt", "dt/2pi"])
    @pytest.mark.parametrize("n, k_max, M, n_t", [(1, 4, 48, 16), (2, 1, 10, 8)])
    def test_half_period_equals_all_nodes(self, n, k_max, M, n_t, measure):
        tr = enumerate_pairs(n, k_max)
        grid = make_grid(n, default_half_width(n, k_max), M)
        tg = make_time_grid(n_t)
        d = density(sample_orthonormal_system(tr, 5, seed=8), [1.0, 0.5, 2.0, 0.25, 1.5], tr, tg, grid)
        sweep_pairs = [(admissible_exponents(n, q), q) for q in (1.0 + j / (4 * n) for j in (0, 1, 2, 4))]
        for p, q in sweep_pairs + [(2.0, 2.0)]:
            want = mixed_norm(d, tg, grid, p, q, measure)
            assert density_norm(d, tg, grid, p, q, measure) == pytest.approx(want, rel=1e-14)

    def test_odd_grid_norms_every_node(self, tr4, grid4):
        tg = make_time_grid(7)
        d = density(sample_orthonormal_system(tr4, 3, seed=1), [1.0, 0.5, 0.25], tr4, tg, grid4)
        for p, q in ((math.inf, 1.0), (2.0, 2.0), (3.0, 1.5)):
            assert density_norm(d, tg, grid4, p, q) == mixed_norm(d, tg, grid4, p, q)

    def test_node_count_must_match_time_grid(self, tr4, grid4, tg16):
        d = density(eigenfunction_system(tr4, 1), [1.0], tr4, make_time_grid(18), grid4)
        with pytest.raises(ValueError, match="time nodes"):
            density_norm(d, tg16, grid4, 2.0, 2.0)


def ratio(U, nj, tr, p, q, tg, grid):
    """The quotient of the density's L^p_t L^q_z norm by the l^{2q/(q+1)} norm of the weights."""
    return mixed_norm(density(U, nj, tr, tg, grid), tg, grid, p, q) / np.linalg.norm(nj, 2.0 * q / (q + 1.0))


class TestStrichartzRatio:
    def test_closed_form_single_mode(self, tr4, grid4, tg16):
        # || |Phi_00|^2 ||_{L2 L2} / 1 = sqrt(2 pi) * ||Phi_00||_{L4}^2 = 2^{-1/2}
        r = ratio(eigenfunction_system(tr4, 1), np.ones(1), tr4, 2.0, 2.0, tg16, grid4)
        assert r == pytest.approx(2.0**-0.5, abs=1e-3)

    def test_scaling_invariance(self, tr4, grid4, tg16):
        U = sample_orthonormal_system(tr4, 3, seed=2)
        nj = np.array([0.5, 1.5, 1.0])
        r1 = ratio(U, nj, tr4, 2.0, 2.0, tg16, grid4)
        r2 = ratio(U, 3.0 * nj, tr4, 2.0, 2.0, tg16, grid4)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_eigenfunction_ratios_uniformly_bounded(self, grid4, tg16):
        tr = enumerate_pairs(1, 4)
        ratios = [ratio(eigenfunction_system(tr, N), np.ones(N), tr, 2.0, 2.0, tg16, grid4) for N in (1, 5, 10, 20)]
        assert max(ratios) <= 1.0

    def test_triangle_endpoint_equality(self, tr4, grid4, tg16):
        r = ratio(eigenfunction_system(tr4, 6), np.ones(6), tr4, math.inf, 1.0, tg16, grid4)
        assert r <= 1.0 + 1e-6
        assert r == pytest.approx(1.0, abs=1e-6)


SWEEP_SIZES = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def rows(tr4, grid4, tg16):
    return sweep(tr4, tg16, grid4, SWEEP_SIZES, trials=4, seed=0)


class TestSweep:
    def test_all_ratios_finite(self, rows):
        assert all(math.isfinite(row[5]) for row in rows)

    def test_row_count(self, rows):
        assert len(rows) == 4 * 4 * 4  # q values x sizes x trials

    def test_rows_sorted(self, rows):
        assert rows == sorted(rows)

    def test_growth_exponent_in_gain_window(self, tr4, grid4, tg16):
        assert 0.6 <= eigenfunction_growth(tr4, tg16, grid4, SWEEP_SIZES) <= 0.85

    def test_triangle_cells_bounded(self, rows):
        for row in rows:
            if row[2] == 1.0:
                assert row[5] <= 1.0 + 1e-6

    def test_rows_on_the_callers_time_grid(self, tr4, grid4):
        # an odd grid, which no default builds: every row is the quotient of trial
        # ``trial``'s system, seeded seed + 1000 N + trial, normed on this grid
        tg = make_time_grid(7)
        got = sweep(tr4, tg, grid4, (3,), trials=2, seed=5)
        for n, p, q, N, trial, ratio, lhs, rhs in got:
            dens = density(sample_orthonormal_system(tr4, N, seed=5 + 1000 * N + trial), np.ones(N), tr4, tg, grid4)
            assert lhs == density_norm(dens, tg, grid4, p, q)
            assert ratio == lhs / rhs
            assert (n, p) == (1, admissible_exponents(1, q))


class TestGrowthFit:
    def test_exact_power_law_recovered(self):
        sizes = [1, 2, 4, 8, 16]
        lhs = [float(N) ** 0.75 for N in sizes]
        assert fit_growth_exponent(sizes, lhs) == pytest.approx(0.75, abs=1e-12)

    def test_needs_two_large_sizes(self):
        with pytest.raises(ValueError):
            fit_growth_exponent([1, 2], [1.0, 2.0])


class TestValidation:
    def test_coefficient_vector_finite(self, tr4, grid4, tg16):
        with pytest.raises(ValueError, match="finite"):
            density(eigenfunction_system(tr4, 1), [np.inf], tr4, tg16, grid4)

    def test_system_shape_checked(self, tr4, grid4, tg16):
        with pytest.raises(ValueError, match="rows"):
            density(np.ones((3, 2), dtype=complex), np.ones(2), tr4, tg16, grid4)

    def test_sizes_too_few_for_growth_fit(self, tr4, grid4, tg16, monkeypatch):
        calls = count_densities(monkeypatch)
        with pytest.raises(ValueError, match=r"system sizes \(1, 2\) have fewer than two sizes >= 2"):
            eigenfunction_growth(tr4, tg16, grid4, (1, 2))
        assert calls == []

    @pytest.mark.parametrize("sizes, bad", [((0, 2, 4), 0), ((-1, 2, 4), -1), ((1, 26), 26)])
    def test_sweep_sizes_outside_truncation(self, tr4, grid4, tg16, monkeypatch, sizes, bad):
        # |tr4| = 25; unchecked, size 0 would divide 0.0 by 0.0 and size -1 fail inside numpy
        assert len(tr4) == 25
        calls = count_densities(monkeypatch)
        with pytest.raises(ValueError, match=rf"system size {bad} outside \[1, 25\]"):
            sweep(tr4, tg16, grid4, sizes, trials=1, seed=0)
        assert calls == []

    @pytest.mark.parametrize("build", [
        pytest.param(lambda tr: sample_orthonormal_system(tr, -1, seed=0), id="sampled"),
        pytest.param(lambda tr: eigenfunction_system(tr, -1), id="eigenfunctions"),
    ])
    def test_negative_system_size_rejected(self, tr4, build):
        with pytest.raises(ValueError, match=r"system size -1 outside \[0, 25\]"):
            build(tr4)

    def test_growth_fit_size_too_large_before_any_density(self, tr4, grid4, tg16, monkeypatch):
        calls = count_densities(monkeypatch)
        with pytest.raises(ValueError, match=r"system size 26 outside \[0, 25\]"):
            eigenfunction_growth(tr4, tg16, grid4, (2, 4, 26))
        assert calls == []


def count_densities(monkeypatch):
    """Record every call of ``strichartz.density`` made through the module."""
    calls = []
    real = strichartz.density
    monkeypatch.setattr(strichartz, "density", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls
