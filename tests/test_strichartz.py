import math
import tracemalloc

import numpy as np
import pytest

from specherm import strichartz
from specherm.grids import default_half_width, make_grid, make_time_grid, mixed_norm
from specherm.indices import enumerate_pairs
from specherm.propagator import propagate_coeffs
from specherm.strichartz import (
    SweepConfig,
    admissible_exponents,
    density,
    eigenfunction_system,
    fit_growth_exponent,
    sample_orthonormal_system,
    sweep,
)
from specherm.twisted import SpectralCoeffs, cached_basis, inverse_transform


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

    def test_shape_mismatch(self, tr4, grid4, tg16):
        with pytest.raises(ValueError, match="length"):
            density(eigenfunction_system(tr4, 2), [1.0], tr4, tg16, grid4)

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
        U = sample_orthonormal_system(tr, N, seed=4)
        nj = np.array([1.0, 0.5, 2.0, 0.25, 1.5])
        want = np.stack([
            sum(
                nj[j] * np.abs(inverse_transform(propagate_coeffs(SpectralCoeffs(tr, U[:, j]), t), grid).values) ** 2
                for j in range(N)
            )
            for t in tg.nodes
        ])
        got = density(U, nj, tr, tg, grid)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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


@pytest.fixture(scope="module")
def report(tr4, grid4):
    cfg = SweepConfig(
        truncation=tr4, grid=grid4, n_t=16, system_sizes=(1, 2, 4, 8), trials=4, seed=0,
    )
    return sweep(cfg)


class TestSweep:
    def test_all_ratios_finite(self, report):
        assert math.isfinite(report.max_ratio)
        assert all(math.isfinite(row[5]) for row in report.rows)

    def test_row_count(self, report):
        assert len(report.rows) == 4 * 4 * 4  # q values x sizes x trials

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
    def test_coefficient_vector_finite(self, tr4, grid4, tg16):
        with pytest.raises(ValueError, match="finite"):
            density(eigenfunction_system(tr4, 1), [np.inf], tr4, tg16, grid4)

    def test_system_shape_checked(self, tr4, grid4, tg16):
        with pytest.raises(ValueError, match="rows"):
            density(np.ones((3, 2), dtype=complex), np.ones(2), tr4, tg16, grid4)

    def test_sizes_too_few_for_growth_fit(self, tr4, grid4):
        with pytest.raises(ValueError, match="fewer than two"):
            SweepConfig(truncation=tr4, grid=grid4, system_sizes=(1, 2))
