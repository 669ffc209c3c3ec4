import math

import numpy as np
import pytest

from specherm.basis import basis_matrix
from specherm.grids import (
    Field,
    default_half_width,
    inner_product,
    lp_norm,
    make_grid,
    make_time_grid,
    mixed_norm,
    sample_field,
    zero_field,
)
from specherm.indices import enumerate_pairs


class TestGridSpec:
    def test_spacing_and_size(self):
        g = make_grid(1, 8.0, 64)
        assert g.spacing == pytest.approx(16.0 / 63.0)
        assert g.size == 64**2
        assert make_grid(2, 6.0, 32).size == 32**4

    def test_constant_integrates_to_area(self):
        g = make_grid(1, 8.0, 64)
        assert float(np.sum(g.weight_tensor)) == pytest.approx(256.0, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_grid(1, -1.0, 64)
        with pytest.raises(ValueError):
            make_grid(1, 8.0, 63)  # odd
        with pytest.raises(ValueError):
            make_grid(1, 8.0, 6)  # too few
        with pytest.raises(ValueError):
            make_grid(0, 8.0, 64)

    def test_default_half_width_covers_turning_point(self):
        assert default_half_width(1, 4) > math.sqrt(2 * (2 * 4 + 1))


def _phi00(grid):
    return sample_field(grid, lambda z: (2 * math.pi) ** -0.5 * np.exp(-np.abs(z) ** 2 / 4))


class TestInnerProduct:
    def test_ground_state_normalized(self, grid4):
        f = _phi00(grid4)
        assert inner_product(f, f) == pytest.approx(1.0, abs=1e-8)

    def test_zero_field(self, grid4):
        assert inner_product(_phi00(grid4), zero_field(grid4)) == 0.0

    def test_orthogonality_of_modes(self, tr4, grid4):
        basis = basis_matrix(tr4, grid4)
        f = Field(grid4, basis[0])
        g = Field(grid4, basis[1])
        assert abs(inner_product(f, g)) < 1e-8

    def test_grid_mismatch(self, grid4):
        other = make_grid(1, grid4.L, grid4.M + 2)
        with pytest.raises(ValueError):
            inner_product(_phi00(grid4), zero_field(other))


class TestLpNorm:
    def test_constant_l2(self):
        g = make_grid(1, 8.0, 64)
        ones = Field(g, np.ones(g.shape))
        assert lp_norm(ones, 2) == pytest.approx(16.0, abs=1e-12)

    def test_gaussian_l2(self, grid4):
        assert lp_norm(_phi00(grid4), 2) == pytest.approx(1.0, abs=1e-8)

    def test_inf_norm_is_max(self, grid4):
        f = _phi00(grid4)
        assert lp_norm(f, math.inf) == np.abs(f.values).max()

    def test_holder_monotonicity_on_normalized_measure(self, grid4):
        rng = np.random.default_rng(3)
        f = Field(grid4, rng.standard_normal(grid4.shape))
        vol = float(np.sum(grid4.weight_tensor))
        prev = 0.0
        for q in (1.0, 1.5, 2.0, 4.0):
            cur = lp_norm(f, q) / vol ** (1.0 / q)
            assert cur >= prev - 1e-12
            prev = cur

    def test_vanishes_only_on_zero(self, grid4):
        assert lp_norm(zero_field(grid4), 2) == 0.0
        assert lp_norm(_phi00(grid4), 1) > 0.0


class TestCachedArraysReadOnly:
    @pytest.mark.parametrize(
        "owner, name",
        [
            (make_grid(2, 5.0, 8), "axis"),
            (make_grid(2, 5.0, 8), "axis_weights"),
            (make_grid(2, 5.0, 8), "weight_tensor"),
            (make_time_grid(8), "nodes"),
            (make_time_grid(8), "weights"),
        ],
    )
    def test_in_place_write_raises(self, owner, name):
        # every caller of a grid shares its cached arrays
        shared = getattr(owner, name)
        before = shared.copy()
        with pytest.raises(ValueError, match="read-only"):
            shared[...] *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            shared.ravel()[0] = 0.0
        assert np.array_equal(getattr(owner, name), before)


class TestTimeGrid:
    def test_nodes_avoid_zero_and_endpoints(self):
        tg = make_time_grid(32)
        assert not np.any(tg.nodes == 0.0)
        assert np.all(np.abs(tg.nodes) < math.pi)

    def test_weights_sum_to_circle(self):
        tg = make_time_grid(24)
        assert float(tg.weights.sum()) == pytest.approx(2 * math.pi)


class TestMixedNorm:
    def test_constant_l2l2(self):
        g = make_grid(1, 8.0, 64)
        tg = make_time_grid(8)
        F = np.ones((8,) + g.shape)
        assert mixed_norm(F, tg, g, 2, 2) == pytest.approx(math.sqrt(2 * math.pi) * 16.0, rel=1e-12)

    def test_static_gaussian_linf_l2(self, grid4):
        tg = make_time_grid(8)
        F = np.broadcast_to(_phi00(grid4).values, (8,) + grid4.shape)
        assert mixed_norm(F, tg, grid4, math.inf, 2) == pytest.approx(1.0, abs=1e-8)

    def test_equal_exponents_reduce_to_joint_norm(self, grid4):
        rng = np.random.default_rng(5)
        tg = make_time_grid(6)
        F = rng.standard_normal((6,) + grid4.shape)
        p = 3.0
        joint = np.sum(np.abs(F) ** p * grid4.weight_tensor) * tg.weight
        assert mixed_norm(F, tg, grid4, p, p) == pytest.approx(joint ** (1 / p), rel=1e-12)

    def test_shape_mismatch(self, grid4):
        tg = make_time_grid(6)
        with pytest.raises(ValueError):
            mixed_norm(np.ones((5,) + grid4.shape), tg, grid4, 2, 2)

    def test_normalized_measure_rescales_time_norm(self, grid4):
        rng = np.random.default_rng(6)
        tg = make_time_grid(6)
        F = rng.standard_normal((6,) + grid4.shape) + 1j * rng.standard_normal((6,) + grid4.shape)
        for p, q in ((1.0, 2.0), (2.0, 1.0), (3.0, 4.0), (4.0, math.inf)):
            raw = mixed_norm(F, tg, grid4, p, q)
            normalized = mixed_norm(F, tg, grid4, p, q, measure="dt/2pi")
            assert normalized == pytest.approx(raw * (2 * math.pi) ** (-1 / p), rel=1e-12)
        for q in (2.0, math.inf):
            assert mixed_norm(F, tg, grid4, math.inf, q, measure="dt/2pi") == mixed_norm(F, tg, grid4, math.inf, q)
        with pytest.raises(ValueError):
            mixed_norm(F, tg, grid4, 2, 2, measure="dt/pi")

    @pytest.mark.parametrize("layout", ["fortran", "batch-innermost"])
    def test_memory_layout_leaves_norm_bit_identical(self, grid4, layout):
        # a weight as twisted_convolve_batch returns it keeps its batch axis innermost
        rng = np.random.default_rng(7)
        tg = make_time_grid(16)
        F = rng.standard_normal((16,) + grid4.shape) + 1j * rng.standard_normal((16,) + grid4.shape)
        G = np.asfortranarray(F) if layout == "fortran" else np.moveaxis(np.moveaxis(F, 0, -1).copy(), -1, 0)
        assert not G.flags.c_contiguous
        for p, q in ((4.0, 4.0), (2.0, 2.0), (math.inf, 1.0), (1.0, math.inf)):
            assert mixed_norm(G, tg, grid4, p, q, measure="dt/2pi") == mixed_norm(F, tg, grid4, p, q, measure="dt/2pi")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_rejected(self, grid4, bad):
        tg = make_time_grid(6)
        F = np.ones((6,) + grid4.shape)
        F[3, 10, 20] = bad
        with pytest.raises(ValueError, match="finite"):
            mixed_norm(F, tg, grid4, 2, 2)

