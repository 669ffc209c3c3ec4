import math
import sys

import numpy as np
import pytest

from specherm import checks
from specherm.grids import Field, default_half_width, lp_norm, make_grid, mixed_norm, time_nodes


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

    @pytest.mark.parametrize("L", [math.nan, math.inf, 0.0])
    def test_half_width_must_be_positive_and_finite(self, L):
        with pytest.raises(ValueError, match="half-width"):
            make_grid(1, L, 64)

    @pytest.mark.parametrize("n, L", [(1, 1e-300), (2, 1e-100), (1, 1e200), (2, 1e100)])
    def test_smallest_weight_must_be_normal(self, n, L):
        # (spacing/2)^{2n} underflows to 0 or overflows to inf
        with pytest.raises(ValueError, match="not a normal float"):
            make_grid(n, L, 16)

    @pytest.mark.parametrize("n, L", [(1, 1e-150), (2, 1e-75)])
    def test_small_half_width_with_normal_weights_accepted(self, n, L):
        g = make_grid(n, L, 16)
        assert g.weight_tensor.min() >= sys.float_info.min

    def test_default_half_width_covers_turning_point(self):
        # the outermost n = 1 mode turns at |zeta| = 2 sqrt(2 k_max + 1); covered up to k_max 51 only
        for n in (1, 2):
            for k in range(49):
                assert default_half_width(n, k) > 2 * math.sqrt(2 * k + 1)


def _phi00(grid):
    (z,) = grid.zeta_coords()
    return Field(grid, (2 * math.pi) ** -0.5 * np.exp(-np.abs(z) ** 2 / 4))


class TestInnerProduct:
    # the quadrature L^2 pairing (f, g) = sum f conj(g) w, through lp_norm and the basis Gram
    def test_ground_state_normalized(self, grid4):
        assert lp_norm(_phi00(grid4), 2) ** 2 == pytest.approx(1.0, abs=1e-8)

    def test_zero_field(self, grid4):
        # |(f, 0)| <= ||f conj(0)||_1
        assert lp_norm(Field(grid4, _phi00(grid4).values * np.zeros(grid4.shape)), 1) == 0.0

    def test_orthogonality_of_modes(self, tr4, grid4):
        # every entry of the sampled Gram minus the identity, (Phi_0, Phi_1) among them
        assert checks.gram_identity(tr4, grid4).value < 1e-8


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

    @pytest.mark.parametrize("p", [0.5, math.nan])
    def test_exponent_below_one_rejected(self, grid4, p):
        with pytest.raises(ValueError, match="exponent"):
            lp_norm(_phi00(grid4), p)

    def test_vanishes_only_on_zero(self, grid4):
        assert lp_norm(Field(grid4, np.zeros(grid4.shape)), 2) == 0.0
        assert lp_norm(_phi00(grid4), 1) > 0.0


class TestCachedArraysReadOnly:
    @pytest.mark.parametrize(
        "owner, name",
        [
            (make_grid(2, 5.0, 8), "axis"),
            (make_grid(2, 5.0, 8), "axis_weights"),
            (make_grid(2, 5.0, 8), "weight_tensor"),
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


class TestTimeNodes:
    def test_nodes_avoid_zero_and_endpoints(self):
        nodes = time_nodes(32)
        assert not np.any(nodes == 0.0)
        assert np.all(np.abs(nodes) < math.pi)

    def test_spacings_cover_circle(self):
        nodes = time_nodes(24)
        assert len(nodes) == 24
        assert np.allclose(np.diff(nodes), 2 * math.pi / 24, rtol=0, atol=1e-14)
        assert nodes[0] + math.pi == pytest.approx(math.pi / 24, rel=1e-12)

    def test_each_call_returns_a_fresh_array(self):
        # nothing is cached, so a caller that writes to its nodes changes no one else's
        nodes = time_nodes(8)
        nodes *= 2.0
        assert np.all(np.abs(time_nodes(8)) < math.pi)

    @pytest.mark.parametrize("n_t", [0, -2])
    def test_at_least_one_node(self, n_t):
        with pytest.raises(ValueError, match="at least one time node"):
            time_nodes(n_t)


class TestMixedNorm:
    def test_constant_l2l2(self):
        g = make_grid(1, 8.0, 64)
        F = np.ones((8,) + g.shape)
        assert mixed_norm(F, g, 2, 2) == pytest.approx(math.sqrt(2 * math.pi) * 16.0, rel=1e-12)

    def test_static_gaussian_linf_l2(self, grid4):
        F = np.broadcast_to(_phi00(grid4).values, (8,) + grid4.shape)
        assert mixed_norm(F, grid4, math.inf, 2) == pytest.approx(1.0, abs=1e-8)

    def test_equal_exponents_reduce_to_joint_norm(self, grid4):
        rng = np.random.default_rng(5)
        n_t = 6
        F = rng.standard_normal((6,) + grid4.shape)
        p = 3.0
        joint = np.sum(np.abs(F) ** p * grid4.weight_tensor) * (2 * math.pi / n_t)
        assert mixed_norm(F, grid4, p, p) == pytest.approx(joint ** (1 / p), rel=1e-12)

    def test_shape_mismatch(self, grid4):
        # the node count is the leading axis; the spatial axes must be the grid's and n_t >= 1
        for shape in ((6, 48, 47), (6, 48), (0, 48, 48)):
            with pytest.raises(ValueError, match="not \\(n_t >= 1"):
                mixed_norm(np.ones(shape), grid4, 2, 2)

    def test_normalized_measure_rescales_time_norm(self, grid4):
        rng = np.random.default_rng(6)
        F = rng.standard_normal((6,) + grid4.shape) + 1j * rng.standard_normal((6,) + grid4.shape)
        for p, q in ((1.0, 2.0), (2.0, 1.0), (3.0, 4.0), (4.0, math.inf)):
            raw = mixed_norm(F, grid4, p, q)
            normalized = mixed_norm(F, grid4, p, q, measure="dt/2pi")
            assert normalized == pytest.approx(raw * (2 * math.pi) ** (-1 / p), rel=1e-12)
        for q in (2.0, math.inf):
            assert mixed_norm(F, grid4, math.inf, q, measure="dt/2pi") == mixed_norm(F, grid4, math.inf, q)
        with pytest.raises(ValueError):
            mixed_norm(F, grid4, 2, 2, measure="dt/pi")

    @pytest.mark.parametrize("layout", ["fortran", "batch-innermost"])
    def test_memory_layout_leaves_norm_bit_identical(self, grid4, layout):
        # the norm of a weight must not depend on the memory layout of its array
        rng = np.random.default_rng(7)
        F = rng.standard_normal((16,) + grid4.shape) + 1j * rng.standard_normal((16,) + grid4.shape)
        G = np.asfortranarray(F) if layout == "fortran" else np.moveaxis(np.moveaxis(F, 0, -1).copy(), -1, 0)
        assert not G.flags.c_contiguous
        for p, q in ((4.0, 4.0), (2.0, 2.0), (math.inf, 1.0), (1.0, math.inf)):
            assert mixed_norm(G, grid4, p, q, measure="dt/2pi") == mixed_norm(F, grid4, p, q, measure="dt/2pi")

    @pytest.mark.parametrize("p, q", [(0.5, 2.0), (2.0, 0.5), (math.nan, 2.0), (2.0, math.nan)])
    def test_exponent_below_one_rejected(self, grid4, p, q):
        with pytest.raises(ValueError, match="exponents"):
            mixed_norm(np.ones((6,) + grid4.shape), grid4, p, q)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_rejected(self, grid4, bad):
        F = np.ones((6,) + grid4.shape)
        F[3, 10, 20] = bad
        with pytest.raises(ValueError, match="finite"):
            mixed_norm(F, grid4, 2, 2)

