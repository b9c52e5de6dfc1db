"""The attention operator: forward, reference oracle, backward, invariants."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from nlroi import operator, ops
from nlroi.errors import (
    ConfigError,
    DegenerateAttentionError,
    DimensionError,
    NumericalError,
)
from nlroi.gradcheck import finite_diff, rel_err
from nlroi.operator import (
    _ROW_BLOCK,
    NlRoiConfig,
    NlRoiParams,
    Scaling,
    attention_weights,
    init_params,
    nlroi_backward,
    nlroi_forward,
    nlroi_reference,
)
from nlroi.rng import Prng

from helpers import raw_scores


def small_config(**kw):
    base = dict(d=8, d_f=4, d_mid=4, d_g=5, h=3, w=3)
    base.update(kw)
    return NlRoiConfig(**base)


def scores_of(x, params, config):
    """The first image's scaled scores, in canonical order."""
    return raw_scores(nlroi_forward(x, params, config)[1])[0] / config.scale()


def g_of(x, params, config):
    """Each RoI's g embedding, (N, D_g): a one-RoI forward mixes its own g
    with weight exactly 1, so output channels D: hold it exactly."""
    return np.array([nlroi_forward(r[None], params, config)[0][0, config.d :, 0, 0] for r in x])


def random_case(seed, n, config):
    prng = Prng(seed)
    params = init_params(config, prng)
    x = prng.normals(n * config.d * config.h * config.w).reshape(
        n, config.d, config.h, config.w
    )
    return x, params


class TestConfig:
    def test_rejects_nonpositive_sizes(self):
        for field in ("d", "d_f", "d_mid", "d_g", "h", "w"):
            kw = dict(d=8, d_f=2, d_mid=2, d_g=2, h=2, w=2)
            kw[field] = 0
            with pytest.raises(ConfigError):
                NlRoiConfig(**kw)

    def test_bottleneck_must_reduce(self):
        with pytest.raises(ConfigError):
            NlRoiConfig(d=4, d_f=5, d_mid=2, d_g=2, h=2, w=2)
        with pytest.raises(ConfigError):
            NlRoiConfig(d=4, d_f=2, d_mid=5, d_g=2, h=2, w=2)

    def test_defaults_match_standard_setting(self):
        cfg = NlRoiConfig(d=8, d_f=2, d_mid=2, d_g=2, h=2, w=2)
        assert cfg.attend_to_self is True
        assert cfg.scaling is Scaling.PER_CHANNEL

    def test_scale_values(self):
        cfg = small_config()
        assert cfg.scale() == math.sqrt(4)
        full = small_config(scaling=Scaling.FULL_FLATTEN)
        assert full.scale() == math.sqrt(4 * 3 * 3)

    def test_scaling_must_be_a_member(self):
        # the member's value is not the member: a config file's spelling
        # reaches the operator only through Scaling
        with pytest.raises(ConfigError, match="Scaling member"):
            small_config(scaling="per_channel")


class TestInitParams:
    def test_same_seed_bitwise(self):
        cfg = small_config()
        a = init_params(cfg, Prng(9))
        b = init_params(cfg, Prng(9))
        for (_, ta), (_, tb) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)

    def test_biases_exactly_zero(self):
        p = init_params(small_config(), Prng(3))
        for name in ("b_phi", "b_g1", "b_g2"):
            assert np.array_equal(getattr(p, name), np.zeros_like(getattr(p, name)))

    def test_fan_in_bound(self):
        # d=16: weights within +-sqrt(6/16)
        cfg = NlRoiConfig(d=16, d_f=4, d_mid=4, d_g=4, h=2, w=2)
        bound = math.sqrt(6.0 / 16.0)
        for seed in range(10):
            p = init_params(cfg, Prng(seed))
            assert np.all(np.abs(p.w_phi) <= bound)
            assert np.all(np.abs(p.w_psi) <= bound)
            assert np.all(np.abs(p.w_g2) <= math.sqrt(6.0 / (4 * 9)))

    def test_shapes(self):
        cfg = small_config()
        p = init_params(cfg, Prng(0))
        nlroi_forward(np.zeros((2, cfg.d, cfg.h, cfg.w)), p, cfg)  # the entry checks every shape
        assert p.w_g2.shape == (5, 4, 3, 3)


class TestRelationScores:
    def test_single_roi_dot_product(self):
        cfg = small_config()
        x, params = random_case(12, 1, cfg)
        s = scores_of(x, params, cfg)
        phi = ops.conv2d_1x1(x, params.w_phi, params.b_phi).reshape(1, -1)
        psi = ops.conv2d_1x1(x, params.w_psi, np.zeros(cfg.d_f)).reshape(1, -1)
        want = float(ops.matmul(phi, psi.T)[0, 0]) / cfg.scale()
        assert s.shape == (1, 1)
        assert s[0, 0] == want

    def test_shared_embeddings_identical_rois(self):
        cfg = small_config()
        x, params = random_case(13, 2, cfg)
        params.w_psi = params.w_phi.copy()
        x[1] = x[0]
        s = scores_of(x, params, cfg)
        assert s[0, 0] == s[0, 1] == s[1, 0] == s[1, 1]

    def test_mode_ratio_with_power_of_two_scales(self):
        """With D_f=4 and H=W=2 both divisors are powers of two, so
        multiplying the scale back recovers the shared unscaled matrix
        exactly and the cross-mode ratio is exactly sqrt(H*W)."""
        cfg_pc = NlRoiConfig(d=8, d_f=4, d_mid=4, d_g=3, h=2, w=2)
        cfg_ff = NlRoiConfig(
            d=8, d_f=4, d_mid=4, d_g=3, h=2, w=2, scaling=Scaling.FULL_FLATTEN
        )
        x, params = random_case(14, 5, cfg_pc)
        s_pc = scores_of(x, params, cfg_pc)
        s_ff = scores_of(x, params, cfg_ff)
        assert np.array_equal(s_pc * cfg_pc.scale(), s_ff * cfg_ff.scale())
        assert np.array_equal(s_pc, s_ff * math.sqrt(2 * 2))

    def test_blob_mismatch(self):
        cfg = small_config()
        x, params = random_case(15, 3, cfg)
        with pytest.raises(DimensionError):
            nlroi_forward(x[:, :4], params, cfg)

    def test_blob_rank_checked(self):
        cfg = small_config()
        x, params = random_case(16, 3, cfg)
        with pytest.raises(DimensionError, match="rank 4"):
            nlroi_forward(x[:, :, 0], params, cfg)


class TestAttentionWeights:
    def test_uniform_when_scores_flat(self):
        out = attention_weights(np.zeros((3, 3)), attend_to_self=True)
        assert np.allclose(out, 1.0 / 3.0, rtol=0, atol=1e-15)

    def test_masked_uniform_off_diagonal(self):
        out = attention_weights(np.zeros((3, 3)), attend_to_self=False)
        assert np.array_equal(np.diag(out), np.zeros(3))
        off = out[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5, rtol=0, atol=1e-15)

    def test_row_shift_invariance(self):
        prng = Prng(16)
        s = prng.normals(16).reshape(4, 4)
        shifted = s.copy()
        shifted[2] += 7.25
        a = attention_weights(s, True)
        b = attention_weights(shifted, True)
        assert np.allclose(a[2], b[2], rtol=0, atol=1e-15)


class TestEmbedG:
    def test_zero_input_zero_biases(self):
        cfg = small_config()
        _, params = random_case(18, 1, cfg)
        out = g_of(np.zeros((3, 8, 3, 3)), params, cfg)
        assert np.array_equal(out, np.zeros((3, 5)))

    def test_bias_only_path(self):
        cfg = small_config()
        _, params = random_case(19, 1, cfg)
        params.b_g1 = np.zeros(4)
        beta = np.array([0.25, -1.5, 3.0, 0.0, 2.0])
        params.b_g2 = beta.copy()
        out = g_of(np.zeros((2, 8, 3, 3)), params, cfg)
        for row in out:
            assert np.array_equal(row, beta)

    def test_matches_composition_of_primitives(self):
        cfg = small_config()
        x, params = random_case(20, 4, cfg)
        want = ops.conv2d_3x3_pooled(
            ops.relu(ops.conv2d_1x1(x, params.w_g1, params.b_g1)),
            params.w_g2,
            params.b_g2,
        )
        assert np.array_equal(g_of(x, params, cfg), want)


class TestForward:
    def test_single_roi_attention_is_identity(self):
        cfg = small_config()
        x, params = random_case(21, 1, cfg)
        out, cache = nlroi_forward(x, params, cfg)
        g = ops.conv2d_3x3_pooled(
            ops.relu(ops.conv2d_1x1(x, params.w_g1, params.b_g1)), params.w_g2, params.b_g2
        )
        assert np.array_equal(out[0, cfg.d :, 0, 0], g[0])
        assert np.array_equal(cache.attn[0][0], [[1.0]])

    def test_first_channels_pass_through(self):
        cfg = small_config()
        for seed in range(5):
            x, params = random_case(seed, 6, cfg)
            out, _ = nlroi_forward(x, params, cfg)
            assert np.array_equal(out[:, :8], x)

    def test_matches_reference_at_stock_shape(self):
        cfg = NlRoiConfig(d=8, d_f=4, d_mid=4, d_g=5, h=3, w=3)
        x, params = random_case(22, 6, cfg)
        out, _ = nlroi_forward(x, params, cfg)
        assert np.max(np.abs(out - nlroi_reference(x, params, cfg))) < 1e-9

    def test_permutation_equivariance_bitwise(self):
        """A relabeling reaches the N x N stages as the same canonical
        order, so they see the same scores and give the same weights."""
        for attend in (True, False):
            cfg = small_config(attend_to_self=attend)
            x, params = random_case(23, 7, cfg)
            out, cache = nlroi_forward(x, params, cfg)
            prng = Prng(99)
            for _ in range(10):
                pi = np.array(prng.sample_indices(7, 7))
                out_p, cache_p = nlroi_forward(x[pi], params, cfg)
                assert np.array_equal(out_p, out[pi])
                assert np.array_equal(pi[cache_p.order], cache.order)
                scaled = [raw_scores(c) / cfg.scale() for c in (cache_p, cache)]
                assert scaled[0].tobytes() == scaled[1].tobytes()
                assert cache_p.attn[0].tobytes() == cache.attn[0].tobytes()

    def test_permutation_equivariance_bitwise_at_realistic_widths(self):
        for attend in (True, False):
            cfg = NlRoiConfig(
                d=64, d_f=16, d_mid=16, d_g=16, h=7, w=7, attend_to_self=attend
            )
            x, params = random_case(29, 37, cfg)
            out, _ = nlroi_forward(x, params, cfg)
            pi = Prng(30).sample_indices(37, 37)
            out_p, _ = nlroi_forward(x[pi], params, cfg)
            assert np.array_equal(out_p, out[pi])

    def test_non_finite_blob_raises(self):
        cfg = small_config()
        x, params = random_case(31, 8, cfg)
        for bad in (np.nan, np.inf):
            x_bad = x.copy()
            x_bad[3, 2, 1, 0] = bad
            with pytest.raises(NumericalError, match=r"RoI blob .* \(3, 2, 1, 0\)"):
                nlroi_forward(x_bad, params, cfg)

    def test_overflowing_scores_raise(self):
        # finite inputs near 1e160 overflow the score contraction
        cfg = small_config()
        x, params = random_case(32, 8, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="attention score matrix"):
                nlroi_forward(x * 1e160, params, cfg)
        # one bad RoI: only its score with itself overflows, and the message
        # names its image and its row there, not its canonical rank, also
        # past its first _ROW_BLOCK rows, and when the image's group does not
        # sit at its call place (counts (6, 4, 6) stack images 0 and 2 after
        # image 1)
        for seed, counts, image in ((33, (5, _ROW_BLOCK + 6), 1), (35, (6, 4, 6), 2)):
            x, params = random_case(seed, sum(counts), cfg)
            for i in range(counts[image]):
                x_bad = x.copy()
                x_bad[sum(counts[:image]) + i] *= 1e160
                with np.errstate(over="ignore", invalid="ignore"):
                    with pytest.raises(
                        NumericalError, match=rf"of image {image} .* at index \({i}, {i}\)$"
                    ):
                        nlroi_forward(x_bad, params, cfg, counts=counts)

    @pytest.mark.parametrize(
        "name, index, bad",
        [("w_g2", (1, 0, 2, 1), np.nan), ("b_g2", (2,), np.inf),
         ("w_g1", (0, 3), np.nan), ("b_g1", (1,), np.inf)],
    )
    def test_non_finite_g_branch_params_raise(self, name, index, bad):
        """A non-finite phi or psi tensor breaks the scores, which are
        checked; one in the g-branch is caught at its embedding."""
        cfg = small_config()
        x, params = random_case(34, 6, cfg)
        getattr(params, name)[index] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match="g-branch embedding"):
                nlroi_forward(x, params, cfg)

    def test_empty_blob_passes_through(self):
        cfg = small_config()
        _, params = random_case(24, 1, cfg)
        out, cache = nlroi_forward(np.zeros((0, 8, 3, 3)), params, cfg)
        assert out.shape == (0, 13, 3, 3)
        assert cache.groups == ()
        assert cache.attn == []

    def test_masked_needs_two_rois(self):
        cfg = small_config(attend_to_self=False)
        x, params = random_case(25, 1, cfg)
        with pytest.raises(DegenerateAttentionError):
            nlroi_forward(x, params, cfg)

    def test_cache_attention_row_stochastic(self):
        for seed in range(8):
            cfg = small_config(attend_to_self=seed % 2 == 0)
            x, params = random_case(seed, 5, cfg)
            _, cache = nlroi_forward(x, params, cfg)
            p = cache.attn[0][0]
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
            assert np.all(p >= 0.0) and np.all(p <= 1.0)
            if not cfg.attend_to_self:
                assert np.array_equal(np.diag(p), np.zeros(5))

    def test_convexity_bound(self):
        # each mixed component lies within the attended embeddings' range
        cfg = small_config()
        x, params = random_case(26, 6, cfg)
        out, _ = nlroi_forward(x, params, cfg)
        g = g_of(x, params, cfg)
        lo = g.min(axis=0) - 1e-12
        hi = g.max(axis=0) + 1e-12
        assert np.all(out[:, cfg.d :, 0, 0] >= lo[None, :])
        assert np.all(out[:, cfg.d :, 0, 0] <= hi[None, :])

    def test_variable_n_same_params(self):
        cfg = small_config()
        _, params = random_case(27, 1, cfg)
        prng = Prng(28)
        for n in (1, 2, 3, 9, 17):
            x = prng.normals(n * 8 * 3 * 3).reshape(n, 8, 3, 3)
            out, _ = nlroi_forward(x, params, cfg)
            assert out.shape == (n, 13, 3, 3)

    def test_scaling_mode_argmax_invariance(self):
        cfg_pc = small_config()
        cfg_ff = small_config(scaling=Scaling.FULL_FLATTEN)
        for seed in range(10):
            x, params = random_case(seed, 6, cfg_pc)
            _, c1 = nlroi_forward(x, params, cfg_pc)
            _, c2 = nlroi_forward(x, params, cfg_ff)
            # the order depends on x alone, so both stacks are in one order
            assert np.array_equal(c1.order, c2.order)
            assert np.array_equal(raw_scores(c1), raw_scores(c2))
            assert np.array_equal(np.argmax(c1.attn[0][0], axis=1), np.argmax(c2.attn[0][0], axis=1))


class TestReference:
    def test_single_roi_reduces_to_embedding(self):
        cfg = small_config()
        x, params = random_case(30, 1, cfg)
        ref = nlroi_reference(x, params, cfg)
        g = g_of(x, params, cfg)
        for o in range(5):
            assert np.allclose(ref[0, 8 + o], g[0, o], rtol=0, atol=1e-12)

    def test_identical_rois_share_output(self):
        cfg = small_config()
        x, params = random_case(31, 2, cfg)
        x[1] = x[0]
        ref = nlroi_reference(x, params, cfg)
        assert np.allclose(ref[0, 8:], ref[1, 8:], rtol=0, atol=1e-12)
        g = g_of(x, params, cfg)
        assert np.allclose(ref[0, 8:, 0, 0], g[0], rtol=0, atol=1e-12)

    def test_masked_reference_matches_forward(self):
        cfg = small_config(attend_to_self=False)
        x, params = random_case(32, 5, cfg)
        out, _ = nlroi_forward(x, params, cfg)
        assert np.max(np.abs(out - nlroi_reference(x, params, cfg))) < 1e-9

    def test_masked_single_roi_raises(self):
        cfg = small_config(attend_to_self=False)
        x, params = random_case(33, 1, cfg)
        with pytest.raises(DegenerateAttentionError):
            nlroi_reference(x, params, cfg)

    @pytest.mark.parametrize("attend", [True, False])
    def test_empty_blob(self, attend):
        cfg = small_config(attend_to_self=attend)
        _, params = random_case(34, 1, cfg)
        out = nlroi_reference(np.zeros((0, 8, 3, 3)), params, cfg)
        assert out.shape == (0, 13, 3, 3)


class TestBackward:
    def test_zero_upstream_zero_gradients(self):
        cfg = small_config()
        x, params = random_case(40, 4, cfg)
        _, cache = nlroi_forward(x, params, cfg)
        dx, dparams = nlroi_backward(cache, params, cfg, np.zeros((4, 13, 3, 3)))
        assert np.array_equal(dx, np.zeros_like(x))
        for _, g in dparams.tensors():
            assert not np.any(g)

    def test_pass_through_channels_only(self):
        """Upstream on the appended channels zeroed: dX is exactly the
        pass-through slice and every parameter gradient vanishes."""
        cfg = small_config()
        x, params = random_case(41, 4, cfg)
        _, cache = nlroi_forward(x, params, cfg)
        d_out = np.zeros((4, 13, 3, 3))
        d_out[:, :8] = Prng(42).normals(4 * 8 * 3 * 3).reshape(4, 8, 3, 3)
        dx, dparams = nlroi_backward(cache, params, cfg, d_out)
        assert np.array_equal(dx, d_out[:, :8])
        for _, g in dparams.tensors():
            assert not np.any(g)

    def test_input_gradient_against_finite_differences(self):
        """(N=4, D=6, D_f=3, D_mid=3, D_g=4, H=W=2), dX elementwise < 1e-6."""
        cfg = NlRoiConfig(d=6, d_f=3, d_mid=3, d_g=4, h=2, w=2)
        prng = Prng(43)
        params = init_params(cfg, prng)
        x = prng.normals(4 * 6 * 2 * 2).reshape(4, 6, 2, 2)
        proj = 1e-6 * prng.normals(4 * 10 * 2 * 2).reshape(4, 10, 2, 2)
        _, cache = nlroi_forward(x, params, cfg)
        dx, dparams = nlroi_backward(cache, params, cfg, proj)

        def loss(blob):
            return np.sum(nlroi_forward(blob, params, cfg)[0] * proj)

        step = 1e-5
        num = np.zeros_like(x)
        for k in range(x.size):
            xp = x.copy()
            xp.reshape(-1)[k] += step
            xm = x.copy()
            xm.reshape(-1)[k] -= step
            num.reshape(-1)[k] = (loss(xp) - loss(xm)) / (2 * step)
        assert float(np.max(rel_err(dx, num))) < 1e-6

    def test_empty_blob(self):
        """No RoIs: dX is empty and every parameter gradient is exactly zero."""
        cfg = small_config()
        _, params = random_case(45, 1, cfg)
        _, cache = nlroi_forward(np.zeros((0, 8, 3, 3)), params, cfg)
        dx, dparams = nlroi_backward(cache, params, cfg, np.zeros((0, 13, 3, 3)))
        assert dx.shape == (0, 8, 3, 3)
        for name, g in dparams.tensors():
            assert g.shape == getattr(params, name).shape
            assert not np.any(g)

    def test_upstream_shape_checked(self):
        cfg = small_config()
        x, params = random_case(44, 3, cfg)
        _, cache = nlroi_forward(x, params, cfg)
        with pytest.raises(DimensionError):
            nlroi_backward(cache, params, cfg, np.zeros((3, 8, 3, 3)))

    def test_non_finite_upstream_raises(self):
        """A NaN in the pass-through channels or an inf in the g channels is
        named with its index, not turned into a NaN gradient."""
        cfg = small_config()
        x, params = random_case(46, 4, cfg)
        _, cache = nlroi_forward(x, params, cfg)
        for at, bad in (((2, 3, 1, 0), np.nan), ((1, cfg.d + 2, 0, 2), -np.inf)):
            up = np.ones((4, cfg.d + cfg.d_g, 3, 3))
            up[at] = bad
            message = f"upstream gradient has a non-finite value {bad!r} at index {at}"
            with pytest.raises(NumericalError, match=re.escape(message)):
                nlroi_backward(cache, params, cfg, up)

    @pytest.mark.parametrize(
        "change", [{"scaling": Scaling.FULL_FLATTEN}, {"attend_to_self": False}]
    )
    def test_config_other_than_the_forwards_raises(self, change):
        """The cache fits only its forward's config: another one would give
        gradients of a different operator, silently."""
        cfg = small_config()
        x, params = random_case(47, 4, cfg)
        _, cache = nlroi_forward(x, params, cfg)
        other = dataclasses.replace(cfg, **change)
        with pytest.raises(ConfigError, match=r"backward config .* differs from the forward's"):
            nlroi_backward(cache, params, other, np.ones((4, 13, 3, 3)))
        # an equal config built apart is the forward's
        nlroi_backward(cache, params, small_config(), np.ones((4, 13, 3, 3)))


def scaled_err(a, b):
    """Largest difference relative to the largest magnitude of b."""
    if b.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def split_rows(counts):
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(int)
    return [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]


class TestMultiImage:
    """Several images in one call: RoIs attend only within their image."""

    CASES = (
        ((8, 8, 8), True), ((3, 0, 1, 5, 2), True), ((2, 3, 2), False),
        ((6, 10, 6, 10), False),
    )

    def test_per_image_outputs_bitwise(self):
        for seed, (counts, attend) in enumerate(self.CASES):
            cfg = small_config(attend_to_self=attend)
            x, params = random_case(60 + seed, sum(counts), cfg)
            out, _ = nlroi_forward(x, params, cfg, counts=counts)
            assert out.shape == (sum(counts), 13, 3, 3)
            for rows in split_rows(counts):
                alone, _ = nlroi_forward(x[rows], params, cfg)
                assert out[rows].tobytes() == alone.tobytes()
                y, y_alone = out[rows, cfg.d :, 0, 0], alone[:, cfg.d :, 0, 0]
                assert y.tobytes() == y_alone.tobytes()

    def test_one_group_per_distinct_count(self):
        """Images of equal counts share a group wherever they sit in the
        call; groups follow ascending counts, and empty images make none."""
        cfg = small_config()
        for counts, groups in (
            ((3, 3, 0, 2, 2, 3), ((0, 2, 2), (4, 3, 3))),
            ((6, 10, 6, 10), ((0, 2, 6), (12, 2, 10))),
        ):
            x, params = random_case(63, sum(counts), cfg)
            _, cache = nlroi_forward(x, params, cfg, counts=counts)
            assert cache.groups == groups
            assert [a.shape for a in cache.attn] == [(i, n, n) for _, i, n in groups]

    def test_masked_single_roi_image_raises(self):
        cfg = small_config(attend_to_self=False)
        x, params = random_case(64, 6, cfg)
        with pytest.raises(DegenerateAttentionError, match="image 2"):
            nlroi_forward(x, params, cfg, counts=(2, 3, 1))

    def test_bad_counts_raise(self):
        cfg = small_config()
        x, params = random_case(65, 6, cfg)
        bools = ([True, 5], (np.True_, 5), [5, np.bool_(True)], [True, True, 4])
        for counts in ((2, 3), (2, 3, 2), (7, -1), (2.0, 4.0), [[2, 4]], *bools):
            with pytest.raises(DimensionError):
                nlroi_forward(x, params, cfg, counts=counts)
        with pytest.raises(DimensionError, match="image 1"):
            nlroi_forward(x, params, cfg, counts=(7, -1))

    def test_gradients_match_per_image_backwards(self):
        for seed, (counts, attend) in enumerate(self.CASES):
            cfg = small_config(attend_to_self=attend)
            x, params = random_case(66 + seed, sum(counts), cfg)
            up = Prng(70 + seed).normals(sum(counts) * 13 * 9).reshape(-1, 13, 3, 3)
            _, cache = nlroi_forward(x, params, cfg, counts=counts)
            dx, dparams = nlroi_backward(cache, params, cfg, up)
            summed = NlRoiParams(**{n: np.zeros_like(t) for n, t in params.tensors()})
            for rows in split_rows(counts):
                _, alone = nlroi_forward(x[rows], params, cfg)
                dx_alone, d_alone = nlroi_backward(alone, params, cfg, up[rows])
                assert scaled_err(dx[rows], dx_alone) < 1e-12
                for name, g in d_alone.tensors():
                    setattr(summed, name, getattr(summed, name) + g)
            # the phi and psi gradients can cancel to a small fraction of their
            # terms (to 1e-8 in one oracle-diff config), which leaves rounding
            # error large next to their own size: every tensor is measured
            # against the largest gradient of the call
            scale = max(float(np.max(np.abs(g))) for _, g in summed.tensors())
            for (name, got), (_, want) in zip(dparams.tensors(), summed.tensors()):
                assert float(np.max(np.abs(got - want))) < 1e-12 * scale, name

    def test_runs_of_empty_images(self):
        """Two or more images with no RoIs, first, between or last: they
        make no group, each image's output is its one-image call's, and the
        backward runs and matches the one-image backwards."""
        for seed, counts in enumerate(((3, 0, 0, 4), (0, 0, 7), (7, 0, 0, 0))):
            for attend in (True, False):
                cfg = small_config(attend_to_self=attend)
                x, params = random_case(140 + seed, sum(counts), cfg)
                out, cache = nlroi_forward(x, params, cfg, counts=counts)
                assert all(rois for _, _, rois in cache.groups)
                up = Prng(150 + seed).normals(out.size).reshape(out.shape)
                dx, _ = nlroi_backward(cache, params, cfg, up)
                for rows in split_rows(counts):
                    alone, cache_alone = nlroi_forward(x[rows], params, cfg)
                    assert out[rows].tobytes() == alone.tobytes()
                    dx_alone, _ = nlroi_backward(cache_alone, params, cfg, up[rows])
                    assert scaled_err(dx[rows], dx_alone) < 1e-12

    def test_finite_differences_through_multi_image_call(self):
        cfg = NlRoiConfig(d=6, d_f=3, d_mid=3, d_g=4, h=2, w=2, attend_to_self=False)
        counts = (2, 0, 3, 2)
        prng = Prng(67)
        params = init_params(cfg, prng)
        x = prng.normals(7 * 6 * 2 * 2).reshape(7, 6, 2, 2)
        proj = 1e-6 * prng.normals(7 * 10 * 2 * 2).reshape(7, 10, 2, 2)
        _, cache = nlroi_forward(x, params, cfg, counts=counts)
        dx, dparams = nlroi_backward(cache, params, cfg, proj)

        def loss(blob, p=params):
            return np.sum(nlroi_forward(blob, p, cfg, counts=counts)[0] * proj)

        assert float(np.max(rel_err(dx, finite_diff(loss, x)))) < 1e-6
        for name, g in dparams.tensors():

            def loss_of(t, name=name):
                return loss(x, dataclasses.replace(params, **{name: t}))

            numeric = finite_diff(loss_of, getattr(params, name))
            assert float(np.max(rel_err(g, numeric))) < 1e-6, name


def shuffled_within_images(prng, counts):
    """A seeded permutation of the rows that keeps every row in its image."""
    pieces, start = [np.zeros(0, dtype=int)], 0
    for c in counts:
        pieces.append(start + np.array(prng.sample_indices(c, c), dtype=int))
        start += c
    return np.concatenate(pieces)


def twin_blob(cfg, seed, picks, signed_zero=()):
    """Rows drawn from a few distinct RoIs: ``picks[i]`` names row i's RoI.
    Each (i, j) of ``signed_zero`` makes rows i and j equal except for one
    element that is +0.0 in row i and -0.0 in row j."""
    base = Prng(seed).normals(
        (max(picks) + 1) * cfg.d * cfg.h * cfg.w
    ).reshape(-1, cfg.d, cfg.h, cfg.w)
    x = base[list(picks)].copy()
    for i, j in signed_zero:
        x[j] = x[i]
        x[i, 0, 0, 0] = 0.0
        x[j, 0, 0, 0] = -0.0
    return x


class TestCanonicalOrder:
    """Everything summed over RoIs runs in one canonical RoI order, so the
    forward and dX are bitwise permutation-equivariant and the 7 parameter
    gradients bitwise invariant, also when RoIs repeat."""

    def check(self, x, params, cfg, counts=None, seed=0, shuffles=10, up=None):
        n = x.shape[0]
        counts = (n,) if counts is None else counts
        if up is None:
            up = Prng(seed).normals(x.size + n * cfg.d_g * cfg.h * cfg.w).reshape(
                n, cfg.d + cfg.d_g, cfg.h, cfg.w
            )
        out, cache = nlroi_forward(x, params, cfg, counts=counts)
        dx, grads = nlroi_backward(cache, params, cfg, up)
        prng = Prng(seed + 1)
        for _ in range(shuffles):
            pi = shuffled_within_images(prng, counts)
            out_p, cache_p = nlroi_forward(x[pi], params, cfg, counts=counts)
            dx_p, grads_p = nlroi_backward(cache_p, params, cfg, up[pi])
            assert out_p.tobytes() == out[pi].tobytes()
            assert dx_p.tobytes() == dx[pi].tobytes()
            for (name, g), (_, g_p) in zip(grads.tensors(), grads_p.tensors()):
                assert g_p.tobytes() == g.tobytes(), name
        return out, cache

    def test_parameter_gradients_ignore_relabeling(self):
        """Ragged counts with an empty image and a twin pair, alternating
        counts with a twin pair in an image whose group does not start at
        row 0, and two images at paper widths, whose stacked 1x1 VJP sums dW
        over 5 chunks that straddle the images: relabeling each image's
        RoIs, with the upstream rows relabeled the same way, moves no bit of
        the 7 gradients, in both masking modes."""
        paper = dict(d=256, d_f=64, d_mid=64, d_g=64, h=7, w=7)
        for attend in (True, False):
            cfg = small_config(attend_to_self=attend)
            _, params = random_case(124, 1, cfg)
            x = twin_blob(cfg, 125, (0, 1, 2, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14))
            self.check(x, params, cfg, counts=(5, 8, 0, 3), seed=126, shuffles=3)
            # call row 9 repeats row 7, both in image 1 (rows 6 to 15)
            x = twin_blob(cfg, 129, (*range(9), 7, *range(10, 32)))
            _, cache = self.check(x, params, cfg, counts=(6, 10, 6, 10), seed=130, shuffles=3)
            assert cache.twins is not None
            wide = NlRoiConfig(**paper, attend_to_self=attend)
            x, params = random_case(127, 100, wide)
            assert 20 * 256 * 49 <= ops._DW_CHUNK_VALUES < 21 * 256 * 49
            self.check(x, params, wide, counts=(40, 60), seed=128, shuffles=3)

    def test_dx_one_image(self):
        for attend in (True, False):
            cfg = small_config(attend_to_self=attend)
            x, params = random_case(80, 9, cfg)
            self.check(x, params, cfg, seed=81)
            wide = NlRoiConfig(d=64, d_f=16, d_mid=16, d_g=16, h=7, w=7, attend_to_self=attend)
            x, params = random_case(82, 37, wide)
            self.check(x, params, wide, seed=83)
            # a 9-column pooled kernel: rows of one BLAS product over all
            # RoIs round differently by position at this shape
            narrow = NlRoiConfig(d=16, d_f=4, d_mid=1, d_g=16, h=3, w=3, attend_to_self=attend)
            # 2 * _ROW_BLOCK + 5: the softmax VJP takes three blocks
            for n in (5, 13, 37, 2 * _ROW_BLOCK + 5):
                x, params = random_case(99 + n, n, narrow)
                self.check(x, params, narrow, seed=100 + n)

    def test_dx_one_image_at_paper_widths(self):
        # the stacked 1x1 VJP's per-RoI dX product has K = 192 here, which
        # OpenBLAS may split over threads
        for attend in (True, False):
            cfg = NlRoiConfig(d=256, d_f=64, d_mid=64, d_g=64, h=7, w=7, attend_to_self=attend)
            x, params = random_case(86, 37, cfg)
            self.check(x, params, cfg, seed=87)

    def test_dx_multi_image_shuffled_within_images(self):
        for attend in (True, False):
            cfg = small_config(attend_to_self=attend)
            counts = (3, 0, 5, 5, 2, 9)
            x, params = random_case(84, sum(counts), cfg)
            self.check(x, params, cfg, counts=counts, seed=85)

    def test_twins(self):
        """Runs of 2 and 3 identical RoIs, and identical RoIs in two images.
        Twins get identical outputs, and the forward still matches the
        oracle."""
        picks = (0, 1, 0, 2, 0, 3, 1, 1, 2, 4, 5, 6, 7, 8, 9, 0, 0, 3, 3)
        counts = (15, 4)
        for attend in (True, False):
            cfg = small_config(attend_to_self=attend)
            _, params = random_case(86, 1, cfg)
            x = twin_blob(cfg, 87, picks)
            out, cache = self.check(x, params, cfg, counts=counts, seed=88)
            assert out[0].tobytes() == out[2].tobytes() == out[4].tobytes()
            assert out[15].tobytes() == out[16].tobytes()
            ref = np.concatenate(
                [nlroi_reference(x[:15], params, cfg), nlroi_reference(x[15:], params, cfg)]
            )
            assert np.max(np.abs(out - ref)) < 1e-9
            if not attend:
                for p in cache.attn[0][0], cache.attn[1][0]:
                    assert not np.any(np.diag(p))

    def test_twin_across_images_of_one_group(self):
        """A RoI in two images of equal counts, last of the first image and
        first of the second in byte order: each image still attends only
        to its own RoIs."""
        for attend in (True, False):
            cfg = small_config(attend_to_self=attend)
            _, params = random_case(115, 1, cfg)
            pool = twin_blob(cfg, 116, range(5))
            rows = pool.reshape(5, -1)
            s = np.argsort(rows.view(f"V{rows.itemsize * rows.shape[1]}")[:, 0])
            x = pool[[s[1], s[2], s[0], s[3], s[2], s[4]]]
            out, _ = self.check(x, params, cfg, counts=(3, 3), seed=117)
            alone = [nlroi_forward(x[i : i + 3], params, cfg)[0] for i in (0, 3)]
            assert out.tobytes() == np.concatenate(alone).tobytes()

    def test_twins_with_equal_upstream(self):
        """Twins whose upstream rows are equal too, in the g channels only
        or in every channel: dX stays equivariant, and fully equal twins
        get equal dX."""
        picks = (0, 1, 0, 2, 0, 3, 1, 1, 2, 4, 5, 0, 6, 7, 0, 8, 9)
        for attend in (True, False):
            for n in (17, 40):
                cfg = NlRoiConfig(d=8, d_f=4, d_mid=4, d_g=4, h=4, w=4, attend_to_self=attend)
                _, params = random_case(110 + n, 1, cfg)
                rows = picks * (n // len(picks)) + picks[: n % len(picks)]
                x = twin_blob(cfg, 111 + n, rows)
                up = Prng(112 + n).normals(x.shape[0] * (cfg.d + cfg.d_g) * 16).reshape(
                    x.shape[0], cfg.d + cfg.d_g, 4, 4
                )
                first = {}
                for i, r in enumerate(rows):
                    up[i, cfg.d :] = up[first.setdefault(r, i), cfg.d :]
                self.check(x, params, cfg, seed=113 + n, up=up.copy())
                for i, r in enumerate(rows):
                    up[i] = up[first[r]]
                _, cache = self.check(x, params, cfg, seed=114 + n, up=up)
                dx, _ = nlroi_backward(cache, params, cfg, up)
                for i, r in enumerate(rows):
                    assert dx[i].tobytes() == dx[first[r]].tobytes()

    def test_twins_with_equal_upstream_after_the_first_group(self):
        """Groups (6,) and (17, 17), with twins in both images of the second
        group: all but one per image with equal upstream rows too. dX stays
        equivariant and matches per-image calls, and fully equal twins get
        equal dX."""
        run = (6, 7, 6, 8, 6, 9, 7, 7, 8, 10, 6, 11, 6, 12, 13, 6, 7)
        picks = tuple(range(6)) + run + run
        counts = (6, 17, 17)
        for attend in (True, False):
            cfg = small_config(attend_to_self=attend)
            _, params = random_case(120, 1, cfg)
            x = twin_blob(cfg, 121, picks)
            up = Prng(122).normals(40 * (cfg.d + cfg.d_g) * 9).reshape(40, cfg.d + cfg.d_g, 3, 3)
            # first[i]: the first RoI of i's image with i's bytes; the last
            # RoI of each image keeps an upstream row of its own
            first = [picks.index(p, 6 + 17 * ((i - 6) // 17)) if i >= 6 else i
                     for i, p in enumerate(picks)]
            for i in range(40):
                if i not in (22, 39):
                    up[i] = up[first[i]]
            _, cache = self.check(x, params, cfg, counts=counts, seed=123, up=up)
            dx, _ = nlroi_backward(cache, params, cfg, up)
            alone = [
                nlroi_backward(nlroi_forward(x[a:b], params, cfg)[1], params, cfg, up[a:b])[0]
                for a, b in ((0, 6), (6, 23), (23, 40))
            ]
            assert np.max(np.abs(dx - np.concatenate(alone))) <= 1e-12 * np.max(np.abs(dx))
            for i in range(40):
                if i not in (22, 39):
                    assert dx[i].tobytes() == dx[first[i]].tobytes(), i

    def test_twins_finite_differences(self):
        """The gradients with twins are those of the defining sum: each twin
        attends to the others of its run and, when masked, not to itself."""
        for attend in (True, False):
            cfg = NlRoiConfig(d=6, d_f=3, d_mid=3, d_g=4, h=2, w=2, attend_to_self=attend)
            _, params = random_case(96, 1, cfg)
            x = twin_blob(cfg, 97, (0, 1, 0, 2, 0, 3, 1))
            proj = 1e-6 * Prng(98).normals(7 * 10 * 2 * 2).reshape(7, 10, 2, 2)
            _, cache = nlroi_forward(x, params, cfg)
            dx, dparams = nlroi_backward(cache, params, cfg, proj)

            def loss(blob, p=params):
                return np.sum(nlroi_forward(blob, p, cfg)[0] * proj)

            assert float(np.max(rel_err(dx, finite_diff(loss, x)))) < 1e-6
            for name, g in dparams.tensors():

                def loss_of(t, name=name):
                    return loss(x, dataclasses.replace(params, **{name: t}))

                numeric = finite_diff(loss_of, getattr(params, name))
                assert float(np.max(rel_err(g, numeric))) < 1e-6, name

    def test_twins_at_larger_n(self):
        # 300 RoIs, 120 distinct: runs of twins all along the canonical order
        cfg = NlRoiConfig(d=8, d_f=4, d_mid=4, d_g=4, h=4, w=4, attend_to_self=False)
        _, params = random_case(89, 1, cfg)
        prng = Prng(90)
        picks = [prng.randint(120) for _ in range(300)]
        self.check(twin_blob(cfg, 91, picks), params, cfg, seed=92)

    def test_near_twins(self):
        """RoIs that share their first element and differ later, within one
        image and across the two images of one group: none is a twin, and
        the forward matches the oracle."""
        counts = (5, 5, 4)
        for attend in (True, False):
            cfg = small_config(attend_to_self=attend)
            x, params = random_case(96, sum(counts), cfg)
            # every row of the first group's two images, and two of the second
            x[1:10, 0, 0, 0] = x[0, 0, 0, 0]
            x[11, 0, 0, 0] = x[10, 0, 0, 0]
            # equal in all but the last element
            x[3] = x[4]
            x[3, -1, -1, -1] += 1.0
            out, cache = self.check(x, params, cfg, counts=counts, seed=97)
            assert cache.twins is None
            ref = [nlroi_reference(x[rows], params, cfg) for rows in split_rows(counts)]
            assert np.max(np.abs(out - np.concatenate(ref))) < 1e-9

    def test_signed_zero_pair(self):
        for attend in (True, False):
            cfg = small_config(attend_to_self=attend)
            _, params = random_case(93, 1, cfg)
            x = twin_blob(cfg, 94, tuple(range(10)), signed_zero=((2, 7),))
            self.check(x, params, cfg, seed=95)


class TestRowBlocks:
    """The softmax and its multi-block VJP: the forward normalizes each
    group's whole score stack in place, and the VJP runs in place on blocks
    of ``_ROW_BLOCK`` rows of each image. The weights are bitwise the
    softmax of the whole score stack (both in canonical order), and the
    gradients are those of the whole matrices."""

    N = 2 * _ROW_BLOCK + 5
    # groups of one partial block, of one block and a row, of two whole
    # blocks, and of less than a block
    COUNTS = (_ROW_BLOCK - 1, _ROW_BLOCK + 1, _ROW_BLOCK + 1, 2 * _ROW_BLOCK, 3)

    def check(self, x, params, cfg, counts=None, seed=0):
        out, cache = nlroi_forward(x, params, cfg, counts=counts)
        for group, attn in enumerate(cache.attn):
            s = raw_scores(cache, group) / cfg.scale()
            whole = ops.softmax_rows(s, mask_diagonal=not cfg.attend_to_self)
            assert attn.tobytes() == whole.tobytes()
        # dX along one direction against a central difference
        prng = Prng(seed)
        proj = prng.normals(out.size).reshape(out.shape)
        v = prng.normals(x.size).reshape(x.shape)
        dx, _ = nlroi_backward(cache, params, cfg, proj)

        def loss(blob):
            return np.sum(nlroi_forward(blob, params, cfg, counts=counts)[0] * proj)

        step = 1e-6
        numeric = (loss(x + step * v) - loss(x - step * v)) / (2 * step)
        assert abs(np.sum(dx * v) - numeric) <= 1e-6 * abs(numeric)

    def test_one_image(self):
        for attend in (True, False):
            cfg = small_config(attend_to_self=attend)
            x, params = random_case(130, self.N, cfg)
            self.check(x, params, cfg, seed=131)

    def test_images_across_block_edges(self):
        for attend in (True, False):
            cfg = small_config(attend_to_self=attend)
            x, params = random_case(132, sum(self.COUNTS), cfg)
            self.check(x, params, cfg, counts=self.COUNTS, seed=133)

    def test_twins_across_a_block_edge(self):
        """A run of ``_ROW_BLOCK + 6`` twins covers canonical rows
        ``_ROW_BLOCK - 1`` and ``_ROW_BLOCK`` wherever the sort puts it. The
        first twin's row is the whole stack's softmax; every other twin's
        row is the first's with the two twins' columns swapped."""
        run = _ROW_BLOCK + 6
        picks = (0,) * run + tuple(range(1, self.N - run + 1))
        for attend in (True, False):
            cfg = small_config(attend_to_self=attend)
            _, params = random_case(134, 1, cfg)
            x = twin_blob(cfg, 135, picks)
            _, cache = nlroi_forward(x, params, cfg)
            twins = np.sort(np.argsort(cache.order)[:run])
            assert twins[0] < _ROW_BLOCK <= twins[-1]
            assert np.array_equal(twins, np.arange(twins[0], twins[0] + run))
            (attn,) = cache.attn[0]
            (s,) = raw_scores(cache) / cfg.scale()
            whole = ops.softmax_rows(s, mask_diagonal=not attend)
            first = twins[0]
            for k in range(self.N):
                if k in twins[1:]:
                    swapped = attn[first].copy()
                    swapped[[k, first]] = swapped[[first, k]]
                    assert attn[k].tobytes() == swapped.tobytes(), k
                else:
                    assert attn[k].tobytes() == whole[k].tobytes(), k


class TestMemory:
    def test_large_n_peaks(self):
        """At large_n's config and N = 1024 (tracemalloc): the forward's peak
        is at most three N x N stacks and the backward's, with the cache
        live, at most three too: no whole N x N gradient exists."""
        cfg = NlRoiConfig(d=8, d_f=4, d_mid=4, d_g=4, h=4, w=4,
                          attend_to_self=False, scaling=Scaling.FULL_FLATTEN)
        n = 1024
        x, params = random_case(140, n, cfg)
        up = Prng(141).normals(n * (cfg.d + cfg.d_g) * 16).reshape(n, cfg.d + cfg.d_g, 4, 4)
        stack = n * n * 8
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out, cache = nlroi_forward(x, params, cfg)
            fwd = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            nlroi_backward(cache, params, cfg, up)
            bwd = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert fwd <= 3 * stack, f"forward peak {fwd / stack:.2f} stacks"
        assert bwd <= 3 * stack, f"backward peak {bwd / stack:.2f} stacks"

    def test_paper_width_backward_working_set(self):
        """At paper_scale's widths and N = 128 (tracemalloc, the cache live):
        the backward's peak is at most its stacked 1x1 upstream (N x 192
        maps), dX (N x 256) and one g-branch map (N x 64). The g-branch
        gradient needs no call-order buffer of its own, and the 1x1 VJP's
        dW chunk copies are freed before dX exists. Fewer RoIs would let
        the chunk copies exceed the bound."""
        cfg = NlRoiConfig(d=256, d_f=64, d_mid=64, d_g=64, h=7, w=7)
        n, maps = 128, 128 * 49 * 8
        x, params = random_case(142, n, cfg)
        up = Prng(143).normals(n * (cfg.d + cfg.d_g) * 49).reshape(n, cfg.d + cfg.d_g, 7, 7)
        _, cache = nlroi_forward(x, params, cfg)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            nlroi_backward(cache, params, cfg, up)
            bwd = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        bound = (192 + 256 + 64) * maps
        assert bwd <= bound, f"backward peak {bwd / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"

    def test_paper_width_forward_working_set(self):
        """At paper_scale's widths and N = 128 (tracemalloc): the forward's
        peak is at most what it returns, the output (N x 320 maps) and the
        cache's phi, psi and g_pre (N x 192), plus half a g-branch map
        (N x 32). The g-branch's ReLU map is freed before the N x N stages."""
        cfg = NlRoiConfig(d=256, d_f=64, d_mid=64, d_g=64, h=7, w=7)
        n, maps = 128, 128 * 49 * 8
        x, params = random_case(144, n, cfg)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            nlroi_forward(x, params, cfg)
            fwd = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        bound = (320 + 192 + 32) * maps
        assert fwd <= bound, f"forward peak {fwd / 2**20:.2f} MiB > {bound / 2**20:.2f} MiB"


class TestParamsContainer:
    def test_fields_follow_the_declared_shapes(self):
        cfg = small_config()
        p = init_params(cfg, Prng(53))
        assert [name for name, _ in p.tensors()] == list(NlRoiParams.shapes(cfg))

    def test_unknown_attribute_raises(self):
        """A write to a tensor the operator does not have (psi has no
        bias) fails instead of adding an attribute nothing reads."""
        p = init_params(small_config(), Prng(54))
        with pytest.raises(AttributeError):
            p.b_psi = np.zeros(2)


class TestParamsAtEntry:
    """``nlroi_forward`` checks the parameters against the config and hands
    the ops C-contiguous float64 tensors, which the cache keeps for the
    backward; the ops check nothing, and ``nlroi_backward`` only checks that
    its parameters are the forward's."""

    @pytest.mark.parametrize("name", list(NlRoiParams.shapes(small_config())))
    def test_wrong_shape_names_the_tensor(self, name):
        cfg = small_config()
        x, params = random_case(55, 4, cfg)
        shape = getattr(params, name).shape
        setattr(params, name, np.zeros(shape[:-1] + (shape[-1] + 1,)))
        with pytest.raises(DimensionError, match=rf"^{name} has shape"):
            nlroi_forward(x, params, cfg)

    def test_params_of_another_consistent_config(self):
        """Params drawn for d_mid=6 fit each other but not a d_mid=4 call."""
        cfg = small_config()
        x, _ = random_case(56, 4, cfg)
        params = init_params(small_config(d_mid=6), Prng(56))
        with pytest.raises(DimensionError, match=r"^w_g1 has shape \(6, 8\), config implies \(4, 8\)"):
            nlroi_forward(x, params, cfg)

    def test_layout_and_dtype_do_not_change_the_bits(self):
        # at these widths BLAS rounds Fortran-ordered weights differently
        cfg = small_config(d=16, d_f=8, d_mid=8, d_g=8)
        x, params = random_case(57, 9, cfg)
        want, _ = nlroi_forward(x, params, cfg)
        fortran = NlRoiParams(**{n: np.asfortranarray(t) for n, t in params.tensors()})
        assert nlroi_forward(x, fortran, cfg)[0].tobytes() == want.tobytes()
        single = NlRoiParams(**{n: t.astype(np.float32) for n, t in params.tensors()})
        widened = NlRoiParams(**{n: t.astype(np.float64) for n, t in single.tensors()})
        want, _ = nlroi_forward(x, widened, cfg)
        assert nlroi_forward(x, single, cfg)[0].tobytes() == want.tobytes()

    def test_backward_converts_like_the_forward(self):
        """Fortran-ordered and float32 params give the backward bitwise the
        dX and gradients of C-ordered float64 params (at these widths BLAS
        would round a Fortran-ordered stacked weight differently)."""
        cfg = small_config(d=16, d_f=8, d_mid=8, d_g=8)
        x, params = random_case(58, 9, cfg)
        single = NlRoiParams(**{n: t.astype(np.float32) for n, t in params.tensors()})
        widened = NlRoiParams(**{n: t.astype(np.float64) for n, t in single.tensors()})
        fortran = NlRoiParams(**{n: np.asfortranarray(t) for n, t in params.tensors()})
        for given, plain in ((fortran, params), (single, widened)):
            out, cache = nlroi_forward(x, plain, cfg)
            up = Prng(59).normals(out.size).reshape(out.shape)
            want_dx, want = nlroi_backward(cache, plain, cfg, up)
            dx, grads = nlroi_backward(cache, given, cfg, up)
            assert dx.tobytes() == want_dx.tobytes()
            for (name, g), (_, w) in zip(grads.tensors(), want.tensors()):
                assert g.tobytes() == w.tobytes(), name

    def test_backward_names_a_mismatched_tensor(self):
        cfg = small_config()
        x, params = random_case(60, 4, cfg)
        out, cache = nlroi_forward(x, params, cfg)
        params.w_g1 = np.zeros((6, 8))
        with pytest.raises(ConfigError, match=r"^backward parameter w_g1 differs from the forward's$"):
            nlroi_backward(cache, params, cfg, np.ones_like(out))

    @pytest.mark.parametrize("counts", [None, (3, 0, 5)])
    def test_backward_rejects_params_other_than_the_forwards(self, counts):
        """Same-shape params of another draw would give the gradients of
        another operator (dX off by up to 10.27 at one image): the backward
        names the first tensor that differs, in NlRoiParams order."""
        cfg = NlRoiConfig(d=16, d_f=4, d_mid=4, d_g=4, h=3, w=3)
        params, other = init_params(cfg, Prng(0)), init_params(cfg, Prng(1))
        x = Prng(2).normals(8 * 16 * 3 * 3).reshape(8, 16, 3, 3)
        out, cache = nlroi_forward(x, params, cfg, counts)
        up = Prng(3).normals(out.size).reshape(out.shape)
        with pytest.raises(ConfigError, match=r"^backward parameter w_phi differs") as info:
            nlroi_backward(cache, other, cfg, up)
        assert info.value.fields == ("w_phi",)
        # a later tensor, off by one ulp in one entry
        nudged = NlRoiParams(**{n: t.copy() for n, t in params.tensors()})
        nudged.w_g2[1, 2, 0, 1] = np.nextafter(nudged.w_g2[1, 2, 0, 1], np.inf)
        with pytest.raises(ConfigError, match=r"^backward parameter w_g2 differs"):
            nlroi_backward(cache, nudged, cfg, up)

    def test_params_are_converted_once_per_pair(self, monkeypatch):
        """The forward converts the parameters; the backward differentiates
        the cache's tensors and converts nothing, whatever it is given."""
        calls = []
        check = operator._check_params

        def counted(params, config):
            calls.append(config)
            return check(params, config)

        monkeypatch.setattr(operator, "_check_params", counted)
        cfg = small_config(d=16, d_f=8, d_mid=8, d_g=8)
        x, params = random_case(61, 9, cfg)
        fortran = NlRoiParams(**{n: np.asfortranarray(t) for n, t in params.tensors()})
        for given in (params, fortran):
            out, cache = nlroi_forward(x, given, cfg, (4, 5))
            assert len(calls) == 1
            for backward_params in (params, fortran):
                nlroi_backward(cache, backward_params, cfg, np.ones_like(out))
            assert len(calls) == 1
            calls.clear()
        # C-contiguous float64 tensors reach the cache with no copy
        cached = nlroi_forward(x, params, cfg)[1].params
        assert all(t is getattr(params, n) for n, t in cached.tensors())
