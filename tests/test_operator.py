"""The attention operator: forward, reference oracle, backward, invariants."""

import math

import numpy as np
import pytest

from nlroi import ops
from nlroi.errors import (
    ConfigError,
    DegenerateAttentionError,
    DimensionError,
    NumericalError,
)
from nlroi.gradcheck import finite_diff, rel_err
from nlroi.operator import (
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


def small_config(**kw):
    base = dict(d=8, d_f=4, d_mid=4, d_g=5, h=3, w=3)
    base.update(kw)
    return NlRoiConfig(**base)


def scores_of(x, params, config):
    return nlroi_forward(x, params, config)[1].scores[0][0]


def g_of(x, params, config):
    return nlroi_forward(x, params, config)[1].g_pooled


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


class TestInitParams:
    def test_same_seed_bitwise(self):
        cfg = small_config()
        a = init_params(cfg, Prng(9))
        b = init_params(cfg, Prng(9))
        for (_, ta), (_, tb) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)

    def test_biases_exactly_zero(self):
        p = init_params(small_config(), Prng(3))
        for name in ("b_phi", "b_psi", "b_g1", "b_g2"):
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
        p.validate(cfg)
        assert p.w_g2.shape == (5, 4, 3, 3)


class TestRelationScores:
    def test_single_roi_dot_product(self):
        cfg = small_config()
        x, params = random_case(12, 1, cfg)
        s = scores_of(x, params, cfg)
        phi = ops.conv2d_1x1(x, params.w_phi, params.b_phi).reshape(1, -1)
        psi = ops.conv2d_1x1(x, params.w_psi, params.b_psi).reshape(1, -1)
        want = float(ops.matmul(phi, psi.T)[0, 0]) / cfg.scale()
        assert s.shape == (1, 1)
        assert s[0, 0] == want

    def test_shared_embeddings_identical_rois(self):
        cfg = small_config()
        x, params = random_case(13, 2, cfg)
        params.w_psi = params.w_phi.copy()
        params.b_psi = params.b_phi.copy()
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

    def test_masked_single_roi_raises(self):
        with pytest.raises(DegenerateAttentionError):
            attention_weights(np.zeros((1, 1)), attend_to_self=False)


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
        assert np.array_equal(cache.y_vec[0], cache.g_pooled[0])
        assert np.array_equal(cache.attention[0][0], [[1.0]])

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
        cfg = small_config()
        x, params = random_case(23, 7, cfg)
        out, cache = nlroi_forward(x, params, cfg)
        prng = Prng(99)
        for _ in range(10):
            pi = prng.sample_indices(7, 7)
            out_p, cache_p = nlroi_forward(x[pi], params, cfg)
            assert np.array_equal(out_p, out[pi])
            assert np.array_equal(cache_p.scores[0][0], cache.scores[0][0][np.ix_(pi, pi)])
            assert np.array_equal(cache_p.attention[0][0], cache.attention[0][0][np.ix_(pi, pi)])

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

    def test_empty_blob_passes_through(self):
        cfg = small_config()
        _, params = random_case(24, 1, cfg)
        out, cache = nlroi_forward(np.zeros((0, 8, 3, 3)), params, cfg)
        assert out.shape == (0, 13, 3, 3)
        assert cache.attention[0][0].shape == (0, 0)

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
            p = cache.attention[0][0]
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
            assert np.all(p >= 0.0) and np.all(p <= 1.0)
            if not cfg.attend_to_self:
                assert np.array_equal(np.diag(p), np.zeros(5))

    def test_convexity_bound(self):
        # each mixed component lies within the attended embeddings' range
        cfg = small_config()
        x, params = random_case(26, 6, cfg)
        _, cache = nlroi_forward(x, params, cfg)
        g = cache.g_pooled
        lo = g.min(axis=0) - 1e-12
        hi = g.max(axis=0) + 1e-12
        assert np.all(cache.y_vec >= lo[None, :])
        assert np.all(cache.y_vec <= hi[None, :])

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
            assert np.array_equal(c1.scores_raw[0][0], c2.scores_raw[0][0])
            assert np.array_equal(
                np.argmax(c1.attention[0][0], axis=1), np.argmax(c2.attention[0][0], axis=1)
            )


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

    def test_upstream_shape_checked(self):
        cfg = small_config()
        x, params = random_case(44, 3, cfg)
        _, cache = nlroi_forward(x, params, cfg)
        with pytest.raises(DimensionError):
            nlroi_backward(cache, params, cfg, np.zeros((3, 8, 3, 3)))


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

    CASES = (((8, 8, 8), True), ((3, 0, 1, 5, 2), True), ((2, 3, 2), False))

    def test_per_image_outputs_bitwise(self):
        for seed, (counts, attend) in enumerate(self.CASES):
            cfg = small_config(attend_to_self=attend)
            x, params = random_case(60 + seed, sum(counts), cfg)
            out, cache = nlroi_forward(x, params, cfg, counts=counts)
            assert out.shape == (sum(counts), 13, 3, 3)
            for rows in split_rows(counts):
                alone, alone_cache = nlroi_forward(x[rows], params, cfg)
                assert out[rows].tobytes() == alone.tobytes()
                assert cache.y_vec[rows].tobytes() == alone_cache.y_vec.tobytes()

    def test_groups_stack_runs_of_equal_counts(self):
        cfg = small_config()
        x, params = random_case(63, 13, cfg)
        _, cache = nlroi_forward(x, params, cfg, counts=[3, 3, 0, 2, 2, 3])
        assert cache.groups == ((0, 2, 3), (6, 1, 0), (6, 2, 2), (10, 1, 3))
        assert [a.shape for a in cache.attention] == [(2, 3, 3), (1, 0, 0), (2, 2, 2), (1, 3, 3)]

    def test_masked_single_roi_image_raises(self):
        cfg = small_config(attend_to_self=False)
        x, params = random_case(64, 6, cfg)
        with pytest.raises(DegenerateAttentionError, match="image 2"):
            nlroi_forward(x, params, cfg, counts=(2, 3, 1))

    def test_bad_counts_raise(self):
        cfg = small_config()
        x, params = random_case(65, 6, cfg)
        for counts in ((2, 3), (2, 3, 2), (7, -1), (2.0, 4.0), [[2, 4]]):
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
            summed = NlRoiParams.zeros_like(params)
            for rows in split_rows(counts):
                _, alone = nlroi_forward(x[rows], params, cfg)
                dx_alone, d_alone = nlroi_backward(alone, params, cfg, up[rows])
                assert scaled_err(dx[rows], dx_alone) < 1e-12
                for name, g in d_alone.tensors():
                    setattr(summed, name, getattr(summed, name) + g)
            # b_psi's exact gradient is zero (a row softmax ignores a per-row
            # shift), so its computed value is rounding noise: every tensor is
            # measured against the largest gradient of the call
            scale = max(float(np.max(np.abs(g))) for _, g in summed.tensors())
            for (name, got), (_, want) in zip(dparams.tensors(), summed.tensors()):
                assert float(np.max(np.abs(got - want))) < 1e-12 * scale, name

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

        assert float(np.max(rel_err(dx, finite_diff(loss, x, 1e-5)))) < 1e-6
        for name, g in dparams.tensors():

            def loss_of(t, name=name):
                trial = params.copy()
                setattr(trial, name, t)
                return loss(x, trial)

            numeric = finite_diff(loss_of, getattr(params, name), 1e-5)
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
    """The N x N stages run in one canonical RoI order, so the forward and
    dX are bitwise permutation-equivariant, also when RoIs repeat."""

    def check(self, x, params, cfg, counts=None, seed=0, shuffles=10, up=None):
        n = x.shape[0]
        counts = (n,) if counts is None else counts
        if up is None:
            up = Prng(seed).normals(x.size + n * cfg.d_g * cfg.h * cfg.w).reshape(
                n, cfg.d + cfg.d_g, cfg.h, cfg.w
            )
        out, cache = nlroi_forward(x, params, cfg, counts=counts)
        dx, _ = nlroi_backward(cache, params, cfg, up)
        prng = Prng(seed + 1)
        for _ in range(shuffles):
            pi = shuffled_within_images(prng, counts)
            out_p, cache_p = nlroi_forward(x[pi], params, cfg, counts=counts)
            dx_p, _ = nlroi_backward(cache_p, params, cfg, up[pi])
            assert out_p.tobytes() == out[pi].tobytes()
            assert dx_p.tobytes() == dx[pi].tobytes()
        return out, cache

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
            for n in (5, 13, 37):
                x, params = random_case(99 + n, n, narrow)
                self.check(x, params, narrow, seed=100 + n)

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
                for p in cache.attention[0][0], cache.attention[1][0]:
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

            assert float(np.max(rel_err(dx, finite_diff(loss, x, 1e-5)))) < 1e-6
            for name, g in dparams.tensors():

                def loss_of(t, name=name):
                    trial = params.copy()
                    setattr(trial, name, t)
                    return loss(x, trial)

                numeric = finite_diff(loss_of, getattr(params, name), 1e-5)
                assert float(np.max(rel_err(g, numeric))) < 1e-6, name

    def test_twins_at_larger_n(self):
        # 300 RoIs, 120 distinct: runs of twins all along the canonical order
        cfg = NlRoiConfig(d=8, d_f=4, d_mid=4, d_g=4, h=4, w=4, attend_to_self=False)
        _, params = random_case(89, 1, cfg)
        prng = Prng(90)
        picks = [prng.randint(120) for _ in range(300)]
        self.check(twin_blob(cfg, 91, picks), params, cfg, seed=92)

    def test_signed_zero_pair(self):
        for attend in (True, False):
            cfg = small_config(attend_to_self=attend)
            _, params = random_case(93, 1, cfg)
            x = twin_blob(cfg, 94, tuple(range(10)), signed_zero=((2, 7),))
            self.check(x, params, cfg, seed=95)


class TestParamsContainer:
    def test_named_round_trip(self):
        p = init_params(small_config(), Prng(50))
        q = NlRoiParams.from_named(dict(p.tensors()))
        for (_, a), (_, b) in zip(p.tensors(), q.tensors()):
            assert np.array_equal(a, b)

    def test_from_named_missing_tensor(self):
        p = init_params(small_config(), Prng(51))
        named = dict(p.tensors())
        del named["w_g2"]
        with pytest.raises(DimensionError):
            NlRoiParams.from_named(named)

    def test_validate_rejects_wrong_shape(self):
        cfg = small_config()
        p = init_params(cfg, Prng(52))
        p.w_phi = np.zeros((2, 2))
        with pytest.raises(DimensionError):
            p.validate(cfg)
