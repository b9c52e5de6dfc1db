"""Primitive operations against hand values and brute-force oracles.

The oracles here are written independently of the library: a scalar
triple loop for matmul, a six-nested loop for the 3x3 convolution, and
central finite differences for every backward pass.
"""

import math

import numpy as np
import pytest

from nlroi import ops
from nlroi.errors import DegenerateAttentionError, DimensionError
from nlroi.rng import Prng


def matmul_oracle(a, b):
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def conv3x3_oracle(x, w, b):
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    out = np.zeros((n, cout, h, wd))
    for s in range(n):
        for o in range(cout):
            for i in range(h):
                for j in range(wd):
                    acc = b[o]
                    for c in range(cin):
                        for ki in range(3):
                            for kj in range(3):
                                si = i + ki - 1
                                sj = j + kj - 1
                                if 0 <= si < h and 0 <= sj < wd:
                                    acc += w[o, c, ki, kj] * x[s, c, si, sj]
                    out[s, o, i, j] = acc
    return out


def fd_grad(loss, x, step=1e-5):
    g = np.zeros_like(x)
    for k in range(x.size):
        xp = x.copy()
        xp.reshape(-1)[k] += step
        xm = x.copy()
        xm.reshape(-1)[k] -= step
        g.reshape(-1)[k] = (loss(xp) - loss(xm)) / (2 * step)
    return g


def max_rel(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)))


class TestMatmul:
    def test_identity(self):
        b = np.array([[3.0, 1.0], [2.0, 4.0]])
        assert np.array_equal(ops.matmul(np.eye(2), b), b)

    def test_direct_arithmetic(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0], [1.0]])
        assert np.array_equal(ops.matmul(a, b), [[3.0], [7.0]])

    def test_against_triple_loop_oracle(self):
        """Ascending-index accumulation must equal the scalar loop bit for bit."""
        prng = Prng(100)
        for _ in range(20):
            a = prng.normals(35).reshape(5, 7)
            b = prng.normals(21).reshape(7, 3)
            assert np.array_equal(ops.matmul(a, b), matmul_oracle(a, b))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ops.matmul(np.zeros((2, 3)), np.zeros((4, 2)))


class TestConv1x1:
    def test_identity_weight(self):
        x = Prng(1).normals(2 * 3 * 2 * 2).reshape(2, 3, 2, 2)
        out = ops.conv2d_1x1(x, np.eye(3), np.zeros(3))
        assert np.array_equal(out, x)

    def test_zero_input_exposes_bias(self):
        out = ops.conv2d_1x1(np.zeros((2, 3, 2, 2)), np.ones((2, 3)), np.array([0.5, -1.0]))
        assert np.array_equal(out[:, 0], np.full((2, 2, 2), 0.5))
        assert np.array_equal(out[:, 1], np.full((2, 2, 2), -1.0))

    def test_direct_arithmetic(self):
        x = np.array([1.0, 2.0]).reshape(1, 2, 1, 1)
        w = np.array([[1.0, 1.0], [0.0, 1.0]])
        out = ops.conv2d_1x1(x, w, np.zeros(2))
        assert np.array_equal(out.reshape(-1), [3.0, 2.0])

    def test_batch_equals_each_roi_alone_bitwise(self):
        prng = Prng(12)
        x = prng.normals(37 * 64 * 7 * 7).reshape(37, 64, 7, 7)
        w = prng.normals(16 * 64).reshape(16, 64)
        b = prng.normals(16)
        alone = np.concatenate([ops.conv2d_1x1(x[i : i + 1], w, b) for i in range(37)])
        assert np.array_equal(ops.conv2d_1x1(x, w, b), alone)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ops.conv2d_1x1(np.zeros((1, 3, 2, 2)), np.zeros((2, 4)), np.zeros(2))


class TestConv3x3:
    def test_center_only_kernel_is_identity(self):
        x = Prng(2).normals(1 * 2 * 4 * 4).reshape(1, 2, 4, 4)
        w = np.zeros((2, 2, 3, 3))
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        assert np.array_equal(ops.conv2d_3x3_same(x, w, np.zeros(2)), x)

    def test_padding_arithmetic(self):
        # all-ones kernel over a constant map: 9c interior, 4c at corners
        c = 1.75
        x = np.full((1, 1, 5, 5), c)
        out = ops.conv2d_3x3_same(x, np.ones((1, 1, 3, 3)), np.zeros(1))[0, 0]
        assert out[2, 2] == 9 * c
        assert out[0, 0] == 4 * c
        assert out[0, 4] == 4 * c
        assert out[4, 0] == 4 * c
        assert out[0, 2] == 6 * c

    def test_against_six_loop_oracle(self):
        prng = Prng(3)
        for _ in range(5):
            x = prng.normals(1 * 2 * 4 * 4).reshape(1, 2, 4, 4)
            w = prng.normals(3 * 2 * 3 * 3).reshape(3, 2, 3, 3)
            b = prng.normals(3)
            assert np.array_equal(ops.conv2d_3x3_same(x, w, b), conv3x3_oracle(x, w, b))
        # several RoIs on non-square maps, so a transpose between layouts
        # that swapped two axes would show
        for shape in ((3, 2, 3, 5), (3, 2, 5, 2)):
            x = prng.normals(math.prod(shape)).reshape(shape)
            w = prng.normals(3 * 2 * 3 * 3).reshape(3, 2, 3, 3)
            b = prng.normals(3)
            assert np.array_equal(ops.conv2d_3x3_same(x, w, b), conv3x3_oracle(x, w, b))

    def test_weight_shape_checked(self):
        with pytest.raises(DimensionError):
            ops.conv2d_3x3_same(np.zeros((1, 2, 4, 4)), np.zeros((3, 2, 5, 5)), np.zeros(3))


class TestSoftmaxRows:
    def test_symmetric_row(self):
        out = ops.softmax_rows(np.array([[0.0, 0.0]]))
        assert np.array_equal(out, [[0.5, 0.5]])

    def test_exact_exponentials(self):
        out = ops.softmax_rows(np.array([[math.log(2.0), 0.0]]))
        assert np.allclose(out, [[2 / 3, 1 / 3]], rtol=0, atol=1e-15)

    def test_masked_two_by_two(self):
        out = ops.softmax_rows(np.zeros((2, 2)), mask_diagonal=True)
        assert np.array_equal(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_masked_single_row_degenerate(self):
        with pytest.raises(DegenerateAttentionError):
            ops.softmax_rows(np.zeros((1, 1)), mask_diagonal=True)

    def test_mask_requires_square(self):
        with pytest.raises(DimensionError):
            ops.softmax_rows(np.zeros((2, 3)), mask_diagonal=True)

    def test_rows_stochastic_under_large_magnitudes(self):
        """Rows with entries at +-1e6 must neither overflow nor lose
        normalization."""
        prng = Prng(4)
        for i in range(300):
            s = prng.uniforms_in(6 * 5, -1e6, 1e6).reshape(6, 5)
            out = ops.softmax_rows(s)
            assert np.all(np.isfinite(out))
            assert np.all(out >= 0.0)
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12

    def test_row_shift_invariance(self):
        prng = Prng(5)
        s = prng.normals(12).reshape(3, 4)
        shifted = s.copy()
        shifted[1] += 10.0
        a = ops.softmax_rows(s)
        b = ops.softmax_rows(shifted)
        assert np.allclose(a[1], b[1], rtol=0, atol=1e-15)


class TestSmallOps:
    def test_relu_sign_cases(self):
        assert np.array_equal(ops.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu_positive_cone_identity(self):
        x = np.abs(Prng(6).normals(20))
        assert np.array_equal(ops.relu(x), x)

    def test_relu_all_negative(self):
        assert np.array_equal(ops.relu(np.full(5, -3.0)), np.zeros(5))

    def test_pool_constant(self):
        assert np.array_equal(ops.global_avg_pool(np.full((2, 3, 4, 4), 2.5)), np.full((2, 3), 2.5))

    def test_pool_single_position(self):
        x = Prng(7).normals(6).reshape(2, 3, 1, 1)
        assert np.array_equal(ops.global_avg_pool(x), x[:, :, 0, 0])

    def test_pool_direct(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        assert ops.global_avg_pool(x)[0, 0] == 2.5

    def test_pool_rejects_empty_extent(self):
        with pytest.raises(DimensionError):
            ops.global_avg_pool(np.zeros((1, 2, 0, 3)))

    def test_tile_broadcast(self):
        out = ops.tile_spatial(np.array([[7.0]]), 2, 2)
        assert np.array_equal(out, np.full((1, 1, 2, 2), 7.0))

    def test_tile_then_pool_roundtrip(self):
        v = Prng(8).normals(12).reshape(3, 4)
        assert np.array_equal(ops.global_avg_pool(ops.tile_spatial(v, 3, 5)), v)

    def test_tile_unit_extent(self):
        v = Prng(9).normals(6).reshape(2, 3)
        assert np.array_equal(ops.tile_spatial(v, 1, 1)[:, :, 0, 0], v)

    def test_concat_layout(self):
        x = np.array([5.0]).reshape(1, 1, 1, 1)
        t = np.array([6.0, 7.0]).reshape(1, 2, 1, 1)
        assert np.array_equal(ops.concat_channels(x, t).reshape(-1), [5.0, 6.0, 7.0])

    def test_concat_identity_cases(self):
        x = Prng(10).normals(2 * 3 * 2 * 2).reshape(2, 3, 2, 2)
        assert np.array_equal(ops.concat_channels(x, np.zeros((2, 0, 2, 2))), x)
        assert np.array_equal(ops.concat_channels(np.zeros((2, 0, 2, 2)), x), x)

    def test_concat_prefix_restriction(self):
        prng = Prng(11)
        x = prng.normals(2 * 3 * 2 * 2).reshape(2, 3, 2, 2)
        t = prng.normals(2 * 2 * 2 * 2).reshape(2, 2, 2, 2)
        assert np.array_equal(ops.concat_channels(x, t)[:, :3], x)

    def test_concat_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ops.concat_channels(np.zeros((1, 2, 2, 2)), np.zeros((2, 1, 2, 2)))


class TestVjps:
    """Every backward contract against the finite-difference oracle, plus
    the hand-checkable identity cases."""

    def test_matmul_identity_upstream(self):
        prng = Prng(20)
        a = prng.normals(4).reshape(2, 2)
        b = prng.normals(4).reshape(2, 2)
        da, db = ops.matmul_vjp(a, b, np.eye(2))
        assert np.array_equal(da, ops.matmul(np.eye(2), b.T))
        assert np.allclose(da, b.T, rtol=0, atol=1e-15)
        assert np.allclose(db, a.T, rtol=0, atol=1e-15)

    def test_pool_uniform_spread(self):
        x = np.zeros((1, 1, 2, 2))
        (dx,) = ops.global_avg_pool_vjp(x, np.array([[1.0]]))
        assert np.array_equal(dx, np.full((1, 1, 2, 2), 0.25))

    def test_matmul_vjp_fd(self):
        prng = Prng(21)
        a = prng.normals(12).reshape(3, 4)
        b = prng.normals(20).reshape(4, 5)
        up = prng.normals(15).reshape(3, 5)
        da, db = ops.matmul_vjp(a, b, up)
        assert max_rel(da, fd_grad(lambda v: np.sum(ops.matmul(v, b) * up), a)) < 1e-6
        assert max_rel(db, fd_grad(lambda v: np.sum(ops.matmul(a, v) * up), b)) < 1e-6

    def test_conv1x1_vjp_fd(self):
        prng = Prng(22)
        x = prng.normals(3 * 4 * 5 * 5).reshape(3, 4, 5, 5)
        w = prng.normals(2 * 4).reshape(2, 4)
        b = prng.normals(2)
        up = prng.normals(3 * 2 * 5 * 5).reshape(3, 2, 5, 5)
        dx, dw, db = ops.conv2d_1x1_vjp(x, w, b, up)
        f = ops.conv2d_1x1
        assert max_rel(dx, fd_grad(lambda v: np.sum(f(v, w, b) * up), x)) < 1e-6
        assert max_rel(dw, fd_grad(lambda v: np.sum(f(x, v, b) * up), w)) < 1e-6
        assert max_rel(db, fd_grad(lambda v: np.sum(f(x, w, v) * up), b)) < 1e-6

    def test_conv3x3_vjp_fd(self):
        prng = Prng(23)
        x = prng.normals(2 * 3 * 4 * 4).reshape(2, 3, 4, 4)
        w = prng.normals(2 * 3 * 9).reshape(2, 3, 3, 3)
        b = prng.normals(2)
        up = prng.normals(2 * 2 * 4 * 4).reshape(2, 2, 4, 4)
        dx, dw, db = ops.conv2d_3x3_same_vjp(x, w, b, up)
        f = ops.conv2d_3x3_same
        assert max_rel(dx, fd_grad(lambda v: np.sum(f(v, w, b) * up), x)) < 1e-6
        assert max_rel(dw, fd_grad(lambda v: np.sum(f(x, v, b) * up), w)) < 1e-6
        assert max_rel(db, fd_grad(lambda v: np.sum(f(x, w, v) * up), b)) < 1e-6

    def test_conv_vjps_are_adjoint_at_larger_shapes(self):
        # with zero bias a conv is bilinear in (X, W), so for any upstream U
        # <conv(X; W), U> = <X, dX(U)> = <W, dW(U)>
        prng = Prng(29)
        x = prng.normals(5 * 32 * 7 * 5).reshape(5, 32, 7, 5)
        up = prng.normals(x.size).reshape(x.shape)
        bias = np.zeros(32)
        for conv, conv_vjp, w_shape in (
            (ops.conv2d_1x1, ops.conv2d_1x1_vjp, (32, 32)),
            (ops.conv2d_3x3_same, ops.conv2d_3x3_same_vjp, (32, 32, 3, 3)),
        ):
            w = prng.normals(math.prod(w_shape)).reshape(w_shape)
            dx, dw, _ = conv_vjp(x, w, bias, up)
            forward = np.sum(conv(x, w, bias) * up)
            for adjoint in (np.sum(x * dx), np.sum(w * dw)):
                assert abs(adjoint - forward) <= 1e-12 * abs(forward)

    def test_softmax_vjp_fd(self):
        prng = Prng(24)
        s = prng.normals(20).reshape(4, 5)
        up = prng.normals(20).reshape(4, 5)
        (ds,) = ops.softmax_rows_vjp(s, False, up)
        assert max_rel(ds, fd_grad(lambda v: np.sum(ops.softmax_rows(v) * up), s)) < 1e-6

    def test_softmax_vjp_masked_fd_and_zero_diag(self):
        prng = Prng(25)
        s = prng.normals(16).reshape(4, 4)
        up = prng.normals(16).reshape(4, 4)
        (ds,) = ops.softmax_rows_vjp(s, True, up)
        assert np.array_equal(np.diag(ds), np.zeros(4))
        num = fd_grad(lambda v: np.sum(ops.softmax_rows(v, True) * up), s)
        assert max_rel(ds, num) < 1e-6

    def test_relu_vjp_fd_and_zero_subgradient(self):
        prng = Prng(26)
        x = prng.normals(3 * 4 * 5 * 5).reshape(3, 4, 5, 5)
        up = prng.normals(x.size).reshape(x.shape)
        (dx,) = ops.relu_vjp(x, up)
        assert max_rel(dx, fd_grad(lambda v: np.sum(ops.relu(v) * up), x)) < 1e-6
        (at_zero,) = ops.relu_vjp(np.zeros((1, 1)), np.ones((1, 1)))
        assert at_zero[0, 0] == 0.0

    def test_pool_tile_concat_vjp_fd(self):
        prng = Prng(27)
        x = prng.normals(3 * 4 * 5 * 5).reshape(3, 4, 5, 5)
        up2 = prng.normals(12).reshape(3, 4)
        (dx,) = ops.global_avg_pool_vjp(x, up2)
        assert max_rel(dx, fd_grad(lambda v: np.sum(ops.global_avg_pool(v) * up2), x)) < 1e-6

        v = prng.normals(6).reshape(2, 3)
        up4 = prng.normals(2 * 3 * 2 * 2).reshape(2, 3, 2, 2)
        (dv,) = ops.tile_spatial_vjp(v, 2, 2, up4)
        assert max_rel(dv, fd_grad(lambda t: np.sum(ops.tile_spatial(t, 2, 2) * up4), v)) < 1e-6

        t = prng.normals(3 * 2 * 5 * 5).reshape(3, 2, 5, 5)
        upc = prng.normals(3 * 6 * 5 * 5).reshape(3, 6, 5, 5)
        dxc, dtc = ops.concat_channels_vjp(x, t, upc)
        assert max_rel(dxc, fd_grad(lambda u: np.sum(ops.concat_channels(u, t) * upc), x)) < 1e-6
        assert max_rel(dtc, fd_grad(lambda u: np.sum(ops.concat_channels(x, u) * upc), t)) < 1e-6

    def test_dispatcher_routes_every_op(self):
        prng = Prng(28)
        a = prng.normals(6).reshape(2, 3)
        b = prng.normals(6).reshape(3, 2)
        up = prng.normals(4).reshape(2, 2)
        direct = ops.matmul_vjp(a, b, up)
        routed = ops.vjp("matmul", (a, b), up)
        assert all(np.array_equal(d, r) for d, r in zip(direct, routed))

        x = prng.normals(8).reshape(1, 2, 2, 2)
        w = prng.normals(4).reshape(2, 2)
        bias = prng.normals(2)
        up4 = prng.normals(8).reshape(1, 2, 2, 2)
        assert len(ops.vjp("conv2d_1x1", (x, w, bias), up4)) == 3

        with pytest.raises(ValueError):
            ops.vjp("not_an_op", (), np.zeros(1))

    def test_vjp_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ops.matmul_vjp(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(DimensionError):
            ops.relu_vjp(np.zeros(3), np.zeros(4))


class TestDeterminism:
    def test_repeated_evaluation_bitwise(self):
        prng = Prng(30)
        a = prng.normals(30).reshape(5, 6)
        b = prng.normals(24).reshape(6, 4)
        first = ops.matmul(a, b)
        for _ in range(5):
            assert np.array_equal(ops.matmul(a, b), first)

    def test_sorted_row_sum_is_permutation_invariant(self):
        prng = Prng(31)
        m = prng.normals(40).reshape(4, 10)
        base = ops.sum_ascending_values(m)
        for _ in range(20):
            perm = prng.sample_indices(10, 10)
            assert np.array_equal(ops.sum_ascending_values(m[:, perm]), base)
