"""Primitive operations against hand values and brute-force oracles.

The oracles here are written independently of the library: a scalar
triple loop for matmul, a six-nested loop for the 3x3 convolution, and
central finite differences for every backward pass.
"""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import nlroi
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
        with pytest.raises(DimensionError):
            ops.matmul(np.zeros((2, 2, 3)), np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            ops.matmul(np.zeros((2, 2, 3)), np.zeros((1, 3, 2)))

    def test_stack_equals_each_matrix_alone_bitwise(self):
        prng = Prng(101)
        a = prng.normals(4 * 5 * 7).reshape(4, 5, 7)
        b = prng.normals(4 * 7 * 3).reshape(4, 7, 3)
        stacked = ops.matmul(a, b)
        for k in range(4):
            assert stacked[k].tobytes() == ops.matmul(a[k], b[k]).tobytes()
        assert ops.matmul(np.zeros((0, 2, 3)), np.zeros((0, 3, 4))).shape == (0, 2, 4)


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


class TestConv3x3Pooled:
    def test_center_only_kernel_gives_channel_means(self):
        # integer map on 4x4, so every term /16 and the mean are exact
        x = np.arange(3 * 2 * 4 * 4, dtype=np.float64).reshape(3, 2, 4, 4) % 7 - 3
        w = np.zeros((2, 2, 3, 3))
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        out = ops.conv2d_3x3_pooled(x, w, np.zeros(2))
        assert np.array_equal(out, x.mean(axis=(2, 3)))

    def test_padding_counts(self):
        # all-ones kernel over a constant 4x4 map: the 16 outputs see 4 taps
        # at the 4 corners, 6 at the 8 edge positions, 9 at the 4 interior
        c = 1.75
        x = np.full((1, 1, 4, 4), c)
        out = ops.conv2d_3x3_pooled(x, np.ones((1, 1, 3, 3)), np.zeros(1))
        assert out[0, 0] == (4 * 4 + 8 * 6 + 4 * 9) / 16 * c

    def test_against_six_loop_conv_then_mean(self):
        prng = Prng(3)
        for h, wd in ((1, 1), (1, 5), (4, 1), (3, 5), (5, 2), (7, 7)):
            x = prng.normals(3 * 2 * h * wd).reshape(3, 2, h, wd)
            w = prng.normals(4 * 2 * 3 * 3).reshape(4, 2, 3, 3)
            b = prng.normals(4)
            want = conv3x3_oracle(x, w, b).mean(axis=(2, 3))
            got = ops.conv2d_3x3_pooled(x, w, b)
            assert got.shape == (3, 4)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (h, wd)

    def test_batch_equals_each_roi_alone_bitwise(self):
        prng = Prng(13)
        x = prng.normals(37 * 64 * 7 * 7).reshape(37, 64, 7, 7)
        w = prng.normals(16 * 64 * 9).reshape(16, 64, 3, 3)
        b = prng.normals(16)
        alone = np.concatenate([ops.conv2d_3x3_pooled(x[i : i + 1], w, b) for i in range(37)])
        assert np.array_equal(ops.conv2d_3x3_pooled(x, w, b), alone)

    def test_weight_shape_checked(self):
        with pytest.raises(DimensionError):
            ops.conv2d_3x3_pooled(np.zeros((1, 2, 4, 4)), np.zeros((3, 2, 5, 5)), np.zeros(3))

    def test_rejects_empty_extent(self):
        with pytest.raises(DimensionError):
            ops.conv2d_3x3_pooled(np.zeros((1, 2, 0, 4)), np.zeros((3, 2, 3, 3)), np.zeros(3))


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

    def test_stack_equals_each_matrix_alone_bitwise(self):
        prng = Prng(6)
        s = prng.normals(5 * 4 * 4).reshape(5, 4, 4) * 30.0
        for mask in (False, True):
            stacked = ops.softmax_rows(s, mask_diagonal=mask)
            for k in range(5):
                alone = ops.softmax_rows(s[k], mask_diagonal=mask)
                assert stacked[k].tobytes() == alone.tobytes()
        with pytest.raises(DegenerateAttentionError):
            ops.softmax_rows(np.zeros((3, 1, 1)), mask_diagonal=True)

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

    def test_tile_equals_broadcast_copy_bitwise(self):
        prng = Prng(14)
        for n, c, h, w in ((1, 1, 1, 1), (3, 4, 2, 5), (8, 16, 3, 3), (0, 2, 4, 4)):
            v = prng.normals(n * c).reshape(n, c)
            want = np.broadcast_to(v[:, :, None, None], (n, c, h, w)).copy()
            assert ops.tile_spatial(v, h, w).tobytes() == want.tobytes()
            (spread,) = ops.global_avg_pool_vjp(np.zeros((n, c, h, w)), v)
            want = np.broadcast_to((v / (h * w))[:, :, None, None], (n, c, h, w)).copy()
            assert spread.tobytes() == want.tobytes()

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

    def test_conv3x3_pooled_vjp_fd(self):
        prng = Prng(23)
        x = prng.normals(2 * 3 * 4 * 5).reshape(2, 3, 4, 5)
        w = prng.normals(2 * 3 * 9).reshape(2, 3, 3, 3)
        b = prng.normals(2)
        up = prng.normals(2 * 2).reshape(2, 2)
        dx, dw, db = ops.conv2d_3x3_pooled_vjp(x, w, b, up)
        f = ops.conv2d_3x3_pooled
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
        for conv, conv_vjp, w_shape, upstream in (
            (ops.conv2d_1x1, ops.conv2d_1x1_vjp, (32, 32), up),
            (ops.conv2d_3x3_pooled, ops.conv2d_3x3_pooled_vjp, (32, 32, 3, 3), up[:, :, 0, 0]),
        ):
            w = prng.normals(math.prod(w_shape)).reshape(w_shape)
            dx, dw, _ = conv_vjp(x, w, bias, upstream)
            forward = np.sum(conv(x, w, bias) * upstream)
            for adjoint in (np.sum(x * dx), np.sum(w * dw)):
                assert abs(adjoint - forward) <= 1e-12 * abs(forward)

    def test_softmax_vjp_fd(self):
        prng = Prng(24)
        s = prng.normals(20).reshape(4, 5)
        up = prng.normals(20).reshape(4, 5)
        ds = ops.softmax_vjp_from_probs(ops.softmax_rows(s), up)
        assert max_rel(ds, fd_grad(lambda v: np.sum(ops.softmax_rows(v) * up), s)) < 1e-6

    def test_softmax_vjp_masked_fd_and_zero_diag(self):
        prng = Prng(25)
        s = prng.normals(16).reshape(4, 4)
        up = prng.normals(16).reshape(4, 4)
        ds = ops.softmax_vjp_from_probs(ops.softmax_rows(s, True), up)
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


def test_every_public_op_is_used_by_the_package():
    """An op that only tests call is dead code: each public function of
    ``ops`` must be named somewhere in the package outside its own body."""
    public = {
        name for name, fn in vars(ops).items()
        if inspect.isfunction(fn) and fn.__module__ == ops.__name__ and not name.startswith("_")
    }
    used = set()
    for path in Path(nlroi.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    used.add(name)
    assert sorted(public - used) == []
