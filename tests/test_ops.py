"""Primitive operations against hand values and brute-force oracles.

The oracles here are written independently of the library: a scalar
triple loop for matmul, a six-nested loop for the 3x3 convolution, and
central finite differences for every backward pass.
"""

import functools
import math

import numpy as np
import pytest

from nlroi import ops
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


# (batch, m, k, n) of A (batch, m, k) and B (batch, k, n): stacks on both sides
# of ops._PRODUCT_STACK_VALUES with inner length >= 9, lone and stacked 1x1,
# m x 1 and 1 x n products, and zero-size stacks
MATMUL_SHAPES = [
    ((), 5, 7, 3),
    ((), 8, 36, 8),  # one toy scene's scores: under the budget
    ((8,), 8, 36, 8),  # a toy training step's: under
    ((20,), 8, 36, 8),  # a toy evaluation chunk's: over
    ((), 32, 32, 32),  # exactly the budget
    ((), 32, 33, 32),  # just over
    ((), 1, 9, 1),
    ((), 1, 100, 1),
    ((1,), 1, 40, 1),
    ((4,), 1, 9, 1),
    ((3,), 1, 40, 1),
    ((), 6, 9, 1),
    ((), 1, 9, 6),
    ((3,), 6, 12, 1),
    ((3,), 1, 12, 6),
    ((2, 3), 4, 10, 5),
    ((0,), 2, 9, 4),
    ((3,), 0, 9, 4),
    ((3,), 2, 0, 4),
    ((), 2, 9, 0),
]


def stack_oracle(a, b):
    """``matmul_oracle`` on each matrix of a stack."""
    batch, (m, k), n = a.shape[:-2], a.shape[-2:], b.shape[-1]
    count = math.prod(batch)
    out = np.zeros((count, m, n))
    for s, (x, y) in enumerate(zip(a.reshape(count, m, k), b.reshape(count, k, n))):
        out[s] = matmul_oracle(x, y)
    return out.reshape(batch + (m, n))


def spread_normals(prng, shape):
    """Normals scaled by powers of ten from 1e-8 to 1e7, so that the order of
    a sum shows in its bits."""
    size = math.prod(shape)
    scale = 10.0 ** np.floor(prng.uniforms(size) * 16 - 8)
    return (prng.normals(size) * scale).reshape(shape)


def with_specials(prng, x, specials):
    """A copy of ``x`` with about a fifth of its entries drawn from ``specials``."""
    out = x.copy()
    flat = out.reshape(-1)
    picks = np.flatnonzero(prng.uniforms(flat.size) < 0.2)
    flat[picks] = np.asarray(specials)[(prng.uniforms(picks.size) * len(specials)).astype(int)]
    return out


class TestMatmul:
    def test_identity(self):
        b = np.array([[3.0, 1.0], [2.0, 4.0]])
        assert np.array_equal(ops.matmul(np.eye(2), b), b)

    def test_direct_arithmetic(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0], [1.0]])
        assert np.array_equal(ops.matmul(a, b), [[3.0], [7.0]])

    def test_against_triple_loop_oracle(self):
        """Ascending-index accumulation must equal the scalar loop bit for bit,
        with B contiguous or the transposed view the score passes."""
        prng = Prng(100)
        for _ in range(20):
            a = prng.normals(35).reshape(5, 7)
            b = prng.normals(21).reshape(7, 3)
            assert np.array_equal(ops.matmul(a, b), matmul_oracle(a, b))
        for batch, m, k, n in MATMUL_SHAPES:
            a = spread_normals(prng, batch + (m, k))
            b = spread_normals(prng, batch + (k, n))
            want = stack_oracle(a, b).tobytes()
            b_view = np.ascontiguousarray(np.swapaxes(b, -1, -2)).swapaxes(-1, -2)
            assert ops.matmul(a, b).tobytes() == want, (batch, m, k, n)
            assert ops.matmul(a, b_view).tobytes() == want, (batch, m, k, n)
        stacked = [
            k * math.prod(batch) * m * n <= ops._PRODUCT_STACK_VALUES
            for batch, m, k, n in MATMUL_SHAPES
            if k >= 9 and math.prod(batch) * m * n > 1
        ]
        assert any(stacked) and not all(stacked)  # the shapes take both paths

    def test_inf_and_nan_entries_bytes(self, monkeypatch):
        """Infinities, overflow and NaN give the oracle's bytes when every NaN
        is the one that arithmetic makes (inf - inf). A NaN of the other sign
        in A alone (no product of two NaNs) gives the loop's bytes. A lone
        1x1 product's running sum overflows to inf and stays there, where a
        pairwise sum would read NaN."""
        made_nan = np.inf - np.inf
        specials = [np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0, made_nan]
        prng = Prng(103)
        cases = []
        for batch, m, k, n in MATMUL_SHAPES:
            a = with_specials(prng, spread_normals(prng, batch + (m, k)), specials)
            b = with_specials(prng, spread_normals(prng, batch + (k, n)), specials)
            a_nan = with_specials(prng, a, [np.nan])
            b_no_nan = np.where(np.isnan(b), 1.0, b)
            cases.append(((batch, m, k, n), a, b, a_nan, b_no_nan))
        overflow = np.array([[1e308, 1e308, -1e308, -1e308] * 2])
        with np.errstate(all="ignore"):
            assert ops.matmul(overflow, np.ones((8, 1)))[0, 0] == np.inf
            assert ops.matmul(overflow[None], np.ones((1, 8, 1)))[0, 0, 0] == np.inf
            outputs = []
            for shape, a, b, a_nan, b_no_nan in cases:
                assert ops.matmul(a, b).tobytes() == stack_oracle(a, b).tobytes(), shape
                outputs.append(ops.matmul(a_nan, b_no_nan).tobytes())
            monkeypatch.setattr(ops, "_PRODUCT_STACK_VALUES", 0)  # every shape on the loop
            for got, (shape, _, _, a_nan, b_no_nan) in zip(outputs, cases):
                assert got == ops.matmul(a_nan, b_no_nan).tobytes(), shape

    def test_stack_equals_each_matrix_alone_bitwise(self):
        prng = Prng(101)
        for batch, m, k, n in MATMUL_SHAPES:
            a = spread_normals(prng, batch + (m, k))
            b = spread_normals(prng, batch + (k, n))
            stacked = ops.matmul(a, b)
            assert stacked.shape == batch + (m, n)
            for s in np.ndindex(batch):
                assert stacked[s].tobytes() == ops.matmul(a[s], b[s]).tobytes(), (batch, m, k, n)


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

    def test_no_bias_gives_the_bytes_of_a_zero_bias(self):
        prng = Prng(13)
        for n, cin, cout, h, w in ((8, 16, 4, 3, 3), (5, 64, 16, 7, 7), (0, 3, 2, 2, 2)):
            x = prng.normals(n * cin * h * w).reshape(n, cin, h, w)
            wt = prng.normals(cout * cin).reshape(cout, cin)
            # zero weights meet negative inputs: every product is -0.0
            wt[0] = 0.0
            x[:, :, 0, 0] = -np.abs(x[:, :, 0, 0])
            want = ops.conv2d_1x1(x, wt, np.zeros(cout))
            assert ops.conv2d_1x1(x, wt, None).tobytes() == want.tobytes()


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

    def test_tap_mask_is_built_once_per_shape_and_read_only(self):
        for h, wd in ((1, 1), (2, 3), (3, 5), (7, 7)):
            want = np.zeros((9, h * wd))
            for ki in range(3):
                for kj in range(3):
                    for r in range(h):
                        for c in range(wd):
                            # output (r - ki + 1, c - kj + 1) reads input (r, c) by this tap
                            if 0 <= r - ki + 1 < h and 0 <= c - kj + 1 < wd:
                                want[3 * ki + kj, r * wd + c] = 1.0
            reads = ops._tap_reads(h, wd)
            assert np.array_equal(reads, want), (h, wd)
            assert ops._tap_reads(h, wd) is reads
            with pytest.raises(ValueError):
                reads[0, 0] = 2.0


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
            stacked = ops.softmax_rows(s.copy(), mask_diagonal=mask)
            for k in range(5):
                alone = ops.softmax_rows(s[k].copy(), mask_diagonal=mask)
                assert stacked[k].tobytes() == alone.tobytes()

    def test_overwrites_its_input(self):
        s = np.array([[0.0, 0.0], [math.log(3.0), 0.0]])
        assert ops.softmax_rows(s) is s
        assert np.array_equal(s[0], [0.5, 0.5])

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

    def test_tile_broadcast(self):
        out = ops.tile_spatial(np.array([[7.0]]), 2, 2)
        assert np.array_equal(out, np.full((1, 1, 2, 2), 7.0))

    def test_tile_equals_broadcast_copy_bitwise(self):
        prng = Prng(14)
        for n, c, h, w in ((1, 1, 1, 1), (3, 4, 2, 5), (8, 16, 3, 3), (0, 2, 4, 4)):
            v = prng.normals(n * c).reshape(n, c)
            want = np.broadcast_to(v[:, :, None, None], (n, c, h, w)).copy()
            assert ops.tile_spatial(v, h, w).tobytes() == want.tobytes()

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

    def test_concat_broadcasts_a_unit_extent_bitwise(self):
        prng = Prng(15)
        for n, d, c, h, w in ((8, 16, 4, 3, 3), (3, 2, 5, 1, 4), (2, 3, 0, 2, 2),
                              (2, 0, 3, 2, 2), (0, 16, 4, 3, 3)):
            x = prng.normals(n * d * h * w).reshape(n, d, h, w)
            v = prng.normals(n * c).reshape(n, c)
            want = np.concatenate([x, ops.tile_spatial(v, h, w)], axis=1)
            got = ops.concat_channels(x, v[:, :, None, None])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_concat_prefix_restriction(self):
        prng = Prng(11)
        x = prng.normals(2 * 3 * 2 * 2).reshape(2, 3, 2, 2)
        t = prng.normals(2 * 2 * 2 * 2).reshape(2, 2, 2, 2)
        assert np.array_equal(ops.concat_channels(x, t)[:, :3], x)


class TestVjps:
    """Every backward contract against the finite-difference oracle, plus
    the hand-checkable identity cases."""

    def test_conv1x1_vjp_fd(self):
        prng = Prng(22)
        x = prng.normals(3 * 4 * 5 * 5).reshape(3, 4, 5, 5)
        w = prng.normals(2 * 4).reshape(2, 4)
        b = prng.normals(2)
        up = prng.normals(3 * 2 * 5 * 5).reshape(3, 2, 5, 5)
        dx, dw, db = ops.conv2d_1x1_vjp(x, w, up, np.array([2, 0, 1]))
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
        dx, dw, db = ops.conv2d_3x3_pooled_vjp(x, w, up)
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
        conv1x1_vjp = functools.partial(ops.conv2d_1x1_vjp, order=np.array([3, 1, 4, 0, 2]))
        for conv, conv_vjp, w_shape, upstream in (
            (ops.conv2d_1x1, conv1x1_vjp, (32, 32), up),
            (ops.conv2d_3x3_pooled, ops.conv2d_3x3_pooled_vjp, (32, 32, 3, 3), up[:, :, 0, 0]),
        ):
            w = prng.normals(math.prod(w_shape)).reshape(w_shape)
            dx, dw, _ = conv_vjp(x, w, upstream)
            forward = np.sum(conv(x, w, bias) * upstream)
            for adjoint in (np.sum(x * dx), np.sum(w * dw)):
                assert abs(adjoint - forward) <= 1e-12 * abs(forward)

    def test_conv1x1_vjp_of_stacked_weights_is_the_stack_of_vjps(self):
        """The operator's one VJP for phi, psi and g1: with the weights and
        upstreams stacked by rows, dX is the sum of the three dXs and dW, db
        are their stacks. Toy widths, paper widths and no RoIs, each summed
        in a reversed order."""

        def scaled(a, b):
            """Largest difference relative to the largest magnitude of b."""
            if b.size == 0:
                return 0.0
            return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))

        cases = ((8, 16, (4, 4, 4), 3), (5, 256, (64, 64, 64), 7), (0, 16, (4, 4, 3), 3))
        for n, cin, couts, hw in cases:
            prng = Prng(26 + n)
            x = prng.normals(n * cin * hw * hw).reshape(n, cin, hw, hw)
            ws = [prng.normals(c * cin).reshape(c, cin) for c in couts]
            ups = [prng.normals(n * c * hw * hw).reshape(n, c, hw, hw) for c in couts]
            order = np.arange(n)[::-1]
            dx, dw, db = ops.conv2d_1x1_vjp(
                x, np.concatenate(ws), np.concatenate(ups, axis=1), order
            )
            parts = [ops.conv2d_1x1_vjp(x, w, up, order) for w, up in zip(ws, ups)]
            assert dx.shape == x.shape and dw.shape == (sum(couts), cin) and db.shape == (sum(couts),)
            assert scaled(dx, sum(p[0] for p in parts)) <= 1e-12
            assert scaled(dw, np.concatenate([p[1] for p in parts])) <= 1e-12
            assert scaled(db, np.concatenate([p[2] for p in parts])) <= 1e-12
            if n == 0:
                assert not np.any(dw) and not np.any(db)

    def test_conv1x1_vjp_dw_in_chunks_matches_one_gemm(self, monkeypatch):
        """dW and db sum over the RoIs in the order given, in chunks of
        consecutive entries of it. Where one chunk holds every RoI (the toy
        and large_n stacks) they are bitwise one GEMM over the columns in
        that order, and the row sums of its upstream columns; with 3-RoI
        chunks of 7 they are bitwise a sum from zero of one such GEMM per
        chunk, so relabeling the RoIs, with the order relabeled too, moves
        no bit. paper_scale's stack (20 RoIs a chunk) matches one GEMM to
        1e-12."""

        def one_gemm(x, d_out, rois):
            n, cin, h, wd = x.shape
            g_cols = d_out[rois].transpose(1, 0, 2, 3).reshape(-1, len(rois) * h * wd)
            x_cols = x[rois].transpose(1, 0, 2, 3).reshape(cin, len(rois) * h * wd)
            return g_cols @ x_cols.T, np.add.reduce(g_cols, axis=1)

        def case(n, cin, cout, hw, seed):
            prng = Prng(seed)
            x = prng.normals(n * cin * hw * hw).reshape(n, cin, hw, hw)
            w = prng.normals(cout * cin).reshape(cout, cin)
            up = prng.normals(n * cout * hw * hw).reshape(n, cout, hw, hw)
            order = np.array(prng.sample_indices(n, n))
            return x, w, up, order

        def grads(x, w, up, order):
            return ops.conv2d_1x1_vjp(x, w, up, order)[1:]

        for n, cin, cout, hw in ((64, 16, 12, 3), (1024, 8, 12, 4)):
            assert n * cin * hw * hw <= ops._DW_CHUNK_VALUES
            x, w, up, order = case(n, cin, cout, hw, 40 + n)
            for got, want in zip(grads(x, w, up, order), one_gemm(x, up, order)):
                assert got.tobytes() == want.tobytes(), (n, cin)

        assert 128 * 256 * 49 > ops._DW_CHUNK_VALUES
        x, w, up, order = case(128, 256, 192, 7, 41)
        for got, want in zip(grads(x, w, up, order), one_gemm(x, up, order)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        monkeypatch.setattr(ops, "_DW_CHUNK_VALUES", 3 * 5 * 9)
        x, w, up, order = case(7, 5, 4, 3, 42)
        want_dw, want_db = np.zeros((4, 5)), np.zeros(4)
        for a in range(0, 7, 3):
            dw, db = one_gemm(x, up, order[a : a + 3])
            want_dw += dw
            want_db += db
        pi = np.array(Prng(43).sample_indices(7, 7))
        relabeled = np.argsort(pi)[order]  # the same RoIs, now at rows pi^-1
        for got in grads(x, w, up, order), grads(x[pi], w, up[pi], relabeled):
            assert got[0].tobytes() == want_dw.tobytes()
            assert got[1].tobytes() == want_db.tobytes()

    def test_softmax_vjp_fd(self):
        prng = Prng(24)
        s = prng.normals(20).reshape(4, 5)
        up = prng.normals(20).reshape(4, 5)
        ds = ops.softmax_vjp_from_probs(ops.softmax_rows(s.copy()), up.copy())
        assert max_rel(ds, fd_grad(lambda v: np.sum(ops.softmax_rows(v) * up), s)) < 1e-6

    def test_softmax_vjp_in_place_on_row_blocks_bitwise(self):
        prng = Prng(27)
        s = prng.normals(2 * 9 * 9).reshape(2, 9, 9)
        p = ops.softmax_rows(s, True)
        up = prng.normals(s.size).reshape(s.shape)
        whole = ops.softmax_vjp_from_probs(p, up.copy())
        for first in range(0, 9, 4):
            block = up[:, first : first + 4]
            assert ops.softmax_vjp_from_probs(p[:, first : first + 4], block) is block
        assert up.tobytes() == whole.tobytes()

    def test_softmax_vjp_masked_fd_and_zero_diag(self):
        prng = Prng(25)
        s = prng.normals(16).reshape(4, 4)
        up = prng.normals(16).reshape(4, 4)
        ds = ops.softmax_vjp_from_probs(ops.softmax_rows(s.copy(), True), up.copy())
        assert np.array_equal(np.diag(ds), np.zeros(4))
        num = fd_grad(lambda v: np.sum(ops.softmax_rows(v, True) * up), s)
        assert max_rel(ds, num) < 1e-6

    def test_relu_vjp_fd_and_zero_subgradient(self):
        prng = Prng(26)
        x = prng.normals(3 * 4 * 5 * 5).reshape(3, 4, 5, 5)
        up = prng.normals(x.size).reshape(x.shape)
        dx = ops.relu_vjp(x, up)
        assert max_rel(dx, fd_grad(lambda v: np.sum(ops.relu(v) * up), x)) < 1e-6
        at_zero = ops.relu_vjp(np.zeros((1, 1)), np.ones((1, 1)))
        assert at_zero[0, 0] == 0.0

    def test_pool_tile_concat_vjp_fd(self):
        prng = Prng(27)
        x = prng.normals(3 * 4 * 5 * 5).reshape(3, 4, 5, 5)
        up2 = prng.normals(12).reshape(3, 4)
        # the toy head's pool gradient: the upstream spread evenly over H x W
        dx = ops.tile_spatial(up2 / 25, 5, 5)
        assert max_rel(dx, fd_grad(lambda v: np.sum(np.mean(v, axis=(2, 3)) * up2), x)) < 1e-6

        v = prng.normals(6).reshape(2, 3)
        up4 = prng.normals(2 * 3 * 2 * 2).reshape(2, 3, 2, 2)
        dv = ops.tile_spatial_vjp(up4)
        assert max_rel(dv, fd_grad(lambda t: np.sum(ops.tile_spatial(t, 2, 2) * up4), v)) < 1e-6

        t = prng.normals(3 * 2 * 5 * 5).reshape(3, 2, 5, 5)
        upc = prng.normals(3 * 6 * 5 * 5).reshape(3, 6, 5, 5)
        dxc, dtc = ops.concat_channels_vjp(x, upc)
        assert max_rel(dxc, fd_grad(lambda u: np.sum(ops.concat_channels(u, t) * upc), x)) < 1e-6
        assert max_rel(dtc, fd_grad(lambda u: np.sum(ops.concat_channels(x, u) * upc), t)) < 1e-6


class TestDeterminism:
    def test_repeated_evaluation_bitwise(self):
        prng = Prng(30)
        a = prng.normals(30).reshape(5, 6)
        b = prng.normals(24).reshape(6, 4)
        first = ops.matmul(a, b)
        for _ in range(5):
            assert np.array_equal(ops.matmul(a, b), first)
