"""Primitive tensor operations and their vector-Jacobian products.

The operations take C-contiguous float64 arrays of consistent shapes and
check none of it: the operator checks its inputs once, at its entries, and
builds every other argument itself (so does ``toytask``), values too: it
rejects a masked image of one RoI, whose softmax row has no entry left.
``matmul``'s loop (below) copies its operands to C order,
since it reads B by rows while the score's B is a transposed view: left
strided, B took the loop from 198 to 324 ms at large_n's shape (N = 1024,
64 inner steps) and from 108 to 148 ms at paper_scale's (N = 128, 3136);
its one product temporary starts on a 64-byte boundary, which took
large_n's score from about 125 to 105 ms against an unaligned one; min of
5 on a 2-vCPU Xeon. Every operation is a pure function of its
inputs, except that the softmax and its VJP overwrite theirs (below). What
the operations guarantee about their bits, given N RoIs along the leading
axis:

* The channel stages compute each RoI separately: ``conv2d_1x1`` and
  ``conv2d_3x3_pooled`` (a 3x3 conv folded with the global average pool
  that follows it) each make one identical BLAS call per RoI, and so does
  the input gradient of ``conv2d_1x1_vjp``. An RoI's bits there do not
  depend on where it sits in the batch. The input gradient of
  ``conv2d_3x3_pooled_vjp`` is one product over all RoIs, whose rows can
  round differently by position; the operator calls it in canonical order.
* ``matmul`` adds each output's products from a zero in ascending inner
  index, so a score depends only on its own pair of rows, whichever of
  two paths computes it. A product stack of at most
  ``_PRODUCT_STACK_VALUES`` values (inner length K times output entries:
  a toy scene's or training step's scores, never a toy evaluation chunk's
  or a ``bench`` sweep shape's) is written by one multiply, K leading, and
  summed by one ``np.add.reduce`` over K, which NumPy adds in ascending
  order when another axis of length >= 2 is left for its inner loop. A
  product with a single output entry (a lone 1x1 matrix, or a stack of
  one) leaves none, and NumPy would sum its lone axis pairwise: other bits
  from K = 8 on, and NaN where the loop overflows to inf. That product,
  like every larger stack, takes the loop: one multiply and one add per
  inner index. The paths differ only where both factors of one product
  are NaN, as NumPy's multiply kernels do not fix which NaN the product
  keeps; the operator rejects a non-finite score, so no score shows this.
  ``matmul`` serves only the operator's score (``operator._scores``); the
  toy head gets the same row guarantee from one BLAS call per row.
  ``softmax_rows`` sums each row with a NumPy sum, whose bits depend on the
  order of the row's entries; the operator makes that order canonical (see
  ``operator``), so no op here sorts values.
* ``matmul`` and ``softmax_rows`` also take a stack of matrices with a
  leading batch axis. Each matrix of the stack gets exactly the
  operations it would get alone, so its bits do not depend on the others.
* ``softmax_rows`` and ``softmax_vjp_from_probs`` compute each row on its
  own, in place: ``softmax_rows`` overwrites its scores and
  ``softmax_vjp_from_probs`` its upstream, which the operator's backward
  passes one block of rows at a time; neither makes an N x N temporary.

All operations are deterministic run to run on one machine with one
NumPy/BLAS build and one BLAS thread count. OpenBLAS splits a product over
its threads by the operands' sizes, so the thread count can move any
result's bits (at paper widths and 128 RoIs only the weight gradient of
``conv2d_1x1_vjp``; the README lists other shapes). The VJPs contract with
BLAS (``@``; the softmax VJP's row dot too, one BLAS dot per row) and sum
with ``ufunc.reduce`` (the bits of ``np.sum`` and ``np.max``, without
their Python wrappers). Sums over RoIs (the weight and bias gradients)
take the RoIs in the order given, as reordering them can change their
last bits (a BLAS reduction's order follows the operands' sizes and the
blocking): ``conv2d_1x1_vjp`` sums in the ``order`` it is passed, the
pooled 3x3 VJP in row order. The operator gives both its canonical order,
so no relabeling of the RoIs moves a parameter gradient.

A VJP result may be a view of its upstream gradient (``concat_channels_vjp``
returns the two channel slices of ``d_out``), so a caller that writes into
a result writes into the upstream too. ``conv2d_1x1_vjp`` returns dX as a
fresh array, never a view: the operator adds the pass-through into it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Values of X per chunk of the 1x1 VJP's weight gradient (2 MB of float64)
_DW_CHUNK_VALUES = 1 << 18

# Most products (inner length times output entries) that ``matmul`` writes in
# one multiply (256 KB of float64); larger stacks take its loop
_PRODUCT_STACK_VALUES = 1 << 15


def _aligned_empty(shape: tuple) -> np.ndarray:
    """An uninitialized float64 array whose data starts on a 64-byte boundary."""
    count = math.prod(shape)
    raw = np.empty(count + 8)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip : skip + count].reshape(shape)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[i,j] = sum_p A[i,p] * B[p,j], accumulated in ascending p.

    Takes two matrices, or two stacks (B, m, k) and (B, k, n) multiplied
    pairwise. Every output element gets the same sequence of operations in
    either form and on either path (see the module docstring), and depends
    only on its own row of A and column of B.
    """
    k = a.shape[-1]
    shape = a.shape[:-1] + b.shape[-1:]
    size = math.prod(shape)
    stacked = 1 < size and k * size <= _PRODUCT_STACK_VALUES
    if not stacked:
        # copies for the loop's reads, not conversions (see the module docstring)
        a = np.ascontiguousarray(a)
        b = np.ascontiguousarray(b)
    batch = tuple(range(a.ndim - 2))
    # a_cols[p] is column p of A as (..., m, 1), b_rows[p] row p of B as (..., 1, n)
    a_cols = a.transpose((a.ndim - 1,) + batch + (a.ndim - 2,))[..., None]
    b_rows = b.transpose((b.ndim - 2,) + batch + (b.ndim - 1,))[..., None, :]
    if stacked:
        products = np.empty((k,) + shape)
        np.multiply(a_cols, b_rows, out=products)
        # start from +0.0 as the loop does, whatever start a NumPy version picks
        return np.add.reduce(products, axis=0, initial=0.0)
    out = np.zeros(shape)
    product = _aligned_empty(shape)
    for p in range(k):
        np.multiply(a_cols[p], b_rows[p], out=product)
        out += product
    return out


def conv2d_1x1(x: np.ndarray, w: np.ndarray, b) -> np.ndarray:
    """Pointwise convolution: out[n,o,h,w] = b[o] + sum_c W[o,c] * X[n,c,h,w].

    One GEMM per RoI, W @ X[n] over the flattened positions, then the bias.
    Every RoI gets an identical BLAS call, so its output bits do not depend
    on where it sits in the batch. ``b`` None means no bias, which gives
    the bits of a zero bias: BLAS's sums start from +0.0, so none is -0.0.
    """
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    out = w @ x.reshape(n, cin, h * wd)
    if b is not None:
        out += b[:, None]
    return out.reshape(n, cout, h, wd)


def conv2d_1x1_vjp(x: np.ndarray, w: np.ndarray, d_out: np.ndarray, order: np.ndarray):
    """dW and db sum over the RoIs in ``order``, a permutation of the rows,
    in chunks of consecutive entries of it, from a zero: each chunk holds at
    most ``_DW_CHUNK_VALUES`` values of X (at least one RoI) and adds one
    GEMM over its (RoI, position) pairs to dW and the row sums of the same
    gathered upstream to db. One ``np.take`` per operand gathers whole rows
    of its (N*C, positions) view into the (C, RoI, position) layout that the
    GEMM reads. dX, one identical BLAS call per RoI, is formed after dW,
    once the copies are freed: beyond its arguments the call holds dX or
    one chunk's copies, never both."""
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    g = d_out.reshape(n, cout, h * wd)
    step = max(1, _DW_CHUNK_VALUES // (cin * h * wd))
    g_rows, x_rows = d_out.reshape(n * cout, h * wd), x.reshape(n * cin, h * wd)
    dw, db = np.zeros((cout, cin)), np.zeros(cout)
    for a in range(0, n, step):
        rois = order[a : a + step]
        # row c of RoI r is row r*C + c: (C, RoIs) indices gather in the GEMM's layout
        g_cols = np.take(g_rows, rois * cout + np.arange(cout)[:, None], axis=0).reshape(cout, -1)
        x_cols = np.take(x_rows, rois * cin + np.arange(cin)[:, None], axis=0).reshape(cin, -1)
        dw += g_cols @ x_cols.T
        db += np.add.reduce(g_cols, axis=1)
        del g_cols, x_cols  # no chunk copy is held while dX forms
    dx = (w.T @ g).reshape(n, cin, h, wd)
    return dx, dw, db


@functools.lru_cache(maxsize=8)
def _tap_reads(h: int, wd: int) -> np.ndarray:
    """(9, H*W), 1 where tap (ki, kj) reads input position p for some
    in-range output (each tap reads a position at most once). A constant of
    the shape, built once per shape and read-only."""
    # tap row 0 reads input rows 0..H-2 (for outputs 1..H-1), tap row 1 every
    # row, tap row 2 rows 1..H-1; likewise for columns
    rows_ok = np.ones((3, h))
    rows_ok[0, -1] = rows_ok[2, 0] = 0.0
    cols_ok = np.ones((3, wd))
    cols_ok[0, -1] = cols_ok[2, 0] = 0.0
    reads = (rows_ok[:, None, :, None] * cols_ok[None, :, None, :]).reshape(9, h * wd)
    reads.flags.writeable = False
    return reads


def _pooled_kernel(w: np.ndarray, h: int, wd: int) -> np.ndarray:
    """Fold a 3x3 kernel with the mean over the H x W output positions:
    K (Cout, Cin*H*W), with pool(conv3x3(X))[o] = b[o] + K[o] . X."""
    cout, cin = w.shape[:2]
    return (w.reshape(cout * cin, 9) @ _tap_reads(h, wd)).reshape(cout, cin * h * wd) / (h * wd)


def conv2d_3x3_pooled(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Global average pool of a 3x3 cross-correlation (stride 1, zero
    padding 1): (N,Cin,H,W) -> (N,Cout), without the (N,Cout,H,W) map.

    The pool is linear, so it folds into the kernel (``_pooled_kernel``);
    each RoI then takes one identical BLAS product K @ X[n], and its output
    bits do not depend on where it sits in the batch.
    """
    n, cin, h, wd = x.shape
    k = _pooled_kernel(w, h, wd)
    return (k @ x.reshape(n, cin * h * wd, 1))[:, :, 0] + b


def conv2d_3x3_pooled_vjp(x: np.ndarray, w: np.ndarray, d_out: np.ndarray):
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    k = _pooled_kernel(w, h, wd)
    dx = (d_out @ k).reshape(x.shape)
    d_k = (d_out.T @ x.reshape(n, cin * h * wd)).reshape(cout * cin, h * wd)
    dw = (d_k @ _tap_reads(h, wd).T).reshape(w.shape) / (h * wd)
    return dx, dw, np.add.reduce(d_out, axis=0)


def softmax_rows(s: np.ndarray, mask_diagonal=False) -> np.ndarray:
    """Row softmax with max subtraction, in place: returns ``s``, a float64
    array (a view is fine), overwritten with the weights.

    A stack (B, n, m) is normalized matrix by matrix. With ``mask_diagonal``
    the matrices are square with n >= 2, their diagonal entries receive
    exactly zero weight and each row renormalizes over the rest (the masked
    scores are treated as -inf before exponentiation).
    """
    if mask_diagonal:
        rows = np.arange(s.shape[-1])
        s[..., rows, rows] = -np.inf
    s -= np.maximum.reduce(s, axis=-1, keepdims=True, initial=-np.inf)  # empty s passes
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=-1, keepdims=True)
    return s


def softmax_vjp_from_probs(p: np.ndarray, d_p: np.ndarray) -> np.ndarray:
    """Softmax backward given the forward probabilities, in place: returns
    ``d_p``, overwritten with the score gradient.

    dS[i,j] = P[i,j] * (dP[i,j] - sum_k dP[i,k] P[i,k]). Masked entries have
    P = 0, so their score gradient is exactly zero. Leading axes are batch
    axes, and ``p`` and ``d_p`` may be the same block of rows of larger
    matrices (views).
    """
    # one dot per row, (..., 1, n) @ (..., n, 1): no temporary of d_p's size
    d_p -= (d_p[..., None, :] @ p[..., :, None])[..., 0]
    d_p *= p
    return d_p


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, x)


def relu_vjp(x: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    # subgradient at exactly 0 is 0
    return d_out * (x > 0.0)


def tile_spatial(v: np.ndarray, h: int, w: int) -> np.ndarray:
    """Broadcast (N,C) to (N,C,H,W) by copying each value across positions."""
    n, c = v.shape
    return np.repeat(v, h * w, axis=1).reshape(n, c, h, w)


def tile_spatial_vjp(d_out: np.ndarray) -> np.ndarray:
    n, c, h, w = d_out.shape
    return np.add.reduce(d_out.reshape(n, c, h * w), axis=-1)


def concat_channels(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Append T's channels after X's: (N,D,H,W) + (N,Dg,H,W) -> (N,D+Dg,H,W).
    A T of (N,Dg,1,1) is broadcast over H x W, as ``tile_spatial`` would."""
    d = x.shape[1]
    out = np.empty((x.shape[0], d + t.shape[1]) + x.shape[2:])
    out[:, :d] = x
    out[:, d:] = t
    return out


def concat_channels_vjp(x: np.ndarray, d_out: np.ndarray):
    d = x.shape[1]
    return d_out[:, :d], d_out[:, d:]

