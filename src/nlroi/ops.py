"""Primitive tensor operations and their vector-Jacobian products.

Tensors are C-contiguous float64 numpy arrays, and every operation is a
pure function of its inputs, except that the softmax and its VJP
overwrite theirs (below). What the operations guarantee about their bits,
given N RoIs along the leading axis:

* The channel stages compute each RoI separately: ``conv2d_1x1`` and
  ``conv2d_3x3_pooled`` (a 3x3 conv folded with the global average pool
  that follows it) each make one identical BLAS call per RoI, and so does
  the input gradient of ``conv2d_1x1_vjp``. An RoI's bits there do not
  depend on where it sits in the batch. The input gradient of
  ``conv2d_3x3_pooled_vjp`` is one product over all RoIs, whose rows can
  round differently by position; the operator calls it in canonical order.
* ``matmul`` reduces over its inner index in ascending order with an
  explicit loop, so a score depends only on its own pair of rows.
  ``softmax_rows`` sums each row with a NumPy sum, whose bits depend on the
  order of the row's entries; the operator makes that order canonical (see
  ``operator``), so no op here sorts values.
* ``matmul`` and ``softmax_rows`` also take a stack of matrices with a
  leading batch axis. Each matrix of the stack gets exactly the
  operations it would get alone, so its bits do not depend on the others.
* ``softmax_rows`` and ``softmax_vjp_from_probs`` compute each row on its
  own, and both write in place: ``softmax_rows`` overwrites its scores,
  ``softmax_vjp_from_probs`` its upstream. A block of a matrix's rows
  (``first_row`` places the masked diagonal) gets bitwise the rows the
  whole matrix would, so the operator runs both on row blocks and makes no
  N x N temporary for them.

All operations are deterministic run to run on one machine with one
NumPy/BLAS build. The VJPs contract with BLAS (``@``) and sum with NumPy
reductions. Sums over RoIs (the weight and bias gradients) take the RoIs
in the order given, so reordering the RoIs can change their last bits: a
BLAS reduction's order depends on the operands' sizes and on where an
element falls in the blocking.

A VJP result may be a view of its upstream gradient (``concat_channels_vjp``
returns the two channel slices of ``d_out``), so a caller that writes into
a result writes into the upstream too. ``conv2d_1x1_vjp`` returns dX as a
fresh array, never a view: the operator adds the pass-through into it.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateAttentionError, DimensionError


def _as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


def _require_rank(x: np.ndarray, rank: int, name: str) -> None:
    if x.ndim != rank:
        raise DimensionError(f"{name} must have rank {rank}, got shape {x.shape}")


def _require_matrices(x: np.ndarray, name: str) -> None:
    if x.ndim not in (2, 3):
        raise DimensionError(
            f"{name} must be a matrix or a stack of matrices, got shape {x.shape}"
        )


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[i,j] = sum_p A[i,p] * B[p,j], accumulated in ascending p.

    Takes two matrices, or two stacks (B, m, k) and (B, k, n) multiplied
    pairwise. Every output element gets the same sequence of operations in
    either form, and depends only on its own row of A and column of B.
    """
    a = _as_f64(a)
    b = _as_f64(b)
    _require_matrices(a, "matmul lhs")
    _require_matrices(b, "matmul rhs")
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul shapes disagree: {a.shape} x {b.shape}")
    batch = tuple(range(a.ndim - 2))
    # a_cols[p] is column p of A as (..., m, 1), b_rows[p] row p of B as (..., 1, n)
    a_cols = a.transpose((a.ndim - 1,) + batch + (a.ndim - 2,))[..., None]
    b_rows = b.transpose((b.ndim - 2,) + batch + (b.ndim - 1,))[..., None, :]
    out = np.zeros(a.shape[:-1] + b.shape[-1:])
    for p in range(a.shape[-1]):
        out += a_cols[p] * b_rows[p]
    return out


def matmul_vjp(a: np.ndarray, b: np.ndarray, d_out: np.ndarray):
    """Gradients of ``matmul`` (matrices or stacks) through BLAS products."""
    expected = a.shape[:-1] + b.shape[-1:]
    if d_out.shape != expected:
        raise DimensionError(
            f"matmul upstream gradient has shape {d_out.shape}, expected {expected}"
        )
    return d_out @ b.swapaxes(-1, -2), a.swapaxes(-1, -2) @ d_out


def conv2d_1x1(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise convolution: out[n,o,h,w] = b[o] + sum_c W[o,c] * X[n,c,h,w].

    One GEMM per RoI, W @ X[n] over the flattened positions, then the bias.
    Every RoI gets an identical BLAS call, so its output bits do not depend
    on where it sits in the batch.
    """
    x = _as_f64(x)
    w = _as_f64(w)
    b = _as_f64(b)
    _require_rank(x, 4, "conv2d_1x1 input")
    _require_rank(w, 2, "conv2d_1x1 weight")
    _require_rank(b, 1, "conv2d_1x1 bias")
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    if w.shape[1] != cin:
        raise DimensionError(
            f"conv2d_1x1 channel mismatch: input {x.shape} vs weight {w.shape}"
        )
    if b.shape[0] != cout:
        raise DimensionError(f"conv2d_1x1 bias {b.shape} vs weight {w.shape}")
    out = w @ x.reshape(n, cin, h * wd)
    out += b[:, None]
    return out.reshape(n, cout, h, wd)


def conv2d_1x1_vjp(x: np.ndarray, w: np.ndarray, d_out: np.ndarray):
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    if d_out.shape != (n, cout, h, wd):
        raise DimensionError(
            f"conv2d_1x1 upstream gradient {d_out.shape}, expected {(n, cout, h, wd)}"
        )
    g = d_out.reshape(n, cout, h * wd)
    dx = (w.T @ g).reshape(n, cin, h, wd)
    # one GEMM over all (RoI, position) pairs: (Cout, N*P) @ (N*P, Cin)
    g_cols = g.transpose(1, 0, 2).reshape(cout, n * h * wd)
    x_cols = x.reshape(n, cin, h * wd).transpose(1, 0, 2).reshape(cin, n * h * wd)
    dw = g_cols @ x_cols.T
    db = np.sum(d_out, axis=(0, 2, 3))
    return dx, dw, db


def _pooled_kernel(w: np.ndarray, h: int, wd: int):
    """Fold a 3x3 kernel with the mean over the H x W output positions.

    ``reads`` (9, H*W) is 1 where tap (ki, kj) reads input position p for
    some in-range output (each tap reads a position at most once). Returns
    K (Cout, Cin*H*W), with pool(conv3x3(X))[o] = b[o] + K[o] . X, and reads.
    """
    cout, cin = w.shape[:2]
    # tap row 0 reads input rows 0..H-2 (for outputs 1..H-1), tap row 1 every
    # row, tap row 2 rows 1..H-1; likewise for columns
    rows_ok = np.ones((3, h))
    rows_ok[0, -1] = rows_ok[2, 0] = 0.0
    cols_ok = np.ones((3, wd))
    cols_ok[0, -1] = cols_ok[2, 0] = 0.0
    reads = (rows_ok[:, None, :, None] * cols_ok[None, :, None, :]).reshape(9, h * wd)
    k = (w.reshape(cout * cin, 9) @ reads).reshape(cout, cin * h * wd) / (h * wd)
    return k, reads


def conv2d_3x3_pooled(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Global average pool of a 3x3 cross-correlation (stride 1, zero
    padding 1): (N,Cin,H,W) -> (N,Cout), without the (N,Cout,H,W) map.

    The pool is linear, so it folds into the kernel (``_pooled_kernel``);
    each RoI then takes one identical BLAS product K @ X[n], and its output
    bits do not depend on where it sits in the batch.
    """
    x = _as_f64(x)
    w = _as_f64(w)
    b = _as_f64(b)
    _require_rank(x, 4, "conv2d_3x3 input")
    _require_rank(w, 4, "conv2d_3x3 weight")
    _require_rank(b, 1, "conv2d_3x3 bias")
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    if w.shape[1:] != (cin, 3, 3):
        raise DimensionError(
            f"conv2d_3x3 weight must be (Cout,{cin},3,3), got {w.shape} "
            f"for input {x.shape}"
        )
    if b.shape[0] != cout:
        raise DimensionError(f"conv2d_3x3 bias {b.shape} vs weight {w.shape}")
    if h * wd == 0:
        raise DimensionError(f"cannot pool over empty spatial extent {x.shape}")
    k, _ = _pooled_kernel(w, h, wd)
    return (k @ x.reshape(n, cin * h * wd, 1))[:, :, 0] + b


def conv2d_3x3_pooled_vjp(x: np.ndarray, w: np.ndarray, d_out: np.ndarray):
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    if d_out.shape != (n, cout):
        raise DimensionError(
            f"conv2d_3x3 upstream gradient {d_out.shape}, expected {(n, cout)}"
        )
    k, reads = _pooled_kernel(w, h, wd)
    dx = (d_out @ k).reshape(x.shape)
    d_k = (d_out.T @ x.reshape(n, cin * h * wd)).reshape(cout * cin, h * wd)
    dw = (d_k @ reads.T).reshape(w.shape) / (h * wd)
    return dx, dw, d_out.sum(axis=0)


def softmax_rows(s: np.ndarray, mask_diagonal=False, first_row=None) -> np.ndarray:
    """Row softmax with max subtraction, in place: returns ``s``, a float64
    array (a view is fine), overwritten with the weights.

    A stack (B, n, m) is normalized matrix by matrix. With ``mask_diagonal``
    the diagonal entries receive exactly zero weight and each row
    renormalizes over the rest (the masked scores are treated as -inf
    before exponentiation). ``s`` is then a square matrix, or, given
    ``first_row``, a block of the rows of one: row i of the block is row
    ``first_row + i`` of the matrix and has its diagonal entry in that
    column. Every row gets the same operations in any of these forms, so a
    block's weights are bitwise the whole matrix's.
    """
    _require_matrices(s, "softmax input")
    n, m = s.shape[-2:]
    if mask_diagonal:
        if first_row is None:
            if n != m:
                raise DimensionError(f"diagonal masking needs a square matrix, got {s.shape}")
            first_row = 0
        elif not 0 <= first_row <= m - n:
            raise DimensionError(
                f"rows {first_row}..{first_row + n - 1} of a matrix with {m} columns "
                "have no diagonal to mask"
            )
        if m == 1:
            raise DegenerateAttentionError(
                "a single masked row has no entries left to attend to"
            )
        rows = np.arange(n)
        s[..., rows, first_row + rows] = -np.inf
    if s.size:
        s -= np.max(s, axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= np.sum(s, axis=-1, keepdims=True)
    return s


def softmax_vjp_from_probs(p: np.ndarray, d_p: np.ndarray) -> np.ndarray:
    """Softmax backward given the forward probabilities, in place: returns
    ``d_p``, overwritten with the score gradient.

    dS[i,j] = P[i,j] * (dP[i,j] - sum_k dP[i,k] P[i,k]). Masked entries have
    P = 0, so their score gradient is exactly zero. Leading axes are batch
    axes, and ``p`` and ``d_p`` may be the same block of rows of larger
    matrices (views).
    """
    row_dot = np.sum(d_p * p, axis=-1, keepdims=True)
    d_p -= row_dot
    d_p *= p
    return d_p


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, _as_f64(x))


def relu_vjp(x: np.ndarray, d_out: np.ndarray):
    if d_out.shape != x.shape:
        raise DimensionError(f"relu upstream gradient {d_out.shape}, expected {x.shape}")
    # subgradient at exactly 0 is 0
    return (d_out * (x > 0.0),)


def tile_spatial(v: np.ndarray, h: int, w: int) -> np.ndarray:
    """Broadcast (N,C) to (N,C,H,W) by copying each value across positions."""
    v = _as_f64(v)
    _require_rank(v, 2, "tile input")
    if h < 1 or w < 1:
        raise DimensionError(f"tile extent must be positive, got ({h}, {w})")
    n, c = v.shape
    return np.repeat(v, h * w, axis=1).reshape(n, c, h, w)


def tile_spatial_vjp(v: np.ndarray, h: int, w: int, d_out: np.ndarray):
    n, c = v.shape
    if d_out.shape != (n, c, h, w):
        raise DimensionError(
            f"tile upstream gradient {d_out.shape}, expected {(n, c, h, w)}"
        )
    return (d_out.reshape(n, c, h * w).sum(axis=-1),)


def concat_channels(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Append T's channels after X's: (N,D,H,W) + (N,Dg,H,W) -> (N,D+Dg,H,W)."""
    x = _as_f64(x)
    t = _as_f64(t)
    _require_rank(x, 4, "concat lhs")
    _require_rank(t, 4, "concat rhs")
    if x.shape[0] != t.shape[0] or x.shape[2:] != t.shape[2:]:
        raise DimensionError(f"concat shapes disagree outside channels: {x.shape} vs {t.shape}")
    return np.concatenate([x, t], axis=1)


def concat_channels_vjp(x: np.ndarray, t: np.ndarray, d_out: np.ndarray):
    d = x.shape[1]
    expected = (x.shape[0], d + t.shape[1], x.shape[2], x.shape[3])
    if d_out.shape != expected:
        raise DimensionError(
            f"concat upstream gradient {d_out.shape}, expected {expected}"
        )
    return d_out[:, :d], d_out[:, d:]

