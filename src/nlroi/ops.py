"""Primitive tensor operations and their vector-Jacobian products.

Tensors are C-contiguous float64 numpy arrays, and every operation is a
pure function of its inputs. What the forward operations guarantee about
their bits, given N RoIs along the leading axis:

* The channel stages compute each RoI separately. ``conv2d_1x1`` makes one
  identical BLAS call per RoI, and ``conv2d_3x3_same`` adds its terms to
  each output element in a fixed order (bias, input channel, tap). An
  RoI's output bits do not depend on where it sits in the batch.
* ``matmul`` reduces over its inner index in ascending order with an
  explicit loop, so a score depends only on its own pair of rows, and the
  softmax normalizer adds its terms in ascending *value* order, so it does
  not depend on the order of the entries it normalizes over.

The VJPs contract with BLAS (``@``) and sum with NumPy reductions. They
are deterministic run to run on one machine with one NumPy/BLAS build,
but reordering the RoIs can change their last bits: a BLAS reduction's
order depends on the operands' sizes and on where an element falls in the
blocking.

Backward passes are exposed two ways: per-op ``*_vjp`` functions, and a
``vjp(op_id, saved_inputs, upstream)`` dispatcher keyed by op name.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateAttentionError, DimensionError


def _as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


def _require_rank(x: np.ndarray, rank: int, name: str) -> None:
    if x.ndim != rank:
        raise DimensionError(f"{name} must have rank {rank}, got shape {x.shape}")


def sum_ascending_values(m: np.ndarray) -> np.ndarray:
    """Sum each row of a 2-D array with addends taken in ascending value order.

    The result depends only on the multiset of values in each row, so any
    permutation of the columns produces bit-identical sums.
    """
    rows, cols = m.shape
    if cols == 0:
        return np.zeros(rows)
    s = np.sort(m, axis=1)
    out = s[:, 0].copy()
    for j in range(1, cols):
        out += s[:, j]
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[i,j] = sum_p A[i,p] * B[p,j], accumulated in ascending p."""
    a = _as_f64(a)
    b = _as_f64(b)
    _require_rank(a, 2, "matmul lhs")
    _require_rank(b, 2, "matmul rhs")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for p in range(k):
        out += a[:, p : p + 1] * b[p : p + 1, :]
    return out


def matmul_vjp(a: np.ndarray, b: np.ndarray, d_out: np.ndarray):
    if d_out.shape != (a.shape[0], b.shape[1]):
        raise DimensionError(
            f"matmul upstream gradient has shape {d_out.shape}, "
            f"expected {(a.shape[0], b.shape[1])}"
        )
    return d_out @ b.T, a.T @ d_out


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


def conv2d_1x1_vjp(x: np.ndarray, w: np.ndarray, b: np.ndarray, d_out: np.ndarray):
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


# Elements per output block of conv2d_3x3_same: 512 KiB of float64, so a
# block and its product buffer fit together in a 2 MiB L2 cache.
_CONV3X3_BLOCK_ELEMS = 1 << 16


def _pad_rois_last(x: np.ndarray) -> np.ndarray:
    """(N,C,H,W) -> zero-padded (C,H+2,W+2,N), with the RoI axis innermost."""
    n, c, h, wd = x.shape
    xp = np.zeros((c, h + 2, wd + 2, n))
    xp[:, 1:-1, 1:-1, :] = x.transpose(1, 2, 3, 0)
    return xp


def conv2d_3x3_same(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 cross-correlation, stride 1, zero padding 1 (spatial size preserved).

    Each output element starts at its bias and adds W[o,c,ki,kj] * X[...]
    for input channel c, then tap (ki, kj), in ascending order: a fixed
    per-element order that a GEMM would not keep. Working in a RoIs-last
    layout makes every term one contiguous elementwise pass.
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
    xp = _pad_rois_last(x)
    out = np.empty((cout, h, wd, n))
    out[:] = b[:, None, None, None]
    # Output channels go in blocks so that a block and its product buffer
    # stay in cache across all cin*9 passes; blocking over o leaves each
    # element's own order of additions unchanged.
    block = max(1, _CONV3X3_BLOCK_ELEMS // max(1, h * wd * n))
    term = np.empty((min(block, cout), h, wd, n))
    for o in range(0, cout, block):
        acc = out[o : o + block]
        prod = term[: acc.shape[0]]
        for c in range(cin):
            for i in range(3):
                for j in range(3):
                    np.multiply(
                        w[o : o + block, c, i, j, None, None, None],
                        xp[c, i : i + h, j : j + wd],
                        out=prod,
                    )
                    acc += prod
    return np.ascontiguousarray(out.transpose(3, 0, 1, 2))


def conv2d_3x3_same_vjp(x: np.ndarray, w: np.ndarray, b: np.ndarray, d_out: np.ndarray):
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    if d_out.shape != (n, cout, h, wd):
        raise DimensionError(
            f"conv2d_3x3 upstream gradient {d_out.shape}, expected {(n, cout, h, wd)}"
        )
    xp = _pad_rois_last(x)
    g = d_out.transpose(1, 2, 3, 0).reshape(cout, h * wd * n)
    dxp = np.zeros_like(xp)
    dw = np.empty_like(w)
    # one pair of GEMMs per tap; dX taps are added in ascending (ki, kj)
    for i in range(3):
        for j in range(3):
            patch = xp[:, i : i + h, j : j + wd].reshape(cin, h * wd * n)
            dw[:, :, i, j] = g @ patch.T
            dxp[:, i : i + h, j : j + wd] += (w[:, :, i, j].T @ g).reshape(cin, h, wd, n)
    db = np.sum(d_out, axis=(0, 2, 3))
    return np.ascontiguousarray(dxp[:, 1:-1, 1:-1].transpose(3, 0, 1, 2)), dw, db


def softmax_rows(s: np.ndarray, mask_diagonal: bool = False) -> np.ndarray:
    """Row softmax with max subtraction; optionally zeroes the diagonal.

    With ``mask_diagonal`` the diagonal entries receive exactly zero weight
    and each row renormalizes over its off-diagonal entries (the masked
    scores are treated as -inf before exponentiation).
    """
    s = _as_f64(s)
    _require_rank(s, 2, "softmax input")
    n, m = s.shape
    if mask_diagonal:
        if n != m:
            raise DimensionError(f"diagonal masking needs a square matrix, got {s.shape}")
        if n == 1:
            raise DegenerateAttentionError(
                "a single masked row has no entries left to attend to"
            )
        work = s.copy()
        np.fill_diagonal(work, -np.inf)
    else:
        work = s
    if n == 0 or m == 0:
        return np.zeros((n, m))
    row_max = np.max(work, axis=1, keepdims=True)
    e = np.exp(work - row_max)
    totals = sum_ascending_values(e)
    return e / totals[:, None]


def softmax_rows_vjp(s: np.ndarray, mask_diagonal: bool, d_out: np.ndarray):
    if d_out.shape != s.shape:
        raise DimensionError(
            f"softmax upstream gradient {d_out.shape}, expected {s.shape}"
        )
    p = softmax_rows(s, mask_diagonal)
    return (softmax_vjp_from_probs(p, d_out),)


def softmax_vjp_from_probs(p: np.ndarray, d_p: np.ndarray) -> np.ndarray:
    """Softmax backward given the forward probabilities.

    dS[i,j] = P[i,j] * (dP[i,j] - sum_k dP[i,k] P[i,k]). Masked entries have
    P = 0, so their score gradient is exactly zero.
    """
    row_dot = np.sum(d_p * p, axis=1, keepdims=True)
    return p * (d_p - row_dot)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, _as_f64(x))


def relu_vjp(x: np.ndarray, d_out: np.ndarray):
    if d_out.shape != x.shape:
        raise DimensionError(f"relu upstream gradient {d_out.shape}, expected {x.shape}")
    # subgradient at exactly 0 is 0
    return (d_out * (x > 0.0),)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over the two trailing spatial axes: (N,C,H,W) -> (N,C).

    Uses a running mean, m_k = m_{k-1} + (x_k - m_{k-1}) / k, over positions
    in ascending (h, w) order. On a constant map the increment is exactly
    zero at every step, so pooling inverts tile_spatial bit for bit (a
    summed-then-divided mean would round for counts like 3 or 15).
    """
    x = _as_f64(x)
    _require_rank(x, 4, "pool input")
    n, c, h, w = x.shape
    if h * w == 0:
        raise DimensionError(f"cannot pool over empty spatial extent {x.shape}")
    mean = x[:, :, 0, 0].copy()
    k = 1
    for i in range(h):
        for j in range(w):
            if i == 0 and j == 0:
                continue
            k += 1
            mean += (x[:, :, i, j] - mean) / k
    return mean


def global_avg_pool_vjp(x: np.ndarray, d_out: np.ndarray):
    n, c, h, w = x.shape
    if d_out.shape != (n, c):
        raise DimensionError(f"pool upstream gradient {d_out.shape}, expected {(n, c)}")
    spread = d_out / (h * w)
    return (np.broadcast_to(spread[:, :, None, None], x.shape).copy(),)


def tile_spatial(v: np.ndarray, h: int, w: int) -> np.ndarray:
    """Broadcast (N,C) to (N,C,H,W) by copying each value across positions."""
    v = _as_f64(v)
    _require_rank(v, 2, "tile input")
    if h < 1 or w < 1:
        raise DimensionError(f"tile extent must be positive, got ({h}, {w})")
    n, c = v.shape
    return np.broadcast_to(v[:, :, None, None], (n, c, h, w)).copy()


def tile_spatial_vjp(v: np.ndarray, h: int, w: int, d_out: np.ndarray):
    n, c = v.shape
    if d_out.shape != (n, c, h, w):
        raise DimensionError(
            f"tile upstream gradient {d_out.shape}, expected {(n, c, h, w)}"
        )
    acc = np.zeros((n, c))
    for i in range(h):
        for j in range(w):
            acc += d_out[:, :, i, j]
    return (acc,)


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
    return d_out[:, :d].copy(), d_out[:, d:].copy()


_VJP_TABLE = {
    "matmul": lambda saved, g: matmul_vjp(*saved, g),
    "conv2d_1x1": lambda saved, g: conv2d_1x1_vjp(*saved, g),
    "conv2d_3x3_same": lambda saved, g: conv2d_3x3_same_vjp(*saved, g),
    "softmax_rows": lambda saved, g: softmax_rows_vjp(*saved, g),
    "relu": lambda saved, g: relu_vjp(*saved, g),
    "global_avg_pool": lambda saved, g: global_avg_pool_vjp(*saved, g),
    "tile_spatial": lambda saved, g: tile_spatial_vjp(*saved, g),
    "concat_channels": lambda saved, g: concat_channels_vjp(*saved, g),
}


def vjp(op_id: str, saved_inputs: tuple, upstream: np.ndarray) -> tuple:
    """Backward pass of a named primitive.

    ``saved_inputs`` are the op's forward arguments in declaration order;
    returns one gradient per differentiable input.
    """
    try:
        fn = _VJP_TABLE[op_id]
    except KeyError:
        raise ValueError(f"unknown op id {op_id!r}") from None
    return fn(saved_inputs, np.asarray(upstream, dtype=np.float64))
