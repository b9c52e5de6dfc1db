"""The non-local RoI attention operator.

Given a blob of N aligned RoI features with shape (N, D, H, W), each RoI
attends to every RoI through an embedded-Gaussian affinity

    f(x_i, x_j) = exp(<flatten(phi(x_i)), flatten(psi(x_j))> / scale)

where phi and psi are learned 1x1 convolutions to D_f channels. The
normalized weights mix per-RoI embeddings g(x_j) (1x1 conv, ReLU, 3x3 conv,
global average pool, giving a D_g vector per RoI). The mixed vector is tiled
back to H x W and appended to the input channels, so the output blob has
shape (N, D + D_g, H, W) with the original features untouched in front.

Two scaling modes divide the raw dot products: the square root of the
channel count D_f (per-channel, the default) or of the full flattened
length D_f*H*W. Self-attention can be disabled, in which case the diagonal
of the weight matrix is exactly zero and each row renormalizes over the
other RoIs.

``nlroi_forward`` is the production path; ``nlroi_reference`` recomputes the
same quantity with plain Python loops transcribed from the defining sum and
serves as the oracle the forward pass is tested against. ``nlroi_backward``
gives exact reverse-mode gradients using the cached forward activations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, DegenerateAttentionError, DimensionError, NumericalError
from .rng import Prng


class Scaling(enum.Enum):
    """Divisor applied to raw attention scores before the softmax."""

    PER_CHANNEL = "per_channel"
    FULL_FLATTEN = "full_flatten"


@dataclass(frozen=True)
class NlRoiConfig:
    d: int
    d_f: int
    d_mid: int
    d_g: int
    h: int
    w: int
    attend_to_self: bool = True
    scaling: Scaling = Scaling.PER_CHANNEL

    def __post_init__(self):
        for name in ("d", "d_f", "d_mid", "d_g", "h", "w"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if self.d_f > self.d:
            raise ConfigError(f"d_f={self.d_f} exceeds d={self.d} (bottleneck must reduce)")
        if self.d_mid > self.d:
            raise ConfigError(f"d_mid={self.d_mid} exceeds d={self.d} (bottleneck must reduce)")
        if not isinstance(self.scaling, Scaling):
            raise ConfigError(f"scaling must be a Scaling member, got {self.scaling!r}")

    def scale(self) -> float:
        if self.scaling is Scaling.PER_CHANNEL:
            return math.sqrt(self.d_f)
        return math.sqrt(self.d_f * self.h * self.w)


_PARAM_ORDER = ("w_phi", "b_phi", "w_psi", "b_psi", "w_g1", "b_g1", "w_g2", "b_g2")


@dataclass
class NlRoiParams:
    w_phi: np.ndarray
    b_phi: np.ndarray
    w_psi: np.ndarray
    b_psi: np.ndarray
    w_g1: np.ndarray
    b_g1: np.ndarray
    w_g2: np.ndarray
    b_g2: np.ndarray

    @staticmethod
    def shapes(config: NlRoiConfig) -> dict:
        return {
            "w_phi": (config.d_f, config.d),
            "b_phi": (config.d_f,),
            "w_psi": (config.d_f, config.d),
            "b_psi": (config.d_f,),
            "w_g1": (config.d_mid, config.d),
            "b_g1": (config.d_mid,),
            "w_g2": (config.d_g, config.d_mid, 3, 3),
            "b_g2": (config.d_g,),
        }

    def tensors(self) -> list:
        """Named tensors in canonical (PRNG-consumption) order."""
        return [(name, getattr(self, name)) for name in _PARAM_ORDER]

    @classmethod
    def from_named(cls, named: dict) -> "NlRoiParams":
        missing = [n for n in _PARAM_ORDER if n not in named]
        if missing:
            raise DimensionError(f"missing parameter tensors: {missing}")
        return cls(**{n: np.asarray(named[n], dtype=np.float64) for n in _PARAM_ORDER})

    def validate(self, config: NlRoiConfig) -> None:
        for name, want in self.shapes(config).items():
            got = getattr(self, name).shape
            if got != want:
                raise DimensionError(f"{name} has shape {got}, config implies {want}")
            if not np.all(np.isfinite(getattr(self, name))):
                raise DimensionError(f"{name} contains non-finite values")

    def copy(self) -> "NlRoiParams":
        return NlRoiParams(**{n: getattr(self, n).copy() for n in _PARAM_ORDER})

    @classmethod
    def zeros_like(cls, other: "NlRoiParams") -> "NlRoiParams":
        return cls(**{n: np.zeros_like(getattr(other, n)) for n in _PARAM_ORDER})


@dataclass
class ForwardCache:
    x: np.ndarray            # (N, D, H, W) input blob
    phi_flat: np.ndarray     # (N, D_f*H*W)
    psi_flat: np.ndarray     # (N, D_f*H*W)
    scores_raw: np.ndarray   # (N, N) dot products before scaling
    scores: np.ndarray       # (N, N) scaled scores fed to the softmax
    attention: np.ndarray    # (N, N) row-stochastic weights
    g_pre: np.ndarray        # (N, D_mid, H, W) before the ReLU
    g_post: np.ndarray       # (N, D_mid, H, W) after the ReLU
    g_pooled: np.ndarray     # (N, D_g) per-RoI embedding matrix G
    y_vec: np.ndarray        # (N, D_g) attention-mixed output


def init_params(config: NlRoiConfig, prng: Prng) -> NlRoiParams:
    """Uniform [-s, s] weights with s = sqrt(6 / fan_in); zero biases.

    fan_in counts input channels times kernel area. Weight tensors consume
    PRNG draws in row-major order, in the fixed sequence w_phi, w_psi,
    w_g1, w_g2; biases are deterministic zeros and draw nothing.
    """

    def draw(shape, fan_in):
        s = math.sqrt(6.0 / fan_in)
        return prng.uniforms_in(int(np.prod(shape)), -s, s).reshape(shape)

    return NlRoiParams(
        w_phi=draw((config.d_f, config.d), config.d),
        b_phi=np.zeros(config.d_f),
        w_psi=draw((config.d_f, config.d), config.d),
        b_psi=np.zeros(config.d_f),
        w_g1=draw((config.d_mid, config.d), config.d),
        b_g1=np.zeros(config.d_mid),
        w_g2=draw((config.d_g, config.d_mid, 3, 3), config.d_mid * 9),
        b_g2=np.zeros(config.d_g),
    )


def _check_blob(x: np.ndarray, config: NlRoiConfig) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise DimensionError(f"RoI blob must have rank 4, got shape {x.shape}")
    if x.shape[1:] != (config.d, config.h, config.w):
        raise DimensionError(
            f"blob shape {x.shape} disagrees with config "
            f"(D={config.d}, H={config.h}, W={config.w})"
        )
    _require_finite(x, "RoI blob")
    return x


def _require_finite(a: np.ndarray, name: str) -> None:
    finite = np.isfinite(a)
    if not finite.all():
        index = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise NumericalError(f"{name} has a non-finite value {a[index]!r} at index {index}")


def _flat_embed(x, w, b):
    # 1x1 conv then row-major flatten to (N, D_f*H*W); the explicit product
    # keeps the reshape well defined when N = 0
    e = ops.conv2d_1x1(x, w, b)
    return e.reshape(e.shape[0], e.shape[1] * e.shape[2] * e.shape[3])


def relation_scores(x: np.ndarray, params: NlRoiParams, config: NlRoiConfig) -> np.ndarray:
    """Scaled pre-softmax score matrix S with S[i,j] = <Phi_i, Psi_j> / scale."""
    x = _check_blob(x, config)
    phi_flat = _flat_embed(x, params.w_phi, params.b_phi)
    psi_flat = _flat_embed(x, params.w_psi, params.b_psi)
    raw = ops.matmul(phi_flat, psi_flat.T)
    return raw / config.scale()


def attention_weights(
    s: np.ndarray, attend_to_self: bool, literal_zero_diag: bool = False
) -> np.ndarray:
    """Row softmax of the score matrix, optionally excluding each RoI's self.

    With attend_to_self false the diagonal receives exactly zero weight
    (scores treated as -inf, rows renormalized over the rest). The
    ``literal_zero_diag`` debug switch instead overwrites diagonal scores
    with literal 0.0 before a plain softmax, so the self entry keeps weight
    exp(0); it exists only to quantify how much that reading differs.
    """
    if attend_to_self:
        return ops.softmax_rows(s, mask_diagonal=False)
    if literal_zero_diag:
        s = np.asarray(s, dtype=np.float64)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise DimensionError(f"diagonal masking needs a square matrix, got {s.shape}")
        work = s.copy()
        np.fill_diagonal(work, 0.0)
        return ops.softmax_rows(work, mask_diagonal=False)
    return ops.softmax_rows(s, mask_diagonal=True)


def embed_g(x: np.ndarray, params: NlRoiParams, config: NlRoiConfig) -> np.ndarray:
    """Per-RoI embedding: 1x1 conv, ReLU, 3x3 same conv, global average pool."""
    x = _check_blob(x, config)
    pre = ops.conv2d_1x1(x, params.w_g1, params.b_g1)
    post = ops.relu(pre)
    conv = ops.conv2d_3x3_same(post, params.w_g2, params.b_g2)
    return ops.global_avg_pool(conv)


def _mix_embeddings(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Y[i,c] = sum_j P[i,j] * G[j,c], addends added in ascending value order.

    Value-ordered accumulation makes each output depend only on the multiset
    of (weight, embedding) pairs, so permuting the attended RoIs changes
    nothing, bit for bit.
    """
    n, m = p.shape
    dg = g.shape[1]
    if m == 0:
        return np.zeros((n, dg))
    terms = np.sort(p[:, :, None] * g[None, :, :], axis=1)
    out = terms[:, 0, :].copy()
    for j in range(1, m):
        out += terms[:, j, :]
    return out


def nlroi_forward(x: np.ndarray, params: NlRoiParams, config: NlRoiConfig):
    """Forward pass: returns (output blob (N, D+D_g, H, W), ForwardCache).

    N = 0 yields an empty output rather than an error (a detector may
    propose zero regions). N = 1 with attend_to_self false is degenerate
    and raises.
    """
    x = _check_blob(x, config)
    n = x.shape[0]
    phi_flat = _flat_embed(x, params.w_phi, params.b_phi)
    psi_flat = _flat_embed(x, params.w_psi, params.b_psi)
    raw = ops.matmul(phi_flat, psi_flat.T)
    scores = raw / config.scale()
    _require_finite(scores, "attention score matrix")
    if n == 0:
        attn = np.zeros((0, 0))
    else:
        attn = attention_weights(scores, config.attend_to_self)
    g_pre = ops.conv2d_1x1(x, params.w_g1, params.b_g1)
    g_post = ops.relu(g_pre)
    g_conv = ops.conv2d_3x3_same(g_post, params.w_g2, params.b_g2)
    g_pooled = ops.global_avg_pool(g_conv)
    y_vec = _mix_embeddings(attn, g_pooled)
    out = ops.concat_channels(x, ops.tile_spatial(y_vec, config.h, config.w))
    cache = ForwardCache(
        x=x,
        phi_flat=phi_flat,
        psi_flat=psi_flat,
        scores_raw=raw,
        scores=scores,
        attention=attn,
        g_pre=g_pre,
        g_post=g_post,
        g_pooled=g_pooled,
        y_vec=y_vec,
    )
    return out, cache


def nlroi_reference(x: np.ndarray, params: NlRoiParams, config: NlRoiConfig) -> np.ndarray:
    """Oracle: the defining per-RoI sum, transcribed with plain Python loops.

    For each target RoI i, accumulate f(x_i, x_j) = exp(s_ij - max_i) over
    the attended set (all j, or j != i when self-attention is off), then
    y_i = sum_j f_ij g(x_j) / sum_j f_ij. Every embedding, dot product, and
    convolution below is spelled out with scalar loops; nothing is shared
    with the production path except the parameter values.
    """
    x = _check_blob(x, config)
    n = x.shape[0]
    d, d_f, d_mid, d_g = config.d, config.d_f, config.d_mid, config.d_g
    h, w = config.h, config.w
    if n == 0:
        return np.zeros((0, d + d_g, h, w))
    if not config.attend_to_self and n == 1:
        raise DegenerateAttentionError(
            "a single masked row has no entries left to attend to"
        )

    def conv1x1_rows(roi, weight, bias, cout):
        out = np.empty((cout, h, w))
        cin = weight.shape[1]
        for o in range(cout):
            for a in range(h):
                for bcol in range(w):
                    acc = bias[o]
                    for c in range(cin):
                        acc += weight[o, c] * roi[c, a, bcol]
                    out[o, a, bcol] = acc
        return out

    # per-RoI flattened phi / psi features
    flat_len = d_f * h * w
    phi = np.empty((n, flat_len))
    psi = np.empty((n, flat_len))
    for i in range(n):
        phi[i] = conv1x1_rows(x[i], params.w_phi, params.b_phi, d_f).reshape(-1)
        psi[i] = conv1x1_rows(x[i], params.w_psi, params.b_psi, d_f).reshape(-1)

    # per-RoI embedding g(x_j): 1x1 conv, relu, 3x3 conv with zero padding,
    # then an average over positions taken in ascending (row, col) order
    g = np.empty((n, d_g))
    for j in range(n):
        mid = conv1x1_rows(x[j], params.w_g1, params.b_g1, d_mid)
        for o in range(d_mid):
            for a in range(h):
                for bcol in range(w):
                    if mid[o, a, bcol] < 0.0:
                        mid[o, a, bcol] = 0.0
        for o in range(d_g):
            acc_pool = 0.0
            for a in range(h):
                for bcol in range(w):
                    acc = params.b_g2[o]
                    for c in range(d_mid):
                        for ki in range(3):
                            for kj in range(3):
                                src_a = a + ki - 1
                                src_b = bcol + kj - 1
                                if 0 <= src_a < h and 0 <= src_b < w:
                                    acc += params.w_g2[o, c, ki, kj] * mid[c, src_a, src_b]
                    acc_pool += acc
            g[j, o] = acc_pool / (h * w)

    scale = config.scale()
    out = np.empty((n, d + d_g, h, w))
    out[:, :d] = x
    for i in range(n):
        attended = [j for j in range(n) if config.attend_to_self or j != i]
        scores = []
        for j in attended:
            acc = 0.0
            for p in range(flat_len):
                acc += phi[i, p] * psi[j, p]
            scores.append(acc / scale)
        # subtract the per-row maximum before exponentiating, as the
        # production path does, so the comparison is not dominated by
        # exp() rounding at large score magnitudes
        m = max(scores)
        f = [math.exp(s - m) for s in scores]
        c_i = 0.0
        for v in f:
            c_i += v
        y = np.zeros(d_g)
        for idx, j in enumerate(attended):
            for o in range(d_g):
                y[o] += f[idx] * g[j, o]
        y /= c_i
        for o in range(d_g):
            out[i, d + o, :, :] = y[o]
    return out


def nlroi_backward(
    cache: ForwardCache,
    params: NlRoiParams,
    config: NlRoiConfig,
    d_out: np.ndarray,
):
    """Exact reverse-mode gradients. Returns (dX, NlRoiParams of gradients).

    dX collects four contributions in fixed order: the concat pass-through,
    the phi path, the psi path, and the g path.
    """
    x = cache.x
    n = x.shape[0]
    d, d_g = config.d, config.d_g
    h, w = config.h, config.w
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != (n, d + d_g, h, w):
        raise DimensionError(
            f"upstream gradient has shape {d_out.shape}, "
            f"expected {(n, d + d_g, h, w)}"
        )

    d_x_pass, d_tile = ops.concat_channels_vjp(x, np.empty((n, d_g, h, w)), d_out)
    (d_y,) = ops.tile_spatial_vjp(cache.y_vec, h, w, d_tile)

    # Y = P G
    d_attn, d_g_pooled = ops.matmul_vjp(cache.attention, cache.g_pooled, d_y)
    d_scores = ops.softmax_vjp_from_probs(cache.attention, d_attn)
    d_raw = d_scores / config.scale()

    # raw = Phi Psi^T
    d_phi_flat = d_raw @ cache.psi_flat
    d_psi_flat = d_raw.T @ cache.phi_flat
    d_x_phi, d_w_phi, d_b_phi = ops.conv2d_1x1_vjp(
        x, params.w_phi, params.b_phi, d_phi_flat.reshape(n, config.d_f, h, w)
    )
    d_x_psi, d_w_psi, d_b_psi = ops.conv2d_1x1_vjp(
        x, params.w_psi, params.b_psi, d_psi_flat.reshape(n, config.d_f, h, w)
    )

    # G = pool(conv3x3(relu(conv1x1(x))))
    d_g_conv = np.broadcast_to(
        (d_g_pooled / (h * w))[:, :, None, None], (n, d_g, h, w)
    ).copy()
    d_g_post, d_w_g2, d_b_g2 = ops.conv2d_3x3_same_vjp(
        cache.g_post, params.w_g2, params.b_g2, d_g_conv
    )
    (d_g_pre,) = ops.relu_vjp(cache.g_pre, d_g_post)
    d_x_g, d_w_g1, d_b_g1 = ops.conv2d_1x1_vjp(x, params.w_g1, params.b_g1, d_g_pre)

    d_x = d_x_pass + d_x_phi + d_x_psi + d_x_g
    grads = NlRoiParams(
        w_phi=d_w_phi,
        b_phi=d_b_phi,
        w_psi=d_w_psi,
        b_psi=d_b_psi,
        w_g1=d_w_g1,
        b_g1=d_b_g1,
        w_g2=d_w_g2,
        b_g2=d_b_g2,
    )
    return d_x, grads
