"""The non-local RoI attention operator.

Given a blob of N aligned RoI features with shape (N, D, H, W), each RoI
attends to every RoI through an embedded-Gaussian affinity

    f(x_i, x_j) = exp(<flatten(phi(x_i)), flatten(psi(x_j))> / scale)

where phi and psi are learned 1x1 convolutions to D_f channels. The
normalized weights mix per-RoI embeddings g(x_j) (1x1 conv, ReLU, 3x3 conv,
global average pool, giving a D_g vector per RoI; the pool is folded into
the 3x3 conv, so the conv's H x W map is never formed). The mixed vector is
tiled back to H x W and appended to the input channels, so the output blob
has shape (N, D + D_g, H, W) with the original features untouched in front.

In a detector head every image brings its own RoIs, and a RoI attends only
to the RoIs of its own image. ``nlroi_forward`` takes the RoIs of several
images concatenated along the first axis, with ``counts`` giving each
image's RoI count. The channel stages (phi/psi embeddings, the g-branch,
tile and concat) run once over all RoIs; the N x N stages (score, softmax,
mix) run once per run of consecutive images with equal counts, on stacked
(images, n, .) arrays. Every image's output is bitwise equal to what a
call with that image alone returns.

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
import itertools
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
    """Forward activations. Per-RoI tensors cover all N RoIs of the call;
    the N x N tensors hold one (images, n, n) stack per entry of ``groups``."""

    x: np.ndarray            # (N, D, H, W) input blob
    groups: tuple            # (first row, images, RoIs per image) per run of equal counts
    phi_flat: np.ndarray     # (N, D_f*H*W)
    psi_flat: np.ndarray     # (N, D_f*H*W)
    scores_raw: list         # per group: dot products before scaling
    scale: float             # divisor of scores_raw
    attention: list          # per group: row-stochastic weights
    g_pre: np.ndarray        # (N, D_mid, H, W) before the ReLU
    g_post: np.ndarray       # (N, D_mid, H, W) after the ReLU
    g_pooled: np.ndarray     # (N, D_g) per-RoI embedding matrix G
    y_vec: np.ndarray        # (N, D_g) attention-mixed output

    @property
    def scores(self) -> list:
        """Per group: the scaled scores fed to the softmax, bit for bit."""
        return [raw / self.scale for raw in self.scores_raw]


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


def _image_counts(counts, n: int) -> tuple:
    """Validated per-image RoI counts; ``None`` means one image of n RoIs."""
    if counts is None:
        return (n,)
    arr = np.asarray(counts)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise DimensionError(f"counts must be a sequence of integers, got {counts!r}")
    counts = tuple(int(c) for c in arr)
    if any(c < 0 for c in counts):
        image = next(i for i, c in enumerate(counts) if c < 0)
        raise DimensionError(f"image {image} has a negative RoI count {counts[image]}")
    if sum(counts) != n:
        raise DimensionError(f"counts sum to {sum(counts)}, but the blob holds {n} RoIs")
    return counts


def _groups(counts: tuple) -> tuple:
    """(first row, images, RoIs per image) for each run of equal counts."""
    groups = []
    row = 0
    for rois, run in itertools.groupby(counts):
        images = len(list(run))
        groups.append((row, images, rois))
        row += images * rois
    return tuple(groups)


def _flat_embed(x, w, b):
    # 1x1 conv then row-major flatten to (N, D_f*H*W); the explicit product
    # keeps the reshape well defined when N = 0
    e = ops.conv2d_1x1(x, w, b)
    return e.reshape(e.shape[0], e.shape[1] * e.shape[2] * e.shape[3])


def attention_weights(s: np.ndarray, attend_to_self: bool) -> np.ndarray:
    """Row softmax of the score matrix, optionally excluding each RoI's self.

    ``s`` is one (n, n) matrix or a stack (images, n, n). With
    attend_to_self false the diagonal receives exactly zero weight (scores
    treated as -inf, rows renormalized over the rest).
    """
    return ops.softmax_rows(s, mask_diagonal=not attend_to_self)


def _mix_embeddings(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Y[b,i,c] = sum_j P[b,i,j] * G[b,j,c], addends added in ascending value order.

    Value-ordered accumulation makes each output depend only on the multiset
    of (weight, embedding) pairs, so permuting the attended RoIs changes
    nothing, bit for bit. The leading axis stacks images.
    """
    images, n, m = p.shape
    dg = g.shape[2]
    if m == 0:
        return np.zeros((images, n, dg))
    # every image's rows in one (images * n, m, dg) array; each row alone
    terms = np.sort(p[:, :, :, None] * g[:, None, :, :], axis=2).reshape(images * n, m, dg)
    out = terms[:, 0, :].copy()
    for j in range(1, m):
        out += terms[:, j, :]
    return out.reshape(images, n, dg)


def _stacked(a: np.ndarray, row: int, images: int, rois: int) -> np.ndarray:
    """The group's rows of a per-RoI matrix as an (images, rois, cols) view."""
    return a[row : row + images * rois].reshape(images, rois, a.shape[1])


def _unstacked(stacks: list, cols: int) -> np.ndarray:
    """Per-group (images, rois, cols) stacks back to one per-RoI matrix."""
    return np.concatenate([s.reshape(-1, cols) for s in stacks] or [np.zeros((0, cols))])


def nlroi_forward(x: np.ndarray, params: NlRoiParams, config: NlRoiConfig, counts=None):
    """Forward pass: returns (output blob (N, D+D_g, H, W), ForwardCache).

    ``x`` holds the RoIs of one or more images, concatenated along the
    first axis; ``counts`` gives each image's RoI count (``None``: one
    image). A RoI attends only to the RoIs of its own image, and each
    image's output rows are bitwise equal to a call with that image alone.
    An image may have 0 RoIs (a detector may propose zero regions); an
    image with 1 RoI is degenerate when attend_to_self is false and raises.
    """
    x = _check_blob(x, config)
    counts = _image_counts(counts, x.shape[0])
    if not config.attend_to_self and 1 in counts:
        raise DegenerateAttentionError(
            f"image {counts.index(1)} has a single RoI: with self-attention masked "
            "it has no entries left to attend to"
        )
    groups = _groups(counts)
    phi_flat = _flat_embed(x, params.w_phi, params.b_phi)
    psi_flat = _flat_embed(x, params.w_psi, params.b_psi)
    g_pre = ops.conv2d_1x1(x, params.w_g1, params.b_g1)
    g_post = ops.relu(g_pre)
    g_pooled = ops.conv2d_3x3_pooled(g_post, params.w_g2, params.b_g2)
    raws, attns, mixed = [], [], []
    image = 0
    for row, images, rois in groups:
        raw = ops.matmul(
            _stacked(phi_flat, row, images, rois),
            _stacked(psi_flat, row, images, rois).transpose(0, 2, 1),
        )
        s = raw / config.scale()
        if not np.isfinite(s).all():
            k = int(np.argmin(np.isfinite(s).reshape(images, -1).all(axis=1)))
            _require_finite(s[k], f"attention score matrix of image {image + k}")
        attn = attention_weights(s, config.attend_to_self)
        mixed.append(_mix_embeddings(attn, _stacked(g_pooled, row, images, rois)))
        raws.append(raw)
        attns.append(attn)
        image += images
    y_vec = _unstacked(mixed, config.d_g)
    out = ops.concat_channels(x, ops.tile_spatial(y_vec, config.h, config.w))
    cache = ForwardCache(
        x=x,
        groups=groups,
        phi_flat=phi_flat,
        psi_flat=psi_flat,
        scores_raw=raws,
        scale=config.scale(),
        attention=attns,
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
    the phi path, the psi path, and the g path. The mix, softmax and score
    VJPs run per group of the cache with batched products; parameter
    gradients are summed over every image of the call.
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

    d_mixed, d_phi, d_psi = [], [], []
    for (row, images, rois), attn in zip(cache.groups, cache.attention):
        phi = _stacked(cache.phi_flat, row, images, rois)
        psi = _stacked(cache.psi_flat, row, images, rois)
        # Y = P G
        d_attn, d_g_stack = ops.matmul_vjp(
            attn, _stacked(cache.g_pooled, row, images, rois), _stacked(d_y, row, images, rois)
        )
        d_raw = ops.softmax_vjp_from_probs(attn, d_attn) / config.scale()
        # raw = Phi Psi^T
        d_mixed.append(d_g_stack)
        d_phi.append(d_raw @ psi)
        d_psi.append(d_raw.transpose(0, 2, 1) @ phi)
    flat = cache.phi_flat.shape[1]
    d_g_pooled = _unstacked(d_mixed, d_g)
    d_phi_flat = _unstacked(d_phi, flat)
    d_psi_flat = _unstacked(d_psi, flat)
    d_x_phi, d_w_phi, d_b_phi = ops.conv2d_1x1_vjp(
        x, params.w_phi, params.b_phi, d_phi_flat.reshape(n, config.d_f, h, w)
    )
    d_x_psi, d_w_psi, d_b_psi = ops.conv2d_1x1_vjp(
        x, params.w_psi, params.b_psi, d_psi_flat.reshape(n, config.d_f, h, w)
    )

    # G = pool(conv3x3(relu(conv1x1(x))))
    d_g_post, d_w_g2, d_b_g2 = ops.conv2d_3x3_pooled_vjp(
        cache.g_post, params.w_g2, params.b_g2, d_g_pooled
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
