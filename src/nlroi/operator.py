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

The N x N stages and their VJPs run in a canonical RoI order: each image's
RoIs sorted by content (``_canonical_order``, one argsort per run of
equal-count images). Relabeling an image's RoIs hands these stages the
same arrays, so they may use any deterministic kernel, BLAS for the mix
included, and the forward and the input gradient dX are bitwise
permutation-equivariant. RoIs with equal bytes are identical; they get
identical outputs wherever the sort puts them, and identical dX where
their upstream rows are equal too. The parameter gradients sum over the
RoIs in call order: they are deterministic, but a relabeling can move
their last bits.

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
    """Forward activations. Per-RoI tensors cover all N RoIs of the call.

    The N x N stages ran in canonical order (``_canonical_order``): canonical
    row k is original row ``order[k]``. ``phi``, ``psi`` and ``g`` hold
    their rows in that order, and ``raw`` and ``attn`` one canonical
    (images, n, n) stack per entry of ``groups``. ``g_pooled``,
    ``scores_raw``, ``scores`` and ``attention`` give them in the call's
    own row order.
    """

    x: np.ndarray            # (N, D, H, W) input blob
    groups: tuple            # (first row, images, RoIs per image) per run of equal counts
    order: np.ndarray        # (N,) original row of each canonical row
    twins: tuple             # per group: identical RoIs, see _canonical_order
    phi: np.ndarray          # (N, D_f*H*W) flattened phi embeddings
    psi: np.ndarray          # (N, D_f*H*W) flattened psi embeddings
    g: np.ndarray            # (N, D_g) per-RoI embedding matrix G
    raw: list                # per group: dot products before scaling
    scale: float             # divisor of the raw scores
    attn: list               # per group: row-stochastic weights
    g_pre: np.ndarray        # (N, D_mid, H, W) before the ReLU, call order
    g_post: np.ndarray       # (N, D_mid, H, W) after the ReLU, call order
    y_vec: np.ndarray        # (N, D_g) attention-mixed output, call order

    @property
    def g_pooled(self) -> np.ndarray:
        """(N, D_g) per-RoI embedding matrix G."""
        out = np.empty(self.g.shape)
        out[self.order] = self.g
        return out

    def _in_call_order(self, stacks: list) -> list:
        out = []
        for (row, images, rois), a in zip(self.groups, stacks):
            rank = np.argsort(self.order[row : row + images * rois].reshape(images, rois), axis=-1)
            out.append(a[np.arange(images)[:, None, None], rank[:, :, None], rank[:, None, :]])
        return out

    @property
    def scores_raw(self) -> list:
        """Per group: dot products before scaling."""
        return self._in_call_order(self.raw)

    @property
    def scores(self) -> list:
        """Per group: the scaled scores fed to the softmax, bit for bit."""
        return [raw / self.scale for raw in self.scores_raw]

    @property
    def attention(self) -> list:
        """Per group: row-stochastic weights."""
        return self._in_call_order(self.attn)


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


def _canonical_order(x: np.ndarray, groups: tuple):
    """Returns (order, twins): the canonical row order of the N x N stages.

    Canonical row k is original row ``order[k]``: each image's RoIs in
    ascending order of their bytes, images in call order. A RoI's position
    in the call then cannot change what these stages compute. RoIs with
    equal bytes (twins) are identical, and the stages must give them
    identical results wherever the sort puts them: ``twins[g]`` is None, or
    index arrays (k, a) into group g's canonical rows, where RoI k repeats
    RoI a, the first of its run of twins.
    """
    order = np.empty(x.shape[0], dtype=np.intp)
    keys = _row_keys(x)
    lead = x[:, 0, 0, 0]
    twins = []
    for row, images, rois in groups:
        end = row + images * rois
        block = np.argsort(keys[row:end].reshape(images, rois), axis=-1)
        block += row + rois * np.arange(images)[:, None]
        order[row:end] = block.reshape(-1)
        ranked = order[row:end]
        first = lead[ranked]
        same = first[1:] == first[:-1]
        # an image's first RoI has no left neighbour (a group of empty
        # images has nothing to compare)
        same[rois - 1 :: max(rois, 1)] = False
        # twins: neighbours with equal first elements, then equal bytes
        # (gathering every neighbour's bytes would copy the whole blob)
        (k,) = np.nonzero(same)
        same[k] = keys[ranked[k + 1]] == keys[ranked[k]]
        twins.append(_repeats(same))
    return order, tuple(twins)


def _row_keys(a: np.ndarray) -> np.ndarray:
    """One void scalar per row of ``a``, holding the row's bytes."""
    rows = np.ascontiguousarray(a).reshape(a.shape[0], math.prod(a.shape[1:]))
    return rows.view(f"V{rows.itemsize * rows.shape[1]}")[:, 0]


def _repeats(same: np.ndarray):
    """None, or (k, a) where entry k repeats entry a, the first of its run;
    ``same[k - 1]`` says entry k equals entry k - 1."""
    (k,) = np.nonzero(same)
    if not k.size:
        return None
    # a run starts at the last entry that differs from the one before
    start = np.maximum.accumulate(np.where(same, 0, np.arange(1, same.size + 1)))
    return k + 1, start[k]


def _stacked(a: np.ndarray, row: int, images: int, rois: int) -> np.ndarray:
    """The group's rows of a per-RoI matrix as an (images, rois, cols) view."""
    return a[row : row + images * rois].reshape(images, rois, a.shape[1])


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
    order, twins = _canonical_order(x, groups)
    phi = _flat_embed(x, params.w_phi, params.b_phi)[order]
    psi = _flat_embed(x, params.w_psi, params.b_psi)[order]
    g_pre = ops.conv2d_1x1(x, params.w_g1, params.b_g1)
    g_post = ops.relu(g_pre)
    g = ops.conv2d_3x3_pooled(g_post, params.w_g2, params.b_g2)[order]
    y_vec = np.empty(g.shape)
    raws, attns = [], []
    image = 0
    for (row, images, rois), twin in zip(groups, twins):
        raw = ops.matmul(
            _stacked(phi, row, images, rois),
            _stacked(psi, row, images, rois).transpose(0, 2, 1),
        )
        s = raw / config.scale()
        if not np.isfinite(s).all():
            k = int(np.argmin(np.isfinite(s).reshape(images, -1).all(axis=1)))
            _require_finite(s[k], f"attention score matrix of image {image + k}")
        attn = attention_weights(s, config.attend_to_self)
        mixed = (attn @ _stacked(g, row, images, rois)).reshape(-1, config.d_g)
        if twin is not None:
            # a twin copies the first RoI of its run: rows that differ only
            # in where the masked zero sits may round differently
            k, a = twin
            rows = attn.reshape(-1, rois)
            rows[k] = rows[a]
            mixed[k] = mixed[a]
            if not config.attend_to_self:
                rows[k, a % rois] = rows[k, k % rois]
                rows[k, k % rois] = 0.0
        y_vec[order[row : row + images * rois]] = mixed
        raws.append(raw)
        attns.append(attn)
        image += images
    out = ops.concat_channels(x, ops.tile_spatial(y_vec, config.h, config.w))
    cache = ForwardCache(
        x=x,
        groups=groups,
        order=order,
        twins=twins,
        phi=phi,
        psi=psi,
        g=g,
        raw=raws,
        scale=config.scale(),
        attn=attns,
        g_pre=g_pre,
        g_post=g_post,
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


def _backward_order(cache: ForwardCache, d_out: np.ndarray):
    """Returns (order, copies): the forward's canonical order, with each
    run of twins put in order of their upstream rows' bytes, and per run
    of twins with equal upstream rows too, (rows, first row) to copy dX to.

    The backward sums over a run's rows, so their order must not depend on
    the call's; the cached tensors are the same for every order of a run.
    Twins with equal upstream rows are indistinguishable, but their dX
    rows may still round differently by their place in the run.
    """
    order = cache.order.copy()
    copies = []
    for (row, images, rois), twin in zip(cache.groups, cache.twins):
        if twin is None:
            continue
        k, a = twin
        run = np.arange(images * rois)
        run[k] = a
        rows = order[row : row + images * rois]
        keys = _row_keys(d_out[rows])
        by_key = np.lexsort((keys, run))
        rows[:] = rows[by_key]
        keys = keys[by_key]
        repeat = _repeats((run[1:] == run[:-1]) & (keys[1:] == keys[:-1]))
        if repeat is not None:
            k, a = repeat
            copies.append((rows[k], rows[a]))
    return order, copies


def nlroi_backward(
    cache: ForwardCache,
    params: NlRoiParams,
    config: NlRoiConfig,
    d_out: np.ndarray,
):
    """Exact reverse-mode gradients. Returns (dX, NlRoiParams of gradients).

    dX collects four contributions in fixed order: the concat pass-through,
    the phi path, the psi path, and the g path. The mix, softmax and score
    VJPs run per group of the cache with batched products, in the forward's
    canonical order (``_backward_order``), and so does the pooled 3x3
    conv's VJP; their results go back to call order once per tensor.
    Twins whose upstream rows are equal too get the dX of the first of them.
    Parameter gradients are summed over every image of the call.
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

    order, copies = _backward_order(cache, d_out)
    d_y_canon = d_y[order]
    flat = cache.phi.shape[1]
    d_g_canon = np.empty((n, d_g))
    d_phi = np.empty((n, flat))
    d_psi = np.empty((n, flat))
    for (row, images, rois), attn in zip(cache.groups, cache.attn):
        rows = order[row : row + images * rois]
        # Y = P G
        d_attn, d_g_stack = ops.matmul_vjp(
            attn, _stacked(cache.g, row, images, rois), _stacked(d_y_canon, row, images, rois)
        )
        d_g_canon[row : row + images * rois] = d_g_stack.reshape(-1, d_g)
        d_raw = ops.softmax_vjp_from_probs(attn, d_attn) / config.scale()
        # raw = Phi Psi^T
        d_phi[rows] = (d_raw @ _stacked(cache.psi, row, images, rois)).reshape(-1, flat)
        d_psi[rows] = (d_raw.transpose(0, 2, 1) @ _stacked(cache.phi, row, images, rois)).reshape(
            -1, flat
        )
    d_x_phi, d_w_phi, d_b_phi = ops.conv2d_1x1_vjp(
        x, params.w_phi, params.b_phi, d_phi.reshape(n, config.d_f, h, w)
    )
    d_x_psi, d_w_psi, d_b_psi = ops.conv2d_1x1_vjp(
        x, params.w_psi, params.b_psi, d_psi.reshape(n, config.d_f, h, w)
    )

    # G = pool(conv3x3(relu(conv1x1(x)))); the pooled conv's input gradient
    # is one product over all rows, so it too runs in canonical order
    d_g_canon, d_w_g2, d_b_g2 = ops.conv2d_3x3_pooled_vjp(
        cache.g_post[order], params.w_g2, params.b_g2, d_g_canon
    )
    d_g_post = np.empty(d_g_canon.shape)
    d_g_post[order] = d_g_canon
    (d_g_pre,) = ops.relu_vjp(cache.g_pre, d_g_post)
    d_x_g, d_w_g1, d_b_g1 = ops.conv2d_1x1_vjp(x, params.w_g1, params.b_g1, d_g_pre)

    d_x = d_x_pass + d_x_phi + d_x_psi + d_x_g
    for twins, first in copies:
        d_x[twins] = d_x[first]
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
