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
call with that image alone returns. The softmax overwrites its input
stack, so each group keeps one N x N stack, the raw scores that become
the weights; the backward walks blocks of ``_ROW_BLOCK`` rows of it and
makes no whole N x N gradient.

The N x N stages and their VJPs run in a canonical RoI order: each image's
RoIs sorted by content (``_canonical_order``, one lexsort per run of
equal-count images). Relabeling an image's RoIs hands these stages the
same arrays, so they may use any deterministic kernel, BLAS for the mix
included, and the forward and the input gradient dX are bitwise
permutation-equivariant. RoIs with equal bytes are identical; they get
identical outputs wherever the sort puts them, and identical dX where
their upstream rows are equal too: the backward sorts with the same
function, by the RoIs and then by their upstream rows. The parameter
gradients sum over the RoIs in call order: they are deterministic, but a
relabeling can move their last bits.

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
from dataclasses import dataclass, fields

import numpy as np

from . import ops
from .errors import (
    ConfigError,
    DegenerateAttentionError,
    DimensionError,
    NumericalError,
    require_finite,
    require_size,
)
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
            require_size(name, getattr(self, name), 1)
        for name in ("d_f", "d_mid"):
            if getattr(self, name) > self.d:
                raise ConfigError(
                    f"{name}={getattr(self, name)} exceeds d={self.d} (bottleneck must reduce)",
                    name, "d",
                )
        if not isinstance(self.scaling, Scaling):
            raise ConfigError(f"scaling must be a Scaling member, got {self.scaling!r}", "scaling")

    def scale(self) -> float:
        if self.scaling is Scaling.PER_CHANNEL:
            return math.sqrt(self.d_f)
        return math.sqrt(self.d_f * self.h * self.w)


@dataclass(slots=True)
class NlRoiParams:
    """The operator's tensors, in the order ``init_params`` draws them. psi
    has no bias: one would add phi_i . b_psi to every score of row i, which
    the row softmax removes."""

    w_phi: np.ndarray
    b_phi: np.ndarray
    w_psi: np.ndarray
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
            "w_g1": (config.d_mid, config.d),
            "b_g1": (config.d_mid,),
            "w_g2": (config.d_g, config.d_mid, 3, 3),
            "b_g2": (config.d_g,),
        }

    def tensors(self) -> list:
        """Named tensors in field (PRNG-consumption) order."""
        return [(name, getattr(self, name)) for name in _PARAM_NAMES]


# the field names, read once: dataclasses.fields is slow to call per pass
_PARAM_NAMES = tuple(f.name for f in fields(NlRoiParams))


@dataclass
class ForwardCache:
    """What ``nlroi_backward`` reads of the forward. Per-RoI tensors cover
    all N RoIs of the call.

    The N x N stages ran in canonical order (``_canonical_order``): canonical
    row k is call row ``order[k]``. ``phi``, ``psi`` and ``g`` hold their
    rows in that order, and ``attn`` holds the weights, one canonical
    (images, n, n) stack per entry of ``groups``. For the group that starts
    at ``row``, entry (k, j) of image i's stack is the weight that call row
    ``order[row + i*n + k]`` gives to call row ``order[row + i*n + j]``; the
    diagonal holds each RoI's self-weight. ``attn`` is the only N x N array
    the cache keeps. ``config`` and ``params`` are the forward's checked
    ones: the backward differentiates them and must be given equal ones.
    ``x`` and the ``params`` tensors are the caller's own arrays wherever
    these already are C-contiguous float64 (no copy is made), so a change
    made to them in place between the passes is not caught: it passes the
    backward's identity rule, and the backward differentiates the new
    values against the old activations.
    """

    config: NlRoiConfig
    params: NlRoiParams
    x: np.ndarray            # (N, D, H, W) input blob
    groups: tuple            # (first row, images, RoIs per image) per run of equal counts
    order: np.ndarray        # (N,) call row of each canonical row
    twins: tuple             # per group: identical RoIs, see _canonical_order
    phi: np.ndarray          # (N, D_f*H*W) flattened phi embeddings
    psi: np.ndarray          # (N, D_f*H*W) flattened psi embeddings
    g: np.ndarray            # (N, D_g) per-RoI embedding matrix G
    attn: list               # per group: row-stochastic weights
    g_pre: np.ndarray        # (N, D_mid, H, W) before the ReLU, call order


def init_params(config: NlRoiConfig, prng: Prng) -> NlRoiParams:
    """Uniform [-s, s] weights with s = sqrt(6 / fan_in); zero biases.

    fan_in counts input channels times kernel area. Weight tensors consume
    PRNG draws in row-major order, in the fixed sequence w_phi, w_psi,
    w_g1, w_g2; biases are deterministic zeros and draw nothing.
    """
    named = {}
    for name, shape in NlRoiParams.shapes(config).items():
        if name.startswith("b_"):
            named[name] = np.zeros(shape)
        else:
            s = math.sqrt(6.0 / math.prod(shape[1:]))
            named[name] = prng.uniforms_in(math.prod(shape), -s, s).reshape(shape)
    return NlRoiParams(**named)


def _check_blob(x: np.ndarray, config: NlRoiConfig) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise DimensionError(f"RoI blob must have rank 4, got shape {x.shape}")
    if x.shape[1:] != (config.d, config.h, config.w):
        raise DimensionError(
            f"blob shape {x.shape} disagrees with config "
            f"(D={config.d}, H={config.h}, W={config.w})"
        )
    require_finite(x, "RoI blob")
    return x


def _check_params(params: NlRoiParams, config: NlRoiConfig) -> NlRoiParams:
    """C-contiguous float64 tensors in the shapes ``config`` implies (an
    array that already is one is taken as it is)."""
    tensors = []
    for name, want in NlRoiParams.shapes(config).items():
        t = np.ascontiguousarray(getattr(params, name), dtype=np.float64)
        if t.shape != want:
            raise DimensionError(f"{name} has shape {t.shape}, config implies {want}")
        tensors.append(t)
    return NlRoiParams(*tensors)


def _image_counts(counts, n: int) -> tuple:
    """Validated per-image RoI counts; ``None`` means one image of n RoIs."""
    if counts is None:
        return (n,)
    arr = np.asarray(counts)
    # NumPy casts bools among integers to integers: a bool is no count
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu") or any(
        isinstance(c, (bool, np.bool_)) for c in counts
    ):
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


# Rows of an image's N x N stack that the softmax VJP takes at a time (the
# forward's softmax takes it whole): 64 rows of N = 1024 are 512 KB, in L2
_ROW_BLOCK = 64


def attention_weights(s: np.ndarray, attend_to_self: bool) -> np.ndarray:
    """Row softmax of the score matrix, optionally excluding each RoI's self;
    overwrites the float64 array ``s`` with the weights and returns it.

    ``s`` is one (n, n) matrix or a stack (images, n, n). With
    attend_to_self false the diagonal receives exactly zero weight (scores
    treated as -inf, rows renormalized over the rest).
    """
    return ops.softmax_rows(s, mask_diagonal=not attend_to_self)


def _canonical_order(groups: tuple, *blobs):
    """Returns (order, twins): the canonical row order of the N x N stages.

    Canonical row k is original row ``order[k]``: each image's RoIs in
    ascending order of the bytes of their rows in the first blob, ties
    broken by the next blob, images in call order; RoIs equal in every
    blob keep their call order. A RoI's position in the call then cannot
    change what these stages compute. RoIs equal in every blob (twins) are
    identical, and the stages must give them identical results wherever
    the sort puts them: ``twins[g]`` is None, or index arrays (k, a) into
    group g's canonical rows, where RoI k repeats RoI a, the first of its
    run of twins.
    """
    order = np.empty(blobs[0].shape[0], dtype=np.intp)
    keys = [_row_keys(b) for b in blobs]
    lead = blobs[0][:, 0, 0, 0]
    twins = []
    for row, images, rois in groups:
        end = row + images * rois
        block = np.lexsort([k[row:end].reshape(images, rois) for k in reversed(keys)], axis=-1)
        # each image's first call row, in one step (empty images: empty block)
        if images > 1 and rois:
            block += np.arange(row, end, rois)[:, None]
        elif row:
            block += row
        ranked = order[row:end] = block.reshape(-1)
        first = lead[ranked]
        same = first[1:] == first[:-1]
        # an image's first RoI has no left neighbour
        same[rois - 1 :: max(rois, 1)] = False
        # twins: neighbours with equal first elements, then equal bytes in
        # every blob (gathering every neighbour's bytes would copy the blobs)
        (k,) = np.nonzero(same)
        if k.size:
            for key in keys:
                same[k] &= key[ranked[k + 1]] == key[ranked[k]]
            k = k[same[k]]
        if not k.size:
            twins.append(None)
            continue
        # a run of twins starts at the last RoI that differs from the one before
        start = np.maximum.accumulate(np.where(same, 0, np.arange(1, same.size + 1)))
        twins.append((k + 1, start[k]))
    return order, tuple(twins)


def _row_keys(a: np.ndarray) -> np.ndarray:
    """One void scalar per row of ``a``, holding the row's bytes."""
    rows = np.ascontiguousarray(a).reshape(a.shape[0], math.prod(a.shape[1:]))
    return rows.view(f"V{rows.itemsize * rows.shape[1]}")[:, 0]


def _stacked(a: np.ndarray, row: int, images: int, rois: int) -> np.ndarray:
    """The group's rows of a per-RoI matrix as an (images, rois, cols) view."""
    return a[row : row + images * rois].reshape(images, rois, a.shape[1])


def _scores(phi: np.ndarray, psi: np.ndarray, row: int, images: int, rois: int) -> np.ndarray:
    """A group's raw scores Phi Psi^T, a canonical (images, rois, rois) stack."""
    return ops.matmul(
        _stacked(phi, row, images, rois), _stacked(psi, row, images, rois).transpose(0, 2, 1)
    )


def _require_finite_scores(s, order, row, image):
    """Raises NumericalError at a non-finite entry of the canonical stack of
    scaled scores of the group that starts at ``row``, whose first image is
    ``image``. The index is given in the image's own row order."""
    finite = np.isfinite(s)
    if not finite.all():
        k, i, j = (int(v) for v in np.argwhere(~finite)[0])
        start = row + k * s.shape[-1]
        # canonical row r of the image is row order[start + r] - start of the call
        at = tuple(int(order[start + r]) - start for r in (i, j))
        raise NumericalError(
            f"attention score matrix of image {image + k} has a non-finite value "
            f"{float(s[k, i, j])!r} at index {at}"
        )


def nlroi_forward(x: np.ndarray, params: NlRoiParams, config: NlRoiConfig, counts=None):
    """Forward pass: returns (output blob (N, D+D_g, H, W), ForwardCache).

    ``x`` holds the RoIs of one or more images, concatenated along the
    first axis; ``counts`` gives each image's RoI count (``None``: one
    image). A RoI attends only to the RoIs of its own image, and each
    image's output rows are bitwise equal to a call with that image alone.
    An image may have 0 RoIs (a detector may propose zero regions); an
    image with 1 RoI is degenerate when attend_to_self is false and raises.

    This entry checks every input against ``config`` and hands the ops
    C-contiguous float64 arrays, which the ops take without checks.
    """
    x = _check_blob(x, config)
    params = _check_params(params, config)
    counts = _image_counts(counts, x.shape[0])
    if not config.attend_to_self and 1 in counts:
        raise DegenerateAttentionError(
            f"image {counts.index(1)} has a single RoI: with self-attention masked "
            "it has no entries left to attend to"
        )
    groups = _groups(counts)
    order, twins = _canonical_order(groups, x)
    phi = _flat_embed(x, params.w_phi, params.b_phi)[order]
    psi = _flat_embed(x, params.w_psi, None)[order]
    g_pre = ops.conv2d_1x1(x, params.w_g1, params.b_g1)
    g = ops.conv2d_3x3_pooled(ops.relu(g_pre), params.w_g2, params.b_g2)
    require_finite(g, "g-branch embedding")
    g = g[order]
    y_vec = np.empty(g.shape)
    attns = []
    image = 0
    for (row, images, rois), twin in zip(groups, twins):
        # the weights overwrite the raw scores
        attn = _scores(phi, psi, row, images, rois)
        attn /= config.scale()
        _require_finite_scores(attn, order, row, image)
        attention_weights(attn, config.attend_to_self)
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
        attns.append(attn)
        image += images
    out = ops.concat_channels(x, y_vec[:, :, None, None])
    cache = ForwardCache(
        config=config,
        params=params,
        x=x,
        groups=groups,
        order=order,
        twins=twins,
        phi=phi,
        psi=psi,
        g=g,
        attn=attns,
        g_pre=g_pre,
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
        psi[i] = conv1x1_rows(x[i], params.w_psi, np.zeros(d_f), d_f).reshape(-1)

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


def _group_vjp(cache, group, attn, d_y, scale, rows, d_phi, d_psi):
    """The mix, softmax and score VJPs of one group, in canonical order.
    Returns G's gradient P^T dY and writes d_phi's and d_psi's rows ``rows``
    ((images, rois) indices into (N, D_f*H*W) arrays). The weights' gradient
    dP = dY G^T is taken one block of ``_ROW_BLOCK`` rows of every image at
    a time, with the scale folded into G, and becomes the raw scores'
    gradient dS in place; the block gives its rows of dS Psi and its term
    of dS^T Phi. No N x N array outlives a block."""
    phi, psi, g = (_stacked(a, *group) for a in (cache.phi, cache.psi, cache.g))
    g_t = (g / scale).transpose(0, 2, 1)
    d_psi_sum = None
    for first in range(0, attn.shape[1], _ROW_BLOCK):
        block = slice(first, first + _ROW_BLOCK)
        d_s = ops.softmax_vjp_from_probs(attn[:, block], d_y[:, block] @ g_t)
        d_phi[rows[:, block].reshape(-1)] = (d_s @ psi).reshape(-1, psi.shape[2])
        term = d_s.transpose(0, 2, 1) @ phi[:, block]
        if d_psi_sum is None:
            # the first term starts the sum: a zeroed start added about 8% to
            # paper_scale's backward (3.2 MB more of fresh pages, one more pass)
            d_psi_sum = term
        else:
            d_psi_sum += term
    if d_psi_sum is not None:  # a group of empty images has no blocks
        d_psi[rows.reshape(-1)] = d_psi_sum.reshape(-1, psi.shape[2])
    return attn.transpose(0, 2, 1) @ d_y


def nlroi_backward(
    cache: ForwardCache,
    params: NlRoiParams,
    config: NlRoiConfig,
    d_out: np.ndarray,
):
    """Exact reverse-mode gradients. Returns (dX, NlRoiParams of gradients).

    ``config`` and ``params`` must equal the forward's, which the cache
    records: the cached activations fit no others. A different config
    raises ConfigError, and so does the first parameter tensor, in
    ``NlRoiParams`` order, that is neither the forward's own array nor
    ``np.array_equal`` to it. The backward differentiates the cache's
    tensors, so the layout and dtype of ``params`` do not change a bit.
    The cache may alias the caller's ``x`` and parameter arrays (see
    ``ForwardCache``): change them in place only after the backward.

    dX is the concat pass-through plus one stacked 1x1 VJP: phi, psi and
    g1 read the same x, so their upstreams share one buffer and one call
    gives their dX as one product per RoI. The mix, softmax and score VJPs
    run per group of the cache in the forward's canonical order, on blocks
    of each image's rows (``_group_vjp``), and so does the pooled 3x3
    conv's VJP; their results go back to call order once per tensor, the
    ReLU VJP's straight into the stacked upstream. At paper widths the
    backward's peak beside the cache is at most that upstream, dX and one
    (N, D_mid, H, W) map (``TestMemory`` bounds it). A non-finite
    ``d_out`` raises NumericalError. When the forward found twins,
    ``_canonical_order`` sorts again by x and then by ``d_out``, which
    puts each run of twins in an order of its own, and twins whose
    upstream rows are equal too get the dX of the first of them. Parameter
    gradients are summed over every image of the call.
    """
    if config is not cache.config and config != cache.config:
        raise ConfigError(f"backward config {config} differs from the forward's {cache.config}")
    for name, t in cache.params.tensors():
        given = getattr(params, name)
        if given is not t and not np.array_equal(given, t):
            raise ConfigError(f"backward parameter {name} differs from the forward's", name)
    params = cache.params
    x = cache.x
    n = x.shape[0]
    d, d_f, d_g = config.d, config.d_f, config.d_g
    h, w = config.h, config.w
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != (n, d + d_g, h, w):
        raise DimensionError(
            f"upstream gradient has shape {d_out.shape}, "
            f"expected {(n, d + d_g, h, w)}"
        )
    require_finite(d_out, "upstream gradient")

    d_x_pass, d_tile = ops.concat_channels_vjp(x, d_out)
    d_y = ops.tile_spatial_vjp(d_tile)

    # phi, psi and g1 are 1x1 convs of x: one buffer and one VJP serve all three
    d_emb = np.empty((n, 2 * d_f + config.d_mid, h, w))
    # (N, D_f*H*W) views: each row's D_f channels are contiguous
    d_phi, d_psi = (d_emb[:, c : c + d_f].reshape(n, d_f * h * w) for c in (0, d_f))

    order, twins = cache.order, cache.twins
    if any(t is not None for t in twins):
        # the backward sums over a run of twins, whose upstream rows may
        # differ: sort each run by them too (the cache fits any order of a run)
        order, twins = _canonical_order(cache.groups, x, d_out)
    d_y_canon = d_y[order]
    d_g_canon = np.empty((n, d_g))
    for group, attn in zip(cache.groups, cache.attn):
        row, images, rois = group
        rows = order[row : row + images * rois].reshape(images, rois)
        d_g_canon[row : row + images * rois] = _group_vjp(
            cache, group, attn, _stacked(d_y_canon, *group), config.scale(), rows, d_phi, d_psi
        ).reshape(-1, d_g)

    # G = pool(conv3x3(relu(conv1x1(x)))); the pooled conv's input gradient
    # is one product over all rows, so it too runs in canonical order. The
    # ReLU is redone in place on the gather (in ops.relu's operand order),
    # whose > 0 is its input's: it masks the VJP, scattered once to call order
    g_post = cache.g_pre[order]
    np.maximum(0.0, g_post, out=g_post)
    d_g_canon, d_w_g2, d_b_g2 = ops.conv2d_3x3_pooled_vjp(g_post, params.w_g2, d_g_canon)
    d_emb[order, 2 * d_f :] = ops.relu_vjp(g_post, d_g_canon)
    del g_post, d_g_canon  # not held through the stacked 1x1 VJP

    w_emb = np.concatenate([params.w_phi, params.w_psi, params.w_g1])
    d_x, d_w, d_b = ops.conv2d_1x1_vjp(x, w_emb, d_emb)
    d_x += d_x_pass
    # twins with equal upstream rows may still round differently by place
    for (row, _, _), twin in zip(cache.groups, twins):
        if twin is not None:
            k, a = twin
            d_x[order[row + k]] = d_x[order[row + a]]
    grads = NlRoiParams(
        w_phi=d_w[:d_f],
        b_phi=d_b[:d_f],
        w_psi=d_w[d_f : 2 * d_f],
        w_g1=d_w[2 * d_f :],
        b_g1=d_b[2 * d_f :],
        w_g2=d_w_g2,
        b_g2=d_b_g2,
    )
    return d_x, grads
