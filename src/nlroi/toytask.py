"""Majority-context classification: a task local features cannot solve.

Each scene holds N RoIs. A majority class is drawn, exactly ceil(0.6*N)
RoIs carry it as their latent class, and the rest carry classes drawn from
the remaining K-1. Every RoI's *label* is the majority class, but its
*features* encode only its own latent class (a noisy one-hot in the first
K channels, replicated across positions). A per-RoI predictor therefore
hits an accuracy ceiling: minority RoIs cannot know which of the other
classes won. A model that mixes information across RoIs has no such cap,
which is exactly what the attention operator provides.

With m = ``majority_count(N)``, an oracle that knows its own latent class
and its own majority membership is right with probability
m/N + (1 - m/N)/(K - 1), 0.75 at N=8, K=4 (a generous bound; a realizable
per-RoI classifier does worse). ``train`` fits either variant with SGD +
momentum and weight decay; ``evaluate`` measures per-RoI accuracy on
freshly drawn scenes.

A training step (and each chunk of evaluation scenes) draws its scenes
from one block of PRNG outputs, which gives exactly the scenes that one
``generate_scene`` call per scene gives, and goes through the model in one
call: the nlroi variant puts the scenes' RoIs into one blob and makes one
operator forward and one backward, with each scene as a separate image, so
RoIs attend only within their own scene. An evaluation chunk holds as many
scenes as fit ``_EVAL_BUDGET`` RoI feature values (56 at the default
config), at least one. The chunking moves no bit: the block draw is the
per-scene draw, each image's operator output is the one-image call's, and
the head makes one BLAS call per row. Every map the head pools is
spatially constant (the features replicate a row, and the operator appends
a tiled vector), so its pooled row is its value at any position: the nlroi
variant reads position (0, 0) of the operator output, and the baseline
takes each RoI's noisy one-hot row and never builds the blob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ops
from .errors import ConfigError, DimensionError, DivergenceError, NumericalError, require_size
from .operator import (
    NlRoiConfig,
    NlRoiParams,
    init_params,
    nlroi_backward,
    nlroi_forward,
)
from .rng import Prng, partial_shuffle, raw_to_normals

# Evaluation draws scenes from a salted seed so that passing the training
# seed to evaluate() never replays the exact scenes seen during training.
_EVAL_SEED_SALT = 0xD1B54A32D192ED03
# RoI feature values (float64) per model call in evaluate(): 512 KB of blob
_EVAL_BUDGET = 1 << 16

NOISE_SIGMA = 0.1


def majority_count(n: int) -> int:
    """ceil(0.6 * n) without float rounding."""
    return (3 * n + 4) // 5


@dataclass
class Scene:
    features: np.ndarray        # (N, D, H, W)
    latent_classes: np.ndarray  # (N,) ints in [0, K)
    majority_class: int
    labels: np.ndarray          # (N,) all equal to majority_class


@dataclass
class SceneSpec:
    n: int
    k: int
    d: int
    h: int
    w: int

    def __post_init__(self):
        # a scene needs 2 RoIs and classification 2 classes
        for name, least in (("n", 2), ("k", 2), ("d", 1), ("h", 1), ("w", 1)):
            require_size(name, getattr(self, name), least)
        if self.k > self.d:
            raise ConfigError(f"k={self.k} classes need k <= d={self.d} channels", "k", "d")


def _draw_scenes(prng: Prng, spec: SceneSpec, count: int):
    """Draw ``count`` scenes from one block of raw PRNG outputs.

    Returns each RoI's noisy one-hot row, (count * N, D), its latent class
    and its label, scene after scene. Per scene the block holds n + 1
    outputs, for the majority class (randint(k)), the majority slots
    (sample_indices(n, m)) and one randint(k - 1) per minority RoI in
    ascending index, then 2 * n * d outputs for one normal per (RoI,
    channel). These are the outputs, and the values, that those draws
    would take one call at a time, so the stream does not depend on how
    many scenes one call draws. The noise columns go through
    ``raw_to_normals`` straight into the rows, in pieces of at most
    ``rng._CHUNK`` outputs (one piece for every default-config draw), and
    are scaled in place: the bits of ``NOISE_SIGMA * normals``.
    """
    n, k, d = spec.n, spec.k, spec.d
    m = majority_count(n)
    block = prng.u64s(count * (n + 1 + 2 * n * d)).reshape(count, -1)
    majority = (block[:, 0] % np.uint64(k)).astype(np.int64)
    member = np.zeros((count, n), dtype=bool)
    member[np.arange(count)[:, None], partial_shuffle(n, block[:, 1 : m + 1])] = True
    r = (block[:, m + 1 : n + 1] % np.uint64(k - 1)).astype(np.int64)
    latent = np.repeat(majority[:, None], n, axis=1)
    latent[~member] = (r + (r >= majority[:, None])).reshape(-1)
    latent = latent.reshape(-1)
    rows = np.empty((count * n, d))
    raw_to_normals(block[:, n + 1 :], rows.reshape(count, n * d))
    rows *= NOISE_SIGMA
    rows[np.arange(count * n), latent] += 1.0
    return rows, latent, np.repeat(majority, n)


def generate_scene(prng: Prng, spec: SceneSpec) -> Scene:
    """Draw one scene: the one-scene case of the block draw above, with
    each RoI's row replicated across the H x W positions."""
    rows, latent, labels = _draw_scenes(prng, spec, 1)
    return Scene(
        features=ops.tile_spatial(rows, spec.h, spec.w),
        latent_classes=latent,
        majority_class=int(labels[0]),
        labels=labels,
    )


@dataclass
class ToyModel:
    spec: SceneSpec
    nlroi_config: Optional[NlRoiConfig]  # None for the baseline variant
    nlroi_params: Optional[NlRoiParams]
    w_head: np.ndarray  # (K, D) or (K, D + D_g)
    b_head: np.ndarray  # (K,)

    @staticmethod
    def shapes(spec: SceneSpec, nlroi_config: Optional[NlRoiConfig]) -> dict:
        """Each tensor's shape, the head's and then the operator's, in
        ``tensors()`` order. The operator reads the scenes' RoIs, so its
        config must have the spec's D, H and W; ConfigError otherwise."""
        if nlroi_config is None:
            return {"w_head": (spec.k, spec.d), "b_head": (spec.k,)}
        if (nlroi_config.d, nlroi_config.h, nlroi_config.w) != (spec.d, spec.h, spec.w):
            raise ConfigError(f"operator config {nlroi_config} disagrees with scene spec {spec}")
        head = {"w_head": (spec.k, spec.d + nlroi_config.d_g), "b_head": (spec.k,)}
        return head | NlRoiParams.shapes(nlroi_config)

    @classmethod
    def from_named(
        cls, spec: SceneSpec, nlroi_config: Optional[NlRoiConfig], named: dict
    ) -> "ToyModel":
        """The model whose tensors are ``named``'s arrays themselves (no
        copy); other names are ignored. A tensor that is missing or does
        not have its ``shapes`` raises DimensionError naming it."""
        for name, want in cls.shapes(spec, nlroi_config).items():
            if name not in named:
                raise DimensionError(f"missing tensor {name!r}")
            shape = named[name].shape
            if shape != want:
                raise DimensionError(f"{name} has shape {shape}, config implies {want}")
        params = None
        if nlroi_config is not None:
            params = NlRoiParams(**{n: named[n] for n in NlRoiParams.shapes(nlroi_config)})
        return cls(spec, nlroi_config, params, named["w_head"], named["b_head"])

    def tensors(self) -> list:
        """Named trainable tensors: the head's, then the operator's."""
        params = [] if self.nlroi_params is None else self.nlroi_params.tensors()
        return [("w_head", self.w_head), ("b_head", self.b_head)] + params


def init_model(
    spec: SceneSpec,
    nlroi_config: Optional[NlRoiConfig],
    prng: Prng,
) -> ToyModel:
    """Zero-initialized head (so an untrained model predicts uniformly);
    attention parameters, when present, from init_params."""
    shapes = ToyModel.shapes(spec, nlroi_config)
    named = {name: np.zeros(shapes[name]) for name in ("w_head", "b_head")}
    if nlroi_config is not None:
        named.update(init_params(nlroi_config, prng).tensors())
    return ToyModel.from_named(spec, nlroi_config, named)


def _head_inputs(model: ToyModel, prng: Prng, scenes: int):
    """Draw ``scenes`` scenes in one block and compute the head's input rows.

    The nlroi variant replicates the rows over H x W once and runs all the
    scenes' RoIs through one operator forward, one image per scene; its
    output is spatially constant, so position (0, 0) is the pooled row. The
    baseline uses the rows themselves. Returns (pooled rows, labels,
    operator cache or None).
    """
    spec = model.spec
    rows, _, labels = _draw_scenes(prng, spec, scenes)
    counts = [spec.n] * scenes
    if model.nlroi_config is None:
        return rows, labels, None
    feats, cache = nlroi_forward(
        ops.tile_spatial(rows, spec.h, spec.w), model.nlroi_params, model.nlroi_config, counts
    )
    return feats[:, :, 0, 0], labels, cache


def head_logits(model: ToyModel, pooled: np.ndarray) -> np.ndarray:
    """Per-RoI K-way logits. Each row is its own (1, D) @ (D, K) product, one
    identical BLAS call per row as in ``ops.conv2d_1x1``, so a row's bits
    depend only on its own pooled row: evaluation's chunking moves none."""
    return (pooled[:, None, :] @ model.w_head.T)[:, 0] + model.b_head


def _cross_entropy(logits: np.ndarray, labels: np.ndarray, rois: int):
    """Sum over scenes of each scene's mean CE, and its gradient w.r.t. the
    logits; every scene is ``rois`` consecutive rows."""
    n, k = logits.shape
    top = logits[:, 0]
    for c in range(1, k):  # a max is exact: np.max(axis=1)'s bits, column-wise
        top = np.maximum(top, logits[:, c])
    shifted = logits - top[:, None]
    e = np.exp(shifted)
    total = np.sum(e, axis=1, keepdims=True)
    picks = np.arange(0, n * k, k) + labels  # each row's label, flat
    picked = shifted.reshape(-1)[picks]
    loss = float(np.sum((np.log(total[:, 0]) - picked) / rois))
    d_logits = e / total
    d_logits.reshape(-1)[picks] -= 1.0
    return loss, d_logits / rois


@dataclass
class Hyper:
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    steps: int = 3000
    scenes_per_step: int = 8

    def __post_init__(self):
        for name in ("learning_rate", "momentum", "weight_decay"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ConfigError(f"{name} must be a finite value >= 0, got {v!r}", name)
        for name, least in (("steps", 0), ("scenes_per_step", 1)):
            require_size(name, getattr(self, name), least)


def train(
    variant: str,
    spec: SceneSpec,
    nlroi_config: Optional[NlRoiConfig],
    hyper: Hyper,
    seed: int,
    log_fn=None,
    log_every: int = 100,
):
    """SGD with momentum: v <- mu*v + (grad + wd*param), param <- param - lr*v.

    The loss and gradients average over the step's scenes, each scene's
    loss being the mean CE over its RoIs. A step draws its scenes in order
    and makes one forward and one backward over all of them. Returns
    (model, per-step losses). Raises DivergenceError naming the step on a
    non-finite loss or on a NumericalError of its operator calls.
    ``log_fn(step, loss)`` fires every ``log_every`` steps (1-based).

    The model's tensors are views of one flat float64 buffer, in
    ``ToyModel.tensors()`` order, and a step concatenates its gradients in
    that order once. The update is then three in-place expressions over the
    whole buffer, and the velocity is one array; each element gets exactly
    the operations a per-tensor update would give it, so the weights keep
    their bits.
    """
    if variant not in ("baseline", "nlroi"):
        raise ConfigError(f"variant must be 'baseline' or 'nlroi', got {variant!r}")
    if variant == "baseline":
        nlroi_config = None
    elif nlroi_config is None:
        raise ConfigError("the nlroi variant needs an operator config")
    prng = Prng(seed)
    model = init_model(spec, nlroi_config, prng)

    named = model.tensors()
    flat = np.concatenate([p for _, p in named], axis=None)
    views, offset = {}, 0
    for name, p in named:
        views[name] = flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size
    model = ToyModel.from_named(spec, nlroi_config, views)
    velocity = np.zeros_like(flat)

    losses = []
    for step in range(1, hyper.steps + 1):
        try:
            pooled, labels, cache = _head_inputs(model, prng, hyper.scenes_per_step)
            loss, d_logits = _cross_entropy(head_logits(model, pooled), labels, spec.n)
            step_loss = loss / hyper.scenes_per_step
            losses.append(step_loss)
            # before the backward, which rejects the non-finite upstream a
            # diverged step brings
            if not np.isfinite(step_loss):
                raise DivergenceError(step, f"non-finite loss {step_loss!r}")
            grads = [d_logits.T @ pooled, np.sum(d_logits, axis=0)]
            if cache is not None:
                # the pool's VJP: each row's gradient spread evenly over H x W
                d_pooled = d_logits @ model.w_head / (spec.h * spec.w)
                d_feats = ops.tile_spatial(d_pooled, spec.h, spec.w)
                _, d_nlroi = nlroi_backward(cache, model.nlroi_params, model.nlroi_config, d_feats)
                grads += [g for _, g in d_nlroi.tensors()]
        except NumericalError as exc:
            # the operator's checks meet non-finite weights before the loss does
            raise DivergenceError(step, str(exc)) from exc
        grad = np.concatenate(grads, axis=None)
        velocity *= hyper.momentum
        velocity += grad / hyper.scenes_per_step + hyper.weight_decay * flat
        flat -= hyper.learning_rate * velocity
        if log_fn is not None and step % log_every == 0:
            log_fn(step, step_loss)
    return model, losses


def evaluate(model: ToyModel, scenes: int, seed: int) -> float:
    """Mean per-RoI accuracy over freshly generated scenes.

    The scenes go through the model in chunks: as many scenes per call as
    fit ``_EVAL_BUDGET`` RoI feature values (N·D·H·W per scene), and never
    fewer than one. No bit depends on the chunking (see the module
    docstring), so a larger budget only shares each call's fixed cost over
    more scenes.
    """
    require_size("scenes", scenes, 1)
    spec = model.spec
    chunk = max(1, _EVAL_BUDGET // (spec.n * spec.d * spec.h * spec.w))
    prng = Prng(seed ^ _EVAL_SEED_SALT)
    correct = 0
    total = 0
    for start in range(0, scenes, chunk):
        pooled, labels, _ = _head_inputs(model, prng, min(chunk, scenes - start))
        preds = np.argmax(head_logits(model, pooled), axis=1)
        correct += int(np.sum(preds == labels))
        total += labels.size
    return correct / total
