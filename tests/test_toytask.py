"""Scene generation, the membership-oracle ceiling, and training."""

import math

import numpy as np
import pytest

from nlroi import ops, toytask
from nlroi.errors import ConfigError, DimensionError, DivergenceError, NumericalError
from nlroi.operator import NlRoiConfig, nlroi_backward, nlroi_forward
from nlroi.rng import Prng
from nlroi.toytask import (
    Hyper,
    Scene,
    SceneSpec,
    ToyModel,
    _cross_entropy,
    _draw_scenes,
    _head_inputs,
    evaluate,
    generate_scene,
    init_model,
    majority_count,
    head_logits,
    train,
)

from helpers import baseline_ceiling

SPEC = SceneSpec(n=8, k=4, d=16, h=3, w=3)
OP = NlRoiConfig(d=16, d_f=4, d_mid=4, d_g=4, h=3, w=3)


def pool(feats):
    """Global average pool of maps that must be spatially constant bit for
    bit: the value at position (0, 0)."""
    corner = feats[:, :, :1, :1]
    assert feats.tobytes() == np.broadcast_to(corner, feats.shape).tobytes()
    return feats[:, :, 0, 0]


class TestMajorityCount:
    def test_exact_table(self):
        # ceil(0.6*n) for the sizes a scene can take
        assert majority_count(2) == 2
        assert majority_count(5) == 3
        assert majority_count(8) == 5
        assert majority_count(10) == 6
        assert majority_count(11) == 7

    def test_matches_ceiling_formula(self):
        for n in range(2, 200):
            assert majority_count(n) == math.ceil(0.6 * n)


class TestSceneSpec:
    def test_more_classes_than_channels(self):
        with pytest.raises(ConfigError):
            SceneSpec(n=8, k=5, d=4, h=2, w=2)

    def test_too_few_rois(self):
        with pytest.raises(ConfigError):
            SceneSpec(n=1, k=2, d=4, h=2, w=2)

    def test_too_few_classes(self):
        with pytest.raises(ConfigError):
            SceneSpec(n=4, k=1, d=4, h=2, w=2)


SIZE_CASES = [
    # (constructor, fields that override a valid call, field named first)
    (SceneSpec, dict(h=0, w=-1), "h"),
    (SceneSpec, dict(w=-1), "w"),
    (SceneSpec, dict(d=0), "d"),  # before the k <= d rule
    (SceneSpec, dict(h=2.5), "h"),
    (SceneSpec, dict(n=4.0), "n"),
    (SceneSpec, dict(k=2.0), "k"),
    (SceneSpec, dict(d=True), "d"),
    (SceneSpec, dict(w=True), "w"),
    (Hyper, dict(steps=2.5), "steps"),
    (Hyper, dict(steps=True), "steps"),
    (Hyper, dict(scenes_per_step=2.0), "scenes_per_step"),
    (Hyper, dict(scenes_per_step=True), "scenes_per_step"),
]


@pytest.mark.parametrize("cls, bad, field", SIZE_CASES)
def test_sizes_must_be_integers_and_positive(cls, bad, field):
    valid = dict(n=4, k=2, d=4, h=2, w=2) if cls is SceneSpec else {}
    with pytest.raises(ConfigError, match=field) as exc:
        cls(**{**valid, **bad})
    assert exc.value.fields == (field,)


class TestGenerateScene:
    def test_majority_fraction_holds(self):
        prng = Prng(60)
        for _ in range(200):
            scene = generate_scene(prng, SPEC)
            counts = np.bincount(scene.latent_classes, minlength=4)
            assert counts[scene.majority_class] == majority_count(8) == 5
            # every minority RoI really is another class
            assert np.all(scene.latent_classes[scene.latent_classes != scene.majority_class] != scene.majority_class)

    def test_labels_are_scene_level(self):
        scene = generate_scene(Prng(61), SPEC)
        assert np.array_equal(scene.labels, np.full(8, scene.majority_class))

    def test_noise_free_features_are_pure_onehot(self, monkeypatch):
        monkeypatch.setattr(toytask, "NOISE_SIGMA", 0.0)
        scene = generate_scene(Prng(62), SPEC)
        assert np.array_equal(
            np.argmax(scene.features[:, :, 0, 0], axis=1), scene.latent_classes
        )
        for i in range(8):
            assert scene.features[i, scene.latent_classes[i], 1, 2] == 1.0
            assert np.sum(scene.features[i]) == 9.0  # one channel, H*W copies

    def test_noise_replicated_spatially(self):
        scene = generate_scene(Prng(63), SPEC)
        assert np.array_equal(
            scene.features[:, :, 0, 0], scene.features[:, :, 2, 1]
        )

    def test_same_seed_same_scene(self):
        a = generate_scene(Prng(64), SPEC)
        b = generate_scene(Prng(64), SPEC)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.latent_classes, b.latent_classes)


def scene_by_loops(prng, spec):
    """The scene generator as one scalar draw per RoI, frozen as reference."""
    n, k, d = spec.n, spec.k, spec.d
    m = majority_count(n)
    majority = prng.randint(k)
    slots = set(prng.sample_indices(n, m))
    latent = np.empty(n, dtype=np.int64)
    for i in range(n):
        if i in slots:
            latent[i] = majority
        else:
            r = prng.randint(k - 1)
            latent[i] = r if r < majority else r + 1
    base = toytask.NOISE_SIGMA * prng.normals(n * d).reshape(n, d)
    for i in range(n):
        base[i, latent[i]] += 1.0
    features = np.broadcast_to(base[:, :, None, None], (n, d, spec.h, spec.w)).copy()
    return Scene(features, latent, majority, np.full(n, majority, dtype=np.int64))


class TestSceneDraws:
    def test_matches_scalar_loops_bitwise(self):
        for n in (2, 3, 8, 1024):
            for k in (2, 3, 4):
                spec = SceneSpec(n=n, k=k, d=6, h=2, w=1)
                for seed in range(25 if n < 1024 else 4):
                    a = Prng(seed * 31 + n)
                    b = Prng(seed * 31 + n)
                    for _ in range(3):
                        got = generate_scene(a, spec)
                        want = scene_by_loops(b, spec)
                        assert got.features.tobytes() == want.features.tobytes()
                        assert got.latent_classes.tobytes() == want.latent_classes.tobytes()
                        assert got.majority_class == want.majority_class
                        assert got.labels.tobytes() == want.labels.tobytes()
                        assert a.next_u64() == b.next_u64()


class TestBlockDraw:
    """Many scenes from one PRNG block are the scenes one call each gives."""

    def test_matches_one_generate_scene_per_scene(self):
        for n in (2, 3, 8, 1024):
            spec = SceneSpec(n=n, k=3, d=5, h=2, w=3)
            for count in (1, 3, 8):
                for seed in range(6 if n < 1024 else 2):
                    a = Prng(seed * 17 + n + count)
                    b = Prng(seed * 17 + n + count)
                    rows, latent, labels = _draw_scenes(a, spec, count)
                    scenes = [generate_scene(b, spec) for _ in range(count)]
                    want = np.concatenate([s.features for s in scenes])
                    assert np.repeat(rows, spec.h * spec.w, axis=1).tobytes() == want.tobytes()
                    assert rows.shape == (count * n, 5)
                    assert latent.tobytes() == np.concatenate(
                        [s.latent_classes for s in scenes]).tobytes()
                    assert labels.tobytes() == np.concatenate(
                        [s.labels for s in scenes]).tobytes()
                    assert a.next_u64() == b.next_u64()

    @pytest.mark.parametrize("sigma", [0.1, 0.0])
    def test_noise_pieces_match_scalar_loops(self, monkeypatch, sigma):
        # the noise goes through rng.raw_to_normals in pieces of at most
        # _CHUNK outputs: at n=40, d=208 one scene's 16,640 noise outputs are
        # a full column piece plus a remainder, and at n=8, d=6 171 scenes
        # fill a piece of whole rows and leave a remainder. sigma=0 gives
        # -0.0 entries, and the rows keep them
        monkeypatch.setattr(toytask, "NOISE_SIGMA", sigma)
        wide, short = SceneSpec(n=40, k=4, d=208, h=1, w=1), SceneSpec(n=8, k=4, d=6, h=1, w=1)
        for spec, count in ((wide, 1), (wide, 3), (short, 171)):
            a, b, c = Prng(91 + count), Prng(91 + count), Prng(91 + count)
            rows, latent, labels = _draw_scenes(a, spec, count)
            loops = [scene_by_loops(b, spec) for _ in range(count)]
            scenes = [generate_scene(c, spec) for _ in range(count)]
            for want in (loops, scenes):
                assert rows.tobytes() == np.concatenate([s.features[:, :, 0, 0] for s in want]).tobytes()
                assert latent.tobytes() == np.concatenate([s.latent_classes for s in want]).tobytes()
                assert labels.tobytes() == np.concatenate([s.labels for s in want]).tobytes()
            assert a.next_u64() == b.next_u64() == c.next_u64()
            if sigma == 0.0:
                assert np.signbit(rows[rows == 0.0]).any()

    def test_baseline_rows_equal_pooled_features(self, monkeypatch):
        # the head's rows are the pooled maps that one generate_scene per
        # scene (and, for nlroi, one operator forward over them) gives; pool()
        # also checks that every such map is spatially constant. sigma=0
        # gives -0.0 entries, and the rows keep them
        for h, w in ((1, 1), (1, 2), (3, 3), (3, 5)):
            for sigma in (0.1, 0.0):
                monkeypatch.setattr(toytask, "NOISE_SIGMA", sigma)
                spec = SceneSpec(n=8, k=4, d=6, h=h, w=w)
                op = NlRoiConfig(d=6, d_f=3, d_mid=3, d_g=2, h=h, w=w)
                for config in (None, op):
                    model = init_model(spec, config, Prng(3))
                    for count in (1, 8):
                        a, b = Prng(77 + count), Prng(77 + count)
                        pooled, labels, cache = _head_inputs(model, a, count)
                        feats = np.concatenate(
                            [generate_scene(b, spec).features for _ in range(count)])
                        if config is not None:
                            feats, _ = nlroi_forward(feats, model.nlroi_params, op, [8] * count)
                        want = pool(feats)
                        assert pooled.tobytes() == want.tobytes(), (h, w, sigma, config)
                        mean = np.mean(feats, axis=(2, 3))
                        assert np.allclose(pooled, mean, rtol=1e-14, atol=0.0)
                        assert (cache is None) == (config is None)
                        assert a.next_u64() == b.next_u64()
                        if sigma == 0.0:
                            # -0.0 entries are there, so that case is exercised
                            assert np.signbit(pooled[pooled == 0.0]).any()


def head_inputs_per_scene(model, prng, scenes):
    """The step's inputs with one generate_scene per scene, frozen as reference."""
    rows, labels = [], []
    for _ in range(scenes):
        scene = generate_scene(prng, model.spec)
        if model.nlroi_config is None:
            rows.append(pool(scene.features))
        else:
            rows.append(scene.features)
        labels.append(scene.labels)
    counts = [len(l) for l in labels]
    labels = np.concatenate(labels)
    if model.nlroi_config is None:
        return np.concatenate(rows), labels, None
    feats, cache = nlroi_forward(
        np.concatenate(rows), model.nlroi_params, model.nlroi_config, counts
    )
    return pool(feats), labels, cache


def train_per_scene(variant, hyper, seed):
    """The trainer as one forward and backward per scene, frozen as reference."""
    prng = Prng(seed)
    model = init_model(SPEC, OP if variant == "nlroi" else None, prng)
    trainable = [("w_head", model), ("b_head", model)]
    if model.nlroi_params is not None:
        trainable += [(name, model.nlroi_params) for name, _ in model.nlroi_params.tensors()]
    velocity = {name: np.zeros_like(getattr(owner, name)) for name, owner in trainable}
    losses = []
    for _ in range(hyper.steps):
        grads = {name: np.zeros_like(getattr(owner, name)) for name, owner in trainable}
        step_loss = 0.0
        for _ in range(hyper.scenes_per_step):
            scene = generate_scene(prng, SPEC)
            feats, cache = scene.features, None
            if model.nlroi_params is not None:
                feats, cache = nlroi_forward(feats, model.nlroi_params, OP)
            pooled = pool(feats)
            logits = head_logits(model, pooled)
            n = logits.shape[0]
            shifted = logits - np.max(logits, axis=1, keepdims=True)
            lse = np.log(np.sum(np.exp(shifted), axis=1))
            step_loss += float(np.mean(lse - shifted[np.arange(n), scene.labels]))
            d_logits = ops.softmax_rows(logits)
            d_logits[np.arange(n), scene.labels] -= 1.0
            d_logits /= n
            grads["w_head"] += ops.matmul(d_logits.T, pooled)
            grads["b_head"] += np.sum(d_logits, axis=0)
            if cache is not None:
                d_pooled = ops.matmul(d_logits, model.w_head) / (SPEC.h * SPEC.w)
                d_feats = ops.tile_spatial(d_pooled, SPEC.h, SPEC.w)
                _, d_params = nlroi_backward(cache, model.nlroi_params, OP, d_feats)
                for name, g in d_params.tensors():
                    grads[name] += g
        losses.append(step_loss / hyper.scenes_per_step)
        for name, owner in trainable:
            param = getattr(owner, name)
            g = grads[name] / hyper.scenes_per_step + hyper.weight_decay * param
            velocity[name] = hyper.momentum * velocity[name] + g
            setattr(owner, name, param - hyper.learning_rate * velocity[name])
    return model, losses


class TestBatchedSteps:
    """One call per step gives what one call per scene gave."""

    def test_train_matches_per_scene_loop(self):
        hyper = Hyper(steps=20)
        for variant in ("nlroi", "baseline"):
            model, losses = train(variant, SPEC, OP, hyper, seed=95)
            ref_model, ref_losses = train_per_scene(variant, hyper, seed=95)
            assert np.max(np.abs(np.subtract(losses, ref_losses)) / np.abs(ref_losses)) < 1e-12
            for (name, got), (_, want) in zip(model.tensors(), ref_model.tensors()):
                assert np.max(np.abs(got - want)) < 1e-10, (variant, name)

    def test_evaluate_matches_per_scene_accuracy(self):
        model, _ = train("nlroi", SPEC, OP, Hyper(steps=20), seed=96)
        for variant_model in (model, init_model(SPEC, None, Prng(97))):
            for scenes in (1, 8, 13):
                prng = Prng((98 ^ 0xD1B54A32D192ED03) & ((1 << 64) - 1))
                correct = 0
                for _ in range(scenes):
                    scene = generate_scene(prng, SPEC)
                    feats = scene.features
                    if variant_model.nlroi_params is not None:
                        feats, _ = nlroi_forward(feats, variant_model.nlroi_params, OP)
                    preds = np.argmax(head_logits(variant_model, pool(feats)), axis=1)
                    correct += int(np.sum(preds == scene.labels))
                assert evaluate(variant_model, scenes, seed=98) == correct / (scenes * 8)


def train_per_tensor(variant, hyper, seed):
    """The trainer's step with SGD tensor by tensor over ``model.tensors()``,
    frozen as the byte reference for the flat-buffer update."""
    prng = Prng(seed)
    model = init_model(SPEC, OP if variant == "nlroi" else None, prng)
    params = [p for _, p in model.tensors()]
    velocity = [np.zeros_like(p) for p in params]
    losses = []
    for _ in range(hyper.steps):
        pooled, labels, cache = _head_inputs(model, prng, hyper.scenes_per_step)
        loss, d_logits = _cross_entropy(head_logits(model, pooled), labels, SPEC.n)
        losses.append(loss / hyper.scenes_per_step)
        grads = [d_logits.T @ pooled, np.sum(d_logits, axis=0)]
        if cache is not None:
            d_pooled = d_logits @ model.w_head / (SPEC.h * SPEC.w)
            d_feats = ops.tile_spatial(d_pooled, SPEC.h, SPEC.w)
            _, d_nlroi = nlroi_backward(cache, model.nlroi_params, OP, d_feats)
            grads += [g for _, g in d_nlroi.tensors()]
        for p, v, g in zip(params, velocity, grads, strict=True):
            v *= hyper.momentum
            v += g / hyper.scenes_per_step + hyper.weight_decay * p
            p -= hyper.learning_rate * v
    return model, losses


@pytest.mark.parametrize("n, k", [(64, 4), (8192, 4), (63, 9), (8, 2)])
def test_cross_entropy_matches_per_row_reductions_bitwise(n, k):
    """The column-wise max, the flat label index and the one scene size
    give the bits of the per-row formulation over an array of scene sizes."""
    prng = Prng(n + k)
    logits = 4.0 * prng.normals(n * k).reshape(n, k)
    labels = np.array([prng.randint(k) for _ in range(n)])
    rois = 8 if n % 8 == 0 else 7
    counts = [rois] * (n // rois)
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    total = np.sum(e, axis=1, keepdims=True)
    rows_per_scene = np.repeat(np.asarray(counts, dtype=np.float64), counts)
    want_loss = float(np.sum((np.log(total[:, 0]) - shifted[np.arange(n), labels]) / rows_per_scene))
    want = e / total
    want[np.arange(n), labels] -= 1.0
    loss, d_logits = _cross_entropy(logits, labels, rois)
    assert loss == want_loss
    assert d_logits.tobytes() == (want / rows_per_scene[:, None]).tobytes()


class TestFlatUpdate:
    """SGD over one flat buffer gives the per-tensor update's bytes."""

    @pytest.mark.parametrize("variant", ["nlroi", "baseline"])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_train_matches_per_tensor_update_bitwise(self, variant, seed):
        hyper = Hyper(steps=20)
        model, losses = train(variant, SPEC, OP, hyper, seed)
        ref_model, ref_losses = train_per_tensor(variant, hyper, seed)
        assert np.asarray(losses).tobytes() == np.asarray(ref_losses).tobytes()
        assert [n for n, _ in model.tensors()] == [n for n, _ in ref_model.tensors()]
        for (name, got), (_, want) in zip(model.tensors(), ref_model.tensors()):
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("variant", ["nlroi", "baseline"])
    def test_trained_tensors_view_one_buffer(self, variant):
        model, _ = train(variant, SPEC, OP, Hyper(steps=1), seed=3)
        tensors = [t for _, t in model.tensors()]
        flat = tensors[0].base
        assert flat.ndim == 1 and flat.size == sum(t.size for t in tensors)
        assert all(t.base is flat for t in tensors)


class TestBlockDrawnSteps:
    """Training and evaluation are bit for bit what one scene draw each gave."""

    def test_train_and_evaluate_match_per_scene_draws(self, monkeypatch):
        runs = {}
        for route in ("block", "per_scene"):
            if route == "per_scene":
                monkeypatch.setattr(toytask, "_head_inputs", head_inputs_per_scene)
            for variant in ("nlroi", "baseline"):
                model, losses = train(variant, SPEC, OP, Hyper(steps=15, scenes_per_step=3), 99)
                accs = [evaluate(model, scenes, seed=100) for scenes in (1, 8, 13, 55, 56, 57)]
                runs[route, variant] = (
                    np.asarray(losses).tobytes(),
                    [t.tobytes() for _, t in model.tensors()],
                    accs,
                )
        for variant in ("nlroi", "baseline"):
            assert runs["block", variant] == runs["per_scene", variant], variant

    def test_evaluate_logits_match_one_call_per_scene(self, monkeypatch):
        """Around a chunk boundary (56 scenes at this config), evaluation's
        logits are bytewise those of one draw, one operator call and one
        head call per scene."""
        chunk = toytask._EVAL_BUDGET // (SPEC.n * SPEC.d * SPEC.h * SPEC.w)
        assert chunk == 56
        logits = []

        def logged_head(model, pooled):
            logits.append(head_logits(model, pooled))
            return logits[-1]

        monkeypatch.setattr(toytask, "head_logits", logged_head)
        models = [train(v, SPEC, OP, Hyper(steps=10), 101)[0] for v in ("nlroi", "baseline")]
        for scenes in (chunk - 1, chunk, chunk + 1):
            runs = {}
            for route in ("chunked", "per_scene"):
                with monkeypatch.context() as m:
                    if route == "per_scene":
                        m.setattr(toytask, "_EVAL_BUDGET", 1)
                        m.setattr(toytask, "_head_inputs", head_inputs_per_scene)
                    for model in models:
                        logits.clear()
                        acc = evaluate(model, scenes, seed=102)
                        calls = len(logits)
                        runs[route, model.nlroi_config is None] = (
                            acc, np.concatenate(logits).tobytes(), calls)
            for baseline in (False, True):
                chunked, per_scene = runs["chunked", baseline], runs["per_scene", baseline]
                assert chunked[:2] == per_scene[:2], (scenes, baseline)
                assert (chunked[2], per_scene[2]) == (-(-scenes // chunk), scenes)

    @pytest.mark.parametrize("d, hw, scenes_per_call", [(64, 7, [2, 2, 1]), (256, 7, [1] * 5)])
    def test_evaluate_calls_stay_within_the_budget(self, monkeypatch, d, hw, scenes_per_call):
        """At large RoIs no operator call gets more than the budget's RoI
        feature values, or more than one scene where one scene exceeds it."""
        spec = SceneSpec(n=8, k=4, d=d, h=hw, w=hw)
        model = init_model(spec, NlRoiConfig(d=d, d_f=4, d_mid=4, d_g=4, h=hw, w=hw), Prng(5))
        calls = []

        def recorded_forward(x, params, config, counts):
            calls.append((x.size, list(counts)))
            return nlroi_forward(x, params, config, counts)

        monkeypatch.setattr(toytask, "nlroi_forward", recorded_forward)
        evaluate(model, 5, seed=6)
        assert [len(c) for _, c in calls] == scenes_per_call
        for size, counts in calls:
            assert size <= toytask._EVAL_BUDGET or counts == [spec.n]
            assert counts == [spec.n] * len(counts)


class TestBaselineCeiling:
    def test_standard_setting_near_three_quarters(self):
        # closed form: 5/8 + (3/8)/3 = 0.75
        est = baseline_ceiling(8, 4, trials=20000, prng=Prng(65))
        assert abs(est - 0.75) < 0.01

    def test_two_classes_fully_determined(self):
        # k=2: the only other class is the majority, so everyone is right
        assert baseline_ceiling(8, 2, trials=500, prng=Prng(66)) == 1.0

    def test_all_majority(self):
        # n=2 makes m=2: no minority RoIs at all
        assert baseline_ceiling(2, 4, trials=500, prng=Prng(67)) == 1.0

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError):
            baseline_ceiling(8, 4, trials=0, prng=Prng(68))


class TestModel:
    def test_untrained_head_uniform_logits(self):
        model = init_model(SPEC, OP, Prng(70))
        scene = generate_scene(Prng(71), SPEC)
        out, _ = nlroi_forward(scene.features, model.nlroi_params, OP)
        logits = head_logits(model, pool(out))
        assert np.array_equal(logits, np.zeros((8, 4)))

    @pytest.mark.parametrize("m", [1, 7, 64])
    def test_head_logits_row_alone_is_bitwise_its_stacked_row(self, m):
        model = init_model(SPEC, OP, Prng(101))
        prng = Prng(102 + m)
        model.w_head = prng.normals(model.w_head.size).reshape(model.w_head.shape)
        model.b_head = prng.normals(model.b_head.size)
        pooled = prng.normals(m * model.w_head.shape[1]).reshape(m, -1)
        stacked = head_logits(model, pooled)
        for i in range(m):
            assert head_logits(model, pooled[i : i + 1].copy()).tobytes() == stacked[i].tobytes()

    def test_untrained_accuracy_near_chance(self):
        model = init_model(SPEC, OP, Prng(72))
        # argmax of all-zero logits picks class 0; the majority class is
        # uniform over K, so accuracy concentrates near 1/K
        acc = evaluate(model, scenes=400, seed=73)
        assert abs(acc - 0.25) < 0.05

    def test_evaluate_rejects_fewer_than_one_scene(self):
        model = init_model(SPEC, None, Prng(72))
        for scenes in (0, -1):
            with pytest.raises(ValueError, match="scenes must be an integer >= 1"):
                evaluate(model, scenes=scenes, seed=73)

    @pytest.mark.parametrize("scenes", [True, 2.5, 2.0, "3", None])
    def test_evaluate_rejects_a_scene_count_that_is_no_integer(self, scenes):
        model = init_model(SPEC, None, Prng(72))
        with pytest.raises(ConfigError, match="scenes must be an integer >= 1") as err:
            evaluate(model, scenes=scenes, seed=73)
        assert err.value.fields == ("scenes",)

    def test_baseline_variant_has_no_operator(self):
        model = init_model(SPEC, None, Prng(74))
        assert model.nlroi_config is None
        assert model.w_head.shape == (4, 16)

    def test_operator_scene_shape_mismatch(self):
        with pytest.raises(ConfigError):
            init_model(SPEC, NlRoiConfig(d=8, d_f=4, d_mid=4, d_g=4, h=3, w=3), Prng(75))

    @pytest.mark.parametrize("config", [None, OP])
    def test_from_named_takes_the_arrays_themselves(self, config):
        named = dict(init_model(SPEC, config, Prng(76)).tensors())
        model = ToyModel.from_named(SPEC, config, named | {"b_psi": np.zeros(4)})
        assert [n for n, _ in model.tensors()] == list(ToyModel.shapes(SPEC, config))
        for name, tensor in model.tensors():
            assert tensor is named[name], name

    @pytest.mark.parametrize("name", list(ToyModel.shapes(SPEC, OP)))
    def test_from_named_names_a_missing_or_misshapen_tensor(self, name):
        named = dict(init_model(SPEC, OP, Prng(77)).tensors())
        with pytest.raises(DimensionError, match=f"missing tensor '{name}'"):
            ToyModel.from_named(SPEC, OP, {k: v for k, v in named.items() if k != name})
        named[name] = named[name][..., :-1]
        with pytest.raises(DimensionError, match=f"^{name} has shape"):
            ToyModel.from_named(SPEC, OP, named)


class TestTrain:
    def test_first_loss_is_log_k(self):
        hyper = Hyper(steps=1, scenes_per_step=4)
        _, losses = train("nlroi", SPEC, OP, hyper, seed=80)
        assert losses[0] == pytest.approx(math.log(4), abs=0.1)
        # zero head makes it exact, not just close
        assert losses[0] == math.log(4)

    def test_zero_learning_rate_freezes_parameters(self):
        hyper = Hyper(learning_rate=0.0, steps=5, scenes_per_step=2)
        model, _ = train("nlroi", SPEC, OP, hyper, seed=81)
        fresh = init_model(SPEC, OP, Prng(81))
        assert np.array_equal(model.w_head, fresh.w_head)
        for (_, a), (_, b) in zip(model.nlroi_params.tensors(), fresh.nlroi_params.tensors()):
            assert np.array_equal(a, b)

    def test_loss_decreases(self):
        hyper = Hyper(steps=60, scenes_per_step=8)
        _, losses = train("nlroi", SPEC, OP, hyper, seed=82)
        assert min(losses[-10:]) < losses[0] * 0.9

    def test_short_run_deterministic(self):
        hyper = Hyper(steps=10, scenes_per_step=4)
        a, la = train("nlroi", SPEC, OP, hyper, seed=83)
        b, lb = train("nlroi", SPEC, OP, hyper, seed=83)
        assert la == lb
        for (_, ta), (_, tb) in zip(a.nlroi_params.tensors(), b.nlroi_params.tensors()):
            assert np.array_equal(ta, tb)

    def test_divergence_raises(self):
        hyper = Hyper(learning_rate=1e6, steps=50, scenes_per_step=2)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(DivergenceError):
                train("nlroi", SPEC, OP, hyper, seed=84)

    def test_divergence_in_the_operator_names_its_step(self):
        """Step 1's update makes the operator's weights non-finite, and step
        2's forward check meets them before any loss is computed."""
        hyper = Hyper(learning_rate=1e308, steps=5)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(DivergenceError) as exc:
                train("nlroi", SPEC, OP, hyper, seed=0)
        assert exc.value.step == 2
        assert isinstance(exc.value.__cause__, NumericalError)
        assert str(exc.value) == f"training diverged at step 2: {exc.value.__cause__}"

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            train("mlp", SPEC, OP, Hyper(steps=1), seed=85)

    def test_nlroi_variant_requires_config(self):
        with pytest.raises(ConfigError):
            train("nlroi", SPEC, None, Hyper(steps=1), seed=86)

    @pytest.mark.parametrize("name", ["learning_rate", "momentum", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-3])
    def test_hyper_rejects_a_non_finite_or_negative_float(self, name, value):
        with pytest.raises(ConfigError, match=name) as exc:
            Hyper(**{name: value})
        assert exc.value.fields == (name,)

    def test_log_fn_cadence(self):
        seen = []
        hyper = Hyper(steps=7, scenes_per_step=2)
        train("baseline", SPEC, None, hyper, seed=87,
              log_fn=lambda s, l: seen.append(s), log_every=3)
        assert seen == [3, 6]


class TestEvaluate:
    def test_eval_stream_differs_from_training(self):
        # the eval generator is salted: the first eval scene must not
        # replay the first training scene for the same seed
        train_scene = generate_scene(Prng(90), SPEC)
        model = init_model(SPEC, None, Prng(90))
        salted = evaluate(model, scenes=1, seed=90)
        eval_prng_scene = generate_scene(
            Prng((90 ^ 0xD1B54A32D192ED03) & ((1 << 64) - 1)), SPEC
        )
        assert not np.array_equal(train_scene.features, eval_prng_scene.features)
        assert 0.0 <= salted <= 1.0

    def test_same_seed_same_accuracy(self):
        model = init_model(SPEC, OP, Prng(91))
        assert evaluate(model, 50, seed=92) == evaluate(model, 50, seed=92)
