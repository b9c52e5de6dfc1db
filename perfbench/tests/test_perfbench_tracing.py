"""Span bookkeeping, self time, stage attribution and wrapper hygiene."""

import numpy as np
import pytest

import tracing as tr
from nlroi import operator, ops, rng, toytask, weights
from nlroi.operator import NlRoiConfig
from nlroi.rng import Prng


def synthetic():
    """root [0, 10] with children [1, 3], [2, 5] (overlapping) and [8, 12]
    (running past the parent's end); [2, 5] has a child [2.5, 4]."""
    t = tr.Tracer()
    root = t.add("root", 0.0, 10.0, None)
    a = t.add("a", 1.0, 3.0, root.id)
    b = t.add("b", 2.0, 5.0, root.id)
    t.add("c", 8.0, 12.0, root.id)
    t.add("b.inner", 2.5, 4.0, b.id)
    return t, root, a, b


def test_self_time_subtracts_the_union_of_children():
    t, root, a, b = synthetic()
    kids = tr.children_of(t.spans)
    # covered: [1, 5] (union of a and b) plus [8, 10] (c clipped) = 6
    assert tr.self_seconds(root, kids) == pytest.approx(4.0)
    assert tr.self_seconds(a, kids) == pytest.approx(2.0)
    assert tr.self_seconds(b, kids) == pytest.approx(3.0 - 1.5)


def test_covered_handles_disjoint_nested_and_empty():
    assert tr.covered([], 0.0, 1.0) == 0.0
    assert tr.covered([(0.0, 1.0), (2.0, 3.0)], 0.0, 3.0) == pytest.approx(2.0)
    assert tr.covered([(0.0, 3.0), (1.0, 2.0)], 0.0, 3.0) == pytest.approx(3.0)
    assert tr.covered([(-1.0, 0.5)], 0.0, 3.0) == pytest.approx(0.5)


def test_subtree_walks_all_descendants():
    t, root, _, _ = synthetic()
    names = sorted(s.name for s in tr.subtree(root, tr.children_of(t.spans)))
    assert names == ["a", "b", "b.inner", "c"]


def test_begin_end_nest_and_record_parent_and_run():
    t = tr.Tracer(run_id="r7")
    outer = t.begin("outer")
    inner = t.begin("inner")
    t.end(inner)
    t.end(outer)
    assert inner.parent == outer.id and outer.parent is None
    assert {s.run_id for s in t.spans} == {"r7"}
    assert outer.start <= inner.start <= inner.end <= outer.end
    left_open = t.begin("outer2")
    t.begin("inner2")
    with pytest.raises(RuntimeError):
        t.end(left_open)


def test_split_steps_reparents_children_into_their_step():
    t = tr.Tracer()
    train = t.add("train", 0.0, 10.0, None)
    early = t.add("work", 1.0, 2.0, train.id)
    late = t.add("work", 6.0, 7.0, train.id)
    steps = tr.split_steps(t, train, [0.5, 5.0, 9.0])
    assert [(s.start, s.end) for s in steps] == [(0.5, 5.0), (5.0, 9.0)]
    assert early.parent == steps[0].id and late.parent == steps[1].id


CONFIG = NlRoiConfig(d=4, d_f=2, d_mid=2, d_g=2, h=2, w=2)


def tiny_inputs():
    prng = Prng(3)
    x = prng.normals(5 * 4 * 2 * 2).reshape(5, 4, 2, 2)
    params = operator.init_params(CONFIG, prng)
    return x, params


def test_every_forward_and_vjp_stage_is_attributed():
    x, params = tiny_inputs()
    t = tr.Tracer()
    with tr.installed(t):
        out, cache = operator.nlroi_forward(x, params, CONFIG)
        operator.nlroi_backward(cache, params, CONFIG, np.ones_like(out))
    kids = tr.children_of(t.spans)
    (fwd,) = tr.operator_calls(t.spans, kids, "operator.nlroi_forward")
    (bwd,) = tr.operator_calls(t.spans, kids, "operator.nlroi_backward")
    assert fwd["unattributed_ms"] == 0.0 and bwd["unattributed_ms"] == 0.0
    assert set(fwd["stage_ms"]) == {"embed", "score", "softmax", "g_branch", "tile_concat"}
    assert set(bwd["stage_ms"]) == {"embed", "score", "softmax", "g_branch", "mix",
                                    "tile_concat"}
    assert fwd["ops_calls"] > 0 and bwd["ops_calls"] > 0


def test_wrappers_are_restored_and_do_not_leak():
    originals = {name: getattr(ops, name) for name in tr.public_ops()}
    fwd, draw = operator.nlroi_forward, rng.Prng.next_u64
    t = tr.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tr.installed(t):
            assert tr.wrapped_names()
            assert toytask.nlroi_forward is operator.nlroi_forward is not fwd
            1 / 0
    assert tr.wrapped_names() == []
    tr.assert_unwrapped()
    assert all(getattr(ops, n) is f for n, f in originals.items())
    assert operator.nlroi_forward is fwd and toytask.nlroi_forward is fwd
    assert rng.Prng.next_u64 is draw
    assert weights.save_weights.__module__ == "nlroi.weights"
    # calls after the block record nothing
    before = len(t.spans)
    x, params = tiny_inputs()
    operator.nlroi_forward(x, params, CONFIG)
    assert len(t.spans) == before


def test_untraced_guard_detects_a_leaked_wrapper(monkeypatch):
    t = tr.Tracer()
    leaked = tr._wrap(t, ops.relu, "ops.relu")
    monkeypatch.setattr(ops, "relu", leaked)
    with pytest.raises(RuntimeError, match="nlroi.ops.relu"):
        tr.assert_unwrapped()


def test_prng_draws_are_counted_on_the_open_span():
    t = tr.Tracer()
    spec = toytask.SceneSpec(n=8, k=4, d=16, h=3, w=3)
    with tr.installed(t):
        toytask.generate_scene(Prng(1), spec)
    (scene,) = [s for s in t.spans if s.name == "toytask.generate_scene"]
    # majority class 1 + 5 slot draws + 3 minority draws + 1 block of normals
    assert scene.rng_calls == 10
