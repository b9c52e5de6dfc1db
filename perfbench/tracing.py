"""Spans recorded around the package's public functions, from outside it.

``installed(tracer)`` replaces the public functions of ``nlroi.ops``, the
operator entry points, the toy-task loop, the weight I/O and the PRNG draw
methods with wrappers that record spans (or, for PRNG draws, counts), and
puts the originals back on exit. Nothing under ``src/`` is edited, so the
untraced runs execute exactly the package's own code; ``assert_unwrapped``
guards that.

A span holds name, start, end, parent span and run id, plus the traced
allocation peak when ``tracemalloc`` is running. Spans stay in memory and
are written once, when the run ends. Span times are process CPU seconds,
the clock the untraced timings use. Self time is a span's duration minus
the part of it covered by its children.

Operator stages are attributed from the direct children of
``nlroi_forward`` / ``nlroi_backward``: each ``ops`` call maps to a stage
by name, and the 1x1 convolutions by which parameter tensor they receive.
The mix has no public function, so its forward time is the self time of
``nlroi_forward``. A change that inlines a stage's ``ops`` call into the
operator moves that time into the operator's self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
import tracemalloc
from collections import defaultdict

from nlroi import operator, ops, rng, toytask, weights

WRAPPED = "__perfbench_wrapped__"


class Span:
    __slots__ = (
        "id", "name", "start", "end", "parent", "run_id", "tag",
        "base", "peak_abs", "self_peak_abs", "rng_calls",
    )

    def __init__(self, sid, name, start, parent, run_id, tag=None):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run_id = run_id
        self.tag = tag
        self.base = self.peak_abs = self.self_peak_abs = 0
        self.rng_calls = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def peak_bytes(self) -> int:
        return self.peak_abs - self.base

    @property
    def self_peak_bytes(self) -> int:
        return self.self_peak_abs - self.base

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "run": self.run_id, "tag": self.tag,
            "peak_bytes": self.peak_bytes, "rng_calls": self.rng_calls,
        }


class Tracer:
    """In-memory span recorder for one traced run (single thread)."""

    def __init__(self, run_id="run-0"):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        # id(weight tensor) -> parameter name while an operator call is open
        self.param_names = {}

    def _memory(self):
        return tracemalloc.get_traced_memory() if tracemalloc.is_tracing() else (0, 0)

    def begin(self, name, tag=None) -> Span:
        cur, peak = self._memory()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.peak_abs = max(parent.peak_abs, peak)
            parent.self_peak_abs = max(parent.self_peak_abs, peak)
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        span = Span(len(self.spans), name, 0.0, None if parent is None else parent.id,
                    self.run_id, tag)
        span.base = span.peak_abs = span.self_peak_abs = cur
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.process_time()
        return span

    def end(self, span: Span) -> None:
        span.end = time.process_time()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed while {top.name} is open")
        _, peak = self._memory()
        span.peak_abs = max(span.peak_abs, peak)
        span.self_peak_abs = max(span.self_peak_abs, peak)
        if self._stack:
            parent = self._stack[-1]
            parent.peak_abs = max(parent.peak_abs, span.peak_abs)
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()

    def count_rng(self) -> None:
        if self._stack:
            self._stack[-1].rng_calls += 1

    def add(self, name, start, end, parent) -> Span:
        """A span reconstructed after the fact (e.g. a training step)."""
        span = Span(len(self.spans), name, start, parent, self.run_id)
        span.end = end
        self.spans.append(span)
        return span


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def children_of(spans) -> dict:
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def self_seconds(span: Span, kids: dict) -> float:
    return span.seconds - covered(
        [(c.start, c.end) for c in kids.get(span.id, ())], span.start, span.end
    )


def subtree(span: Span, kids: dict):
    stack = list(kids.get(span.id, ()))
    while stack:
        s = stack.pop()
        yield s
        stack.extend(kids.get(s.id, ()))


def split_steps(tracer: Tracer, parent: Span, bounds, name="toytask.step") -> list:
    """Cut ``parent`` into consecutive spans at the given time bounds and
    move each of its direct children into the step it lies in."""
    steps = [tracer.add(name, a, b, parent.id) for a, b in zip(bounds, bounds[1:])]
    for s in tracer.spans:
        if s.parent != parent.id or s.name == name:
            continue
        for step in steps:
            if step.start <= s.start and s.end <= step.end:
                s.parent = step.id
                break
    return steps


# --- wrappers -----------------------------------------------------------------

def _wrap(tracer, fn, name, on_call=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name, on_call(args) if on_call else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)

    setattr(wrapper, WRAPPED, True)
    return wrapper


def _wrap_count(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count_rng()
        return fn(*args, **kwargs)

    setattr(wrapper, WRAPPED, True)
    return wrapper


def public_ops():
    return sorted(
        name for name, fn in vars(ops).items()
        if inspect.isfunction(fn) and fn.__module__ == ops.__name__ and not name.startswith("_")
    )


RNG_DRAWS = ("next_u64", "uniforms")


def _targets(tracer):
    """(owner, attribute, replacement) for every wrapped public function."""

    def operator_call(args):
        params = args[1] if len(args) > 1 else None
        if hasattr(params, "tensors"):
            tracer.param_names = {id(a): n for n, a in params.tensors()}

    def weight_tag(args):
        return tracer.param_names.get(id(args[1])) if len(args) > 1 else None

    out = []
    for name in public_ops():
        tag = weight_tag if name.startswith("conv2d") else None
        out.append((ops, name, _wrap(tracer, getattr(ops, name), f"ops.{name}", tag)))
    fwd = _wrap(tracer, operator.nlroi_forward, "operator.nlroi_forward", operator_call)
    bwd = _wrap(tracer, operator.nlroi_backward, "operator.nlroi_backward", operator_call)
    out += [
        (operator, "nlroi_forward", fwd),
        (operator, "nlroi_backward", bwd),
        (toytask, "nlroi_forward", fwd),
        (toytask, "nlroi_backward", bwd),
        (operator, "attention_weights",
         _wrap(tracer, operator.attention_weights, "operator.attention_weights")),
    ]
    for name in ("train", "evaluate", "generate_scene", "init_model"):
        out.append((toytask, name, _wrap(tracer, getattr(toytask, name), f"toytask.{name}")))
    for name in ("save_weights", "load_weights"):
        out.append((weights, name, _wrap(tracer, getattr(weights, name), f"weights.{name}")))
    for name in RNG_DRAWS:
        out.append((rng.Prng, name, _wrap_count(tracer, getattr(rng.Prng, name))))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the package's public functions for the duration of the block."""
    saved = []
    try:
        for owner, attr, fn in _targets(tracer):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def wrapped_names() -> list:
    """Names of package attributes that currently hold a tracing wrapper."""
    found = []
    for owner in (ops, operator, toytask, weights, rng.Prng):
        for attr, value in vars(owner).items():
            if getattr(value, WRAPPED, False):
                found.append(f"{owner.__name__}.{attr}")
    return found


def assert_unwrapped() -> None:
    leaked = wrapped_names()
    if leaked:
        raise RuntimeError(f"tracing wrappers leaked into an untraced run: {leaked}")


# --- operator stage attribution -------------------------------------------------

FWD_STAGE = {
    "ops.matmul": "score",
    "ops.softmax_rows": "softmax",
    "operator.attention_weights": "softmax",
    "ops.relu": "g_branch",
    "ops.conv2d_3x3_same": "g_branch",
    "ops.global_avg_pool": "g_branch",
    "ops.tile_spatial": "tile_concat",
    "ops.concat_channels": "tile_concat",
}
VJP_STAGE = {
    "ops.concat_channels_vjp": "tile_concat",
    "ops.tile_spatial_vjp": "tile_concat",
    "ops.matmul_vjp": "mix",
    "ops.softmax_vjp_from_probs": "softmax",
    "ops.softmax_rows_vjp": "softmax",
    "ops.matmul": "score",
    "ops.relu_vjp": "g_branch",
    "ops.conv2d_3x3_same_vjp": "g_branch",
}
CONV_STAGE = {"w_phi": "embed", "w_psi": "embed", "w_g1": "g_branch", "w_g2": "g_branch"}


def _stage(child: Span, table: dict):
    if child.name.startswith("ops.conv2d"):
        return CONV_STAGE.get(child.tag) or table.get(child.name)
    return table.get(child.name)


def operator_calls(spans, kids: dict, name: str) -> list:
    """Per call of the named operator entry point: stage milliseconds and
    peak bytes, its self time, its total and its ``ops`` call count."""
    table = FWD_STAGE if name.endswith("forward") else VJP_STAGE
    calls = []
    for span in spans:
        if span.name != name:
            continue
        ms = defaultdict(float)
        peak = defaultdict(int)
        unattributed = 0.0
        for child in kids.get(span.id, ()):
            stage = _stage(child, table)
            if stage is None:
                unattributed += child.seconds * 1e3
                continue
            ms[stage] += child.seconds * 1e3
            peak[stage] = max(peak[stage], child.peak_bytes)
        calls.append({
            "stage_ms": dict(ms),
            "stage_peak_bytes": dict(peak),
            "self_ms": self_seconds(span, kids) * 1e3,
            "self_peak_bytes": span.self_peak_bytes,
            "unattributed_ms": unattributed,
            "total_ms": span.seconds * 1e3,
            "ops_calls": sum(1 for s in subtree(span, kids) if s.name.startswith("ops.")),
        })
    return calls
