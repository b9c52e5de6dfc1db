"""The three workloads: inputs from a seed, closed-loop timing, output checks.

Every workload is one caller in one process: each call into the package
starts only after the previous one has returned. Inputs are generated from
the workload seed with the package's own PRNG; the package only ever sees
the generated arrays.

Each workload reports the same end-to-end metrics, with these meanings:

* a *step* is one training step: a ``toytask.train`` step (8 scenes,
  forward, backward, SGD update) on ``toy_train``; one forward plus
  backward of the operator on the fixed inputs of ``large_n`` and
  ``paper_scale``;
* an *eval scene* is one forward-only scene: ``toytask.evaluate`` on
  ``toy_train``, one ``nlroi_forward`` on the fixed inputs elsewhere;
* a *baseline step* is a ``toytask.train`` step of the baseline variant
  (no operator) on scenes of the workload's RoI count and feature shape:
  the control that no operator change may move;
* ``fwd_ms_p50`` / ``bwd_ms_p50`` time single ``nlroi_forward`` /
  ``nlroi_backward`` calls (toy scenes with N=8 on ``toy_train``);
* rates are medians over chunks (one ``train`` or ``evaluate`` call, one
  forward/backward pair) of work done per rescaled CPU second (``clock``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import statistics
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing as tr
import work
from clock import ARRAYS, INTERPRETER, Speed, now, wall
from stats import summarize

from nlroi import gradcheck, operator, toytask, weights
from nlroi.operator import NlRoiConfig, Scaling
from nlroi.rng import Prng

# Directional-derivative probe: central difference along a standard normal
# direction. A ReLU input that changes sign within the probed segment adds an
# error of the size of that unit's slope change, however small the step, so
# the probe tries smaller steps, then other seeded directions, and passes if
# any attempt agrees. A wrong VJP term disagrees in every attempt. Below 1e-8
# round-off grows toward DIR_TOL.
DIR_STEPS = (1e-6, 1e-7, 1e-8)
DIR_TRIES = 3
DIR_TOL = 1e-5
REFERENCE_TOL = 1e-9
K_CLASSES = 4


def derive(seed: int, tag: str) -> int:
    """A 64-bit sub-seed for one named input stream of the workload."""
    digest = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class Tally:
    """Attempted operations and checks, and how many of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}

    def ops(self, count: int, failed: int = 0) -> None:
        self.attempted += count
        self.failed += failed

    def check(self, name: str, ok: bool, **detail) -> bool:
        ok = bool(ok)
        self.ops(1, 0 if ok else 1)
        entry = self.checks.setdefault(name, {"passed": True, "runs": 0})
        entry["passed"] = entry["passed"] and ok
        entry["runs"] += 1
        entry.update(detail)
        return ok


def same(a, b) -> bool:
    """Bitwise equality of two sequences of arrays."""
    return len(a) == len(b) and all(
        np.asarray(x).shape == np.asarray(y).shape
        and np.asarray(x).tobytes() == np.asarray(y).tobytes()
        for x, y in zip(a, b)
    )


def forward_ok(out: np.ndarray, x: np.ndarray) -> bool:
    d = x.shape[1]
    return bool(np.all(np.isfinite(out))) and out[:, :d].tobytes() == x.tobytes()


def grads_list(d_x, d_params) -> list:
    return [d_x] + [g for _, g in d_params.tensors()]


def model_tensors(model) -> list:
    named = [("w_head", model.w_head), ("b_head", model.b_head)]
    if model.nlroi_params is not None:
        named += model.nlroi_params.tensors()
    return named


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def operator_checks(tally, seed, x, params, config, out, d_x, upstream, perm, reference_n):
    """Once-per-run checks of the operator on the workload's own inputs."""
    d = config.d
    shuffled, _ = operator.nlroi_forward(x[perm], params, config)
    tally.check("permutation_equivariance", shuffled.tobytes() == out[perm].tobytes())

    def loss_and_signs(blob):
        y, cache = operator.nlroi_forward(blob, params, config)
        return float(np.sum(y[:, d:] * upstream[:, d:])), cache.g_pre > 0.0

    # <dX, v> minus the pass-through channels' exact share <R[:, :D], v>
    for k, h in itertools.product(range(DIR_TRIES), DIR_STEPS):
        direction = Prng(derive(seed, f"direction{k}")).normals(x.size).reshape(x.shape)
        (plus, s_plus), (minus, s_minus) = (loss_and_signs(x + h * direction),
                                            loss_and_signs(x - h * direction))
        numeric = (plus - minus) / (2 * h)
        analytic = float(np.sum(d_x * direction)) - float(np.sum(upstream[:, :d] * direction))
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
        if rel < DIR_TOL:
            break
    tally.check("directional_derivative", rel < DIR_TOL, rel_err=rel, tol=DIR_TOL, step=h,
                direction=k, relu_sign_changes=int(np.sum(s_plus != s_minus)))

    small = x[:reference_n]
    diff = float(np.max(np.abs(
        operator.nlroi_reference(small, params, config)
        - operator.nlroi_forward(small, params, config)[0]
    )))
    tally.check("reference_agreement", diff < REFERENCE_TOL, max_abs_diff=diff,
                n=reference_n, tol=REFERENCE_TOL)


def timed(make):
    """(CPU seconds, result) of one call."""
    t0 = now()
    result = make()
    return now() - t0, result


def _baseline_chunk(spec, seed, k, steps, tally):
    """One baseline training call; returns (steps, CPU seconds)."""
    t0 = now()
    _, losses = toytask.train("baseline", spec, None, toytask.Hyper(steps=steps),
                              derive(seed, f"baseline{k}"))
    spent = now() - t0
    tally.ops(len(losses), int(np.sum(~np.isfinite(losses))))
    return len(losses), spent


def _cpu_share(region) -> float:
    """CPU seconds over wall seconds since ``region`` began: below 1 when
    other work on the machine kept this process waiting."""
    w0, c0 = region
    return (now() - c0) / (wall() - w0)


def computed_work(workload) -> dict:
    c = workload.config
    return work.stage_work(workload.n, c.d, c.d_f, c.d_mid, c.d_g, c.h, c.w)


def _timing(values_s):
    return summarize([v * 1e3 for v in values_s], "ms")


def _rate(chunks) -> dict:
    """Median over chunks of work done per rescaled CPU second."""
    return {"value": statistics.median(c / t for c, t in chunks), "unit": "1/s",
            "samples": sum(c for c, _ in chunks), "chunks": len(chunks)}


class Samples:
    """One run's timing samples in seconds, as measured and rescaled to the
    reference speed (see ``clock``), plus per-chunk work for the rates."""

    def __init__(self):
        self.raw = {k: [] for k in ("setup", "fwd", "bwd", "step")}
        self.scaled = {k: [] for k in self.raw}
        self.rates = {k: [] for k in ("train", "eval", "baseline")}

    def add(self, kind, seconds, factor):
        self.raw[kind].append(seconds)
        self.scaled[kind].append(seconds * factor)

    def chunk(self, kind, work, seconds, factor):
        self.rates[kind].append((work, seconds * factor))


def results(samples: Samples, peak, cpu_share, speed) -> dict:
    """The end-to-end metrics of one run; rescaled times, raw ones in detail."""
    su = summarize(samples.scaled["setup"], "s")
    f, b, st = (_timing(samples.scaled[k]) for k in ("fwd", "bwd", "step"))
    return {
        "setup_s": {"value": su["p50"], "unit": "s", "detail": su},
        "peak_mem_mb": {"value": peak, "unit": "MB", "samples": 1},
        "fwd_ms_p50": {"value": f["p50"], "unit": "ms", "detail": f},
        "bwd_ms_p50": {"value": b["p50"], "unit": "ms", "detail": b},
        "step_ms_p50": {"value": st["p50"], "unit": "ms", "detail": st},
        "step_ms_p90": {"value": st["p90"], "unit": "ms", "detail": st},
        "train_steps_per_s": _rate(samples.rates["train"]),
        "eval_scenes_per_s": _rate(samples.rates["eval"]),
        "baseline_steps_per_s": _rate(samples.rates["baseline"]),
        "cpu_wall_ratio": {"value": cpu_share, "unit": "ratio"},
        "raw_ms": {k: _timing(v) for k, v in samples.raw.items()},
        "calibration_ms": speed.summary(),
    }


# --- large_n and paper_scale -------------------------------------------------------


@dataclass(frozen=True)
class OperatorWorkload:
    name: str
    n: int
    config: NlRoiConfig
    reference_n: int  # RoIs for the scalar-oracle comparison
    baseline_steps: int  # baseline training steps per forward+backward pair
    # Calibration kernel of the baseline steps: interpreter-bound when the
    # per-RoI Python loop of scene generation dominates (large N, small D).
    baseline_kernel: tuple
    kernel = ARRAYS  # calibration kernel of the operator calls and set-up

    def spec(self):
        c = self.config
        return toytask.SceneSpec(n=self.n, k=K_CLASSES, d=c.d, h=c.h, w=c.w)

    def inputs(self, seed: int) -> dict:
        c = self.config
        n = self.n
        x = Prng(derive(seed, "x")).normals(n * c.d * c.h * c.w).reshape(n, c.d, c.h, c.w)
        params = operator.init_params(c, Prng(derive(seed, "params")))
        out_shape = (n, c.d + c.d_g, c.h, c.w)
        upstream = Prng(derive(seed, "upstream")).normals(int(np.prod(out_shape))).reshape(out_shape)
        perm = np.array(Prng(derive(seed, "perm")).sample_indices(n, n))
        return {"x": x, "params": params, "upstream": upstream, "perm": perm}

    def iteration(self, inp):
        out, cache = operator.nlroi_forward(inp["x"], inp["params"], self.config)
        d_x, d_params = operator.nlroi_backward(cache, inp["params"], self.config, inp["upstream"])
        return [out] + grads_list(d_x, d_params), None

    def prepare(self, seed, tally):
        setup, inp = timed(lambda: self.inputs(seed))
        # one untraced pass gives the reference outputs and warms caches
        reference, _ = self.iteration(inp)
        tally.check("reference_pass_output", forward_ok(reference[0], inp["x"]))
        return setup, inp, reference

    def run(self, seed, seconds, tally, out_dir):
        _, inp, ref = self.prepare(seed, tally)
        x, params, upstream = inp["x"], inp["params"], inp["upstream"]
        spec = self.spec()
        tr.assert_unwrapped()
        region = (wall(), now())
        speed = Speed(self.kernel)
        base_speed = Speed(self.baseline_kernel)
        sm = Samples()
        deadline = wall() + seconds
        k = 0
        while k == 0 or wall() < deadline:
            t0 = now()
            out, cache = operator.nlroi_forward(x, params, self.config)
            t1 = now()
            f_fwd = speed.factor()
            t2 = now()
            d_x, d_params = operator.nlroi_backward(cache, params, self.config, upstream)
            t3 = now()
            f_bwd = speed.factor()
            fwd_s, bwd_s = t1 - t0, t3 - t2
            sm.add("fwd", fwd_s, f_fwd)
            sm.add("bwd", bwd_s, f_bwd)
            # the pair's factor weights each half by its share of the time
            f_pair = (fwd_s * f_fwd + bwd_s * f_bwd) / (fwd_s + bwd_s)
            sm.add("step", fwd_s + bwd_s, f_pair)
            sm.chunk("train", 1, fwd_s + bwd_s, f_pair)
            sm.chunk("eval", 1, fwd_s, f_fwd)
            tally.ops(1, 0 if forward_ok(out, x) and same([out], ref[:1]) else 1)
            tally.ops(1, 0 if same(grads_list(d_x, d_params), ref[1:]) else 1)
            del out, cache, d_x, d_params
            base_speed.start()
            n, spent = _baseline_chunk(spec, seed, k, self.baseline_steps, tally)
            sm.chunk("baseline", n, spent, base_speed.factor())
            speed.start()
            spent, _ = timed(lambda: self.inputs(seed))
            sm.add("setup", spent, speed.factor())
            k += 1
        peak = peak_rss_mb()
        cpu_share = _cpu_share(region)
        operator_checks(tally, seed, x, params, self.config, ref[0], ref[1], upstream,
                        inp["perm"], self.reference_n)
        return results(sm, peak, cpu_share, speed)

    def traced(self, seed, seconds, tally, out_dir):
        _, inp, ref = self.prepare(seed, tally)
        traces, walls = traced_loop(lambda: self.iteration(inp), seconds, tally)
        operator_checks(tally, seed, inp["x"], inp["params"], self.config, ref[0], ref[1],
                        inp["upstream"], inp["perm"], self.reference_n)
        return traces, walls, {}


LARGE_N = OperatorWorkload(
    name="large_n",
    n=1024,
    config=NlRoiConfig(d=8, d_f=4, d_mid=4, d_g=4, h=4, w=4,
                       attend_to_self=False, scaling=Scaling.FULL_FLATTEN),
    reference_n=16,
    baseline_steps=2,
    baseline_kernel=INTERPRETER,
)
PAPER_SCALE = OperatorWorkload(
    name="paper_scale",
    n=128,
    config=NlRoiConfig(d=256, d_f=64, d_mid=64, d_g=64, h=7, w=7),
    reference_n=2,
    baseline_steps=2,
    baseline_kernel=ARRAYS,
)


# --- toy_train ----------------------------------------------------------------------


class ToyTrain:
    """The default toy-task config: N=8, K=4, D=16, 3x3, 8 scenes per step."""

    name = "toy_train"
    n = 8
    spec = toytask.SceneSpec(n=8, k=K_CLASSES, d=16, h=3, w=3)
    config = NlRoiConfig(d=16, d_f=4, d_mid=4, d_g=4, h=3, w=3)
    # Work per round: about 0.2 s on a 2-vCPU x86 host, half of it nlroi
    # training. Short chunks give the best-chunk rates many samples.
    chunk_steps = 5  # nlroi steps per train() call
    eval_chunk = 20  # scenes per evaluate() call
    baseline_chunk = 20  # baseline steps per train() call
    fwd_block = 20  # timed forward+backward pairs
    standalone_scenes = 32  # scenes cycled through by the fwd/bwd timing
    reference_n = 8
    kernel = INTERPRETER  # calibration kernel: the time goes to per-call overhead

    def inputs(self, seed: int) -> dict:
        prng = Prng(derive(seed, "scenes"))
        scenes = [toytask.generate_scene(prng, self.spec) for _ in range(self.standalone_scenes)]
        params = operator.init_params(self.config, Prng(derive(seed, "params")))
        up = Prng(derive(seed, "upstream"))
        c = self.config
        shape = (self.n, c.d + c.d_g, c.h, c.w)
        upstream = [up.normals(int(np.prod(shape))).reshape(shape) for _ in scenes]
        perm = np.array(Prng(derive(seed, "perm")).sample_indices(self.n, self.n))
        return {"scenes": [s.features for s in scenes], "params": params,
                "upstream": upstream, "perm": perm}

    def _train(self, variant, seed, steps, marks=None):
        log = None if marks is None else (lambda step, loss: marks.append(now()))
        return toytask.train(variant, self.spec, self.config if variant == "nlroi" else None,
                             toytask.Hyper(steps=steps), seed, log_fn=log, log_every=1)

    def iteration(self, seed, out_dir):
        """One pass over every toy layer: train, save, load, evaluate, baseline."""
        marks = []
        model, losses = self._train("nlroi", derive(seed, "train0"), self.chunk_steps, marks)
        path = out_dir / "toy_weights.bin"
        weights.save_weights(path, model_tensors(model))
        loaded = weights.load_weights(path)
        acc = toytask.evaluate(model, 20, derive(seed, "eval0"))
        base, base_losses = self._train("baseline", derive(seed, "baseline0"), self.chunk_steps)
        outputs = ([np.asarray(losses)] + [t for _, t in model_tensors(model)]
                   + list(loaded.values()) + [np.float64(acc), np.asarray(base_losses)]
                   + [t for _, t in model_tensors(base)])
        return outputs, {"marks": marks, "bytes": path.stat().st_size}

    def _checks(self, tally, inp, seed, first_chunk):
        model, losses = self._train("nlroi", derive(seed, "train0"), self.chunk_steps)
        again = [np.asarray(losses)] + [t for _, t in model_tensors(model)]
        tally.check("training_reproducible", same(again, first_chunk))
        report = gradcheck.check_all_gradients(self.config, derive(seed, "gradcheck"))
        tally.check("gradcheck", report.passed, max_rel_err=report.max_rel_err)
        x, params, upstream = inp["scenes"][0], inp["params"], inp["upstream"][0]
        out, cache = operator.nlroi_forward(x, params, self.config)
        d_x, _ = operator.nlroi_backward(cache, params, self.config, upstream)
        operator_checks(tally, seed, x, params, self.config, out, d_x, upstream,
                        inp["perm"], self.reference_n)

    def run(self, seed, seconds, tally, out_dir):
        _, inp = timed(lambda: self.inputs(seed))
        # warm-up, outside the timed region
        self._train("nlroi", derive(seed, "warm"), 2)
        self._train("baseline", derive(seed, "warm"), 2)
        tr.assert_unwrapped()
        region = (wall(), now())
        params = inp["params"]
        speed = Speed(self.kernel)
        sm = Samples()
        accs = []
        first_chunk = None
        # Each round runs every phase once, set-up included, so every metric
        # samples the whole run rather than one stretch of it.
        deadline = wall() + seconds
        k = 0
        while k == 0 or wall() < deadline:
            marks = []
            t0 = now()
            model, losses = self._train("nlroi", derive(seed, f"train{k}"), self.chunk_steps, marks)
            t1 = now()
            factor = speed.factor()
            bounds = [t0] + marks
            for a, b in zip(bounds, bounds[1:]):
                sm.add("step", b - a, factor)
            sm.chunk("train", len(losses), t1 - t0, factor)
            tally.ops(len(losses), int(np.sum(~np.isfinite(losses))))
            if k == 0:
                first_chunk = [np.asarray(losses)] + [t for _, t in model_tensors(model)]

            t0 = now()
            acc = toytask.evaluate(model, self.eval_chunk, derive(seed, f"eval{k}"))
            sm.chunk("eval", self.eval_chunk, now() - t0, speed.factor())
            accs.append(acc)
            tally.ops(self.eval_chunk, 0 if 0.0 <= acc <= 1.0 else self.eval_chunk)

            n, spent = _baseline_chunk(self.spec, seed, k, self.baseline_chunk, tally)
            sm.chunk("baseline", n, spent, speed.factor())

            block = []
            for i in range(self.fwd_block):
                j = (k * self.fwd_block + i) % len(inp["scenes"])
                x = inp["scenes"][j]
                t0 = now()
                out, cache = operator.nlroi_forward(x, params, self.config)
                t1 = now()
                d_x, _ = operator.nlroi_backward(cache, params, self.config, inp["upstream"][j])
                block.append((t1 - t0, now() - t1))
                tally.ops(1, 0 if forward_ok(out, x) else 1)
                tally.ops(1, 0 if np.all(np.isfinite(d_x)) else 1)
            factor = speed.factor()
            for f_s, b_s in block:
                sm.add("fwd", f_s, factor)
                sm.add("bwd", b_s, factor)

            spent, _ = timed(lambda: self.inputs(seed))
            sm.add("setup", spent, speed.factor())
            k += 1
        peak = peak_rss_mb()
        cpu_share = _cpu_share(region)

        path = out_dir / "toy_weights.bin"
        weights.save_weights(path, model_tensors(model))
        loaded = weights.load_weights(path)
        tally.check("weights_round_trip",
                    same([t for _, t in model_tensors(model)], list(loaded.values()))
                    and list(loaded) == [n for n, _ in model_tensors(model)])
        self._checks(tally, inp, seed, first_chunk)
        tally.checks["eval_accuracy"] = {"passed": True, "runs": len(accs),
                                         "mean": float(np.mean(accs)),
                                         "after_steps": self.chunk_steps}
        return results(sm, peak, cpu_share, speed)

    def traced(self, seed, seconds, tally, out_dir):
        _, inp = timed(lambda: self.inputs(seed))
        self._train("nlroi", derive(seed, "warm"), 2)
        info = {}

        def after(tracer, extra):
            trains = [s for s in tracer.spans
                      if s.run_id == tracer.run_id and s.name == "toytask.train"]
            nlroi_train = trains[0]
            init = next(s for s in tracer.spans
                        if s.parent == nlroi_train.id and s.name == "toytask.init_model")
            tr.split_steps(tracer, nlroi_train, [init.end] + extra["marks"])
            info["bytes"] = extra["bytes"]

        traces, walls = traced_loop(lambda: self.iteration(seed, out_dir), seconds, tally, after)
        model, losses = self._train("nlroi", derive(seed, "train0"), self.chunk_steps)
        self._checks(tally, inp, seed,
                     [np.asarray(losses)] + [t for _, t in model_tensors(model)])
        return traces, walls, info


WORKLOADS = {w.name: w for w in (ToyTrain(), LARGE_N, PAPER_SCALE)}


# --- the traced run ---------------------------------------------------------------


def _traced_pass(tracer, iterate, memory: bool):
    if memory:
        tracemalloc.start()
    try:
        with tr.installed(tracer):
            t0 = now()
            outputs, extra = iterate()
            spent = now() - t0
    finally:
        if memory:
            tracemalloc.stop()
    return outputs, extra, spent


def traced_loop(iterate, seconds, tally, after=None):
    """Alternate untraced and traced passes of ``iterate`` until ``seconds``
    have passed; every traced pass must reproduce the untraced outputs.

    Span times come from passes without ``tracemalloc``, whose hook on every
    allocation would inflate them several times over on small tensors. One
    extra pass with it running gives the peak bytes. Returns the timing
    tracer, the memory tracer and the wall seconds of each kind of pass.
    """
    timing, memory = tr.Tracer(), tr.Tracer()
    walls = {"untraced": [], "traced": [], "memory": []}
    deadline = wall() + seconds
    i = 0
    while i == 0 or wall() < deadline:
        modes = ["untraced", "traced"] if i % 2 == 0 else ["traced", "untraced"]
        if i == 0:
            modes.append("memory")
        outputs = {}
        for mode in modes:
            if mode == "untraced":
                tr.assert_unwrapped()
                t0 = now()
                outputs[mode], _ = iterate()
                walls[mode].append(now() - t0)
                continue
            tracer = memory if mode == "memory" else timing
            tracer.run_id = f"{mode}-{i}"
            outputs[mode], extra, spent = _traced_pass(tracer, iterate, mode == "memory")
            walls[mode].append(spent)
            if after is not None:
                after(tracer, extra)
        for mode in modes:
            if mode != "untraced":
                tally.check("traced_equals_untraced", same(outputs[mode], outputs["untraced"]))
        i += 1
    return (timing, memory), walls


def _median(values):
    return statistics.median(values) if values else 0.0


def _exact(values):
    """A count that must repeat exactly; 0 when the layer was not called."""
    if not values:
        return 0, True
    return values[0], all(v == values[0] for v in values)


def layer_metrics(workload, traces, walls, info) -> tuple:
    """Per-layer metrics from the traced spans, plus consistency findings:
    times and counts from the timing passes, peak bytes from the memory pass."""
    timing, memory = traces
    spans = timing.spans
    kids = tr.children_of(spans)
    fwd = tr.operator_calls(spans, kids, "operator.nlroi_forward")
    bwd = tr.operator_calls(spans, kids, "operator.nlroi_backward")
    mem_kids = tr.children_of(memory.spans)
    mem_fwd = tr.operator_calls(memory.spans, mem_kids, "operator.nlroi_forward")
    mem_bwd = tr.operator_calls(memory.spans, mem_kids, "operator.nlroi_backward")
    computed = computed_work(workload)
    m = {}
    for stage in work.STAGES:
        f_ms = _median([c["self_ms"] if stage == "mix" else c["stage_ms"].get(stage, 0.0)
                        for c in fwd])
        v_ms = _median([c["stage_ms"].get(stage, 0.0) for c in bwd])
        f_peak = max([c["self_peak_bytes"] if stage == "mix"
                      else c["stage_peak_bytes"].get(stage, 0) for c in mem_fwd], default=0)
        v_peak = max([c["stage_peak_bytes"].get(stage, 0) for c in mem_bwd], default=0)
        w = computed[stage]
        key = f"operator.{stage}"
        m[f"{key}.fwd_ms"] = (f_ms, "ms")
        m[f"{key}.vjp_ms"] = (v_ms, "ms")
        m[f"{key}.fwd_peak_bytes"] = (f_peak, "B")
        m[f"{key}.vjp_peak_bytes"] = (v_peak, "B")
        m[f"{key}.fwd_flops"] = (w["fwd_flops"], "flop")
        m[f"{key}.vjp_flops"] = (w["vjp_flops"], "flop")
        m[f"{key}.fwd_bytes"] = (w["fwd_bytes"], "B")
        m[f"{key}.vjp_bytes"] = (w["vjp_bytes"], "B")
        m[f"{key}.fwd_gflops"] = (w["fwd_flops"] / f_ms / 1e6 if f_ms > 0 else 0.0, "GFLOP/s")
        m[f"{key}.vjp_gflops"] = (w["vjp_flops"] / v_ms / 1e6 if v_ms > 0 else 0.0, "GFLOP/s")
    m["operator.backward_self_ms"] = (_median([c["self_ms"] for c in bwd]), "ms")

    def share(calls, stages):
        return _median([
            sum(c["self_ms"] if s == "mix" else c["stage_ms"].get(s, 0.0) for s in stages)
            / c["total_ms"] for c in calls])

    m["operator.nxn_fwd_share"] = (share(fwd, ("score", "softmax", "mix")), "ratio")
    m["operator.channel_fwd_share"] = (share(fwd, ("embed", "g_branch")), "ratio")

    calls_fwd, exact_fwd = _exact([c["ops_calls"] for c in fwd])
    calls_bwd, exact_bwd = _exact([c["ops_calls"] for c in bwd])
    steps = [s for s in spans if s.name == "toytask.step"]
    if steps:
        per_step = [sum(1 for s in tr.subtree(st, kids) if s.name.startswith("ops."))
                    for st in steps]
    else:
        per_step = [a["ops_calls"] + b["ops_calls"] for a, b in zip(fwd, bwd)]
    calls_step, exact_step = _exact(per_step)
    m["ops.calls_per_fwd"] = (calls_fwd, "count")
    m["ops.calls_per_bwd"] = (calls_bwd, "count")
    m["ops.calls_per_step"] = (calls_step, "count")

    scenes = [s for s in spans if s.name == "toytask.generate_scene"]
    m["toytask.generate_scene_ms"] = (_median([s.seconds * 1e3 for s in scenes]), "ms")
    m["toytask.step_self_ms"] = (_median([tr.self_seconds(s, kids) * 1e3 for s in steps]), "ms")
    operator_names = ("operator.nlroi_forward", "operator.nlroi_backward")
    m["toytask.step_operator_share"] = (_median([
        sum(c.seconds for c in kids.get(s.id, ()) if c.name in operator_names) / s.seconds
        for s in steps]), "ratio")
    rng_per_scene = [s.rng_calls for s in scenes]
    calls_rng, exact_rng = _exact(rng_per_scene)
    m["rng.calls_per_scene"] = (calls_rng, "count")
    m["weights.save_ms"] = (_median([s.seconds * 1e3 for s in spans
                                     if s.name == "weights.save_weights"]), "ms")
    m["weights.load_ms"] = (_median([s.seconds * 1e3 for s in spans
                                     if s.name == "weights.load_weights"]), "ms")
    m["weights.bytes"] = (info.get("bytes", 0), "B")
    m["trace_overhead_ratio"] = (min(walls["traced"]) / min(walls["untraced"]), "ratio")

    accounting = {
        "counts_exact": {"ops.calls_per_fwd": exact_fwd, "ops.calls_per_bwd": exact_bwd,
                         "ops.calls_per_step": exact_step, "rng.calls_per_scene": exact_rng},
        "forward_calls": len(fwd),
        "backward_calls": len(bwd),
        "unattributed_fwd_ms": _median([c["unattributed_ms"] for c in fwd]),
        "unattributed_vjp_ms": _median([c["unattributed_ms"] for c in bwd]),
        "passes": {mode: len(w) for mode, w in walls.items()},
        "memory_pass_overhead_ratio": min(walls["memory"]) / min(walls["untraced"]),
    }
    if steps:
        accounting["step"] = step_accounting(steps, kids)
    return m, accounting


def step_accounting(steps, kids) -> dict:
    """Median share of a toy training step per kind of direct child."""
    parts = {"operator_fwd": [], "operator_bwd": [], "generate_scene": [], "head_ops": [],
             "self": []}
    names = {"operator.nlroi_forward": "operator_fwd", "operator.nlroi_backward": "operator_bwd",
             "toytask.generate_scene": "generate_scene"}
    for st in steps:
        acc = dict.fromkeys(parts, 0.0)
        for c in kids.get(st.id, ()):
            key = names.get(c.name, "head_ops" if c.name.startswith("ops.") else None)
            if key is not None:
                acc[key] += c.seconds
        acc["self"] = tr.self_seconds(st, kids)
        for key in parts:
            parts[key].append(acc[key] / st.seconds)
    shares = {k: _median(v) for k, v in parts.items()}
    shares["sum"] = sum(shares.values())
    return shares


def spans_file(traces, path: Path) -> None:
    with open(path, "w") as fh:
        for tracer in traces:
            for s in tracer.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
