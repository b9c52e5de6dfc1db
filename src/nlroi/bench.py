"""Wall-time measurement of the operator and a complexity fit.

The relation stage builds an N x N score matrix, so forward cost should
grow quadratically in the RoI count once N dominates the per-RoI stages.
``run_bench`` times forward and backward over a size grid (medians of
repeated runs, after warm-ups); ``fit_scaling_exponent`` regresses
log(time) on log(N) and returns the slope.

Timings run sequentially on the current thread; only the configuration,
never the measured times, is reproducible from the seed.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, require_size
from .operator import NlRoiConfig, init_params, nlroi_backward, nlroi_forward
from .rng import Prng


@dataclass
class BenchRecord:
    n: int
    config: NlRoiConfig
    reps: int
    forward_ms: float
    backward_ms: float


# N sweep for the complexity fit: spans 16x up to the proposal budget a
# detector-scale run would feed the operator, with sizes small enough that
# the N x N stage dominates.
DEFAULT_SWEEP = tuple(
    (n, NlRoiConfig(d=8, d_f=4, d_mid=4, d_g=4, h=4, w=4)) for n in (64, 128, 256, 512, 1024)
)

MIN_REPS = 5
WARMUPS = 2


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1000.0


def run_bench(grid, reps: int, seed: int) -> list:
    """Median forward/backward milliseconds for every (n, config) pair of
    ``grid``, in order."""
    require_size("reps", reps, MIN_REPS)
    prng = Prng(seed)
    records = []
    for n, config in grid:
        d, h, w = config.d, config.h, config.w
        params = init_params(config, prng)
        x = prng.normals(n * d * h * w).reshape(n, d, h, w)
        d_out = prng.normals(n * (d + config.d_g) * h * w).reshape(n, -1, h, w)

        for _ in range(WARMUPS):
            _, cache = nlroi_forward(x, params, config)
            nlroi_backward(cache, params, config, d_out)

        # the backward reps read the last warm-up's cache, which every forward rep reproduces
        fwd = [_time_once(lambda: nlroi_forward(x, params, config)) for _ in range(reps)]
        bwd = [
            _time_once(lambda: nlroi_backward(cache, params, config, d_out))
            for _ in range(reps)
        ]
        records.append(
            BenchRecord(n, config, reps, statistics.median(fwd), statistics.median(bwd))
        )
    return records


def fit_scaling_exponent(records) -> float:
    """Least-squares slope of log(forward_ms) against log(N).

    Needs at least 4 records with distinct N and one operator config.
    """
    if not records:
        raise InsufficientDataError("no records to fit")
    configs = {r.config for r in records}
    if len(configs) != 1:
        raise ValueError(f"records mix operator configs: {sorted(map(str, configs))}")
    if len({r.n for r in records}) < 4:
        raise InsufficientDataError(
            f"need >= 4 distinct N values, got {sorted({r.n for r in records})}"
        )
    xs = np.log([float(r.n) for r in records])
    ys = np.log([float(r.forward_ms) for r in records])
    xbar = xs.mean()
    ybar = ys.mean()
    return float(np.sum((xs - xbar) * (ys - ybar)) / np.sum((xs - xbar) ** 2))


CSV_HEADER = "n,d,d_f,d_g,h,w,reps,forward_ms,backward_ms"


def emit_csv(records, stream) -> None:
    print(CSV_HEADER, file=stream)
    for r in records:
        c = r.config
        print(
            f"{r.n},{c.d},{c.d_f},{c.d_g},{c.h},{c.w},{r.reps},"
            f"{r.forward_ms:.3f},{r.backward_ms:.3f}",
            file=stream,
        )
