"""Command-line entry point.

Subcommands: gradcheck, bench, train, eval, oracle-diff, init. Data (CSV,
ACCURACY, GRADCHECK, oracle-diff values) goes to stdout; progress and
tables go to stderr. Exit codes: 0 success (and, where applicable, the
checked property holds), 1 internal error or failed check precondition,
2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .bench import DEFAULT_SWEEP, MIN_REPS, emit_csv, fit_scaling_exponent, run_bench
from .config import ConfigFile, parse_config
from .errors import ConfigError, InsufficientDataError, NlRoiError, require_finite, require_size
from .gradcheck import check_all_gradients, format_report, summary_line
from .operator import (
    NlRoiConfig,
    Scaling,
    init_params,
    nlroi_forward,
    nlroi_reference,
)
from .rng import Prng
from .toytask import ToyModel, evaluate, init_model, train
from .weights import load_weights, save_weights

ORACLE_TOL = 1e-9


def _load_config(args) -> ConfigFile:
    """The ``--config`` file (or the defaults) with ``--seed`` as its seed."""
    data = b""
    if args.config is not None:
        with open(args.config, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line of the bad byte, as parse_config's splitlines counts lines
        ln = len((data[: exc.start].decode("utf-8") + "_").splitlines())
        raise ConfigError(f"line {ln}: byte {data[exc.start]:#04x} is not UTF-8") from None
    cfg = parse_config(text)
    return cfg if args.seed is None else dataclasses.replace(cfg, seed=args.seed)


def _cmd_gradcheck(args, cfg: ConfigFile) -> int:
    report = check_all_gradients(cfg.nlroi, seed=cfg.seed, n=cfg.spec.n)
    print(format_report(report), file=sys.stderr)
    print(summary_line(report))
    return 0 if report.passed else 1


def _cmd_bench(args, cfg: ConfigFile) -> int:
    records = run_bench(DEFAULT_SWEEP, reps=args.reps, seed=cfg.seed)
    if args.out is None:
        emit_csv(records, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            emit_csv(records, fh)
        print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    # the slope of log forward time against log N, which the scaling acceptance test bounds
    try:
        print(f"slope={fit_scaling_exponent(records):.3f}", file=sys.stderr)
    except InsufficientDataError as exc:
        print(f"slope=n/a: {exc}", file=sys.stderr)
    return 0


def _cmd_train(args, cfg: ConfigFile) -> int:
    nl_config = cfg.nlroi if args.variant == "nlroi" else None

    def log(step, loss):
        print(f"step={step} loss={loss:.6f}", file=sys.stderr)

    model, _ = train(
        args.variant,
        cfg.spec,
        nl_config,
        cfg.hyper,
        seed=cfg.seed,
        log_fn=log,
    )
    save_weights(args.out, model.tensors())
    print(f"saved {args.variant} weights to {args.out}", file=sys.stderr)
    return 0


def _cmd_eval(args, cfg: ConfigFile) -> int:
    named = load_weights(args.weights)
    for name, value in named.items():
        require_finite(value, f"weights tensor {name!r}")
    model = ToyModel.from_named(cfg.spec, cfg.nlroi if "w_phi" in named else None, named)
    acc = evaluate(model, scenes=args.scenes, seed=cfg.seed)
    print(f"ACCURACY {acc:.6f}")
    return 0


def _random_oracle_case(prng: Prng, index: int):
    """Deterministic mode coverage: consecutive indices cycle through
    masking and scaling; sizes are drawn from the PRNG."""
    n = 1 + prng.randint(16)
    d = 4 + prng.randint(13)
    h = 1 + prng.randint(5)
    w = 1 + prng.randint(5)
    d_f = 1 + prng.randint(max(1, d // 2))
    d_mid = 1 + prng.randint(max(1, d // 2))
    d_g = 1 + prng.randint(6)
    attend = index % 2 == 0 or n == 1
    scaling = Scaling.PER_CHANNEL if index % 4 < 2 else Scaling.FULL_FLATTEN
    config = NlRoiConfig(
        d=d, d_f=d_f, d_mid=d_mid, d_g=d_g, h=h, w=w,
        attend_to_self=attend, scaling=scaling,
    )
    params = init_params(config, prng)
    x = prng.normals(n * d * h * w).reshape(n, d, h, w)
    return x, params, config


def _cmd_oracle_diff(args, cfg: ConfigFile) -> int:
    import numpy as np

    require_size("count", args.count, 1)
    prng = Prng(cfg.seed)
    worst, where = 0.0, None
    for i in range(args.count):
        x, params, config = _random_oracle_case(prng, i)
        out, _ = nlroi_forward(x, params, config)
        diff = np.abs(out - nlroi_reference(x, params, config))
        if diff.size and (where is None or diff.max() > worst):
            at = np.unravel_index(np.argmax(diff), diff.shape)
            worst, where = float(diff[at]), (i, config, x.shape[0], tuple(map(int, at)))
    if where is not None:
        i, config, n, at = where
        print(f"worst case {i}: n={n} {config}; largest |diff| at output index {at}",
              file=sys.stderr)
    print(f"{worst:.6e}")
    return 0 if worst < ORACLE_TOL else 1


def _cmd_init(args, cfg: ConfigFile) -> int:
    prng = Prng(cfg.seed)
    nl_config = cfg.nlroi if args.variant == "nlroi" else None
    model = init_model(cfg.spec, nl_config, prng)
    save_weights(args.out, model.tensors())
    print(f"saved fresh {args.variant} weights to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key=value configuration file")
    common.add_argument(
        "--seed", type=int, help="PRNG seed (overrides the config file's seed)"
    )

    parser = argparse.ArgumentParser(
        prog="nlroi",
        description="non-local RoI attention operator: checks, benchmarks, toy training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "gradcheck", parents=[common],
        help="compare analytic gradients against finite differences",
    ).set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser(
        "bench", parents=[common], help="time forward/backward over an N sweep (CSV)",
        description="Times forward and backward over the fixed N sweep DEFAULT_SWEEP "
        "(N = 64..1024) and prints the log-log slope. Of a --config file only the "
        "seed is read.",
    )
    p.add_argument("--reps", type=int, default=MIN_REPS, help="repetitions per size")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("train", parents=[common], help="train a toy-task variant")
    p.add_argument("--variant", choices=("baseline", "nlroi"), required=True)
    p.add_argument("--out", default="weights.bin", help="weights file to write")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate saved weights")
    p.add_argument("--weights", default="weights.bin", help="weights file to load")
    p.add_argument("--scenes", type=int, default=1000, help="evaluation scene count")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser(
        "oracle-diff", parents=[common],
        help="max |forward - reference| over random configurations",
    )
    p.add_argument("--count", type=int, default=100, help="random configurations")
    p.set_defaults(fn=_cmd_oracle_diff)

    p = sub.add_parser("init", parents=[common], help="write freshly initialized weights")
    p.add_argument("--variant", choices=("baseline", "nlroi"), default="nlroi")
    p.add_argument("--out", default="weights.bin", help="weights file to write")
    p.set_defaults(fn=_cmd_init)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the package's own errors, failed file access and a failed allocation
    # exit 1; anything else is a bug and propagates
    try:
        return args.fn(args, _load_config(args))
    except (NlRoiError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
