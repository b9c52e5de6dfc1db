"""Benchmark of the nlroi package: one workload, one seed, one run.

    python3 perfbench/run.py --workload toy_train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
of that checkout and from nowhere else. With ``--trace 0`` the run is
untraced and reports the end-to-end metrics listed in ``BENCHMARK.json``;
with ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics. The last line of stdout is the result object; the
line before it is the full report (environment, sample counts, checks,
computed work). The report and, for traced runs, the spans are also
written under ``.perfbench_out/``. A human-readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import nlroi from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "nlroi" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / 'nlroi'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import nlroi

    if Path(nlroi.__file__).resolve().parent != (src / "nlroi").resolve():
        raise SystemExit(f"perfbench: imported nlroi from {nlroi.__file__}, not {src}")


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import env
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    wl = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    tally = workloads.Tally()
    extra = {}
    if args.trace:
        traces, walls, info = wl.traced(args.seed, args.seconds, tally, OUT_DIR)
        layer, extra["accounting"] = workloads.layer_metrics(wl, traces, walls, info)
        measured = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        workloads.spans_file(traces, stem.with_name(stem.name + "-spans.jsonl"))
        extra["spans"] = sum(len(t.spans) for t in traces)
    else:
        measured = wl.run(args.seed, args.seconds, tally, OUT_DIR)

    missing = sorted(set(declared) - set(measured))
    wrong_unit = sorted(n for n in declared if n in measured and measured[n]["unit"] != declared[n])
    if missing or wrong_unit:
        print(f"perfbench: metrics missing {missing}, unit mismatch {wrong_unit}", file=sys.stderr)
        return 3

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env.record(ROOT),
        "metrics": measured,
        "checks": tally.checks,
        "work": {"computed": True, "n": wl.n, "stages": workloads.computed_work(wl)},
        **extra,
    }
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1, default=float) + "\n")
    for name in declared:
        m = measured[name]
        samples = m.get("samples", m.get("detail", {}).get("samples", ""))
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']:8s} {samples}", file=sys.stderr)
    for name, c in tally.checks.items():
        print(f"check {name:28s} {'PASS' if c['passed'] else 'FAIL'}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": measured[n]["value"], "unit": declared[n]} for n in declared},
    }
    print(json.dumps(report, default=float))
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
