"""End-to-end acceptance checks.

One test per shipping requirement, each printing a single
``ACCEPTANCE <name>: PASS|FAIL`` line (visible even under pytest's capture)
so a log scrape can audit the run:

  * oracle equivalence of the vectorized forward against the scalar
    reference over 100 random configurations, under 1e-9, inside a minute
  * the full gradient check across 5 seeds and all four mode combinations
  * attention-matrix invariants over 1,000 random score matrices
  * bitwise permutation equivariance on 100 random instances
  * exact cross-mode score recovery plus argmax agreement on 100 instances
  * toy-task separation: attention variant >= 0.95, context-blind baseline
    capped by its membership-oracle ceiling, and a wide gap between them
  * near-quadratic wall-time growth in the RoI count
  * lossless weight serialization and rejection of damaged files
  * bitwise run-to-run reproducibility of training through the CLI
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import nlroi
from nlroi.bench import DEFAULT_SWEEP, fit_scaling_exponent, run_bench
from nlroi.cli import main
from nlroi.config import parse_config
from nlroi.errors import (
    DegenerateAttentionError,
    WeightsCorruptionError,
    WeightsFormatError,
)
from nlroi.gradcheck import check_all_gradients
from nlroi.operator import (
    NlRoiConfig,
    Scaling,
    attention_weights,
    init_params,
    nlroi_forward,
)
from nlroi.rng import Prng
from nlroi.toytask import Hyper, evaluate, train
from nlroi.weights import MAGIC, load_weights, save_weights

from helpers import baseline_ceiling, raw_scores


@pytest.fixture
def announce(capsys):
    def _line(name, ok, detail=""):
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}", flush=True)
        assert ok, f"{name}{suffix}"

    return _line


def test_oracle_equivalence(announce, capsys):
    started = time.perf_counter()
    rc = main(["oracle-diff", "--count", "100", "--seed", "0"])
    elapsed = time.perf_counter() - started
    worst = float(capsys.readouterr().out.strip())
    ok = rc == 0 and worst < 1e-9 and elapsed < 60.0
    announce("oracle-equivalence", ok, f"max_abs_diff={worst:.3e}, {elapsed:.1f}s")


def test_gradient_suite(announce):
    started = time.perf_counter()
    worst = 0.0
    failures = []
    for seed in range(5):
        for attend in (True, False):
            for scaling in (Scaling.PER_CHANNEL, Scaling.FULL_FLATTEN):
                cfg = NlRoiConfig(
                    d=6, d_f=3, d_mid=3, d_g=4, h=2, w=2,
                    attend_to_self=attend, scaling=scaling,
                )
                report = check_all_gradients(cfg, seed=seed, n=4)
                worst = max(worst, report.max_rel_err)
                if not report.passed:
                    failures.append((seed, attend, scaling.value))
    elapsed = time.perf_counter() - started
    ok = not failures and worst < 1e-6 and elapsed < 300.0
    announce(
        "gradient-suite", ok,
        f"worst_rel_err={worst:.3e} over 20 runs, {elapsed:.1f}s"
        + (f", failures={failures}" if failures else ""),
    )


def test_attention_invariants(announce):
    prng = Prng(2024)
    checked = 0
    worst_row_sum = 0.0
    ok = True
    for i in range(1000):
        n = 1 + prng.randint(12)
        scores = prng.normals(n * n).reshape(n, n)
        if i % 3 == 0:
            # exercise extreme magnitudes, including +-1e6 rows
            scores[prng.randint(n)] *= 1e6
        masked = i % 2 == 1 and n >= 2
        p = attention_weights(scores, attend_to_self=not masked)
        checked += 1
        worst_row_sum = max(worst_row_sum, float(np.max(np.abs(p.sum(axis=1) - 1.0))))
        if not (np.all(p >= 0.0) and np.all(p <= 1.0)):
            ok = False
        if masked and np.any(np.diag(p) != 0.0):
            ok = False
    ok = ok and worst_row_sum <= 1e-12
    try:
        attention_weights(np.zeros((1, 1)), attend_to_self=False)
        raised = False
    except DegenerateAttentionError:
        raised = True
    ok = ok and raised
    announce(
        "attention-invariants", ok,
        f"{checked} matrices, worst_row_sum_err={worst_row_sum:.3e}, "
        f"masked_n1_raises={raised}",
    )


def test_permutation_equivariance(announce):
    prng = Prng(77)
    mismatches = 0
    for i in range(100):
        n = 2 + prng.randint(9)
        cfg = NlRoiConfig(
            d=8, d_f=4, d_mid=4, d_g=3, h=3, w=3, attend_to_self=i % 2 == 0
        )
        params = init_params(cfg, prng)
        x = prng.normals(n * 8 * 3 * 3).reshape(n, 8, 3, 3)
        pi = prng.sample_indices(n, n)
        out, _ = nlroi_forward(x, params, cfg)
        out_p, _ = nlroi_forward(x[pi], params, cfg)
        if not np.array_equal(out_p, out[pi]):
            mismatches += 1
    announce(
        "permutation-equivariance", mismatches == 0,
        f"100 instances, bitwise mismatches={mismatches}",
    )


def test_scaling_mode_ratio(announce):
    prng = Prng(55)
    raw_mismatch = 0
    argmax_mismatch = 0
    ratio_exact = True
    for _ in range(100):
        n = 2 + prng.randint(7)
        # power-of-two scales (sqrt(4)=2, sqrt(16)=4) so the division is
        # exact and multiplying the scale back recovers raw scores bitwise
        cfg_pc = NlRoiConfig(d=8, d_f=4, d_mid=4, d_g=3, h=2, w=2)
        cfg_ff = NlRoiConfig(
            d=8, d_f=4, d_mid=4, d_g=3, h=2, w=2, scaling=Scaling.FULL_FLATTEN
        )
        params = init_params(cfg_pc, prng)
        x = prng.normals(n * 8 * 2 * 2).reshape(n, 8, 2, 2)
        _, c_pc = nlroi_forward(x, params, cfg_pc)
        _, c_ff = nlroi_forward(x, params, cfg_ff)
        # both caches hold the canonical order of the same x
        raw_pc, raw_ff = raw_scores(c_pc), raw_scores(c_ff)
        if not np.array_equal(raw_pc, raw_ff):
            raw_mismatch += 1
        if not (
            np.array_equal(raw_pc / cfg_pc.scale() * cfg_pc.scale(), raw_pc)
            and np.array_equal(raw_ff / cfg_ff.scale() * cfg_ff.scale(), raw_ff)
        ):
            ratio_exact = False
        if not np.array_equal(
            np.argmax(c_pc.attn[0][0], axis=1), np.argmax(c_ff.attn[0][0], axis=1)
        ):
            argmax_mismatch += 1
    ok = raw_mismatch == 0 and argmax_mismatch == 0 and ratio_exact
    announce(
        "scaling-mode-ratio", ok,
        f"100 instances, raw_mismatches={raw_mismatch}, "
        f"argmax_mismatches={argmax_mismatch}, exact_recovery={ratio_exact}",
    )


def test_toy_task_separation(announce):
    started = time.perf_counter()
    cfg = parse_config("")  # the standard setting: N=8, K=4, D=16, 3x3
    spec = cfg.spec
    hyper = cfg.hyper

    ceiling_mc = baseline_ceiling(8, 4, trials=20000, prng=Prng(123))
    ceiling_ok = abs(ceiling_mc - 0.75) < 0.01

    nl_model, _ = train("nlroi", spec, cfg.nlroi, hyper, seed=7)
    nl_acc = evaluate(nl_model, scenes=1000, seed=7)

    base_model, _ = train("baseline", spec, None, hyper, seed=7)
    base_acc = evaluate(base_model, scenes=1000, seed=7)

    elapsed = time.perf_counter() - started
    ok = (
        ceiling_ok
        and nl_acc >= 0.95
        and base_acc <= 0.75 + 0.03
        and nl_acc - base_acc >= 0.15
        and elapsed < 900.0
    )
    announce(
        "toy-task-separation", ok,
        f"nlroi={nl_acc:.4f}, baseline={base_acc:.4f}, "
        f"ceiling_mc={ceiling_mc:.4f}, gap={nl_acc - base_acc:.4f}, {elapsed:.0f}s",
    )


def test_scaling_benchmark(announce):
    started = time.perf_counter()
    records = run_bench(DEFAULT_SWEEP, reps=5, seed=0)
    slope = fit_scaling_exponent(records)
    elapsed = time.perf_counter() - started
    ok = 1.7 <= slope <= 2.3 and elapsed < 600.0
    announce("scaling-benchmark", ok, f"slope={slope:.3f}, {elapsed:.1f}s")


def test_serialization_round_trips(announce, tmp_path):
    prng = Prng(31337)
    bad = 0
    for trial in range(100):
        d = 2 + prng.randint(9)
        d_f = 1 + prng.randint(d)
        cfg = NlRoiConfig(
            d=d, d_f=d_f, d_mid=1 + prng.randint(d), d_g=1 + prng.randint(5),
            h=1 + prng.randint(4), w=1 + prng.randint(4),
        )
        params = init_params(cfg, prng)
        path = tmp_path / f"t{trial}.bin"
        save_weights(path, params.tensors())
        loaded = load_weights(path)
        for name, tensor in params.tensors():
            if not np.array_equal(loaded[name], tensor):
                bad += 1

    blob = (tmp_path / "t0.bin").read_bytes()
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(b"XXXXXXXX" + blob[len(MAGIC):])
    with pytest.raises(WeightsFormatError):
        load_weights(corrupt)
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(WeightsCorruptionError):
        load_weights(truncated)

    announce(
        "serialization-round-trips", bad == 0,
        f"100 parameter sets bitwise, tensor_mismatches={bad}, "
        "bad magic and truncation rejected",
    )


def test_training_reproducibility(announce, tmp_path):
    # The CLI runs from tmp_path, where a relative PYTHONPATH entry (such as
    # the ``src`` of ``PYTHONPATH=src pytest``) no longer resolves. Put the
    # absolute root of the package this suite imported first, so the child
    # runs the same code whether it came from a source tree or an install.
    source_root = str(Path(nlroi.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")])
    )
    started = time.perf_counter()
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.bin"
        proc = subprocess.run(
            [sys.executable, "-m", "nlroi", "train", "--variant", "nlroi",
             "--seed", "7", "--out", str(out)],
            capture_output=True, text=True, timeout=540, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(out.read_bytes())
    elapsed = time.perf_counter() - started
    identical = outs[0] == outs[1]
    announce(
        "training-reproducibility", identical,
        f"two CLI runs, byte_identical={identical}, {elapsed:.0f}s",
    )
