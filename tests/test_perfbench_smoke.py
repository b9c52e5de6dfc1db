"""The benchmark runs against this checkout and passes its own checks.

``perfbench/run.py`` reads parts of the package that no other test pins
(``ForwardCache.g_pre``, ``NlRoiParams.tensors``, ``attention_weights`` by
name for tracing, ``toytask.init_model``, ``Prng.next_u64`` and
``uniforms``) and checks what it measures: training reproducibility,
gradcheck, permutation equivariance, the oracle and a weights round trip.
Each run here is a short one in a copy of the checkout, so the report it
writes stays out of the source tree. The traced runs call every op through
the tracer's wrappers; the large_n one is the only run of them over the
masked softmax and its multi-block VJP.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", "tests")
    shutil.copytree(ROOT / "src" / "nlroi", root / "src" / "nlroi", ignore=ignore)
    shutil.copytree(ROOT / "perfbench", root / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize(
    "workload, trace", [("toy_train", 0), ("large_n", 0), ("toy_train", 1), ("large_n", 1)]
)
def test_run_is_correct(checkout, workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    failed_checks = [line for line in done.stderr.splitlines() if line.endswith("FAIL")]
    assert result["correct"] is True and result["failed"] == 0, failed_checks
