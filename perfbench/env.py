"""The environment a result was measured in, recorded with every report.

Everything here is read, never set: thread-count variables are recorded as
found, so a result can be matched with the settings that produced it.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _run(args, cwd, env=None):
    try:
        done = subprocess.run(
            args, cwd=cwd, env=env, capture_output=True, text=True, timeout=10, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cache_bytes(level: str, root: Path):
    out = _run(["getconf", f"LEVEL{level}_CACHE_SIZE"], root)
    return int(out) if out and out.isdigit() else None


def _blas() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}
    return {"name": info.get("name"), "version": info.get("version")}


def _git(root: Path) -> dict:
    """Rev and dirty flag, read only from root/.git (never a parent's)."""
    if not (root / ".git").is_dir():
        return {"rev": None, "dirty": None}
    env = dict(os.environ, GIT_DIR=str(root / ".git"), GIT_WORK_TREE=str(root))
    rev = _run(["git", "rev-parse", "HEAD"], root, env)
    status = _run(["git", "status", "--porcelain", "--untracked-files=no"], root, env)
    return {"rev": rev, "dirty": None if status is None else bool(status)}


def source_digest(root: Path) -> str:
    """sha256 over the package sources, so results from checkouts without
    git history still name the code they measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "nlroi").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def record(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "l2_bytes": _cache_bytes("2", root),
        "l3_bytes": _cache_bytes("3", root),
        "machine": platform.machine(),
        "git": _git(root),
        "src_sha256": source_digest(root),
    }
