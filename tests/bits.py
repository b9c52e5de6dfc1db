"""SHA-256 digests of the operator's results, for comparing two checkouts.

Prints one JSON object. For each of seven cases it holds the digest of
the forward's output, of each image's attention stack, of dX and of each
of the 7 parameter gradients. An attention digest is keyed by the call
index of its image (images with no RoIs have none), so a change that
regroups the images but keeps every image's stack reads as equal. With
``--train`` it adds the digests of the weights files that ``nlroi
train`` writes for both variants at the default config (3,000 steps
each).

Run it once per checkout, each time with that checkout's ``src/`` on the
path, and compare the two objects:

    PYTHONPATH=src python tests/bits.py [--train]

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from nlroi import cli
from nlroi.operator import NlRoiConfig, Scaling, init_params, nlroi_backward, nlroi_forward
from nlroi.rng import Prng

TOY = NlRoiConfig(d=16, d_f=4, d_mid=4, d_g=4, h=3, w=3)
MASKED_TOY = NlRoiConfig(d=16, d_f=4, d_mid=4, d_g=4, h=3, w=3, attend_to_self=False)
LARGE_N = NlRoiConfig(
    d=8, d_f=4, d_mid=4, d_g=4, h=4, w=4,
    attend_to_self=False, scaling=Scaling.FULL_FLATTEN,
)
PAPER_SCALE = NlRoiConfig(d=256, d_f=64, d_mid=64, d_g=64, h=7, w=7)

# name: (config, counts, call rows that copy an earlier row as a twin)
CASES = {
    "toy_1x8": (TOY, (8,), ()),
    "toy_8x8": (TOY, (8,) * 8, ()),
    "ragged_twins": (TOY, (5, 8, 0, 3), ((3, 1),)),
    "ragged_twins_masked": (MASKED_TOY, (5, 8, 0, 3), ((3, 1),)),
    "large_n": (LARGE_N, (1024,), ()),
    "paper_scale": (PAPER_SCALE, (128,), ()),
    # last, so that the cases above keep their seeds
    "alternating_twins": (TOY, (6, 10, 6, 10), ((9, 7),)),
}


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def case_digests(seed: int, config: NlRoiConfig, counts: tuple, twins: tuple) -> dict:
    prng = Prng(seed)
    params = init_params(config, prng)
    n = sum(counts)
    x = prng.normals(n * config.d * config.h * config.w).reshape(n, config.d, config.h, config.w)
    for copy, source in twins:
        x[copy] = x[source]
    out, cache = nlroi_forward(x, params, config, counts)
    d_out = prng.normals(out.size).reshape(out.shape)
    d_x, grads = nlroi_backward(cache, params, config, d_out)
    named = {"out": digest(out), "d_x": digest(d_x)}
    named |= attn_digests(cache, counts)
    named |= {f"d_{name}": digest(g) for name, g in grads.tensors()}
    return named


def attn_digests(cache, counts: tuple) -> dict:
    """One digest per image's (n, n) attention stack, keyed by the image's
    call index, which its first canonical row's call row gives."""
    ends = np.cumsum(counts)
    named = {}
    for (row, _, rois), attn in zip(cache.groups, cache.attn):
        for i, stack in enumerate(attn if rois else ()):
            image = int(np.searchsorted(ends, cache.order[row + i * rois], side="right"))
            named[f"attn[image {image}]"] = digest(stack)
    return named


def train_digests() -> dict:
    named = {}
    with tempfile.TemporaryDirectory() as tmp:
        for variant in ("baseline", "nlroi"):
            path = os.path.join(tmp, f"{variant}.bin")
            with contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(["train", "--variant", variant, "--out", path])
            if rc != 0:
                raise SystemExit(f"nlroi train --variant {variant} exited {rc}")
            with open(path, "rb") as fh:
                named[f"train_{variant}"] = hashlib.sha256(fh.read()).hexdigest()
    return named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train", action="store_true",
                        help="also hash the 3,000-step weights files of both variants")
    args = parser.parse_args(argv)
    result = {
        name: case_digests(seed, *case)
        for seed, (name, case) in enumerate(CASES.items(), start=3500)
    }
    if args.train:
        result |= train_digests()
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
