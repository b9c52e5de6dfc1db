"""Exception types shared across the package. Each derives from its builtin
base and then from ``NlRoiError``, so ``except ValueError`` still catches a
``DimensionError`` and one clause catches every class here. Two rules that
several modules apply live here too: ``require_size`` and ``require_finite``.
A failed allocation stays NumPy's ``MemoryError``, which the CLI handles too."""

import numpy as np


class NlRoiError(Exception):
    """Base of every error class of the package."""


class DimensionError(ValueError, NlRoiError):
    """Tensor shapes are incompatible with the requested operation."""


class DegenerateAttentionError(ValueError, NlRoiError):
    """A masked attention row has no unmasked entries to attend to."""


class ConfigError(ValueError, NlRoiError):
    """A configuration file or configuration value is invalid. ``fields``
    names the fields a rule rejects, the one at fault first and then any
    other field the rule compares it with."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


def require_size(name: str, value, least: int) -> None:
    """Raises ConfigError naming ``name`` unless ``value`` is an integer >=
    ``least``; a bool is no size."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}", name)


def require_finite(a: np.ndarray, what: str) -> None:
    """Raises NumericalError naming ``what``, the first non-finite value of
    ``a`` and its index, unless every value of ``a`` is finite."""
    finite = np.isfinite(a)
    if not finite.all():
        index = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise NumericalError(f"{what} has a non-finite value {float(a[index])!r} at index {index}")


class WeightsFormatError(ValueError, NlRoiError):
    """A weights file violates the binary format (magic, names, ranks)."""


class WeightsCorruptionError(WeightsFormatError):
    """A weights file fails its CRC-32, is truncated, or its payload
    disagrees with its header."""


class DivergenceError(RuntimeError, NlRoiError):
    """Training diverged at ``step``: ``what`` names the non-finite value,
    the step's loss or a value that its forward or backward computed."""

    def __init__(self, step: int, what: str):
        super().__init__(f"training diverged at step {step}: {what}")
        self.step = step


class NumericalError(ArithmeticError, NlRoiError):
    """A non-finite value where a finite one is required: an operator input
    blob, the attention scores, or a finite-difference probe."""


class InsufficientDataError(ValueError, NlRoiError):
    """Not enough data points for the requested fit."""
