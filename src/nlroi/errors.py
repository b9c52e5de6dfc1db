"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Tensor shapes are incompatible with the requested operation."""


class DegenerateAttentionError(ValueError):
    """A masked attention row has no unmasked entries to attend to."""


class ConfigError(ValueError):
    """A configuration file or configuration value is invalid."""


class WeightsFormatError(ValueError):
    """A weights file violates the binary format (magic, names, ranks)."""


class WeightsCorruptionError(WeightsFormatError):
    """A weights file is truncated or its payload disagrees with its header."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int, loss: float):
        super().__init__(f"non-finite loss {loss!r} at step {step}")
        self.step = step
        self.loss = loss


class NumericalError(ArithmeticError):
    """A non-finite value where a finite one is required: an operator input
    blob, the attention scores, or a finite-difference probe."""


class InsufficientDataError(ValueError):
    """Not enough data points for the requested fit."""


class ResourceError(RuntimeError):
    """An allocation failed (e.g. an oversized benchmark tuple)."""
