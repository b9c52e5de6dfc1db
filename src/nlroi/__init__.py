"""Non-local RoI attention: each region of interest in a detection head
attends to every other, mixing per-RoI embeddings into an appended feature
channel block. Pure numpy, 64-bit, bit-reproducible."""

from .bench import fit_scaling_exponent, run_bench
from .config import ConfigFile, parse_config
from .errors import (
    ConfigError,
    DegenerateAttentionError,
    DimensionError,
    DivergenceError,
    InsufficientDataError,
    NumericalError,
    WeightsCorruptionError,
    WeightsFormatError,
)
from .gradcheck import GradReport, check_all_gradients
from .operator import (
    ForwardCache,
    NlRoiConfig,
    NlRoiParams,
    Scaling,
    init_params,
    nlroi_backward,
    nlroi_forward,
    nlroi_reference,
)
from .rng import Prng
from .toytask import (
    Hyper,
    Scene,
    SceneSpec,
    ToyModel,
    evaluate,
    generate_scene,
    init_model,
    train,
)
from .weights import load_weights, save_weights

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConfigFile",
    "DegenerateAttentionError",
    "DimensionError",
    "DivergenceError",
    "ForwardCache",
    "GradReport",
    "Hyper",
    "InsufficientDataError",
    "NlRoiConfig",
    "NlRoiParams",
    "NumericalError",
    "Prng",
    "Scaling",
    "Scene",
    "SceneSpec",
    "ToyModel",
    "WeightsCorruptionError",
    "WeightsFormatError",
    "check_all_gradients",
    "evaluate",
    "fit_scaling_exponent",
    "generate_scene",
    "init_model",
    "init_params",
    "load_weights",
    "nlroi_backward",
    "nlroi_forward",
    "nlroi_reference",
    "parse_config",
    "run_bench",
    "save_weights",
    "train",
]
