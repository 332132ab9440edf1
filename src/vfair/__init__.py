"""Variance-suppressing fair training with mean-loss and worst-case baselines.

The update rule steers stochastic training toward parameters that keep
the average loss of a plain mean-loss minimizer while shrinking the
spread of per-example losses, so no latent subgroup is left carrying
outsized error.  The package bundles the update itself, mean-loss and
distributionally robust baselines, group-disparity metrics, dataset
loading/synthesis, and an experiment harness with a CLI.

The package root re-exports what one fair step needs and the error
types; everything else is imported from its module (`vfair.harness`,
`vfair.metrics`, `vfair.data`, `vfair.baselines`, ...).
"""

from .errors import ConfigError, DataError, NumericError
from .nnet import Batch, ModelSpec, init_params
from .update import UpdateState, vfair_direction

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "ConfigError",
    "DataError",
    "ModelSpec",
    "NumericError",
    "UpdateState",
    "init_params",
    "vfair_direction",
]
