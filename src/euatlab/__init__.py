"""Desk-scale lab for error-driven uncertainty-aware training.

Train small dropout MLPs with a two-branch loss that pushes predictive
entropy up on currently-mispredicted examples and down on correct ones,
then measure whether uncertainty separates right from wrong answers:
uncertainty confusion matrices, rank AUC, calibration error, Wasserstein
separation, flipping protocols, noise OOD, and gradient-sign attacks.
"""

__version__ = "0.1.0"

from . import baselines, data, experiment, losses, metrics, nn, rng, robustness
from . import training, uncertainty
from .experiment import ExperimentConfig, run_experiment
from .losses import ce_pe_loss, euat_loss
from .metrics import EvalRecords, build_ucm, ece, tune_threshold, uauc, wasserstein1
from .nn import MlpModel
from .training import TrainingSchedule, euat_train
from .uncertainty import eval_predict, mc_predict, normalized_entropy

__all__ = [
    "ExperimentConfig",
    "EvalRecords",
    "MlpModel",
    "TrainingSchedule",
    "baselines",
    "build_ucm",
    "ce_pe_loss",
    "data",
    "ece",
    "euat_loss",
    "euat_train",
    "eval_predict",
    "experiment",
    "losses",
    "mc_predict",
    "metrics",
    "nn",
    "normalized_entropy",
    "rng",
    "robustness",
    "run_experiment",
    "training",
    "tune_threshold",
    "uauc",
    "uncertainty",
    "wasserstein1",
]
