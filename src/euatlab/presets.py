"""Frozen experiment recipes for the desk-scale trend studies.

Two benchmark setups, chosen during development for stable directional
behavior across independent seed groups:

* overlapping Gaussians (~15% Bayes error) in 16 dimensions with a small
  training split, where a pretrained model is confidently wrong in
  model-specific regions. The error-driven phase widens the uncertainty
  separation between correct and wrong predictions relative to a CE
  baseline trained for the same total budget.

* a one-vs-rest reduction of three concentric rings (middle ring positive)
  against a deliberately narrow net. The model underfits the annulus in
  systematic arcs, which is where class inversion of high-uncertainty
  predictions pays off.

Both use multi-mask averaging during the CE loops (train_mc_samples > 1):
single network-level dropout masks make tiny-net SGD too noisy to converge
reliably at these scales.
"""

from __future__ import annotations

from .experiment import ExperimentConfig

# blob noise putting the two-class Bayes error at 0.15: exactly
# data.BLOB_CENTER_RADIUS / -ndtri(0.15), written out so that no run
# imports scipy
GAUSSIAN_TREND_NOISE = 0.11578168092269765


def gaussian_trend_config(method: str = "euat", seed: int = 0) -> ExperimentConfig:
    """Overlapping-Gaussians separation study (train 500 / val 100 / test 900)."""
    return ExperimentConfig.from_dict(
        {
            "method": method,
            "seed": seed,
            "dataset": {
                "kind": "gaussian_blobs",
                "n": 1500,
                "noise": GAUSSIAN_TREND_NOISE,
                "class_count": 2,
                "dim": 16,
                "val_fraction": 1.0 / 15.0,
                "test_fraction": 0.6,
            },
            "model": {"hidden": [64, 64], "dropout_rate": 0.15},
            "schedule": {
                "pretrain_epochs": 30,
                "euat_epochs": 30,
                "pretrain_lr": 0.05,
                "euat_lr": 0.05,
                "batch_size": 64,
                "momentum": 0.9,
                "selection_metric": "corr",
                "train_mc_samples": 6,
            },
            "mc_samples": 20,
            "protocols": ["clean"],
        }
    )


def binary_flipping_config(method: str = "euat", seed: int = 0) -> ExperimentConfig:
    """Middle-ring-vs-rest flipping study with an underfitting [8] net."""
    return ExperimentConfig.from_dict(
        {
            "method": method,
            "seed": seed,
            "dataset": {
                "kind": "rings",
                "n": 3000,
                "noise": 0.02,
                "class_count": 3,
                "binary_positive_class": 1,
                "val_fraction": 0.15,
                "test_fraction": 0.45,
            },
            "model": {"hidden": [8], "dropout_rate": 0.1},
            "schedule": {
                "pretrain_epochs": 40,
                "euat_epochs": 30,
                "pretrain_lr": 0.05,
                "euat_lr": 0.05,
                "batch_size": 64,
                "momentum": 0.9,
                "selection_metric": "ua",
                "train_mc_samples": 6,
            },
            "mc_samples": 20,
            "threshold_objective": "flip_gain",
            "protocols": ["clean", "flip"],
        }
    )
