"""Golden seeded runs pinned bit-exactly.

Regenerate after an intentional numerical change with
``EUATLAB_REGEN_GOLDEN=1 pytest tests/test_golden.py`` and review the diff.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from euatlab.experiment import (
    ExperimentConfig,
    build_dataset,
    run_experiment,
    train_method,
)
from oracles import checkpoint_v1_json

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("EUATLAB_REGEN_GOLDEN") == "1"


def check_golden(name: str, payload: dict):
    path = GOLDEN_DIR / f"{name}.json"
    blob = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if REGEN or not path.exists():
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(blob)
        if REGEN:
            pytest.skip(f"regenerated {path.name}")
    expected = json.loads(path.read_text())
    assert payload == expected, f"golden mismatch for {name}"


def small_config(method, **over):
    doc = {
        "method": method,
        "seed": 11,
        "dataset": {"kind": "gaussian_blobs", "n": 240, "noise": 0.1},
        "model": {"hidden": [16], "dropout_rate": 0.3},
        "schedule": {
            "pretrain_epochs": 6,
            "euat_epochs": 6,
            "pretrain_lr": 0.1,
            "euat_lr": 0.01,
            "batch_size": 32,
        },
        "mc_samples": 4,
        "ensemble_members": 3,
    }
    doc.update(over)
    return ExperimentConfig.from_dict(doc)


def epoch_table(manifest_dir: Path):
    rows = (manifest_dir / "per_epoch.csv").read_text().splitlines()
    header = rows[0].split(",")
    drop = header.index("wall_time")
    return [",".join(c for i, c in enumerate(r.split(",")) if i != drop) for r in rows]


def test_euat_run_reproduces_per_epoch_table(tmp_path):
    run_experiment(small_config("euat"), tmp_path)
    check_golden("euat_per_epoch", {"rows": epoch_table(tmp_path)})


def test_ensemble_member_checksums():
    # hashes the format-1 text, whose decimals pin every weight bit for bit
    config = small_config("ensemble")
    ens = train_method(config, build_dataset(config)).predictor.ensemble
    checksums = [
        hashlib.sha256(checkpoint_v1_json(m).encode()).hexdigest() for m in ens.members
    ]
    check_golden("ensemble_checksums", {"sha256": checksums})


@pytest.mark.parametrize("method", ["ce", "ce_pe"])
def test_ce_family_final_metrics(tmp_path, method):
    manifest = run_experiment(small_config(method), tmp_path)
    clean = manifest["reports"]["clean"]
    check_golden(
        f"{method}_final",
        {"error": clean["error"], "ua": clean["ua"], "uauc": clean["uauc"]},
    )


def test_adversarial_run_reproduces_report(tmp_path):
    config = small_config("euat", adversarial_training=True,
                          protocols=["clean", "attack"])
    manifest = run_experiment(config, tmp_path)
    check_golden("euat_adversarial", {"reports": manifest["reports"]})
