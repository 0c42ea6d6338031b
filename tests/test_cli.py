import base64
import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from oracles import checkpoint_reference

from euatlab import cli, experiment
from euatlab.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC


@pytest.fixture()
def run_dir(tmp_path):
    out = tmp_path / "run"
    code = cli.main(
        [
            "train",
            "--dataset", "gaussian_blobs",
            "--n", "160",
            "--noise", "0.08",
            "--method", "euat",
            "--seed", "3",
            "--hidden", "8",
            "--pretrain-epochs", "2",
            "--euat-epochs", "2",
            "--euat-lr", "0.01",
            "--batch-size", "32",
            "--mc-samples", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_train_writes_artifacts(run_dir):
    for name in ("manifest.json", "metrics.json", "per_epoch.csv",
                 "histogram.csv", "predictions.csv", "checkpoint.json"):
        assert (run_dir / name).exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["method"] == "euat"
    assert manifest["config"]["schedule"]["batch_size"] == 32


def test_evaluate_subcommands(run_dir):
    assert cli.main(["evaluate", "--run-dir", str(run_dir)]) == 0
    assert cli.main(["flip-eval", "--run-dir", str(run_dir)]) == 0
    assert cli.main(["ood-eval", "--run-dir", str(run_dir), "--sigma", "0.05"]) == 0
    assert cli.main(["attack-eval", "--run-dir", str(run_dir)]) == 0


@pytest.mark.parametrize("method", ["euat", "calibrated_ce"])
def test_protocol_subcommands_print_the_stored_reports(tmp_path, capsys, method):
    out = tmp_path / "run"
    assert cli.main(
        ["train", "--method", method, "--n", "160", "--noise", "0.08", "--seed", "4",
         "--hidden", "8", "--pretrain-epochs", "2", "--euat-epochs", "2",
         "--euat-lr", "0.01", "--batch-size", "32", "--mc-samples", "4",
         "--protocols", "clean,flip,ood,attack", "--out", str(out)]
    ) == 0
    stored = json.loads((out / "metrics.json").read_text())
    capsys.readouterr()
    for command, protocol in (("evaluate", "clean"), ("flip-eval", "flip"),
                              ("ood-eval", "ood"), ("attack-eval", "attack")):
        assert cli.main([command, "--run-dir", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()[1:]
        expected = [f"  {key}: {value}" for key, value in stored[protocol].items()
                    if not isinstance(value, dict)]
        assert sorted(printed) == sorted(expected), command


def test_replay_round_trip(run_dir, tmp_path):
    assert cli.main(
        ["replay", "--manifest", str(run_dir / "manifest.json"),
         "--out", str(tmp_path / "re")]
    ) == 0


def test_replay_detects_mismatch(run_dir, tmp_path):
    target = run_dir / "metrics.json"
    doc = json.loads(target.read_text())
    doc["clean"]["error"] = 0.5
    target.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert cli.main(
        ["replay", "--manifest", str(run_dir / "manifest.json"),
         "--out", str(tmp_path / "re")]
    ) == 1


def test_replay_checks_originals_before_re_running(run_dir, tmp_path, monkeypatch):
    def no_rerun(*args, **kwargs):
        raise AssertionError("replay re-ran the experiment")

    monkeypatch.setattr(experiment, "run_experiment", no_rerun)
    (run_dir / "predictions.csv").unlink()
    assert cli.main(
        ["replay", "--manifest", str(run_dir / "manifest.json"),
         "--out", str(tmp_path / "re")]
    ) == 2


@pytest.mark.parametrize(
    "content", [b"", b"member,epoch,loss\n0,0,0.5\n", b"member,wall_\xfftime\n0,0.1\n"],
    ids=["empty", "no-wall-time", "not-utf8"],
)
def test_replay_checks_the_original_epoch_header_before_re_running(
    run_dir, tmp_path, monkeypatch, content
):
    def no_rerun(*args, **kwargs):
        raise AssertionError("replay re-ran the experiment")

    monkeypatch.setattr(experiment, "run_experiment", no_rerun)
    (run_dir / "per_epoch.csv").write_bytes(content)
    assert cli.main(
        ["replay", "--manifest", str(run_dir / "manifest.json"),
         "--out", str(tmp_path / "re")]
    ) == 2


@pytest.mark.parametrize("content", ["{not json", "[]", '{"kind": "mlp"}', "nan-weight"])
def test_replay_checks_the_original_checkpoint_before_re_running(
    run_dir, tmp_path, monkeypatch, content
):
    # replay compares the checkpoint's decoded parameters, so an original
    # that does not decode cannot be compared
    def no_rerun(*args, **kwargs):
        raise AssertionError("replay re-ran the experiment")

    monkeypatch.setattr(experiment, "run_experiment", no_rerun)
    if content == "nan-weight":
        rewrite_layer_array(run_dir, 2, 0, "weights", EDITS["nan"])
    else:
        (run_dir / "checkpoint.json").write_text(content)
    assert cli.main(
        ["replay", "--manifest", str(run_dir / "manifest.json"),
         "--out", str(tmp_path / "re")]
    ) == 2


@pytest.mark.parametrize("form", ["same", "slash", "relative"])
def test_replay_into_the_original_directory_is_a_config_error(
    run_dir, tmp_path, monkeypatch, capsys, form
):
    # replaying over the originals would compare each file with itself
    def no_rerun(*args, **kwargs):
        raise AssertionError("replay re-ran the experiment")

    target = run_dir / "metrics.json"
    doc = json.loads(target.read_text())
    doc["clean"]["error"] = 0.5
    target.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    altered = target.read_bytes()
    monkeypatch.setattr(experiment, "run_experiment", no_rerun)
    monkeypatch.chdir(tmp_path)
    out = {"same": str(run_dir), "slash": f"{run_dir}/", "relative": "./run/"}[form]
    assert cli.main(["replay", "--manifest", str(run_dir / "manifest.json"),
                     "--out", out]) == 2
    assert "original run directory" in capsys.readouterr().err
    assert target.read_bytes() == altered


@pytest.mark.parametrize("command", ["train", "compare", "replay"])
def test_out_naming_an_existing_file_is_a_config_error(
    request, tmp_path, monkeypatch, capsys, command
):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    if command == "replay":
        manifest = request.getfixturevalue("run_dir") / "manifest.json"
        argv = ["replay", "--manifest", str(manifest)]
    else:
        argv = [command, "--n", "160", "--hidden", "8"]
    monkeypatch.setattr(experiment, "build_dataset", no_stage)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert "cannot create run directory" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


def test_compare_checks_every_method_before_training(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"attack": {"loss": "euat"}, "protocols": ["clean", "attack"]}))
    out = tmp_path / "cmp"
    assert cli.main(
        ["compare", "--config", str(path), "--n", "160", "--hidden", "8",
         "--methods", "euat,calibrated_ce", "--out", str(out)]
    ) == 2
    assert not out.exists() or list(out.iterdir()) == []


def test_compare_checks_every_method_dataset_before_training(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"dataset": {"kind": "two_moons", "n": 100, "val_fraction": 0.01}}))
    out = tmp_path / "cmp"
    assert cli.main(
        ["compare", "--config", str(path), "--hidden", "8", "--pretrain-epochs", "1",
         "--euat-epochs", "1", "--mc-samples", "2",
         "--methods", "euat,calibrated_ce", "--out", str(out)]
    ) == 2
    assert "calibrated_ce needs >= 2 validation rows, got 1" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("methods", ["", "ce,ce"], ids=["empty", "repeated"])
def test_compare_rejects_an_empty_or_repeated_method_list(tmp_path, methods):
    out = tmp_path / "cmp"
    assert cli.main(
        ["compare", "--n", "160", "--hidden", "8", "--methods", methods,
         "--out", str(out)]
    ) == 2
    assert not out.exists()


def test_compare_command(tmp_path):
    code = cli.main(
        [
            "compare",
            "--dataset", "gaussian_blobs",
            "--n", "160",
            "--noise", "0.08",
            "--hidden", "8",
            "--pretrain-epochs", "2",
            "--euat-epochs", "2",
            "--batch-size", "32",
            "--mc-samples", "4",
            "--seed", "5",
            "--methods", "euat,ce",
            "--out", str(tmp_path / "cmp"),
        ]
    )
    assert code == 0
    assert (tmp_path / "cmp" / "compare.csv").exists()


def test_config_error_exit_code(tmp_path):
    code = cli.main(
        ["train", "--dataset", "idx", "--out", str(tmp_path / "x")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "content",
    [b"{not json", b'{"seed": "\xff"}', b'{"seed": ' + b"1" * 4301 + b"}"],
    ids=["malformed", "not-utf8", "int-over-4300-digits"],
)
def test_config_file_error_exit_code(tmp_path, capsys, content):
    # the last two raise a ValueError that is no JSONDecodeError (once exit 1)
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "x"
    code = cli.main(["train", "--config", str(bad), "--out", str(out)])
    assert code == 2
    assert "malformed config file" in capsys.readouterr().err
    assert not out.exists()


def test_data_error_exit_code(tmp_path):
    images = tmp_path / "img.idx"
    images.write_bytes(struct.pack(">IIII", 0x123, 1, 1, 1) + b"\x00")
    labels = tmp_path / "lab.idx"
    labels.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 1) + b"\x00")
    code = cli.main(
        [
            "train",
            "--dataset", "idx",
            "--images", str(images),
            "--labels", str(labels),
            "--pretrain-epochs", "1",
            "--euat-epochs", "1",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 3


@pytest.mark.parametrize("n, exit_code", [(20, 3), (0, 2)], ids=["one-class", "no-rows"])
def test_idx_without_two_classes_fails_before_training(tmp_path, n, exit_code):
    # every label 0: one class is a data error; no rows at all leaves the
    # splits empty, which is a config error
    images = tmp_path / "img.idx"
    images.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, 2, 2) + bytes(range(4 * n)))
    labels = tmp_path / "lab.idx"
    labels.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, n) + bytes(n))
    out = tmp_path / "x"
    code = cli.main(
        ["train", "--dataset", "idx", "--images", str(images), "--labels", str(labels),
         "--pretrain-epochs", "1", "--euat-epochs", "1", "--out", str(out)]
    )
    assert code == exit_code
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert [(s["stage"], s["status"]) for s in stages] == [("dataset", "failed")]


def test_idx_with_empty_images_is_a_data_error(tmp_path):
    # 60 images of 0 x 28 pixels: the inputs would have no features
    images = tmp_path / "img.idx"
    images.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 60, 0, 28))
    labels = tmp_path / "lab.idx"
    labels.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 60) + bytes([0, 1] * 30))
    out = tmp_path / "x"
    code = cli.main(
        ["train", "--dataset", "idx", "--images", str(images), "--labels", str(labels),
         "--pretrain-epochs", "1", "--euat-epochs", "1", "--out", str(out)]
    )
    assert code == 3
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert [(s["stage"], s["status"]) for s in stages] == [("dataset", "failed")]


def test_config_file_with_flag_overrides(tmp_path):
    config = {
        "method": "ce",
        "dataset": {"kind": "gaussian_blobs", "n": 160, "noise": 0.08},
        "model": {"hidden": [8]},
        "schedule": {"pretrain_epochs": 1, "euat_epochs": 1, "batch_size": 32},
        "mc_samples": 4,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    code = cli.main(
        ["train", "--config", str(path), "--method", "ce_pe",
         "--ce-pe-lambda", "0.5", "--out", str(out)]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["method"] == "ce_pe"
    assert manifest["config"]["ce_pe_lambda"] == 0.5


def test_attack_loss_unsupported_by_method_exit_code(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"attack": {"loss": "euat"}}))
    code = cli.main(
        ["train", "--config", str(path), "--method", "ensemble",
         "--protocols", "clean,attack", "--out", str(tmp_path / "x")]
    )
    assert code == 2


OUT_OF_RANGE = {
    # id: (flags, config file or None, field named in the message)
    "mc_samples": (["--mc-samples", "0"], None, "mc_samples"),
    "ensemble_members": (
        ["--method", "ensemble", "--ensemble-members", "0"], None, "ensemble_members"
    ),
    "ce_pe_lambda": (
        ["--method", "ce_pe", "--ce-pe-lambda", "-1"], None, "ce_pe_lambda"
    ),
    "ece_bins": ([], {"ece_bins": 0}, "ece_bins"),
    "histogram_bins": ([], {"histogram_bins": 0}, "histogram_bins"),
    "hidden-zero": (["--hidden", "0"], None, "hidden"),
    "hidden-negative": ([], {"model": {"hidden": [-3]}}, "hidden"),
    "dropout_rate": (["--dropout", "1.5"], None, "dropout_rate"),
    "train_mc_samples": ([], {"schedule": {"train_mc_samples": 0}}, "train_mc_samples"),
    "pretrain_epochs": (["--method", "ce", "--pretrain-epochs", "-1"], None,
                        "pretrain_epochs"),
    "euat_epochs": (["--euat-epochs", "-1"], None, "euat_epochs"),
    "class_count-one": (["--class-count", "1"], None, "class_count"),
    "class_count-zero": (["--class-count", "0"], None, "class_count"),
    # a config or section that is not a JSON object
    "config-list": ([], [1], "config"),
    "dataset-list": ([], {"dataset": [1]}, "dataset"),
    "schedule-string": ([], {"schedule": "x"}, "schedule"),
    "schedule-string-lr": (["--lr", "0.1"], {"schedule": "x"}, "schedule"),
    "model-string": ([], {"model": "x"}, "model"),
    "attack-number": ([], {"attack": 3}, "attack"),
    "corruption-null": ([], {"corruption": None}, "corruption"),
    # a dataset kind or file path of the wrong JSON type
    "kind-list": ([], {"dataset": {"kind": ["x"]}}, "kind"),
    "kind-number": ([], {"dataset": {"kind": 3}}, "kind"),
    "images_path-int": (
        [], {"dataset": {"kind": "idx", "images_path": 10**6, "labels_path": "l"}},
        "images_path",
    ),
    "labels_path-list": (
        [], {"dataset": {"kind": "idx", "images_path": "i", "labels_path": ["l"]}},
        "labels_path",
    ),
    # any other value of the wrong JSON type for its declared field
    "epsilon-bool": (
        [], {"attack": {"epsilon": True}, "protocols": ["clean", "attack"]}, "epsilon"
    ),
    "adversarial_training-string": ([], {"adversarial_training": "no"},
                                    "adversarial_training"),
    "momentum-bool": ([], {"schedule": {"momentum": False}}, "momentum"),
    "pretrain_lr-bool": ([], {"schedule": {"pretrain_lr": True}}, "pretrain_lr"),
    "ce_pe_lambda-string": ([], {"ce_pe_lambda": "x"}, "ce_pe_lambda"),
    "clip_min-string": ([], {"attack": {"clip_min": "x"}}, "clip_min"),
    # a NaN clip bound fails the range check, not the attack stage
    "clip_min-nan": (
        [], {"attack": {"clip_min": float("nan")}, "protocols": ["clean", "attack"]},
        "clip_min",
    ),
    "clip_max-nan": (
        [], {"attack": {"clip_max": float("nan")}, "protocols": ["clean", "attack"]},
        "clip_max",
    ),
    "euat_lr-string": ([], {"schedule": {"euat_lr": "x"}}, "euat_lr"),
    "dropout_rate-null": ([], {"model": {"dropout_rate": None}}, "dropout_rate"),
    "protocols-string": ([], {"protocols": "clean"}, "protocols"),
    "hidden-int": ([], {"model": {"hidden": 8}}, "hidden"),
    "output_dir-int": ([], {"output_dir": 5}, "output_dir"),
    # an integer no float64 holds compares below inf, so it passes every
    # range check; each of these once crashed (exit 1)
    "pretrain_lr-huge-int": ([], {"schedule": {"pretrain_lr": 10**400}}, "pretrain_lr"),
    "weight_decay-huge-int": ([], {"schedule": {"weight_decay": 10**400}}, "weight_decay"),
    "val_fraction-huge-int": ([], {"dataset": {"val_fraction": 10**400}}, "val_fraction"),
    "noise-huge-int": ([], {"dataset": {"noise": 10**400}}, "noise"),
    "ce_pe_lambda-huge-int": (
        [], {"method": "ce_pe", "ce_pe_lambda": 10**400}, "ce_pe_lambda"
    ),
    "epsilon-huge-int": (
        [], {"attack": {"epsilon": 10**400}, "protocols": ["clean", "attack"]}, "epsilon"
    ),
    "sigma-huge-int": (
        [], {"corruption": {"sigma": 10**400}, "protocols": ["clean", "ood"]}, "sigma"
    ),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_config_is_rejected_before_any_stage(tmp_path, capsys, case):
    flags, doc, name = OUT_OF_RANGE[case]
    if doc is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        flags = ["--config", str(path), *flags]
    out = tmp_path / "x"
    code = cli.main(
        ["train", "--n", "200", "--pretrain-epochs", "1", "--euat-epochs", "1",
         *flags, "--out", str(out)]
    )
    assert code == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def leaf_fields() -> list[str]:
    """The dotted name (``field`` or ``section.field``) of every config field
    that holds a value rather than a section."""
    config = experiment.ExperimentConfig()
    leaves = []
    for f in dataclasses.fields(config):
        section = getattr(config, f.name)
        if dataclasses.is_dataclass(section):
            leaves += [f"{f.name}.{sub.name}" for sub in dataclasses.fields(section)]
        else:
            leaves.append(f.name)
    return leaves


@pytest.mark.parametrize("path", leaf_fields())
def test_every_config_field_checks_its_json_type(tmp_path, capsys, path):
    # a JSON object fits no declared field type, so every field, also one
    # added later, must reject it while the config is built
    section, _, name = path.rpartition(".")
    doc = {section: {name: {}}} if section else {name: {}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "x"
    code = cli.main(["train", "--config", str(config), "--out", str(out)])
    assert code == 2
    assert f"{name} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("split", ["val_fraction", "test_fraction"])
def test_empty_split_is_a_config_error_before_training(tmp_path, split):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dataset": {split: 0.0}}))
    out = tmp_path / "x"
    code = cli.main(
        ["train", "--config", str(path), "--n", "200", "--pretrain-epochs", "1",
         "--euat-epochs", "1", "--out", str(out)]
    )
    assert code == 2
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert [(s["stage"], s["status"]) for s in stages] == [("dataset", "failed")]


DATASET_STAGE_ERRORS = {
    # id: (config, what the error names); each run used to train and then
    # fail with a traceback
    "calibrated_ce-one-validation-row": (
        {"method": "calibrated_ce",
         "dataset": {"kind": "two_moons", "n": 100, "val_fraction": 0.01}},
        "calibrated_ce needs >= 2 validation rows, got 1"),
    "clip_min-attack-protocol": (
        {"attack": {"clip_min": 0.5}, "protocols": ["clean", "attack"],
         "dataset": {"n": 160}},
        "[clip_min, clip_max] = [0.5, 1.0], but the test split spans ["),
    "clip_max-adversarial-training": (
        {"attack": {"clip_max": 0.5}, "adversarial_training": True,
         "dataset": {"n": 160}},
        "[clip_min, clip_max] = [0.0, 0.5], but the train split spans ["),
}


@pytest.mark.parametrize("case", DATASET_STAGE_ERRORS)
def test_unrunnable_dataset_fails_before_training(tmp_path, capsys, case):
    doc, message = DATASET_STAGE_ERRORS[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x"
    code = cli.main(
        ["train", "--config", str(path), "--hidden", "8", "--pretrain-epochs", "1",
         "--euat-epochs", "1", "--mc-samples", "2", "--out", str(out)]
    )
    assert code == 2
    assert message in capsys.readouterr().err
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert [(s["stage"], s["status"]) for s in stages] == [("dataset", "failed")]


def test_attack_eval_checks_the_clip_range_before_attacking(tmp_path, monkeypatch):
    # the stored config is valid (no attack protocol at training time);
    # attack-eval adds the protocol and is checked like train
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"attack": {"clip_min": 0.5}}))
    out = tmp_path / "run"
    assert cli.main(
        ["train", "--config", str(path), "--n", "160", "--hidden", "8",
         "--pretrain-epochs", "1", "--euat-epochs", "1", "--mc-samples", "2",
         "--out", str(out)]
    ) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("attack-eval predicted before checking the clip range")

    monkeypatch.setattr(experiment.Predictor, "probs", refuse)
    assert cli.main(["attack-eval", "--run-dir", str(out)]) == 2


BAD_NUMBERS = {
    # id: (flags, config file or None, exit code)
    "lr-negative": (["--lr", "-1"], None, 2),
    "lr-nan": (["--lr", "nan"], None, 2),
    "euat_lr-negative": (["--euat-lr", "-1"], None, 2),
    "momentum": ([], {"schedule": {"momentum": 1.5}}, 2),
    "weight_decay": ([], {"schedule": {"weight_decay": -1}}, 2),
    "epsilon-nan": (["--epsilon", "nan", "--protocols", "clean,attack"], None, 2),
    "sigma-nan": (["--sigma", "nan", "--protocols", "clean,ood"], None, 2),
    "ce_pe_lambda-nan": (["--method", "ce_pe", "--ce-pe-lambda", "nan"], None, 2),
    "val_fraction-nan": ([], {"dataset": {"val_fraction": float("nan")}}, 3),
    "test_fraction-nan": ([], {"dataset": {"test_fraction": float("nan")}}, 3),
    "noise-inf": (["--noise", "inf"], None, 3),
    "noise-string": ([], {"dataset": {"noise": "x"}}, 2),
    "val_fraction-bool": ([], {"dataset": {"val_fraction": True}}, 2),
    "test_fraction-null": ([], {"dataset": {"test_fraction": None}}, 2),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_bad_number_is_rejected_before_training(tmp_path, case):
    # NaN fails every range check written as `not low <= x < high`
    flags, doc, exit_code = BAD_NUMBERS[case]
    if doc is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        flags = ["--config", str(path), *flags]
    out = tmp_path / "x"
    code = cli.main(
        ["train", "--n", "200", "--pretrain-epochs", "1", "--euat-epochs", "1",
         *flags, "--out", str(out)]
    )
    assert code == exit_code
    manifest = out / "manifest.json"
    stages = json.loads(manifest.read_text())["stages"] if manifest.exists() else []
    assert [(s["stage"], s["status"]) for s in stages] in (
        [], [("dataset", "failed")]
    )


NON_INTEGERS = {
    # id: (config file, field named in the message)
    "seed-string": ({"seed": "x"}, "seed"),
    "seed-bool": ({"seed": True}, "seed"),
    "n-string": ({"dataset": {"n": "300"}}, "n"),
    "n-float": ({"dataset": {"n": 300.0}}, "n"),
    "class_count-float": ({"dataset": {"class_count": 3.0}}, "class_count"),
    "dim-float": ({"dataset": {"dim": 2.0}}, "dim"),
    "binary_positive_class-float": (
        {"dataset": {"binary_positive_class": 1.0}}, "binary_positive_class"
    ),
    "hidden-float": ({"model": {"hidden": [8.5]}}, "hidden"),
    "pretrain_epochs-float": ({"schedule": {"pretrain_epochs": 1.0}}, "pretrain_epochs"),
    "euat_epochs-bool": ({"schedule": {"euat_epochs": True}}, "euat_epochs"),
    "batch_size-float": ({"schedule": {"batch_size": 32.0}}, "batch_size"),
    "train_mc_samples-float": (
        {"schedule": {"train_mc_samples": 1.0}}, "train_mc_samples"
    ),
    "mc_samples-float": ({"mc_samples": 2.0}, "mc_samples"),
    "ensemble_members-float": (
        {"method": "ensemble", "ensemble_members": 2.0}, "ensemble_members"
    ),
    "ece_bins-float": ({"ece_bins": 15.0}, "ece_bins"),
    "histogram_bins-float": ({"histogram_bins": 50.0}, "histogram_bins"),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGERS))
def test_non_integer_field_is_rejected_before_any_stage(tmp_path, capsys, case):
    bad, name = NON_INTEGERS[case]
    # a small run, so a value that slips through fails fast; no flag may
    # override the bad value
    doc = {"dataset": {"n": 200}, "schedule": {"pretrain_epochs": 1, "euat_epochs": 1}}
    for key, value in bad.items():
        doc[key] = {**doc.get(key, {}), **value} if isinstance(value, dict) else value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x"
    code = cli.main(["train", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert f"{name} must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, doc",
    [(["--protocols", "clean,flip"], None), ([], {"threshold_objective": "flip_gain"})],
    ids=["flip-protocol", "flip_gain-objective"],
)
def test_flipping_on_a_non_binary_task_is_rejected_before_training(
    tmp_path, flags, doc
):
    if doc is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        flags = ["--config", str(path), *flags]
    out = tmp_path / "x"
    code = cli.main(
        ["train", "--class-count", "3", "--n", "200", "--pretrain-epochs", "1",
         "--euat-epochs", "1", *flags, "--out", str(out)]
    )
    assert code == 2
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert [(s["stage"], s["status"]) for s in stages] == [("dataset", "failed")]


def test_flip_eval_rejects_a_non_binary_run_before_predicting(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert cli.main(
        ["train", "--class-count", "3", "--n", "200", "--hidden", "8",
         "--pretrain-epochs", "1", "--euat-epochs", "1", "--mc-samples", "2",
         "--out", str(out)]
    ) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("flip-eval predicted on a non-binary task")

    monkeypatch.setattr(experiment.Predictor, "probs", refuse)
    assert cli.main(["flip-eval", "--run-dir", str(out)]) == 2


def test_training_failure_exit_code(tmp_path):
    out = tmp_path / "x"
    code = cli.main(
        ["train", "--method", "ce", "--n", "200", "--pretrain-epochs", "2",
         "--euat-epochs", "1", "--lr", "1e300", "--out", str(out)]
    )
    assert code == 4
    last = json.loads((out / "manifest.json").read_text())["stages"][-1]
    assert (last["stage"], last["status"]) == ("train", "failed")


def test_attack_eval_rejects_loss_unsupported_by_method(tmp_path):
    # the stored config is valid (no attack protocol at training time);
    # attack-eval adds the protocol and is checked like train
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"attack": {"loss": "euat"}}))
    out = tmp_path / "run"
    code = cli.main(
        ["train", "--config", str(path), "--method", "ensemble",
         "--ensemble-members", "2", "--n", "160", "--hidden", "8",
         "--pretrain-epochs", "1", "--euat-epochs", "1", "--mc-samples", "4",
         "--out", str(out)]
    )
    assert code == 0
    assert cli.main(["attack-eval", "--run-dir", str(out)]) == 2


def test_attack_eval_rejects_negative_epsilon(run_dir):
    assert cli.main(["attack-eval", "--run-dir", str(run_dir), "--epsilon", "-0.1"]) == 2


def test_ood_eval_rejects_negative_sigma(run_dir):
    assert cli.main(["ood-eval", "--run-dir", str(run_dir), "--sigma", "-0.5"]) == 2


def test_missing_run_dir_is_a_config_error(tmp_path):
    missing = str(tmp_path / "nowhere")
    assert cli.main(["evaluate", "--run-dir", missing]) == 2
    assert cli.main(["ood-eval", "--run-dir", missing]) == 2
    assert cli.main(
        ["replay", "--manifest", missing + "/manifest.json",
         "--out", str(tmp_path / "re")]
    ) == 2


def test_non_json_checkpoint_is_a_bad_checkpoint(run_dir):
    (run_dir / "checkpoint.json").write_text("{not json")
    assert cli.main(["evaluate", "--run-dir", str(run_dir)]) == 4


def test_truncated_checkpoint_is_a_bad_checkpoint(run_dir):
    (run_dir / "checkpoint.json").write_text('{"kind": "calibrated"}')
    assert cli.main(["evaluate", "--run-dir", str(run_dir)]) == 4


def test_truncated_checkpoint_of_the_method_kind_is_a_bad_checkpoint(run_dir):
    # the kind matches the euat run's method, so the missing fields fail
    (run_dir / "checkpoint.json").write_text('{"kind": "mlp"}')
    assert cli.main(["evaluate", "--run-dir", str(run_dir)]) == 4


def test_unknown_checkpoint_kind_is_a_bad_checkpoint(run_dir):
    path = run_dir / "checkpoint.json"
    doc = json.loads(path.read_text())
    doc["kind"] = "weird"
    path.write_text(json.dumps(doc))
    assert cli.main(["evaluate", "--run-dir", str(run_dir)]) == 4


def checkpoint_of_kind(doc, kind, levels=(0.0, 1.0), breakpoints=(0.0, 1.0)):
    """The run's ``mlp`` checkpoint ``doc`` as a checkpoint of ``kind``."""
    if kind == "calibrated":
        calibration = {"breakpoints": list(breakpoints), "levels": list(levels)}
        return {"base": doc, "calibration": calibration, "kind": "calibrated"}
    if kind == "ensemble":
        return {"kind": "ensemble", "members": [doc, doc], "seeds": [0, 1]}
    return doc


def rewrite_run(run_dir, method, kind, **calibration):
    """Set the run's method (with the ``euat`` attack loss where the method
    allows it) and rewrite its checkpoint as one of ``kind``."""
    manifest_path, path = run_dir / "manifest.json", run_dir / "checkpoint.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["method"] = method
    if method not in ("calibrated_ce", "ensemble"):
        manifest["config"]["attack"]["loss"] = "euat"
    manifest_path.write_text(json.dumps(manifest))
    doc = checkpoint_of_kind(json.loads(path.read_text()), kind, **calibration)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("method, kind", [
    ("euat", "ensemble"), ("euat", "calibrated"), ("ce", "ensemble"),
    ("calibrated_ce", "mlp"), ("calibrated_ce", "ensemble"),
    ("ensemble", "mlp"), ("ensemble", "calibrated"),
])
def test_checkpoint_of_another_method_is_a_bad_checkpoint(run_dir, capsys, method, kind):
    # an ensemble checkpoint under a euat run once crashed attack-eval
    # (exit 1) and made evaluate print the ensemble's numbers (exit 0)
    rewrite_run(run_dir, method, kind)
    capsys.readouterr()
    for command in ("attack-eval", "evaluate"):
        assert cli.main([command, "--run-dir", str(run_dir)]) == 4, command
        err = capsys.readouterr().err
        assert err.startswith("engine error: bad checkpoint")
        assert repr(kind) in err and repr(method) in err


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["levels", "breakpoints"])
def test_non_finite_calibration_map_is_a_bad_checkpoint(run_dir, capsys, field, bad):
    # a NaN level once made evaluate exit 0 and print nan metrics
    rewrite_run(run_dir, "calibrated_ce", "calibrated", **{field: (0.0, bad)})
    capsys.readouterr()
    assert cli.main(["evaluate", "--run-dir", str(run_dir)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("engine error: bad checkpoint") and "finite" in err


def floats_of(value):
    """A checkpoint array as a list: base64 float64 text or a number list."""
    if isinstance(value, list):
        return list(value)
    return np.frombuffer(base64.b64decode(value), dtype="<f8").tolist()


def rewrite_layer_array(run_dir, version, layer, array, edit):
    """Rewrite the run's ``mlp`` checkpoint in format ``version`` with
    ``edit`` applied to the value list of one layer's ``array``."""
    path = run_dir / "checkpoint.json"
    doc = json.loads(path.read_text())
    doc["format_version"] = version
    for i, spec in enumerate(doc["layers"]):
        for name in ("weights", "bias"):
            values = floats_of(spec[name])
            if (i, name) == (layer, array):
                values = edit(values)
            spec[name] = values if version == 1 else base64.b64encode(
                np.array(values, dtype="<f8").tobytes()).decode()
    path.write_text(json.dumps(doc))


EDITS = {
    "nan": lambda v: [math.nan, *v[1:]],
    "inf": lambda v: [*v[:-1], -math.inf],
    "short": lambda v: v[:-1],
    "long": lambda v: [*v, 0.5],
}


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("array", ["weights", "bias"])
@pytest.mark.parametrize("edit", sorted(EDITS))
def test_bad_parameter_array_is_a_bad_checkpoint(run_dir, capsys, version, array, edit):
    # a NaN weight once loaded and failed only in a forward pass, as
    # "engine error: non-finite logits"
    rewrite_layer_array(run_dir, version, 1, array, EDITS[edit])
    capsys.readouterr()
    assert cli.main(["evaluate", "--run-dir", str(run_dir)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("engine error: bad checkpoint") and f"layer 1 {array}" in err
    assert ("finite" in err) == (edit in ("nan", "inf"))


B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
# edits of a canonical base64 text that keep its float count
NOT_FLOAT64_BASE64 = {
    "stray-character": lambda t: t[:4] + "!" + t[4:],
    "space": lambda t: t[:4] + " " + t[4:],
    "non-ascii": lambda t: t[:4] + "\u00e9" + t[4:],
    "padding-bits": lambda t: t[:-3] + B64[B64.index(t[-3]) ^ 1] + t[-2:],
    "partial-value": lambda t: base64.b64encode(base64.b64decode(t) + b"\0" * 4).decode(),
}


@pytest.mark.parametrize("edit", sorted(NOT_FLOAT64_BASE64))
def test_weights_that_are_not_float64_base64_are_a_bad_checkpoint(run_dir, capsys, edit):
    path = run_dir / "checkpoint.json"
    doc = json.loads(path.read_text())
    bias = doc["layers"][1]["bias"]
    assert bias.endswith("==")  # two float64 values leave 4 padding bits
    doc["layers"][1]["bias"] = NOT_FLOAT64_BASE64[edit](bias)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["evaluate", "--run-dir", str(run_dir)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("engine error: bad checkpoint") and "layer 1 bias" in err
    assert "values, its shape needs" not in err


# a number outside [0, 1], NaN included, is no threshold either
@pytest.mark.parametrize("threshold", [None, "0.5", [0.5], True, 2.0, math.nan, -0.5])
def test_manifest_without_numeric_threshold_is_a_config_error(run_dir, threshold):
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    if threshold is None:
        del manifest["tuned_threshold"]
    else:
        manifest["tuned_threshold"] = threshold
    path.write_text(json.dumps(manifest))
    assert cli.main(["evaluate", "--run-dir", str(run_dir)]) == 2
    assert cli.main(["flip-eval", "--run-dir", str(run_dir)]) == 2


def test_bad_checkpoint_is_reported_as_an_engine_error(run_dir, capsys):
    (run_dir / "checkpoint.json").write_text('{"kind": "calibrated"}')
    assert cli.main(["evaluate", "--run-dir", str(run_dir)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("engine error: bad checkpoint")
    assert "training failure" not in err


def write_legacy_config(run_dir, full_budget, output_dir=None):
    """Put the three settings earlier versions wrote into a run's manifest."""
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["corruption"] = {"sigma": 0.1, "seed": 5}
    manifest["config"]["ensemble_full_budget"] = full_budget
    manifest["config"]["output_dir"] = output_dir
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def test_legacy_manifest_loads_and_replays(run_dir, tmp_path):
    compared = sorted(name for key, name in experiment.RUN_FILES.items()
                      if key != "manifest")
    for output_dir in (None, "runs/elsewhere"):
        write_legacy_config(run_dir, full_budget=False, output_dir=output_dir)
        config, _, _ = experiment.load_run(run_dir)
        assert config.corruption.sigma == 0.1
        result = experiment.replay(run_dir / "manifest.json", tmp_path / str(output_dir))
        assert result["identical"], result["files"]
        assert sorted(result["files"]) == compared


def flip_first_weight_bit(doc):
    """Flip the lowest bit of the first weight of a format-1 checkpoint."""
    model = doc["base"] if doc["kind"] == "calibrated" else doc["members"][0]
    (bits,) = struct.unpack("<q", struct.pack("<d", model["layers"][0]["weights"][0]))
    (model["layers"][0]["weights"][0],) = struct.unpack("<d", struct.pack("<q", bits ^ 1))


@pytest.mark.parametrize("method", ["calibrated_ce", "ensemble"])
def test_format_1_run_directory_loads_and_replays(tmp_path, capsys, method):
    # run directories written before base64 arrays hold every float as a
    # JSON number; they load, and replay compares their parameters bit for bit
    run = tmp_path / "run"
    assert cli.main(
        ["train", "--method", method, "--n", "160", "--noise", "0.08", "--seed", "4",
         "--hidden", "8", "--pretrain-epochs", "2", "--batch-size", "32",
         "--mc-samples", "4", "--ensemble-members", "2",
         "--protocols", "clean,attack", "--out", str(run)]
    ) == 0
    path = run / "checkpoint.json"
    legacy = checkpoint_reference(experiment.load_run(run)[1], version=1)
    assert json.loads(legacy)["kind"] == json.loads(path.read_text())["kind"]
    path.write_bytes(legacy)
    stored = json.loads((run / "metrics.json").read_text())
    capsys.readouterr()
    for command, protocol in (("evaluate", "clean"), ("attack-eval", "attack")):
        assert cli.main([command, "--run-dir", str(run)]) == 0
        printed = capsys.readouterr().out.splitlines()[1:]
        assert sorted(printed) == sorted(
            f"  {key}: {value}" for key, value in stored[protocol].items()
            if not isinstance(value, dict)
        ), command
    result = experiment.replay(run / "manifest.json", tmp_path / "re")
    assert result["identical"], result["files"]
    assert b'"format_version": 2' in (tmp_path / "re" / "checkpoint.json").read_bytes()

    doc = json.loads(legacy)
    flip_first_weight_bit(doc)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    result = experiment.replay(run / "manifest.json", tmp_path / "re-flipped")
    assert not result["files"]["checkpoint.json"]
    assert all(same for name, same in result["files"].items() if name != "checkpoint.json")


def test_config_file_output_dir_is_dropped(tmp_path):
    # the run directory is --out alone; a config file's output_dir was once
    # ignored but recorded in the manifest
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "elsewhere")}))
    out = tmp_path / "run"
    assert cli.main(
        ["train", "--config", str(path), "--n", "160", "--hidden", "8",
         "--pretrain-epochs", "1", "--euat-epochs", "1", "--mc-samples", "2",
         "--out", str(out)]
    ) == 0
    assert "output_dir" not in json.loads((out / "manifest.json").read_text())["config"]
    assert not (tmp_path / "elsewhere").exists()


def test_legacy_full_budget_manifest_is_a_config_error(run_dir, tmp_path):
    write_legacy_config(run_dir, full_budget=True)
    assert cli.main(["evaluate", "--run-dir", str(run_dir)]) == 2
    assert cli.main(
        ["replay", "--manifest", str(run_dir / "manifest.json"),
         "--out", str(tmp_path / "re")]
    ) == 2
