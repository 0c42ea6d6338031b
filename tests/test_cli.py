import json
import struct

import pytest

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


def test_config_file_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2


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


def test_unknown_checkpoint_kind_is_a_bad_checkpoint(run_dir):
    path = run_dir / "checkpoint.json"
    doc = json.loads(path.read_text())
    doc["kind"] = "weird"
    path.write_text(json.dumps(doc))
    assert cli.main(["evaluate", "--run-dir", str(run_dir)]) == 4


@pytest.mark.parametrize("threshold", [None, "0.5", [0.5], True])
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


def write_legacy_config(run_dir, full_budget):
    """Put the two settings earlier versions wrote into a run's manifest."""
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["corruption"] = {"sigma": 0.1, "seed": 5}
    manifest["config"]["ensemble_full_budget"] = full_budget
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def test_legacy_manifest_loads_and_replays(run_dir, tmp_path):
    write_legacy_config(run_dir, full_budget=False)
    config, _, _ = experiment.load_run(run_dir)
    assert config.corruption.sigma == 0.1
    result = experiment.replay(run_dir / "manifest.json", tmp_path / "re")
    assert result["identical"], result["files"]


def test_legacy_full_budget_manifest_is_a_config_error(run_dir, tmp_path):
    write_legacy_config(run_dir, full_budget=True)
    assert cli.main(["evaluate", "--run-dir", str(run_dir)]) == 2
    assert cli.main(
        ["replay", "--manifest", str(run_dir / "manifest.json"),
         "--out", str(tmp_path / "re")]
    ) == 2
