import hashlib
import inspect
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import checkpoint_reference

from euatlab import experiment, metrics, nn, rng, training
from euatlab.data import Dataset
from euatlab.experiment import ConfigError, ExperimentConfig, Predictor


def smoke_config(method="euat", **overrides):
    doc = {
        "method": method,
        "seed": 7,
        "dataset": {"kind": "gaussian_blobs", "n": 160, "noise": 0.08},
        "model": {"hidden": [8], "dropout_rate": 0.3},
        "schedule": {
            "pretrain_epochs": 2,
            "euat_epochs": 2,
            "pretrain_lr": 0.1,
            "euat_lr": 0.01,
            "batch_size": 32,
        },
        "mc_samples": 4,
        "ensemble_members": 2,
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


def constant_logit_predictor(logits, n_mc=4):
    """Predictor whose model emits fixed logits for any 1-feature input."""
    logits = np.asarray(logits, dtype=np.float64)
    layer = nn.DenseLayer(np.zeros((len(logits), 1)), logits, "identity")
    return Predictor(model=nn.MlpModel([layer], 0.0), n_mc=n_mc)


class TestConfig:
    def test_round_trips_through_dict(self):
        config = smoke_config()
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            smoke_config(method="deup")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            smoke_config(protocols=["clean", "pgd"])

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"methods": "euat"})

    @pytest.mark.parametrize(
        "section", ["dataset", "model", "schedule", "attack", "corruption"]
    )
    def test_section_that_is_not_an_object_rejected(self, section):
        for value in ("x", [1], 3, None):
            with pytest.raises(ConfigError, match=f"'{section}' must be a JSON object"):
                ExperimentConfig.from_dict({section: value})

    @pytest.mark.parametrize("method", ["calibrated_ce", "ensemble"])
    def test_euat_attack_loss_rejected_where_only_ce_attack_runs(self, method):
        with pytest.raises(ConfigError):
            smoke_config(method, protocols=["clean", "attack"], attack={"loss": "euat"})
        smoke_config(method, protocols=["clean", "attack"], attack={"loss": "ce"})
        smoke_config(method, attack={"loss": "euat"})  # no attack protocol

    @pytest.mark.parametrize("method", ["euat", "ce"])
    def test_euat_attack_loss_accepted_for_single_models(self, method):
        config = smoke_config(
            method, protocols=["clean", "attack"], attack={"loss": "euat"}
        )
        assert config.attack.loss == "euat"

    def test_every_field_has_a_recorded_default(self):
        doc = ExperimentConfig().to_dict()
        for key in ("method", "seed", "dataset", "model", "schedule",
                    "mc_samples", "threshold_objective", "protocols"):
            assert key in doc


class TestRunExperiment:
    def test_the_run_directory_has_no_default(self):
        signature = inspect.signature(experiment.run_experiment)
        assert signature.parameters["output_dir"].default is inspect.Parameter.empty

    def test_smoke_run_completes_quickly_with_valid_manifest(self, tmp_path):
        start = time.perf_counter()
        manifest = experiment.run_experiment(smoke_config(), tmp_path)
        assert time.perf_counter() - start < 10.0
        assert manifest["code_version"]
        assert manifest["tuned_threshold"] is not None
        assert all(s["status"] == "ok" for s in manifest["stages"])
        for name in manifest["files"].values():
            assert (tmp_path / name).exists()
        clean = manifest["reports"]["clean"]
        for key in ("error", "ua", "uauc", "ece", "wasserstein", "corr_residual"):
            assert key in clean
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["config"] == manifest["config"]

    def test_equal_seeds_give_byte_identical_reports(self, tmp_path):
        experiment.run_experiment(smoke_config(), tmp_path / "a")
        experiment.run_experiment(smoke_config(), tmp_path / "b")
        for name in ("metrics.json", "histogram.csv", "predictions.csv",
                     "checkpoint.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    @pytest.mark.parametrize("method", experiment.METHODS)
    def test_every_method_trains_and_reloads(self, tmp_path, method):
        manifest = experiment.run_experiment(smoke_config(method), tmp_path)
        config, predictor, loaded = experiment.load_run(tmp_path)
        assert loaded["tuned_threshold"] == manifest["tuned_threshold"]
        dataset = experiment.build_dataset(config)
        probs = predictor.probs(dataset.split("test")[0][:4], seed=0)
        assert probs.shape == (4, 2)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_stage_failure_recorded_in_manifest(self, tmp_path):
        config = smoke_config()
        config.dataset.kind = "idx"  # no paths: dataset stage must fail
        with pytest.raises(ConfigError):
            experiment.run_experiment(config, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["stages"][-1]["stage"] == "dataset"
        assert manifest["stages"][-1]["status"] == "failed"

    def test_protocol_reports_present(self, tmp_path):
        config = smoke_config(protocols=["clean", "flip", "ood", "attack"])
        manifest = experiment.run_experiment(config, tmp_path)
        assert set(manifest["reports"]) == {"clean", "flip", "ood", "attack"}
        assert manifest["reports"]["attack"]["linf"] <= config.attack.epsilon


class TestDivergenceInManifest:
    @pytest.mark.parametrize(
        "method, refused_call",
        # euat: a pretraining step; ensemble: a step of the second member
        [("euat", 3), ("ce", 3), ("ensemble", 11)],
    )
    def test_refused_step_recorded_only_in_manifest(
        self, tmp_path, monkeypatch, method, refused_call
    ):
        calls = []

        def sgd_step_refusing_once(model, grads, state):
            calls.append(1)
            return len(calls) != refused_call and nn.sgd_step(model, grads, state)

        monkeypatch.setattr(training, "sgd_step", sgd_step_refusing_once)
        manifest = experiment.run_experiment(smoke_config(method), tmp_path / "bad")
        assert len(calls) >= refused_call
        assert manifest["diverged"] is True
        assert all(s["status"] == "ok" for s in manifest["stages"])
        on_disk = json.loads((tmp_path / "bad" / "manifest.json").read_text())
        assert on_disk["diverged"] is True
        for name in manifest["files"].values():
            assert b"diverged" not in (tmp_path / "bad" / name).read_bytes()

    def test_healthy_run_records_no_divergence(self, tmp_path):
        manifest = experiment.run_experiment(smoke_config("ensemble"), tmp_path)
        assert manifest["diverged"] is False


class TestReplay:
    def test_replay_reproduces_reports(self, tmp_path):
        experiment.run_experiment(smoke_config(), tmp_path / "orig")
        result = experiment.replay(tmp_path / "orig" / "manifest.json", tmp_path / "re")
        assert result["identical"]
        assert all(result["files"].values())

    def test_replay_detects_tampering(self, tmp_path):
        experiment.run_experiment(smoke_config(), tmp_path / "orig")
        target = tmp_path / "orig" / "metrics.json"
        doc = json.loads(target.read_text())
        doc["clean"]["error"] = 0.123456
        target.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        result = experiment.replay(tmp_path / "orig" / "manifest.json", tmp_path / "re")
        assert not result["identical"]
        assert not result["files"]["metrics.json"]


# strings that look like JSON syntax, escapes, non-ASCII and control characters
JSON_TEXT = st.lists(
    st.sampled_from(['"', "\\", "[", "]", "{", "}", ", ", ": ", ",", " ", "a",
                     "\u00e9", "\u2603", "\U0001f600", "\n", "\x00", "\x1f"]),
    max_size=6,
).map("".join) | st.text(max_size=6)
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=True, allow_infinity=True) | JSON_TEXT
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=30,
)


class TestJsonArtifacts:
    @settings(max_examples=300, deadline=None)
    @given(JSON_DOCS)
    @example({"a": [], "b": {}, "c": [[], {}, [[]]]})
    @example([float("nan"), float("inf"), -float("inf"), -0.0, 2**70, True, None])
    @example({'", "': '": "', "[": "]", "{": "}", "\\": '\\"'})
    # a multi-megabyte string whose quotes and backslashes are all escaped
    @example({"big": 'x\\"y\\\\[, ]' * 400_000 + '\\', "next": ["\\", {"": '"'}]})
    def test_json_bytes_equal_the_indented_encoder(self, doc):
        expected = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
        assert experiment._json_bytes(doc) == expected

    @pytest.mark.parametrize("method", ["ce", "calibrated_ce", "ensemble"])
    def test_checkpoint_bytes_equal_the_reference(self, tmp_path, monkeypatch, method):
        trained, train = [], experiment.train_method

        def keep(config, dataset):
            trained.append(train(config, dataset))
            return trained[-1]

        monkeypatch.setattr(experiment, "train_method", keep)
        manifest = experiment.run_experiment(
            smoke_config(method, ensemble_members=3), tmp_path
        )
        written = (tmp_path / "checkpoint.json").read_bytes()
        assert written == checkpoint_reference(trained[0].predictor)
        # the file's bytes are the indented encoding of the checkpoint
        # document, and the manifest's digests are the files' own
        doc = json.loads(experiment.predictor_checkpoint(trained[0].predictor))
        assert written == (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
        assert manifest["digests"]["checkpoint"] == hashlib.sha256(written).hexdigest()
        metrics_bytes = (tmp_path / "metrics.json").read_bytes()
        assert manifest["digests"]["metrics"] == hashlib.sha256(metrics_bytes).hexdigest()

    def test_persist_formats_each_model_once(self, tmp_path, monkeypatch):
        calls = {"checkpoint_json": 0, "loads": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            experiment, "checkpoint_json",
            counting("checkpoint_json", experiment.checkpoint_json),
        )
        monkeypatch.setattr(json, "loads", counting("loads", json.loads))
        experiment.run_experiment(smoke_config("ensemble", ensemble_members=3), tmp_path)
        assert calls == {"checkpoint_json": 3, "loads": 0}


class TestCompare:
    def test_side_by_side_table(self, tmp_path):
        result = experiment.compare_methods(
            smoke_config(), ["euat", "ce"], tmp_path
        )
        assert result["methods"] == ["euat", "ce"]
        assert [row[0] for row in result["table"]] == list(experiment.COMPARE_METRICS)
        for row in result["table"]:
            assert len(row) == 3
        assert (tmp_path / "compare.csv").exists()
        assert (tmp_path / "euat" / "metrics.json").exists()
        assert (tmp_path / "ce" / "metrics.json").exists()


def flip_report(predictor, x, y, threshold, config):
    """The ``flip`` report of ``protocol_eval`` on a dataset whose one
    split, ``test``, holds every row of ``x``."""
    dataset = Dataset(x, y, {"test": np.arange(len(y))})
    return experiment.protocol_eval("flip", predictor, dataset, threshold, config)[2]


class TestFlipEval:
    def test_never_flipping_threshold(self):
        predictor = constant_logit_predictor([0.4, 0.0])
        x = np.zeros((10, 1))
        y = np.array([0] * 6 + [1] * 4)
        report = flip_report(predictor, x, y, 1.0, ExperimentConfig(seed=0))
        assert report["error_with_flip"] == report["error_without_flip"]
        assert report["flipped_count"] == 0

    def test_total_inversion_fixes_an_always_wrong_model(self):
        predictor = constant_logit_predictor([0.4, 0.0])  # predicts 0, H > 0
        x = np.zeros((8, 1))
        y = np.ones(8, dtype=np.int64)
        report = flip_report(predictor, x, y, 0.0, ExperimentConfig(seed=0))
        assert report["error_without_flip"] == 1.0
        assert report["error_with_flip"] == 0.0

    def test_twenty_row_fixture_matches_hand_simulation(self):
        model = nn.MlpModel.init([3, 6, 2], dropout_rate=0.0, seed=5)
        predictor = Predictor(model=model, n_mc=1)
        gen = np.random.default_rng(6)
        x = gen.random((20, 3))
        y = gen.integers(0, 2, size=20)
        t = 0.6
        config = ExperimentConfig(seed=1)
        report = flip_report(predictor, x, y, t, config)

        probs = predictor.probs(x, seed=rng.derive_seed(config.seed, "flip-eval"))
        pred = probs.argmax(axis=1)
        h = [-sum(p * math.log(p) for p in row) / math.log(2) for row in probs]
        flipped = [1 - p if u > t else p for p, u in zip(pred, h)]
        err_flip = sum(int(f != yy) for f, yy in zip(flipped, y)) / 20
        err_plain = sum(int(p != yy) for p, yy in zip(pred, y)) / 20
        assert report["error_with_flip"] == pytest.approx(err_flip, abs=1e-12)
        assert report["error_without_flip"] == pytest.approx(err_plain, abs=1e-12)
        tp = sum(1 for f, yy in zip(flipped, y) if f == 1 and yy == 1)
        fp = sum(1 for f, yy in zip(flipped, y) if f == 1 and yy == 0)
        fn = sum(1 for f, yy in zip(flipped, y) if f == 0 and yy == 1)
        prec = tp / (tp + fp) if tp + fp else 0.0
        tpr = tp / (tp + fn) if tp + fn else 0.0
        assert report["precision"] == pytest.approx(prec, abs=1e-12)
        assert report["tpr"] == pytest.approx(tpr, abs=1e-12)

    def test_non_binary_rejected(self):
        predictor = constant_logit_predictor([0.0, 0.0, 0.0])
        with pytest.raises(ConfigError):
            flip_report(
                predictor, np.zeros((2, 1)), np.zeros(2, dtype=int), 0.5,
                ExperimentConfig(seed=0),
            )

    def test_predictions_at_or_below_threshold_never_change(self):
        model = nn.MlpModel.init([3, 6, 2], dropout_rate=0.3, seed=8)
        predictor = Predictor(model=model, n_mc=4)
        gen = np.random.default_rng(9)
        x = gen.random((30, 3))
        y = gen.integers(0, 2, size=30)
        t = 0.8
        config = ExperimentConfig(seed=2)
        probs = predictor.probs(x, seed=rng.derive_seed(config.seed, "flip-eval"))
        records = metrics.records_from_probs(probs, y)
        report = flip_report(predictor, x, y, t, config)
        untouched = records.uncertainty <= t
        # rows at or below the threshold contribute identical correctness
        n_same = int(np.sum(records.correct[untouched]))
        errors_from_untouched = np.sum(untouched) - n_same
        assert report["error_with_flip"] * 30 >= errors_from_untouched - 1e-9


def test_euat_loss_trajectory_joins_pretraining_and_error_driven_epochs(monkeypatch):
    config = smoke_config()
    dataset = experiment.build_dataset(config)
    phases = []

    def keep_trajectory(train):
        def wrapped(*args, **kwargs):
            out = train(*args, **kwargs)
            phases.append(list(out.loss_trajectory))
            return out

        return wrapped

    for name in ("ce_family_train", "euat_train"):
        monkeypatch.setattr(experiment, name, keep_trajectory(getattr(experiment, name)))
    out = experiment.train_method(config, dataset).outcome
    pre, euat = phases
    assert len(pre) == config.schedule.pretrain_epochs
    assert len(euat) == len([row for row in out.report[1:] if not row["skipped"]]) > 0
    assert out.loss_trajectory == pre + euat
    assert np.all(np.isfinite(out.loss_trajectory))


@pytest.mark.parametrize("method", ["euat", "ce"])
def test_per_epoch_ece_uses_the_configured_bins(tmp_path, monkeypatch, method):
    # every report, the per-epoch rows included, bins its ECE in ece_bins
    real, bins = metrics.summarize, []

    def summarize_spy(records, threshold, ece_bins=15):
        bins.append(ece_bins)
        return real(records, threshold, ece_bins)

    monkeypatch.setattr(metrics, "summarize", summarize_spy)
    experiment.run_experiment(smoke_config(method, ece_bins=5), tmp_path)
    # the clean report, the epoch-0 row and one row per trained epoch
    assert len(bins) >= 4
    assert set(bins) == {5}


class TestOodAndAttack:
    def test_ood_report_contains_sigma(self, tmp_path):
        config = smoke_config()
        dataset = experiment.build_dataset(config)
        trained = experiment.train_method(config, dataset)
        threshold = experiment.tune_on_validation(trained.predictor, dataset, config)
        _, _, report = experiment.protocol_eval(
            "ood", trained.predictor, dataset, threshold, config
        )
        assert report["sigma"] == config.corruption.sigma
        assert 0.0 <= report["error"] <= 1.0

    def test_attack_respects_linf_for_every_method(self):
        for method in ("ce", "ensemble", "calibrated_ce"):
            config = smoke_config(method)
            dataset = experiment.build_dataset(config)
            trained = experiment.train_method(config, dataset)
            x_test, y_test = dataset.split("test")
            adv = trained.predictor.attacked(x_test, y_test, config.attack)
            assert np.max(np.abs(adv - x_test)) <= config.attack.epsilon
            assert adv.min() >= 0.0 and adv.max() <= 1.0

    @pytest.mark.parametrize("method", ["ce", "ensemble", "calibrated_ce"])
    def test_attack_report_linf_is_the_max_distance(self, method):
        config = smoke_config(method, attack={"epsilon": 0.05})
        dataset = experiment.build_dataset(config)
        trained = experiment.train_method(config, dataset)
        before = dataset.inputs.tobytes()
        _, _, report = experiment.protocol_eval(
            "attack", trained.predictor, dataset, 0.5, config
        )
        clean, labels = dataset.split("test")
        adv = trained.predictor.attacked(clean, labels, config.attack)
        assert report["linf"] == float(np.max(np.abs(adv - clean)))
        assert report["linf"] <= config.attack.epsilon
        assert dataset.inputs.tobytes() == before
