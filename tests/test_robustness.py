import sys
import tracemalloc

import numpy as np
import pytest

from euatlab import data, experiment, losses, nn, robustness, training, uncertainty
from oracles import parameters_equal, reference_gaussian_corrupt


def linear_model(k=3, d=4, seed=0):
    gen = np.random.default_rng(seed)
    return nn.MlpModel(
        [nn.DenseLayer(gen.normal(size=(k, d)), gen.normal(size=k), "identity")], 0.0
    )


class TestFgsm:
    def test_zero_epsilon_is_identity(self):
        model = linear_model()
        x = np.random.default_rng(1).random((5, 4))
        cfg = robustness.AttackConfig(epsilon=0.0)
        adv = robustness.fgsm([model], x, np.zeros(5, dtype=int), cfg)
        assert np.array_equal(adv, x)

    def test_sign_pattern_matches_closed_form_linear_gradient(self):
        # for logits z = Wx + b and CE loss, dL/dx = W^T (softmax(z) - onehot)
        model = linear_model(seed=2)
        gen = np.random.default_rng(3)
        x = gen.random((6, 4))
        y = gen.integers(0, 3, size=6)
        cfg = robustness.AttackConfig(epsilon=0.01, clip_min=-10, clip_max=10)
        adv = robustness.fgsm([model], x, y, cfg)
        logits, _ = nn.forward(model, x)
        probs = nn.softmax(logits)
        onehot = np.zeros_like(probs)
        onehot[np.arange(6), y] = 1.0
        grad = (probs - onehot) @ model.layers[0].weights
        assert np.array_equal(np.sign(adv - x), np.sign(grad))

    def test_linf_bound_holds_exactly(self):
        model = nn.MlpModel.init([4, 8, 3], dropout_rate=0.3, seed=4)
        gen = np.random.default_rng(5)
        cfg = robustness.AttackConfig(epsilon=4.0 / 255.0)
        for _ in range(20):
            x = gen.random((8, 4))
            y = gen.integers(0, 3, size=8)
            adv = robustness.fgsm([model], x, y, cfg)
            assert np.max(np.abs(adv - x)) <= cfg.epsilon
            assert adv.min() >= cfg.clip_min and adv.max() <= cfg.clip_max

    def test_step_structure(self):
        # each coordinate moves by ~epsilon, or stays (zero grad / clipping)
        model = linear_model(seed=6)
        gen = np.random.default_rng(7)
        x = gen.random((10, 4))
        y = gen.integers(0, 3, size=10)
        cfg = robustness.AttackConfig(epsilon=0.02)
        adv = robustness.fgsm([model], x, y, cfg)
        diff = np.abs(adv - x)
        full = np.isclose(diff, cfg.epsilon, rtol=0, atol=4 * np.spacing(1.0))
        clipped = (adv == cfg.clip_min) | (adv == cfg.clip_max)
        assert np.all(full | clipped | (diff == 0.0))

    def test_deterministic(self):
        model = nn.MlpModel.init([4, 6, 2], dropout_rate=0.4, seed=8)
        x = np.random.default_rng(9).random((5, 4))
        y = np.zeros(5, dtype=int)
        cfg = robustness.AttackConfig()
        a = robustness.fgsm([model], x, y, cfg)
        b = robustness.fgsm([model], x, y, cfg)
        assert np.array_equal(a, b)

    def test_out_of_range_input_rejected(self):
        model = linear_model()
        with pytest.raises(ValueError):
            robustness.fgsm(
                [model], np.full((1, 4), 2.0), np.zeros(1, dtype=int),
                robustness.AttackConfig(),
            )

    def test_euat_loss_attack_variant(self):
        model = nn.MlpModel.init([4, 6, 3], dropout_rate=0.3, seed=10)
        gen = np.random.default_rng(11)
        x = gen.random((6, 4))
        y = gen.integers(0, 3, size=6)
        cfg = robustness.AttackConfig(epsilon=0.02, loss="euat")
        adv = robustness.fgsm([model], x, y, cfg)
        assert np.max(np.abs(adv - x)) <= cfg.epsilon
        assert np.array_equal(adv, robustness.fgsm([model], x, y, cfg))

    @pytest.mark.parametrize("loss", ["ce", "euat"])
    def test_attack_makes_no_model_copy(self, monkeypatch, loss):
        # both attack gradients take unmasked passes of the model itself
        model = nn.MlpModel.init([4, 6, 3], dropout_rate=0.3, seed=10)
        gen = np.random.default_rng(11)
        x = gen.random((6, 4))
        y = gen.integers(0, 3, size=6)
        cfg = robustness.AttackConfig(epsilon=0.02, loss=loss)
        expected = robustness.fgsm([model], x, y, cfg)

        def no_copy(self):
            raise AssertionError("the attack copied the model")

        monkeypatch.setattr(nn.MlpModel, "copy", no_copy)
        assert np.array_equal(robustness.fgsm([model], x, y, cfg), expected)
        assert model.dropout_rate == 0.3

    @pytest.mark.parametrize("loss", ["ce", "euat"])
    def test_one_forward_pass_per_attack(self, monkeypatch, loss):
        model = nn.MlpModel.init([4, 6, 3], dropout_rate=0.3, seed=10)
        gen = np.random.default_rng(11)
        x = gen.random((6, 4))
        y = gen.integers(0, 3, size=6)
        calls = []
        original = nn.forward

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # every binding of nn.forward in the package, also `from .nn import`
        for name, module in list(sys.modules.items()):
            if name.startswith("euatlab") and getattr(module, "forward", None) is original:
                monkeypatch.setattr(module, "forward", counted)
        robustness.fgsm([model], x, y, robustness.AttackConfig(epsilon=0.02, loss=loss))
        assert len(calls) == 1

    def test_euat_membership_ties_resolve_like_predict_labels(self):
        # a relu output layer gives every row with negative pre-activations
        # all-zero logits; their membership must be that of the evaluation-mode
        # predictions of training.predict_labels
        model = nn.MlpModel.init([4, 6, 3], dropout_rate=0.3, seed=12)
        last = model.layers[-1]
        model.layers[-1] = nn.DenseLayer(last.weights, last.bias - 1.0, "relu")
        gen = np.random.default_rng(13)
        x = gen.random((40, 4))
        y = gen.integers(0, 3, size=40)
        logits, _ = nn.forward(model, x)
        tied = (logits == 0.0).all(axis=1)
        assert tied.sum() >= 20 and np.any(y[tied] != 0)

        correct = training.predict_labels(model, x) == y
        membership = np.where(correct, losses.CORRECT_SET, losses.WRONG_SET)
        batch = losses.LabeledBatch(x, y, membership.astype(np.int8))
        dist = uncertainty.eval_predict([model], x)
        reference_grad = losses.euat_loss(batch, dist, "input").input_grad

        cfg = robustness.AttackConfig(epsilon=0.02, loss="euat")
        expected = np.clip(x + cfg.epsilon * np.sign(reference_grad), 0.0, 1.0)
        for _ in range(3):  # the half-ulp projection of the attack
            over = np.abs(expected - x) > cfg.epsilon
            expected[over] = np.nextafter(expected[over], x[over])
        assert np.array_equal(robustness.fgsm([model], x, y, cfg), expected)

    def test_euat_loss_attack_takes_one_model(self):
        models = [nn.MlpModel.init([4, 6, 3], 0.3, seed=s) for s in range(3)]
        x = np.random.default_rng(14).random((5, 4))
        y = np.zeros(5, dtype=int)
        cfg = robustness.AttackConfig(epsilon=0.02, loss="euat")
        with pytest.raises(ValueError):
            robustness.fgsm(models, x, y, cfg)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            robustness.AttackConfig(epsilon=-0.1)
        with pytest.raises(ValueError):
            robustness.AttackConfig(clip_min=1.0, clip_max=0.0)
        with pytest.raises(ValueError):
            robustness.AttackConfig(loss="pgd")


class TestAdversarialTraining:
    def test_zero_epsilon_reduces_to_standard_training(self):
        ds = data.generate_dataset("gaussian_blobs", 200, 0.08, seed=12)
        schedule = training.TrainingSchedule(pretrain_epochs=4, euat_epochs=3,
                                             pretrain_lr=0.1, batch_size=32)
        model = nn.MlpModel.init([2, 8, 2], 0.3, seed=13)
        attack = robustness.AttackConfig(epsilon=0.0)
        plain = training.ce_family_train(
            model, *ds.split("train"), schedule, epochs=schedule.pretrain_epochs,
            seed=14
        )
        attacked = training.ce_family_train(
            model, *ds.split("train"), schedule, epochs=schedule.pretrain_epochs,
            seed=14,
            attack=attack,
        )
        assert parameters_equal(plain.model, attacked.model)
        assert plain.loss_trajectory == attacked.loss_trajectory

    def test_zero_epsilon_euat_phase_identical(self):
        ds = data.generate_dataset("gaussian_blobs", 200, 0.1, seed=15)
        schedule = training.TrainingSchedule(pretrain_epochs=4, euat_epochs=3,
                                             pretrain_lr=0.1, euat_lr=0.01,
                                             batch_size=32)
        pre = training.ce_family_train(
            nn.MlpModel.init([2, 8, 2], 0.3, seed=16), *ds.split("train"),
            schedule, epochs=schedule.pretrain_epochs, seed=17,
        ).model
        attack = robustness.AttackConfig(epsilon=0.0)
        plain = training.euat_train(
            pre, *ds.split("train"), *ds.split("validation"), schedule=schedule,
            n_mc=4, seed=18
        )
        attacked = training.euat_train(
            pre, *ds.split("train"), *ds.split("validation"), schedule=schedule,
            n_mc=4, seed=18,
            attack=attack,
        )
        assert parameters_equal(plain.model, attacked.model)

    @pytest.mark.parametrize("dim", [2, 6])
    def test_trained_rows_stay_within_epsilon_of_clean_rows(self, monkeypatch, dim):
        # every row the two-branch loss trains on is one attack away from
        # its clean row, not an attack of an already attacked row
        eps = 0.05
        ds = data.generate_dataset("gaussian_blobs", 240, 0.1, seed=11, dim=dim)
        schedule = training.TrainingSchedule(pretrain_epochs=6, euat_epochs=4,
                                             pretrain_lr=0.1, euat_lr=0.01,
                                             batch_size=32)
        x, y = ds.split("train")
        pre = training.ce_family_train(
            nn.MlpModel.init([dim, 16, 2], 0.3, seed=12), x, y,
            schedule, epochs=schedule.pretrain_epochs, seed=13,
        ).model
        trained = []
        real_loss = training.euat_loss

        def spy(batch, *args, **kwargs):
            trained.append((batch.inputs.copy(), batch.labels.copy()))
            return real_loss(batch, *args, **kwargs)

        monkeypatch.setattr(training, "euat_loss", spy)
        attack = robustness.AttackConfig(epsilon=eps)
        training.euat_train(
            pre, x, y, *ds.split("validation"), schedule=schedule, n_mc=4, seed=14,
            attack=attack,
        )
        assert trained
        worst = 0.0
        for xb, yb in trained:
            for row, label in zip(xb, yb):
                clean = x[y == label]
                worst = max(worst, np.abs(clean - row).max(axis=1).min())
        assert worst <= eps


class TestGaussianCorruption:
    def test_zero_sigma_is_identity(self):
        x = np.random.default_rng(19).random((10, 3))
        out = robustness.gaussian_corrupt(x, 0.0, seed=0)
        assert np.array_equal(out, x)

    def test_same_seed_identical(self):
        x = np.random.default_rng(20).random((10, 3))
        assert np.array_equal(
            robustness.gaussian_corrupt(x, 0.2, seed=21),
            robustness.gaussian_corrupt(x, 0.2, seed=21),
        )

    def test_noise_moment_matches_sigma(self):
        # inputs at 0.5 with small sigma never clip, so the realized
        # per-coordinate std equals sigma up to sampling error
        x = np.full((1000, 100), 0.5)
        noise = robustness.gaussian_corrupt(x, 0.05, seed=22) - x
        assert abs(noise.std() - 0.05) / 0.05 < 0.02

    def test_output_stays_in_range(self):
        x = np.random.default_rng(23).random((50, 4))
        out = robustness.gaussian_corrupt(x, 0.5, seed=24)
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("sigma", [0.1, 0.5, 3.0])
    def test_matches_reference_bit_for_bit(self, sigma):
        # rows on both bounds and noise large enough to clip on both sides
        x = np.random.default_rng(25).random((40, 784))
        x[0], x[1] = 0.0, 1.0
        before = x.tobytes()
        out = robustness.gaussian_corrupt(x, sigma, seed=26)
        assert out.tobytes() == reference_gaussian_corrupt(x, sigma, 26).tobytes()
        assert x.tobytes() == before
        assert out is not x


def traced_peak(fn):
    """Bytes the call ``fn()`` allocates at its peak above its start, as
    ``tracemalloc`` sees them (numpy reports its array data to it)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestImageScaleMemory:
    """The attack and the OOD shift hold at most one input-sized array
    beyond the one they return, on a 2,000-row batch of 784-wide rows."""

    def test_fgsm_peak(self):
        gen = np.random.default_rng(40)
        x, y = gen.random((2000, 784)), gen.integers(0, 10, size=2000)
        model = nn.MlpModel.init([784, 256, 256, 10], 0.2, seed=41)
        cfg = robustness.AttackConfig(epsilon=0.03)
        peak = traced_peak(lambda: robustness.fgsm([model], x, y, cfg))
        assert peak <= 2.5 * x.nbytes

    def test_gaussian_corrupt_peak(self):
        x = np.random.default_rng(42).random((2000, 784))
        peak = traced_peak(lambda: robustness.gaussian_corrupt(x, 0.1, seed=43))
        assert peak <= 1.5 * x.nbytes


class TestAdversarialDataset:
    def test_provenance_and_bound(self):
        ds = data.generate_dataset("gaussian_blobs", 60, 0.08, seed=29)
        model = nn.MlpModel.init([2, 8, 2], 0.0, seed=30)
        cfg = robustness.AttackConfig(epsilon=0.02)
        adv = robustness.fgsm([model], ds.inputs, ds.labels, cfg)
        assert np.max(np.abs(adv - ds.inputs)) <= 0.02


class TestAdversarialTrainDispatch:
    def test_trains_each_method_with_attack(self):
        base = experiment.ExperimentConfig.from_dict(
            {
                "seed": 31,
                "dataset": {"kind": "gaussian_blobs", "n": 160, "noise": 0.08},
                "model": {"hidden": [8], "dropout_rate": 0.2},
                "schedule": {
                    "pretrain_epochs": 2, "euat_epochs": 2,
                    "pretrain_lr": 0.05, "euat_lr": 0.01, "batch_size": 32,
                },
                "mc_samples": 4,
                "ensemble_members": 2,
            }
        )
        for method in ("euat", "ce", "ce_pe", "ensemble"):
            doc = base.to_dict()
            doc["method"] = method
            doc["adversarial_training"] = True
            doc["attack"] = {"epsilon": 0.01}
            resolved = experiment.ExperimentConfig.from_dict(doc)
            dataset = experiment.build_dataset(resolved)
            trained = experiment.train_method(resolved, dataset)
            assert resolved.adversarial_training
            assert resolved.attack.epsilon == 0.01
            probs = trained.predictor.probs(dataset.split("test")[0][:3], seed=0)
            assert probs.shape == (3, 2)
