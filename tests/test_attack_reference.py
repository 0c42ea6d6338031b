"""The shared attack path reproduces the attacks it replaced, bit for bit.

Every attack, of a plain model, a calibrated predictor or an ensemble, in
an attack report or in adversarial training, is one ``robustness.fgsm``
call over a list of models, and every CE attack takes the one CE input
gradient (``robustness.ce_input_grad``, through the shared softmax VJP).
The reference functions below are the attack code as it stood before
both were shared: ``fgsm`` with its own range check, clip and projection
and the ``probs - onehot`` CE input gradient of a plain model, and
``Predictor.attacked`` / ``Predictor.input_grad_ce`` with a second copy of
that step and a hand-written softmax VJP.
"""

import numpy as np
import pytest

from euatlab import baselines, nn, robustness
from euatlab.experiment import Predictor


def reference_ce_input_grad(model, inputs, labels):
    logits, cache = nn.forward(model, inputs)
    probs = nn.softmax(logits)
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(labels)), labels] = 1.0
    input_grad = nn.backward(cache, probs - onehot, "input")
    return input_grad


def reference_fgsm(model, inputs, labels, cfg):
    x = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(x < cfg.clip_min) or np.any(x > cfg.clip_max):
        raise ValueError("inputs must lie within [clip_min, clip_max]")
    if cfg.epsilon == 0.0:
        return x.copy()
    if cfg.loss == "ce":
        grad = reference_ce_input_grad(model, x, labels)
    else:
        grad = robustness._euat_input_grad(model, x, labels)
    adv = np.clip(x + cfg.epsilon * np.sign(grad), cfg.clip_min, cfg.clip_max)
    for _ in range(3):
        over = np.abs(adv - x) > cfg.epsilon
        if not over.any():
            break
        adv[over] = np.nextafter(adv[over], x[over])
    return adv


def reference_input_grad_ce(predictor, inputs, labels):
    labels = np.asarray(labels, dtype=np.int64)
    models = (
        predictor.ensemble.members if predictor.ensemble is not None
        else [predictor.model]
    )
    rows = np.arange(len(labels))
    per_model = []
    for m in models:
        logits, cache = nn.forward(m, inputs)
        per_model.append((nn.softmax(logits), cache))
    mean = sum(p for p, _ in per_model) / len(per_model)
    d_mean = np.zeros_like(mean)
    d_mean[rows, labels] = -1.0 / np.clip(mean[rows, labels], 1e-12, 1.0)
    grad = None
    for p, cache in per_model:
        gp = d_mean / len(per_model)
        gz = p * (gp - (gp * p).sum(axis=1, keepdims=True))
        xg = nn.backward(cache, gz, "input")
        grad = xg if grad is None else grad + xg
    return grad


def reference_attacked(predictor, inputs, labels, cfg):
    if predictor.ensemble is None and predictor.calibration is None:
        return reference_fgsm(predictor.model, inputs, labels, cfg)
    x = np.asarray(inputs, dtype=np.float64)
    if np.any(x < cfg.clip_min) or np.any(x > cfg.clip_max):
        raise ValueError("inputs must lie within [clip_min, clip_max]")
    if cfg.epsilon == 0.0:
        return x.copy()
    adv = np.clip(
        x + cfg.epsilon * np.sign(reference_input_grad_ce(predictor, x, labels)),
        cfg.clip_min,
        cfg.clip_max,
    )
    for _ in range(3):
        over = np.abs(adv - x) > cfg.epsilon
        if not over.any():
            break
        adv[over] = np.nextafter(adv[over], x[over])
    return adv


def batch(sizes, rows, seed):
    gen = np.random.default_rng(seed)
    return gen.random((rows, sizes[0])), gen.integers(0, sizes[-1], size=rows)


def calibrated(sizes, seed):
    model = nn.MlpModel.init(sizes, 0.3, seed=seed)
    x, y = batch(sizes, 60, seed + 100)
    probs = nn.softmax(nn.forward(model, x)[0])
    calibration = baselines.isotonic_fit(
        probs.max(axis=1), (probs.argmax(axis=1) == y).astype(np.float64)
    )
    return Predictor(model=model, calibration=calibration)


def ensemble(sizes, members, seed):
    models = [nn.MlpModel.init(sizes, 0.3, seed=seed + i) for i in range(members)]
    return Predictor(ensemble=baselines.Ensemble(models, list(range(members))))


CFG = robustness.AttackConfig(epsilon=4.0 / 255.0)


class TestAttackMatchesReference:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("sizes", [[784, 256, 256, 10], [20, 32, 32, 4], [2, 8, 2]])
    def test_calibrated_predictor(self, sizes, seed):
        predictor = calibrated(sizes, seed)
        x, y = batch(sizes, 40, seed)
        grad = robustness.ce_input_grad([predictor.model], x, y)
        assert np.array_equal(grad, reference_input_grad_ce(predictor, x, y))
        assert np.array_equal(
            predictor.attacked(x, y, CFG), reference_attacked(predictor, x, y, CFG)
        )
        # a calibrated predictor attacks exactly like its base model
        assert np.array_equal(
            predictor.attacked(x, y, CFG), robustness.fgsm([predictor.model], x, y, CFG)
        )
        # the shared softmax VJP of -log p_y rounds differently from
        # probs - onehot: the gradients agree to rounding, the signs exactly
        reference = reference_ce_input_grad(predictor.model, x, y)
        assert np.array_equal(np.sign(grad), np.sign(reference))
        assert np.allclose(grad, reference, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("members", [3, 5])
    @pytest.mark.parametrize("sizes", [[20, 32, 32, 4], [2, 8, 2]])
    def test_ensemble_predictor(self, sizes, members):
        predictor = ensemble(sizes, members, seed=7)
        x, y = batch(sizes, 40, 8)
        assert np.array_equal(
            predictor.attacked(x, y, CFG), reference_attacked(predictor, x, y, CFG)
        )
        # the shared softmax VJP scales by 1/N where the old loop divided
        # by N: the gradients agree to rounding, the signs exactly
        assert np.allclose(
            robustness.ce_input_grad(predictor.ensemble.members, x, y),
            reference_input_grad_ce(predictor, x, y),
            rtol=1e-12, atol=1e-14,
        )

    @pytest.mark.parametrize("loss", ["ce", "euat"])
    @pytest.mark.parametrize("sizes", [[20, 32, 32, 4], [2, 8, 2], [784, 256, 256, 10]])
    def test_plain_fgsm(self, sizes, loss):
        model = nn.MlpModel.init(sizes, 0.3, seed=3)
        x, y = batch(sizes, 40, 4)
        cfg = robustness.AttackConfig(epsilon=0.05, loss=loss)
        assert np.array_equal(
            robustness.fgsm([model], x, y, cfg), reference_fgsm(model, x, y, cfg)
        )
        # the plain predictor attacks through fgsm itself
        predictor = Predictor(model=model)
        assert np.array_equal(
            predictor.attacked(x, y, cfg), reference_attacked(predictor, x, y, cfg)
        )

    def test_zero_epsilon(self):
        sizes = [20, 32, 32, 4]
        x, y = batch(sizes, 10, 5)
        cfg = robustness.AttackConfig(epsilon=0.0)
        model = nn.MlpModel.init(sizes, 0.3, seed=5)
        for predictor in (Predictor(model=model), calibrated(sizes, 5), ensemble(sizes, 3, 5)):
            adv = predictor.attacked(x, y, cfg)
            assert np.array_equal(adv, reference_attacked(predictor, x, y, cfg))
            assert np.array_equal(adv, x) and adv is not x

    def test_out_of_range_inputs_rejected_on_every_path(self):
        sizes = [20, 32, 32, 4]
        x, y = batch(sizes, 10, 6)
        x[0, 0] = 1.5
        model = nn.MlpModel.init(sizes, 0.3, seed=6)
        for predictor in (Predictor(model=model), calibrated(sizes, 6), ensemble(sizes, 3, 6)):
            with pytest.raises(ValueError):
                predictor.attacked(x, y, CFG)
