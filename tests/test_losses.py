import math

import numpy as np
import pytest

from euatlab import losses, nn, uncertainty
from oracles import fd_param_grads, flatten_grads, max_rel_error


def logit_model(logit_rows):
    """Single-layer model whose output equals the given logits for zero
    inputs (weights zero, bias carries the logits; one row per call)."""
    logits = np.asarray(logit_rows, dtype=np.float64)
    k = logits.shape[-1]
    layer = nn.DenseLayer(np.zeros((k, 1)), logits.reshape(-1), "identity")
    return nn.MlpModel([layer], dropout_rate=0.0)


def dist_for_logits(logit_row):
    model = logit_model(logit_row)
    return uncertainty.mc_predict(model, np.zeros((1, 1)), n_samples=1, seed=0), model


def zero_batch(labels):
    """The batch of ``len(labels)`` zero inputs a ``logit_model`` predicts."""
    return losses.LabeledBatch(np.zeros((len(labels), 1)), labels)


def entropy_term(batch, dist):
    """The entropy term alone, value and gradients: CE+PE at lambda 1
    minus plain CE (lambda 0)."""
    r1, r0 = losses.ce_pe_loss(batch, dist, 1.0), losses.ce_pe_loss(batch, dist, 0.0)
    grads = [(w1 - w0, b1 - b0) for (w1, b1), (w0, b0) in zip(r1.grads, r0.grads)]
    return r1.value - r0.value, grads


def euat(batch, model, n_samples, seed):
    """``euat_loss`` over the MC prediction of the batch, as training runs it."""
    dist = uncertainty.mc_predict(model, batch.inputs, n_samples, seed)
    return losses.euat_loss(batch, dist)


def rand_setup(seed, sizes=(3, 6, 4), dropout=0.3, rows=4, n_samples=3):
    model = nn.MlpModel.init(list(sizes), dropout_rate=dropout, seed=seed)
    gen = np.random.default_rng(1000 + seed)
    x = gen.normal(size=(rows, sizes[0]))
    y = gen.integers(0, sizes[-1], size=rows)
    return model, x, y, n_samples


class TestCeLoss:
    def test_certain_correct_prediction_is_zero(self):
        dist, _ = dist_for_logits([1000.0, 0.0])
        value = losses.ce_pe_loss(zero_batch([0]), dist, 0.0).value
        assert value == 0.0

    def test_uniform_gives_log_k(self):
        dist, _ = dist_for_logits([0.0, 0.0, 0.0, 0.0])
        value = losses.ce_pe_loss(zero_batch([2]), dist, 0.0).value
        assert value == pytest.approx(math.log(4.0), abs=1e-12)

    def test_probability_point_two(self):
        dist, _ = dist_for_logits([math.log(0.2), math.log(0.8)])
        value = losses.ce_pe_loss(zero_batch([0]), dist, 0.0).value
        assert value == pytest.approx(math.log(5.0), abs=1e-12)

    def test_missing_grad_records_rejected(self):
        probs = np.array([[0.5, 0.5]])
        with pytest.raises(TypeError, match="grad_passes"):
            uncertainty.PredictiveDistribution(probs, 1)
        for records in (None, []):
            with pytest.raises(ValueError, match="gradient records"):
                uncertainty.PredictiveDistribution(probs, 1, records)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradient_matches_finite_differences(self, seed):
        model, x, y, n = rand_setup(seed)

        def loss(m):
            d = uncertainty.mc_predict(m, x, n, seed=9)
            return losses.ce_pe_loss(losses.LabeledBatch(x, y), d, 0.0).value

        dist = uncertainty.mc_predict(model, x, n, seed=9)
        grads = losses.ce_pe_loss(losses.LabeledBatch(x, y), dist, 0.0).grads
        assert max_rel_error(flatten_grads(grads), fd_param_grads(loss, model)) < 1e-4


class TestEntropyTerm:
    def test_one_hot_zero_value_and_zero_gradient(self):
        dist, _ = dist_for_logits([1000.0, 0.0])
        value, grads = entropy_term(zero_batch([0]), dist)
        assert value == 0.0
        for gw, gb in grads:
            assert not gw.any() and not gb.any()

    def test_uniform_is_log_k_with_vanishing_gradient(self):
        dist, _ = dist_for_logits([0.0, 0.0, 0.0])
        value, grads = entropy_term(zero_batch([1]), dist)
        assert value == pytest.approx(math.log(3.0), abs=1e-12)
        for gw, gb in grads:
            assert np.max(np.abs(gw)) < 1e-12
            assert np.max(np.abs(gb)) < 1e-12

    @pytest.mark.parametrize("seed", [2, 3])
    def test_gradient_matches_finite_differences(self, seed):
        model, x, y, n = rand_setup(seed)

        def loss(m):
            d = uncertainty.mc_predict(m, x, n, seed=5)
            return entropy_term(losses.LabeledBatch(x, y), d)[0]

        dist = uncertainty.mc_predict(model, x, n, seed=5)
        _, grads = entropy_term(losses.LabeledBatch(x, y), dist)
        assert max_rel_error(flatten_grads(grads), fd_param_grads(loss, model)) < 1e-4


class TestCePeLoss:
    def test_uniform_with_unit_lambda(self):
        dist, _ = dist_for_logits([0.0] * 5)
        value = losses.ce_pe_loss(zero_batch([1]), dist, lam=1.0).value
        assert value == pytest.approx(2.0 * math.log(5.0), abs=1e-12)

    def test_negative_lambda_rejected(self):
        dist, _ = dist_for_logits([0.0, 0.0])
        with pytest.raises(ValueError):
            losses.ce_pe_loss(zero_batch([0]), dist, lam=-0.5)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        dist, _ = dist_for_logits([0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            losses.ce_pe_loss(zero_batch([0]), dist, lam=lam)

    def test_gradient_matches_finite_differences(self):
        model, x, y, n = rand_setup(5)

        def loss(m):
            d = uncertainty.mc_predict(m, x, n, seed=8)
            return losses.ce_pe_loss(losses.LabeledBatch(x, y), d, lam=0.7).value

        dist = uncertainty.mc_predict(model, x, n, seed=8)
        grads = losses.ce_pe_loss(losses.LabeledBatch(x, y), dist, lam=0.7).grads
        assert max_rel_error(flatten_grads(grads), fd_param_grads(loss, model)) < 1e-4


class TestEuatLoss:
    def batch(self, x, y, membership):
        return losses.LabeledBatch(x, y, np.asarray(membership))

    def test_confident_correct_batch_is_near_zero(self):
        model = logit_model([40.0, 0.0])
        batch = self.batch(np.zeros((3, 1)), [0, 0, 0], [losses.CORRECT_SET] * 3)
        res = euat(batch, model, 1, 0)
        assert abs(res.value) < 1e-12

    def test_wrong_row_with_uniform_prediction_cancels(self):
        model = logit_model([0.0, 0.0, 0.0])
        batch = self.batch(np.zeros((1, 1)), [1], [losses.WRONG_SET])
        res = euat(batch, model, 1, 0)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_missing_membership_rejected(self):
        model = logit_model([0.0, 0.0])
        with pytest.raises(ValueError, match="membership"):
            euat(losses.LabeledBatch(np.zeros((1, 1)), [0]), model, 1, 0)

    def test_rowwise_oracle(self):
        model, x, y, n = rand_setup(6, rows=6)
        membership = np.array([1, 0, 1, 1, 0, 0])
        batch = self.batch(x, y, membership)
        res = euat(batch, model, n, 17)

        # independent recomputation from the averaged distribution
        probs = uncertainty.mc_predict(model, x, n, seed=17).probs
        rows = []
        for r in range(6):
            p = probs[r]
            ce = -math.log(max(p[y[r]], 1e-12))
            h = -sum(pk * math.log(max(pk, 1e-12)) for pk in p)
            rows.append(ce + h if membership[r] == losses.CORRECT_SET else ce - h)
        assert res.value == pytest.approx(np.mean(rows), abs=1e-12)
        assert res.per_row.shape == (6,)
        for got, want in zip(res.per_row, rows):
            assert got == pytest.approx(want, abs=1e-12)

    def test_partial_sums_add_up(self):
        model, x, y, n = rand_setup(7, rows=5)
        batch = self.batch(x, y, [1, 0, 0, 1, 1])
        res = euat(batch, model, n, 2)
        assert res.value == res.per_row.mean()
        correct = batch.membership == losses.CORRECT_SET
        assert res.value == pytest.approx(
            (res.per_row[correct].sum() + res.per_row[~correct].sum()) / 5.0, abs=1e-12
        )

    def test_lower_bound_minus_log_k(self):
        # CE >= 0 and H <= ln K, so every row value is >= -ln K
        for seed in range(5):
            model, x, y, n = rand_setup(20 + seed, rows=8)
            gen = np.random.default_rng(seed)
            batch = self.batch(x, y, gen.integers(0, 2, size=8))
            res = euat(batch, model, n, seed)
            assert res.value >= -math.log(model.class_count) - 1e-12

    @pytest.mark.parametrize("seed", [8, 9])
    def test_gradient_matches_finite_differences(self, seed):
        model, x, y, n = rand_setup(seed, rows=4)
        gen = np.random.default_rng(seed)
        batch = self.batch(x, y, gen.integers(0, 2, size=4))

        def loss(m):
            return euat(batch, m, n, 13).value

        res = euat(batch, model, n, 13)
        assert max_rel_error(flatten_grads(res.grads), fd_param_grads(loss, model)) < 1e-4


def test_entropy_ascent_on_wrong_only_batch():
    # with the CE term frozen, minimizing the wrong-set branch is gradient
    # ascent on predictive entropy: it must climb monotonically at small lr
    model = nn.MlpModel.init([2, 8, 3], dropout_rate=0.0, seed=30)
    x = np.random.default_rng(30).normal(size=(4, 2))
    state = nn.OptimizerState.for_model(model, lr=0.02, momentum=0.0)
    values = []
    for _ in range(15):
        dist = uncertainty.mc_predict(model, x, 1, seed=0)
        h, grads = entropy_term(losses.LabeledBatch(x, np.zeros(4, dtype=np.int64)), dist)
        values.append(h)
        ascent = [(-gw, -gb) for gw, gb in grads]
        assert nn.sgd_step(model, ascent, state)
    diffs = np.diff(values)
    assert np.all(diffs > 0.0)
