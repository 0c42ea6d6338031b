import math

import numpy as np
import pytest

from euatlab import nn, rng, uncertainty


def model_with(dropout=0.3, seed=0, sizes=(3, 8, 4)):
    return nn.MlpModel.init(list(sizes), dropout_rate=dropout, seed=seed)


class TestMcPredict:
    def test_zero_dropout_collapses_to_deterministic_softmax(self):
        model = model_with(dropout=0.0)
        x = np.random.default_rng(0).normal(size=(5, 3))
        dist = uncertainty.mc_predict(model, x, n_samples=16, seed=4)
        logits, _ = nn.forward(model, x)
        assert np.array_equal(dist.probs, nn.softmax(logits))
        assert dist.sample_count == 1

    def test_single_sample_equals_one_masked_pass(self):
        model = model_with(dropout=0.4, seed=1)
        x = np.random.default_rng(1).normal(size=(2, 3))
        dist = uncertainty.mc_predict(model, x, n_samples=1, seed=77)
        mask = nn.sample_mask(model, rng.derive_seed(77, "mc-pass", 0))
        logits, _ = nn.forward(model, x, mask)
        assert np.array_equal(dist.probs, nn.softmax(logits[0]))

    def test_four_samples_equal_hand_average(self):
        model = model_with(dropout=0.3, seed=2)
        x = np.random.default_rng(2).normal(size=(3, 3))
        dist = uncertainty.mc_predict(model, x, n_samples=4, seed=5)
        acc = np.zeros((3, 4))
        for i in range(4):
            mask = nn.sample_mask(model, rng.derive_seed(5, "mc-pass", i))
            logits, _ = nn.forward(model, x, mask)
            acc += nn.softmax(logits[0])
        assert np.allclose(dist.probs, acc / 4.0, atol=1e-15)

    def test_rows_sum_to_one(self):
        model = model_with(dropout=0.3, seed=3)
        x = np.random.default_rng(3).normal(size=(20, 3))
        dist = uncertainty.mc_predict(model, x, n_samples=12, seed=6)
        assert np.max(np.abs(dist.probs.sum(axis=1) - 1.0)) < 1e-9

    def test_mean_matches_per_sample_record(self):
        model = model_with(dropout=0.3, seed=4)
        x = np.random.default_rng(4).normal(size=(6, 3))
        dist = uncertainty.mc_predict(
            model, x, n_samples=9, seed=7, keep_grad_records=True
        )
        per_sample = np.concatenate([p for p, _ in dist.grad_passes])
        assert np.allclose(dist.probs, per_sample.mean(axis=0), atol=1e-12)

    def test_single_input_keeps_vector_shape(self):
        # a single input is a one-row batch; a 1-d vector is not a batch
        model = model_with(dropout=0.2, seed=5)
        dist = uncertainty.mc_predict(
            model, np.zeros((1, 3)), n_samples=3, seed=8, keep_grad_records=True
        )
        assert dist.probs.shape == (1, 4)
        assert [p.shape for stack, _ in dist.grad_passes for p in stack] == [(1, 4)] * 3
        with pytest.raises(nn.EngineError, match="2-d"):
            uncertainty.mc_predict(model, np.zeros(3), n_samples=3, seed=8)

    def test_deterministic_given_seed(self):
        model = model_with(dropout=0.3, seed=6)
        x = np.random.default_rng(5).normal(size=(4, 3))
        a = uncertainty.mc_predict(model, x, n_samples=8, seed=42)
        b = uncertainty.mc_predict(model, x, n_samples=8, seed=42)
        assert np.array_equal(a.probs, b.probs)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            uncertainty.mc_predict(model_with(), np.zeros(3), n_samples=0, seed=0)

    def test_probs_only_path_matches(self):
        model = model_with(dropout=0.3, seed=7)
        x = np.random.default_rng(6).normal(size=(4, 3))
        dist = uncertainty.mc_predict(model, x, n_samples=5, seed=9)
        probs = uncertainty.mc_predict_probs(model, x, n_samples=5, seed=9)
        assert np.allclose(dist.probs, probs, atol=1e-15)


def reference_passes(model, x, n_samples, seed):
    """MC passes with a full nn.forward each, as before the shared layer: an
    evaluation-mode pass without dropout, else one per one-pass mask, whose
    probabilities are (1, rows, classes)."""
    if model.dropout_rate == 0.0:
        masks = [None]
    else:
        masks = [
            nn.sample_mask(model, rng.derive_seed(seed, "mc-pass", i))
            for i in range(n_samples)
        ]
    passes = []
    for mask in masks:
        logits, cache = nn.forward(model, x, mask)
        passes.append((nn.softmax(logits), cache))
    return passes


def one_pass(probs):
    """The (rows, classes) probabilities of a one-pass record."""
    return probs.reshape(-1, probs.shape[-1])


def reference_mean(passes):
    acc = None
    for p, _ in passes:
        acc = one_pass(p) if acc is None else acc + one_pass(p)
    return acc / len(passes)


SHARED_LAYER_CASES = [
    # (layer sizes, dropout, input shape)
    ((784, 256, 256, 10), 0.2, (3, 784)),
    ((2, 8, 2), 0.3, (20, 2)),
    ((2, 8, 2), 0.3, (1, 2)),
    ((3, 8, 4), 0.0, (5, 3)),
    ((5, 3), 0.3, (4, 5)),
]


class TestSharedInputLayer:
    """Every MC pass reuses one unmasked input layer; the outputs must be
    bit-identical to a full forward per pass."""

    @pytest.mark.parametrize("sizes,dropout,shape", SHARED_LAYER_CASES)
    def test_matches_full_forward_per_pass(self, sizes, dropout, shape):
        model = model_with(dropout=dropout, seed=12, sizes=sizes)
        gen = np.random.default_rng(14)
        x = gen.random(shape)
        ref = reference_passes(model, x, 6, seed=15)
        dist = uncertainty.mc_predict(model, x, 6, seed=15, keep_grad_records=True)
        mean = reference_mean(ref)
        probs = uncertainty.mc_predict_probs(model, x, 6, seed=15)
        assert np.array_equal(probs, mean)
        assert np.array_equal(dist.probs, mean)
        per_pass = [p for stack, _ in dist.grad_passes for p in stack]
        for p, (ref_p, _) in zip(per_pass, ref, strict=True):
            assert np.array_equal(p, one_pass(ref_p))
        assert dist.sample_count == len(ref)

        upstream = gen.normal(size=dist.probs.shape)
        ref_dist = uncertainty.PredictiveDistribution(mean, len(ref), grad_passes=ref)
        grads, input_grad = dist.backprop_mean_prob_grad(upstream)
        ref_grads, ref_input_grad = ref_dist.backprop_mean_prob_grad(upstream)
        assert np.array_equal(input_grad, ref_input_grad)
        for (gw, gb), (rw, rb) in zip(grads, ref_grads, strict=True):
            assert np.array_equal(gw, rw)
            assert np.array_equal(gb, rb)

    @pytest.mark.parametrize("shape", [(2, 783), (2, 3, 784)])
    def test_bad_batch_raises_engine_error(self, shape):
        model = model_with(dropout=0.2, sizes=(784, 16, 10))
        x = np.zeros(shape)
        with pytest.raises(nn.EngineError):
            uncertainty.mc_predict(model, x, 3, seed=0)
        with pytest.raises(nn.EngineError):
            uncertainty.mc_predict_probs(model, x, 3, seed=0)

    def test_probs_only_path_rejects_single_row(self):
        with pytest.raises(nn.EngineError, match="2-d"):
            uncertainty.mc_predict_probs(model_with(), np.zeros(3), 3, seed=0)


class TestEntropy:
    def test_uniform_four_classes(self):
        assert uncertainty.entropy(np.full(4, 0.25)) == pytest.approx(
            math.log(4.0), abs=1e-12
        )

    def test_one_hot_is_zero(self):
        assert uncertainty.entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_hand_evaluated_mixture(self):
        # -(0.5 ln 0.5 + 2 * 0.25 ln 0.25) = 1.5 ln 2
        h = uncertainty.entropy(np.array([0.5, 0.25, 0.25]))
        assert h == pytest.approx(1.5 * math.log(2.0), abs=1e-12)

    def test_permutation_invariant(self):
        gen = np.random.default_rng(8)
        for _ in range(25):
            p = gen.dirichlet(np.ones(6))
            h = uncertainty.entropy(p)
            assert uncertainty.entropy(gen.permutation(p)) == pytest.approx(
                h, abs=1e-12
            )

    def test_bounds(self):
        gen = np.random.default_rng(9)
        p = gen.dirichlet(np.ones(5), size=200)
        h = uncertainty.entropy(p)
        assert np.all(h >= 0.0)
        assert np.all(h <= math.log(5.0) + 1e-12)


class TestNormalizedEntropy:
    def test_uniform_is_one(self):
        for k in (2, 3, 7):
            assert uncertainty.normalized_entropy(np.full(k, 1.0 / k)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_one_hot_is_zero(self):
        assert uncertainty.normalized_entropy(np.array([1.0, 0.0])) == 0.0

    def test_hand_evaluated_binary(self):
        p, q = 0.89, 0.11
        expected = -(p * math.log(p) + q * math.log(q)) / math.log(2.0)
        got = uncertainty.normalized_entropy(np.array([p, q]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert 0.4999 < got < 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            uncertainty.normalized_entropy(np.array([1.0]))

    def test_in_unit_interval_for_mc_outputs(self):
        model = model_with(dropout=0.3, seed=10)
        x = np.random.default_rng(10).normal(size=(50, 3))
        dist = uncertainty.mc_predict(model, x, n_samples=10, seed=11)
        u = uncertainty.normalized_entropy(dist)
        assert np.all(u >= 0.0) and np.all(u <= 1.0)


def test_jensen_direction_entropy_of_mean():
    # entropy is concave: H(mean) >= mean per-pass entropy
    model = model_with(dropout=0.4, seed=11)
    x = np.random.default_rng(12).normal(size=(30, 3))
    dist = uncertainty.mc_predict(
        model, x, n_samples=15, seed=13, keep_grad_records=True
    )
    h_mean = uncertainty.entropy(dist.probs)
    per_sample = np.concatenate([p for p, _ in dist.grad_passes])
    mean_h = uncertainty.entropy(per_sample).mean(axis=0)
    assert np.all(h_mean >= mean_h - 1e-12)
