import json
import sys
import threading

import numpy as np
import pytest

from euatlab import nn, rng
from oracles import (
    fd_param_grads, flatten_grads, max_rel_error, naive_forward, parameters_equal,
    reference_mask,
)


def tiny_model(seed=0, sizes=(3, 5, 4, 2), dropout=0.0):
    return nn.MlpModel.init(list(sizes), dropout_rate=dropout, seed=seed)


class TestForward:
    def test_identity_single_layer(self):
        model = nn.MlpModel(
            [nn.DenseLayer(np.eye(2), np.zeros(2), "identity")], dropout_rate=0.0
        )
        logits, _ = nn.forward(model, np.array([[1.0, 2.0]]))
        assert np.array_equal(logits, np.array([[1.0, 2.0]]))

    def test_all_keep_mask_scales_activations(self):
        # inverted dropout: an all-keep mask at p=0.5 multiplies hidden
        # activations by 2, and a linear head doubles with them
        gen = np.random.default_rng(7)
        model = nn.MlpModel(
            [
                nn.DenseLayer(gen.normal(size=(4, 3)), gen.normal(size=4), "relu"),
                nn.DenseLayer(gen.normal(size=(2, 4)), np.zeros(2), "identity"),
            ],
            dropout_rate=0.5,
        )
        x = gen.normal(size=(5, 3))
        plain, _ = nn.forward(model, x)
        mask = nn.MaskStack([np.full((1, 1, 4), 2.0)], 1)
        scaled, _ = nn.forward(model, x, mask)
        assert np.allclose(scaled[0], 2.0 * plain, rtol=0, atol=1e-12)

    def test_matches_naive_matmul_oracle(self):
        model = tiny_model(seed=3)
        x = np.random.default_rng(11).normal(size=(6, 3))
        logits, _ = nn.forward(model, x)
        assert np.max(np.abs(logits - naive_forward(model, x))) < 1e-12

    def test_masked_matches_naive_oracle(self):
        model = tiny_model(seed=4, dropout=0.4)
        mask = nn.sample_mask(model, 9, 1)
        x = np.random.default_rng(12).normal(size=(4, 3))
        logits, _ = nn.forward(model, x, mask)
        assert logits.shape == (1, 4, 2)
        assert np.max(np.abs(logits[0] - naive_forward(model, x, mask))) < 1e-12

    def test_shape_mismatch_reports_dimensions(self):
        model = tiny_model()
        with pytest.raises(nn.EngineError, match="4 features"):
            nn.forward(model, np.zeros((2, 4)))

    def test_eval_mode_is_deterministic(self):
        model = tiny_model(seed=5)
        x = np.random.default_rng(0).normal(size=(3, 3))
        a, _ = nn.forward(model, x)
        b, _ = nn.forward(model, x)
        assert np.array_equal(a, b)


class TestInfer:
    @pytest.mark.parametrize("sizes", [(3, 5, 4, 2), (784, 256, 256, 10), (5, 3)])
    def test_logits_equal_forward_without_a_cache(self, sizes, monkeypatch):
        model = tiny_model(seed=9, sizes=sizes, dropout=0.3)
        x = np.random.default_rng(15).normal(size=(7, sizes[0]))
        logits, _ = nn.forward(model, x)

        def no_cache(*args, **kwargs):
            raise AssertionError("infer built a ForwardCache")

        monkeypatch.setattr(nn, "ForwardCache", no_cache)
        assert np.array_equal(nn.infer(model, x), logits)

    def test_checks_batch_and_finiteness(self):
        model = tiny_model()
        with pytest.raises(nn.EngineError, match="4 features"):
            nn.infer(model, np.zeros((2, 4)))
        with pytest.raises(nn.EngineError, match="non-finite"):
            nn.infer(model, np.full((2, 3), np.nan))


class TestInputLayer:
    """The cache-free passes of ``uncertainty`` share one unmasked first
    layer, ``_layer_loop(model.layers[:1], x, None, 0)``, after
    ``_check_pass``; ``forward`` computes its own."""

    def test_shared_layer_gives_identical_pass(self):
        model = tiny_model(seed=6, dropout=0.3)
        x = np.random.default_rng(13).normal(size=(5, 3))
        mask = nn.sample_mask(model, 2, 1)
        logits, cache = nn.forward(model, x, mask)
        first = nn._layer_loop(model.layers[:1], x, None, 0)
        assert np.array_equal(first, cache.acts[0])
        shared_logits = nn._layer_loop(model.layers, first, mask.scales, 1)
        assert np.array_equal(shared_logits, logits)

    def test_checks_batch_before_matmul(self):
        model = tiny_model()
        with pytest.raises(nn.EngineError, match="4 features"):
            nn._check_pass(model, np.zeros((2, 4)), None)
        with pytest.raises(nn.EngineError, match="2-d"):
            nn._check_pass(model, np.zeros((2, 2, 3)), None)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(nn.softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_shift_invariance(self):
        for c in (-3.0, 0.0, 17.5):
            assert np.allclose(nn.softmax(np.full(4, c)), 0.25, atol=1e-15)

    def test_large_logits_do_not_overflow(self):
        p = nn.softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.0, abs=1e-300)

    def test_rows_sum_to_one(self):
        z = np.random.default_rng(2).normal(scale=5.0, size=(50, 7))
        sums = nn.softmax(z).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12


class TestClassSum:
    """``nn._class_sum`` equals numpy's sum over the last axis bit for bit,
    signed zeros, infinities and NaN included, on each side of 8 classes."""

    @staticmethod
    def assert_same_bits(got, want):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("classes", [1, 2, 3, 5, 7, 8, 10])
    def test_equals_the_reduction(self, classes):
        gen = np.random.default_rng(classes)
        for shape in [(50, classes), (6, 37, classes)]:
            z = gen.normal(size=shape) * 10.0 ** gen.uniform(-8, 8, size=shape)
            special = gen.random(shape) < 0.3
            z[special] = gen.choice([0.0, -0.0, np.inf, -np.inf, np.nan], special.sum())
            z[0] = -0.0  # an all-negative-zero row sums to +0
            with np.errstate(invalid="ignore"):
                want = z.sum(axis=-1, keepdims=True)
                self.assert_same_bits(nn._class_sum(z), want)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        model = tiny_model(seed=6)
        x = np.random.default_rng(1).normal(size=(4, 3))
        _, cache = nn.forward(model, x)
        grads = nn.backward(cache, np.zeros((4, 2)), "params")
        xgrad = nn.backward(cache, np.zeros((4, 2)), "input")
        for gw, gb in grads:
            assert not gw.any() and not gb.any()
        assert not xgrad.any()

    def test_linear_layer_weight_gradient(self):
        # y = Wx, upstream g: dL/dW = g^T x
        w = np.random.default_rng(3).normal(size=(2, 3))
        model = nn.MlpModel([nn.DenseLayer(w, np.zeros(2), "identity")], 0.0)
        x = np.random.default_rng(4).normal(size=(5, 3))
        g = np.random.default_rng(5).normal(size=(5, 2))
        _, cache = nn.forward(model, x)
        grads = nn.backward(cache, g, "params")
        assert np.allclose(grads[0][0], g.T @ x, atol=1e-12)
        assert np.allclose(grads[0][1], g.sum(axis=0), atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, seed):
        model = tiny_model(seed=seed)
        gen = np.random.default_rng(100 + seed)
        x = gen.normal(size=(4, 3))
        w_out = gen.normal(size=(4, 2))

        def loss(m):
            logits, _ = nn.forward(m, x)
            return float((logits * w_out).sum())

        logits, cache = nn.forward(model, x)
        analytic = nn.backward(cache, w_out, "params")
        numeric = fd_param_grads(loss, model)
        assert max_rel_error(flatten_grads(analytic), numeric) < 1e-4

    def test_masked_backward_matches_finite_differences(self):
        model = tiny_model(seed=8, dropout=0.3)
        mask = nn.sample_mask(model, 21, 1)
        gen = np.random.default_rng(42)
        x = gen.normal(size=(3, 3))
        w_out = gen.normal(size=(3, 2))

        def loss(m):
            logits, _ = nn.forward(m, x, mask)
            return float((logits * w_out).sum())

        _, cache = nn.forward(model, x, mask)
        analytic = nn.backward(cache, w_out[np.newaxis], "params")
        numeric = fd_param_grads(loss, model)
        assert max_rel_error(flatten_grads(analytic), numeric) < 1e-4

    def test_stale_cache_rejected(self):
        model = tiny_model(seed=9)
        x = np.random.default_rng(6).normal(size=(2, 3))
        _, cache = nn.forward(model, x)
        state = nn.OptimizerState.for_model(model, lr=0.1)
        zero = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.layers]
        assert nn.sgd_step(model, zero, state)
        with pytest.raises(nn.EngineError, match="stale"):
            nn.backward(cache, np.zeros((2, 2)), "params")

    def test_mismatched_upstream_rejected(self):
        model = tiny_model(seed=9)
        _, cache = nn.forward(model, np.zeros((2, 3)))
        with pytest.raises(nn.EngineError, match="shape"):
            nn.backward(cache, np.zeros((2, 5)), "params")

    def test_unknown_selector_rejected(self):
        model = tiny_model(seed=9)
        _, cache = nn.forward(model, np.zeros((2, 3)))
        for wrt in ("both", "weights", None):
            with pytest.raises(nn.EngineError, match="wrt"):
                nn.backward(cache, np.zeros((2, 2)), wrt)


class TestSgd:
    def rand_grads(self, model, seed=0):
        gen = np.random.default_rng(seed)
        return [
            (gen.normal(size=l.weights.shape), gen.normal(size=l.bias.shape))
            for l in model.layers
        ]

    def test_zero_lr_leaves_parameters_unchanged(self):
        model = tiny_model(seed=10)
        before = model.copy()
        state = nn.OptimizerState.for_model(model, lr=0.0, momentum=0.9)
        assert nn.sgd_step(model, self.rand_grads(model), state)
        assert parameters_equal(model, before)

    def test_plain_sgd_exact(self):
        model = tiny_model(seed=11)
        before = model.copy()
        grads = self.rand_grads(model, seed=1)
        state = nn.OptimizerState.for_model(model, lr=0.05, momentum=0.0)
        nn.sgd_step(model, grads, state)
        for (gw, gb), old, new in zip(grads, before.layers, model.layers):
            assert np.array_equal(new.weights, old.weights - 0.05 * gw)
            assert np.array_equal(new.bias, old.bias - 0.05 * gb)

    def test_two_momentum_steps_on_constant_grad(self):
        # v1 = g, v2 = 0.9 g + g: total displacement -lr (g + 1.9 g)
        model = tiny_model(seed=12)
        before = model.copy()
        grads = self.rand_grads(model, seed=2)
        state = nn.OptimizerState.for_model(model, lr=0.1, momentum=0.9)
        nn.sgd_step(model, grads, state)
        nn.sgd_step(model, grads, state)
        for (gw, _), old, new in zip(grads, before.layers, model.layers):
            assert np.allclose(new.weights, old.weights - 0.1 * 2.9 * gw, atol=1e-12)

    def test_weight_decay_folded_into_gradient(self):
        model = tiny_model(seed=13)
        before = model.copy()
        zero = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.layers]
        state = nn.OptimizerState.for_model(model, lr=0.1, momentum=0.0, weight_decay=0.01)
        nn.sgd_step(model, zero, state)
        for old, new in zip(before.layers, model.layers):
            assert np.allclose(new.weights, old.weights * (1 - 0.1 * 0.01), atol=1e-15)

    def test_zero_decay_matches_the_full_update_bit_for_bit(self):
        # with weight_decay == 0 the decay term is skipped; the parameters
        # must still equal v <- m*v + (g + 0*theta); theta <- theta - lr*v,
        # also when gradients hold +0.0 and -0.0 entries
        for seed in range(200):
            gen = np.random.default_rng(seed)
            sizes = [int(w) for w in gen.integers(1, 6, size=gen.integers(2, 5))]
            model = nn.MlpModel.init(sizes, dropout_rate=0.0, seed=seed)
            lr, momentum = float(gen.uniform(0.0, 0.5)), float(gen.uniform(0.0, 0.99))
            state = nn.OptimizerState.for_model(model, lr=lr, momentum=momentum)
            params = [[l.weights.copy(), l.bias.copy()] for l in model.layers]
            velocities = [[np.zeros_like(w), np.zeros_like(b)] for w, b in params]
            for _ in range(30):
                grads = []
                for w, b in params:
                    pair = []
                    for shape in (w.shape, b.shape):
                        g = gen.normal(size=shape)
                        g[gen.random(shape) < 0.3] = 0.0
                        g[gen.random(shape) < 0.3] = -0.0
                        pair.append(g)
                    grads.append(tuple(pair))
                before = [(gw.tobytes(), gb.tobytes()) for gw, gb in grads]
                assert nn.sgd_step(model, grads, state)
                assert [(gw.tobytes(), gb.tobytes()) for gw, gb in grads] == before
                for p, v, g, layer in zip(params, velocities, grads, model.layers):
                    for k in range(2):
                        v[k] = momentum * v[k] + (g[k] + 0.0 * p[k])
                        p[k] = p[k] - lr * v[k]
                    assert layer.weights.tobytes() == p[0].tobytes()
                    assert layer.bias.tobytes() == p[1].tobytes()

    def test_non_finite_gradient_refused(self):
        model = tiny_model(seed=14)
        before = model.copy()
        grads = self.rand_grads(model)
        grads[0][0][0, 0] = np.nan
        state = nn.OptimizerState.for_model(model, lr=0.1)
        assert not nn.sgd_step(model, grads, state)
        assert parameters_equal(model, before)
        assert model.version == before.version


class TestDropoutMask:
    def test_zero_rate_gives_all_keep_scale_one(self):
        # without dropout every unit is kept unscaled: one unmasked pass
        model = tiny_model(seed=15, dropout=0.0)
        for passes in (1, 6, 20):
            assert nn.sample_mask(model, 3, passes) == nn.MaskStack(None, 1)

    def test_same_seed_is_bit_identical(self):
        model = tiny_model(seed=16, dropout=0.3)
        a = nn.sample_mask(model, 999, 6)
        b = nn.sample_mask(model, 999, 6)
        for sa, sb in zip(a.scales, b.scales):
            assert np.array_equal(sa, sb)

    def test_entries_are_zero_or_inverse_keep(self):
        model = tiny_model(seed=17, dropout=0.25)
        mask = nn.sample_mask(model, 5, 6)
        allowed = {0.0, 1.0 / 0.75}
        for scale in mask.scales:
            assert set(np.unique(scale)) <= allowed

    def test_empirical_keep_rate(self):
        model = nn.MlpModel.init([1, 100_000, 2], dropout_rate=0.3, seed=18)
        mask = nn.sample_mask(model, 7, 1)
        keep_rate = np.mean(mask.scales[0] > 0)
        assert abs(keep_rate - 0.7) < 0.01

    def test_mask_shape_validated(self):
        model = tiny_model(seed=19, dropout=0.3)
        bad = nn.MaskStack([np.ones((1, 1, 2))], 1)
        with pytest.raises(nn.EngineError):
            nn.forward(model, np.zeros((1, 3)), bad)


class TestMaskStream:
    """Pass ``i`` of ``sample_mask(model, seed, n)`` draws what a fresh
    generator on the substream of ``derive_seed(seed, "mc-pass", i)`` draws,
    whatever ran before it and on whichever thread."""

    MODELS = [([3, 1, 2], 0.5), ([2, 8, 2], 0.1), ([4, 64, 64, 2], 0.15),
              ([5, 256, 8, 1, 3], 0.3), ([2, 8, 2], 0.0), ([2, 64, 2], 0.9)]

    @staticmethod
    def assert_reference(model, seed, passes):
        mask = nn.sample_mask(model, seed, passes)
        if model.dropout_rate == 0.0:
            assert mask == nn.MaskStack(None, 1)
            return
        assert mask.passes == passes
        assert len(mask.scales) == len(model.hidden_widths)
        for i in range(passes):
            expected = reference_mask(model, rng.derive_seed(seed, "mc-pass", i))
            for got, want in zip(mask.scales, expected):
                assert got.dtype == np.float64
                assert got.shape == (passes, 1, len(want))
                assert np.array_equal(got[i, 0], want)

    @pytest.mark.parametrize("sizes, rate", MODELS)
    def test_matches_fresh_generator(self, sizes, rate):
        # the hashed key prefix masks a negative or wide seed to 64 bits as
        # derive_seed does
        model = nn.MlpModel.init(sizes, dropout_rate=rate, seed=1)
        seeds = [0, 1, 2**63, 2**64 - 1, -1, -2**63, 2**64, 2**70 + 5]
        for passes in (1, 6, 20, 33):
            for seed in seeds + list(range(100, 160)):
                self.assert_reference(model, seed, passes)

    def test_derive_seeds_is_the_nested_derive_seed(self):
        for seed in (0, 7, -1, -2**63, 2**64 - 1, 2**64, 2**70 + 5):
            assert rng.derive_seeds(seed, "a", 12, "b") == [
                rng.derive_seed(rng.derive_seed(seed, "a", i), "b") for i in range(12)]
        assert rng.derive_seeds(3, "a", 0, "b") == []

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_fewer_than_one_pass_rejected(self, rate):
        model = nn.MlpModel.init([2, 8, 2], dropout_rate=rate, seed=1)
        for passes in (0, -1):
            with pytest.raises(ValueError, match="n_samples must be >= 1"):
                nn.sample_mask(model, 0, passes)

    def test_interleaved_with_other_substreams(self):
        model = nn.MlpModel.init([4, 64, 64, 2], dropout_rate=0.2, seed=2)
        held = rng.substream(7, "held")
        fresh = rng.substream(7, "held")
        expected = fresh.random(40 * 8)
        got = []
        for i in range(40):
            got.append(held.random(5))
            self.assert_reference(model, i, 3)
            rng.substream(i, "other").random(3)
            got.append(held.random(3))
        assert np.array_equal(np.concatenate(got), expected)

    def test_concurrent_threads(self):
        models = [nn.MlpModel.init([4, 64, 8, 2], dropout_rate=0.3, seed=3),
                  nn.MlpModel.init([2, 256, 2], dropout_rate=0.1, seed=4)]
        start, failures = threading.Barrier(2), []

        def sample(model, offset):
            start.wait()
            try:
                for seed in range(offset, offset + 300):
                    self.assert_reference(model, seed, 3)
            except AssertionError as exc:
                failures.append(exc)

        threads = [threading.Thread(target=sample, args=(m, 1000 * k))
                   for k, m in enumerate(models)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []

    def test_philox_state_is_a_fresh_generator(self):
        for seed in (0, 5, 2**64 - 1, -1):
            fresh = rng.generator(seed).bit_generator.state
            gen = np.random.Generator(np.random.Philox(key=99))
            gen.random(3)
            gen.bit_generator.state = rng.philox_state(seed)
            state = gen.bit_generator.state
            assert state["bit_generator"] == fresh["bit_generator"]
            for key in ("counter", "key"):
                assert np.array_equal(state["state"][key], fresh["state"][key])
            assert np.array_equal(state["buffer"], fresh["buffer"])
            for key in ("buffer_pos", "has_uint32", "uinteger"):
                assert state[key] == fresh[key]
            assert np.array_equal(gen.random(10), rng.generator(seed).random(10))


def test_mask_average_converges_to_plain_pass_on_linear_net():
    # with identity activations the network is linear in the masked
    # activations, so the mask average must approach the no-mask pass
    gen = np.random.default_rng(31)
    model = nn.MlpModel(
        [
            nn.DenseLayer(gen.normal(size=(8, 3)), gen.normal(size=8), "identity"),
            nn.DenseLayer(gen.normal(size=(2, 8)), gen.normal(size=2), "identity"),
        ],
        dropout_rate=0.3,
    )
    x = gen.normal(size=(1, 3))
    plain, _ = nn.forward(model, x)
    draws = nn.forward(model, x, nn.sample_mask(model, 0, 4000))[0][:, 0]
    mc_err = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - plain[0]) < 3.0 * mc_err + 1e-12)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self):
        model = tiny_model(seed=20, dropout=0.3)
        loaded = nn.model_from_checkpoint_dict(json.loads(nn.checkpoint_json(model)))
        assert parameters_equal(loaded, model)
        assert loaded.dropout_rate == model.dropout_rate
        assert [l.activation for l in loaded.layers] == [
            l.activation for l in model.layers
        ]

    def test_rejects_unknown_version(self):
        doc = json.loads(nn.checkpoint_json(tiny_model(seed=21)))
        doc["format_version"] = 99
        with pytest.raises(nn.EngineError):
            nn.model_from_checkpoint_dict(doc)


class TestValidation:
    def test_dropout_rate_bounds(self):
        with pytest.raises(nn.EngineError):
            nn.MlpModel.init([2, 3, 2], dropout_rate=1.0)

    def test_layer_widths_must_chain(self):
        layers = [
            nn.DenseLayer(np.zeros((4, 2)), np.zeros(4), "relu"),
            nn.DenseLayer(np.zeros((2, 3)), np.zeros(2), "identity"),
        ]
        with pytest.raises(nn.EngineError, match="chain"):
            nn.MlpModel(layers, 0.0)
