"""The stacked gradient-recording passes are bit-identical to one pass at a
time.

A prediction with gradient records runs the MC passes of one model as one
``nn.forward`` over a ``MaskStack`` and one ``nn.backward`` over the pass
axis. The reference here records one mask at a time, each pass a stack of
one, and sums every cross-pass quantity in pass order: the mean
probabilities, the parameter gradients and the input gradient. A flat
``(N * rows)`` gemm or any other summation order changes low bits and fails
these tests.
"""

import numpy as np
import pytest

from euatlab import losses, nn, uncertainty

CASES = [
    # (layer sizes, rows)
    ((2, 8, 2), 64),
    ((2, 8, 2), 37),
    ((16, 64, 64, 2), 64),
    ((784, 256, 256, 10), 64),
]

# (dropout, N): without dropout any N is one unmasked pass
STACKS = [(0.3, 1), (0.3, 6), (0.3, 20), (0.0, 6)]


def one_pass_stacks(runs):
    """Every pass of the ``(model, MaskStack)`` runs as its own
    ``(model, one-pass MaskStack)``, in pass order."""
    passes = []
    for model, stack in runs:
        for p in range(stack.passes):
            scales = None if stack.scales is None else [s[p:p + 1] for s in stack.scales]
            passes.append((model, nn.MaskStack(scales, 1)))
    return passes


def per_pass_reference(passes, x):
    """One ``nn.forward`` per ``(model, one-pass mask)`` pass, each its own
    record, and the mean of their softmaxes summed in pass order."""
    records = []
    for model, mask in passes:
        logits, cache = nn.forward(model, x, mask)
        records.append((nn.softmax(logits), cache))
    acc = None
    for p, _ in records:
        acc = p[0] if acc is None else acc + p[0]
    return uncertainty.PredictiveDistribution(acc / len(records), len(records), records)


def per_pass_grads(passes, x, d_mean):
    """The gradients of ``sum(d_mean * mean probs)``: per pass a softmax VJP
    and an ``nn.backward``, each gradient summed in pass order."""
    gp = d_mean * (1.0 / len(passes))
    total = input_grad = None
    for model, mask in passes:
        logits, cache = nn.forward(model, x, mask)
        p = nn.softmax(logits)
        grads, xg = nn.backward(cache, p * (gp - (gp * p).sum(axis=-1, keepdims=True)))
        if total is None:
            total, input_grad = grads, xg
        else:
            total = [(tw + gw, tb + gb) for (tw, tb), (gw, gb) in zip(total, grads)]
            input_grad = input_grad + xg
    return total, input_grad


def assert_grads_equal(got, want):
    assert len(got) == len(want)
    for (gw, gb), (ww, wb) in zip(got, want):
        assert gw.shape == ww.shape and np.array_equal(gw, ww)
        assert gb.shape == wb.shape and np.array_equal(gb, wb)


def assert_matches_reference(dist, passes, x, labels, gen):
    ref = per_pass_reference(passes, x)
    assert dist.sample_count == ref.sample_count == len(passes)
    assert np.array_equal(dist.probs, ref.probs)
    per_pass = [p for stack, _ in dist.grad_passes for p in stack]
    assert len(per_pass) == len(passes)
    for p, (ref_p, _) in zip(per_pass, ref.grad_passes):
        assert np.array_equal(p, ref_p[0])

    d_mean = gen.normal(size=dist.probs.shape)
    grads, input_grad = dist.backprop_mean_prob_grad(d_mean)
    ref_grads, ref_input_grad = per_pass_grads(passes, x, d_mean)
    assert_grads_equal(grads, ref_grads)
    assert np.array_equal(input_grad, ref_input_grad)

    value, grads = losses.ce_pe_loss(dist, labels, 0.5)
    ref_value, ref_grads = losses.ce_pe_loss(ref, labels, 0.5)
    assert value == ref_value
    assert_grads_equal(grads, ref_grads)

    membership = gen.integers(0, 2, size=len(labels)).astype(np.int8)
    batch = losses.LabeledBatch(x, labels, membership)
    got, want = losses.euat_loss(batch, dist), losses.euat_loss(batch, ref)
    assert (got.value, got.correct_sum, got.wrong_sum) == (
        want.value, want.correct_sum, want.wrong_sum)
    assert_grads_equal(got.grads, want.grads)
    assert np.array_equal(got.input_grad, want.input_grad)


class TestMcStack:
    @pytest.mark.parametrize("sizes,rows", CASES, ids=lambda c: str(c))
    @pytest.mark.parametrize("dropout,n_samples", STACKS)
    def test_equals_one_mask_at_a_time(self, sizes, rows, dropout, n_samples):
        model = nn.MlpModel.init(list(sizes), dropout, seed=rows)
        gen = np.random.default_rng(n_samples)
        x = gen.random((rows, sizes[0]))
        labels = gen.integers(0, sizes[-1], size=rows)
        dist = uncertainty.mc_predict(model, x, n_samples, 5, keep_grad_records=True)
        passes = one_pass_stacks(uncertainty._mc_passes(model, n_samples, 5))
        assert_matches_reference(dist, passes, x, labels, gen)

    def test_width_one_layer_sums_in_pass_order(self):
        # numpy's sum over the passes of a (N, 1) bias gradient goes
        # pairwise, not in pass order; this net and seed tell the two apart
        model = nn.MlpModel.init([3, 1, 2], 0.1, seed=0)
        model.layers[0].bias[:] = 3.0
        gen = np.random.default_rng(20)
        x = gen.random((37, 3))
        dist = uncertainty.mc_predict(model, x, 20, 5, keep_grad_records=True)
        passes = one_pass_stacks(uncertainty._mc_passes(model, 20, 5))
        assert_matches_reference(dist, passes, x, gen.integers(0, 2, size=37), gen)

    def test_single_layer_net_repeats_its_one_pass(self):
        # no hidden layer, so no mask reaches the logits: the N passes of the
        # stack are one pass repeated, as N separate passes were
        model = nn.MlpModel.init([5, 3], 0.3, seed=1)
        gen = np.random.default_rng(2)
        x = gen.random((9, 5))
        dist = uncertainty.mc_predict(model, x, 6, 3, keep_grad_records=True)
        assert dist.grad_passes[0][0].shape == (6, 9, 3)
        passes = one_pass_stacks(uncertainty._mc_passes(model, 6, 3))
        assert_matches_reference(dist, passes, x, gen.integers(0, 3, size=9), gen)


class TestEnsembleRecords:
    def test_three_members_equal_one_pass_each(self):
        members = [nn.MlpModel.init([16, 64, 64, 2], 0.3, seed=s) for s in (1, 2, 3)]
        gen = np.random.default_rng(4)
        x = gen.random((64, 16))
        dist = uncertainty.eval_predict(members, x, keep_grad_records=True)
        assert [p.shape for p, _ in dist.grad_passes] == [(1, 64, 2)] * 3
        passes = [(m, nn.MaskStack(None, 1)) for m in members]
        assert_matches_reference(dist, passes, x, gen.integers(0, 2, size=64), gen)

    def test_repeated_member_keeps_every_pass(self):
        member = nn.MlpModel.init([2, 8, 2], 0.0, seed=5)
        gen = np.random.default_rng(6)
        x = gen.random((37, 2))
        dist = uncertainty.eval_predict([member, member], x, keep_grad_records=True)
        assert dist.sample_count == 2
        passes = [(member, nn.MaskStack(None, 1))] * 2
        assert_matches_reference(dist, passes, x, gen.integers(0, 2, size=37), gen)


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestOneCallPerRecord:
    @pytest.mark.parametrize("members", [1, 3])
    def test_one_forward_and_one_backward_per_model(self, monkeypatch, members):
        models = [nn.MlpModel.init([2, 8, 2], 0.3, seed=s) for s in range(members)]
        x = np.random.default_rng(7).random((32, 2))
        forwards = count_calls(monkeypatch, nn, "forward")
        backwards = count_calls(monkeypatch, nn, "backward")
        if members == 1:
            dist = uncertainty.mc_predict(models[0], x, 6, 8, keep_grad_records=True)
        else:
            dist = uncertainty.eval_predict(models, x, keep_grad_records=True)
        dist.backprop_mean_prob_grad(np.ones_like(dist.probs))
        assert len(forwards) == len(backwards) == members

    def test_mask_shapes_checked_once_per_call(self, monkeypatch):
        # with gradient records and without: one check of the call's one stack
        model = nn.MlpModel.init([4, 16, 16, 3], 0.3, seed=9)
        x = np.random.default_rng(10).random((8, 4))
        checks = count_calls(monkeypatch, nn, "_check_mask")
        uncertainty.mc_predict(model, x, 20, 11, keep_grad_records=True)
        assert len(checks) == 1
        uncertainty.mc_predict_probs(model, x, 20, 11)
        assert len(checks) == 2


class TestStackValidation:
    def test_wrong_width_in_a_stack_names_the_layer(self):
        model = nn.MlpModel.init([3, 5, 4, 2], 0.3, seed=12)
        (_, stack), = uncertainty._mc_passes(model, 3, 0)
        stack.scales[1] = stack.scales[1][..., :3]
        with pytest.raises(nn.EngineError, match="mask layer 1"):
            nn.forward(model, np.zeros((2, 3)), stack)

    def test_stacked_upstream_shape_checked(self):
        model = nn.MlpModel.init([3, 5, 2], 0.3, seed=14)
        (_, stack), = uncertainty._mc_passes(model, 4, 0)
        logits, cache = nn.forward(model, np.zeros((2, 3)), stack)
        assert logits.shape == (4, 2, 2)
        with pytest.raises(nn.EngineError, match="shape"):
            nn.backward(cache, np.zeros((2, 2)))
