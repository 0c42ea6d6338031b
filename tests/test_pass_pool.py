"""Pooled MC-dropout passes are bit-identical to serial ones.

A prediction without gradient records runs its passes on the process-wide
pass pool once they are large enough (``uncertainty.POOL_MIN_WORK``). These
tests force the pool's width through its factory, ``uncertainty._new_pool``,
so they run the pooled path on any machine: a width of 1 is the serial path.
"""

import json
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from euatlab import cli, experiment, nn, uncertainty
from test_uncertainty import SHARED_LAYER_CASES, reference_mean, reference_passes


@pytest.fixture()
def pool_of(monkeypatch):
    """``pool_of(w)`` makes the pass pool a fresh ``w``-thread executor."""
    made = []

    def force(workers, executor=None):
        executor = executor or ThreadPoolExecutor(workers)
        made.append(executor)
        monkeypatch.setattr(uncertainty, "_new_pool", lambda: (executor, workers))
        monkeypatch.setattr(uncertainty, "_pool", None)

    yield force
    for executor in made:
        executor.shutdown()


def serial_mean(passes, x):
    """The serial sum, in pass order, of ``softmax(forward(...))``: per
    ``(model, mask)`` one evaluation-mode pass, or one masked pass from a
    one-pass stack."""
    acc = None
    for model, mask in passes:
        logits, _ = nn.forward(model, x, mask)
        p = nn.softmax(logits if mask is None else logits[0])
        acc = p if acc is None else acc + p
    return acc / len(passes)


def mc_masks(model, n, seed):
    """The N masks of an MC call, each as a one-pass stack."""
    stack = nn.sample_mask(model, seed, n)
    return [nn.MaskStack([s[i:i + 1] for s in stack.scales], 1) for i in range(n)]


def pooled_count():
    return uncertainty.pool_use()[0]


WIDE = [784, 256, 256, 10]


class TestBitIdentity:
    @pytest.mark.parametrize("rows", [64, 2000])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_mc_predict_probs_equals_the_serial_sum(self, pool_of, rows, workers):
        pool_of(workers)
        model = nn.MlpModel.init(WIDE, 0.2, seed=1)
        x = np.random.default_rng(rows).normal(size=(rows, WIDE[0]))
        before = pooled_count()
        probs = uncertainty.mc_predict_probs(model, x, 20, seed=3)
        assert pooled_count() == before + 1
        passes = [(model, mask) for mask in mc_masks(model, 20, 3)]
        assert np.array_equal(probs, serial_mean(passes, x))

    def test_ensemble_eval_predict_equals_the_serial_sum(self, pool_of):
        pool_of(2)
        members = [nn.MlpModel.init(WIDE, 0.2, seed=s) for s in (4, 5, 6)]
        x = np.random.default_rng(7).normal(size=(64, WIDE[0]))
        before = pooled_count()
        probs = uncertainty.eval_predict_probs(members, x)
        assert pooled_count() == before + 1
        assert isinstance(probs, np.ndarray)
        assert np.array_equal(probs, serial_mean([(m, None) for m in members], x))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sizes,dropout,shape", SHARED_LAYER_CASES)
    def test_shared_input_layer_cases_at_any_pool_width(
        self, pool_of, monkeypatch, sizes, dropout, shape, workers
    ):
        # the smallest nets too: [5, 3], whose shared first layer is the
        # output layer, and [3, 1, 2], with a one-unit hidden layer
        pool_of(workers)
        monkeypatch.setattr(uncertainty, "POOL_MIN_WORK", 0)
        model = nn.MlpModel.init(list(sizes), dropout, seed=12)
        x = np.random.default_rng(14).random(shape)
        before = pooled_count()
        probs = uncertainty.mc_predict_probs(model, x, 6, seed=15)
        assert pooled_count() == before + (workers > 1 and dropout > 0)
        expected = reference_mean(reference_passes(model, x, 6, seed=15))
        assert np.array_equal(probs, expected)
        assert np.array_equal(probs, uncertainty.mc_predict(model, x, 6, seed=15).probs)

    def test_small_passes_stay_serial_and_build_no_pool(self, monkeypatch):
        def no_pool():
            raise AssertionError("a pool was built below the gate")

        monkeypatch.setattr(uncertainty, "_new_pool", no_pool)
        monkeypatch.setattr(uncertainty, "_pool", None)
        model = nn.MlpModel.init([2, 8, 2], 0.3, seed=0)
        x = np.random.default_rng(0).normal(size=(450, 2))
        probs = uncertainty.mc_predict_probs(model, x, 20, seed=1)
        assert uncertainty._pool is None
        passes = [(model, mask) for mask in mc_masks(model, 20, 1)]
        assert np.array_equal(probs, serial_mean(passes, x))


def overflowing_model():
    """A 4-16-3 net whose logits overflow exactly when a pass keeps hidden
    unit 0: its outgoing weights are 1e308 and its activation is 40."""
    model = nn.MlpModel.init([4, 16, 3], 0.5, seed=2)
    model.layers[0].weights[0] = 10.0
    model.layers[0].bias[0] = 0.0
    model.layers[1].weights[:, 0] = 1e308
    return model


class SpyExecutor:
    """An executor that fails the test if any work reaches it."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        raise AssertionError("a pass was submitted")

    def shutdown(self):
        pass


def finishes(fn, timeout=60.0):
    """``fn()``'s result or exception, failing the test if it hangs."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the pooled prediction hung"
    return outcome


class TestFailurePaths:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_non_finite_pass_in_pass_order_raises(
        self, pool_of, monkeypatch, workers
    ):
        pool_of(workers)
        monkeypatch.setattr(uncertainty, "POOL_MIN_WORK", 0)
        model = overflowing_model()
        x = np.ones((8, 4))

        def first_keeping_unit_0(seed):
            masks = mc_masks(model, 6, seed)
            return next((i for i, m in enumerate(masks) if m.scales[0][0, 0, 0]), None)

        seed = next(s for s in range(100) if (first_keeping_unit_0(s) or 0) >= 2)
        first_bad = first_keeping_unit_0(seed)
        with pytest.raises(nn.EngineError, match="non-finite logits") as serial:
            nn.forward(model, x, mc_masks(model, 6, seed)[first_bad])

        softmaxed = []
        real_softmax = nn.softmax
        monkeypatch.setattr(nn, "softmax", lambda z: softmaxed.append(1) or real_softmax(z))
        before = pooled_count()
        with pytest.raises(nn.EngineError) as pooled:
            uncertainty.mc_predict_probs(model, x, 6, seed)
        assert str(pooled.value) == str(serial.value)
        assert len(softmaxed) == first_bad
        assert pooled_count() == before + (workers > 1)

    def test_bad_inputs_raise_before_any_pass_is_submitted(self, pool_of, monkeypatch):
        spy = SpyExecutor()
        pool_of(2, spy)
        monkeypatch.setattr(uncertainty, "POOL_MIN_WORK", 0)
        model = nn.MlpModel.init([4, 16, 3], 0.5, seed=2)
        x = np.ones((8, 4))
        with pytest.raises(nn.EngineError, match="features"):
            uncertainty.mc_predict_probs(model, np.ones((8, 5)), 6, seed=0)
        other = nn.MlpModel.init([4, 12, 3], 0.5, seed=2)
        bad_mask = nn.sample_mask(other, 1, 1)
        with pytest.raises(nn.EngineError, match="mask layer 0"):
            uncertainty._mean_probs(
                [(model, nn.sample_mask(model, 0, 1)), (model, bad_mask)], x)
        # an ensemble's members each compute their own first layer in the pool
        narrow = nn.MlpModel.init([5, 16, 3], 0.5, seed=2)
        with pytest.raises(nn.EngineError, match="features"):
            uncertainty.eval_predict_probs([model, narrow], x)
        assert spy.submitted == 0

    def test_a_raising_pass_never_hangs_the_pool(self, pool_of, monkeypatch):
        pool_of(2)
        monkeypatch.setattr(uncertainty, "POOL_MIN_WORK", 0)
        model = nn.MlpModel.init([4, 16, 3], 0.5, seed=2)
        x = np.random.default_rng(3).normal(size=(8, 4))
        real_loop, calls, lock = nn._layer_loop, [], threading.Lock()

        def failing_third(*args):
            with lock:
                calls.append(1)
                third = len(calls) == 3
            if third:
                raise RuntimeError("pass failed")
            return real_loop(*args)

        monkeypatch.setattr(nn, "_layer_loop", failing_third)
        outcome = finishes(lambda: uncertainty.mc_predict_probs(model, x, 6, seed=4))
        assert isinstance(outcome.get("error"), RuntimeError)
        monkeypatch.setattr(nn, "_layer_loop", real_loop)
        outcome = finishes(lambda: uncertainty.mc_predict_probs(model, x, 6, seed=4))
        passes = [(model, mask) for mask in mc_masks(model, 6, 4)]
        assert np.array_equal(outcome["value"], serial_mean(passes, x))


    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_a_forked_child_builds_its_own_pool(self, monkeypatch):
        # the child inherits none of the parent's pool threads, which the
        # parent's passes keep busy together; the real factory runs, so
        # this pools only on a machine with two CPUs
        monkeypatch.setattr(uncertainty, "POOL_MIN_WORK", 0)
        model = nn.MlpModel.init([4, 256, 256, 3], 0.5, seed=2)
        x = np.random.default_rng(5).normal(size=(500, 4))
        expected = serial_mean([(model, mask) for mask in mc_masks(model, 6, 6)], x)
        assert np.array_equal(uncertainty.mc_predict_probs(model, x, 6, seed=6), expected)

        def child():
            probs = uncertainty.mc_predict_probs(model, x, 6, seed=6)
            os._exit(0 if np.array_equal(probs, expected) else 1)

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(60)
        if process.is_alive():
            process.kill()
            pytest.fail("the forked child's pooled prediction hung")
        assert process.exitcode == 0


def test_concurrent_predictions_share_the_pool(pool_of, monkeypatch):
    # more pool threads than cores, several calling threads and a short
    # switch interval: a lost update or a shared buffer would show
    pool_of(4)
    monkeypatch.setattr(uncertainty, "POOL_MIN_WORK", 0)
    model = nn.MlpModel.init([4, 16, 3], 0.5, seed=2)
    inputs = [np.random.default_rng(i).normal(size=(8 + i, 4)) for i in range(3)]
    expected = [serial_mean([(model, mask) for mask in mc_masks(model, 7, i)], x)
                for i, x in enumerate(inputs)]
    results = [None] * 3

    def predict(i):
        results[i] = [uncertainty.mc_predict_probs(model, inputs[i], 7, seed=i)
                      for _ in range(5)]

    threads = [threading.Thread(target=predict, args=(i,), daemon=True) for i in range(3)]
    before = pooled_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "a prediction hung"
    for got, want in zip(results, expected):
        assert all(np.array_equal(probs, want) for probs in got)
    assert pooled_count() == before + 15

def pooled_config(method):
    """A run whose validation and test predictions are above the gate."""
    return experiment.ExperimentConfig.from_dict({
        "method": method,
        "seed": 1,
        "dataset": {"kind": "gaussian_blobs", "n": 1000, "noise": 0.1,
                    "class_count": 3, "dim": 16, "val_fraction": 0.2,
                    "test_fraction": 0.3},
        "model": {"hidden": [128, 128], "dropout_rate": 0.2},
        "schedule": {"pretrain_epochs": 1, "euat_epochs": 1, "pretrain_lr": 0.05,
                     "euat_lr": 0.005, "batch_size": 64},
        "mc_samples": 4,
        "ensemble_members": 2,
        "protocols": ["clean", "ood", "attack"],
    })


@pytest.mark.parametrize("method", ["euat", "ensemble"])
def test_run_artifacts_are_byte_identical_at_any_pool_width(
    pool_of, tmp_path, method
):
    manifests = {}
    for workers in (1, 2):
        pool_of(workers)
        before = pooled_count()
        manifests[workers] = experiment.run_experiment(
            pooled_config(method), tmp_path / str(workers))
        assert pooled_count() > before if workers == 2 else pooled_count() == before
        assert manifests[workers]["mc_pass_workers"] == workers
    for name in ("metrics.json", "checkpoint.json", "predictions.csv", "histogram.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
    epoch_rows = experiment._replayed
    assert epoch_rows(tmp_path / "1" / "per_epoch.csv") == epoch_rows(
        tmp_path / "2" / "per_epoch.csv")


def test_manifest_without_pool_width_still_replays(tmp_path):
    run = tmp_path / "run"
    assert cli.main(["train", "--n", "160", "--noise", "0.08", "--seed", "3",
                     "--hidden", "8", "--pretrain-epochs", "1", "--euat-epochs", "1",
                     "--batch-size", "32", "--mc-samples", "4", "--out", str(run)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest.pop("mc_pass_workers") == 1
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert cli.main(["replay", "--manifest", str(run / "manifest.json"),
                     "--out", str(tmp_path / "re")]) == 0
