"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen. The trend criteria (5-7) train real models and take a few
minutes in total; everything is seeded and deterministic single-threaded.
"""

import struct
import time

import numpy as np
import pytest

from euatlab import data, losses, metrics, nn, presets, rng, robustness, training, uncertainty
from euatlab.experiment import ExperimentConfig, run_experiment, replay
from euatlab.baselines import isotonic_apply, isotonic_fit
from oracles import (
    apportion_largest_remainder,
    ece_recount,
    fd_param_grads,
    flatten_grads,
    isotonic_nnls,
    max_rel_error,
    pairwise_auc,
    parameters_equal,
    transport_w1,
)
from test_losses import entropy_term


def verdict(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {number}] {name}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# -- criterion 1: gradient suite -------------------------------------------

def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    gen = np.random.default_rng(2024)
    worst = 0.0
    for i in range(20):
        sizes = [int(gen.integers(2, 5)), int(gen.integers(3, 7)), int(gen.integers(2, 5))]
        dropout = float(gen.choice([0.0, 0.2, 0.4]))
        model = nn.MlpModel.init(sizes, dropout_rate=dropout, seed=int(gen.integers(1 << 30)))
        rows = int(gen.integers(2, 5))
        x = gen.normal(size=(rows, sizes[0]))
        y = gen.integers(0, sizes[-1], size=rows)
        membership = gen.integers(0, 2, size=rows).astype(np.int8)
        n_mc, mc_seed = 3, int(gen.integers(1 << 30))

        def dist(m):
            return uncertainty.mc_predict(m, x, n_mc, mc_seed)

        batch = losses.LabeledBatch(x, y, membership)
        cases = {
            "ce": (lambda m: losses.ce_pe_loss(batch, dist(m), 0.0).value,
                   losses.ce_pe_loss(batch, dist(model), 0.0).grads),
            "entropy": (lambda m: entropy_term(batch, dist(m))[0],
                        entropy_term(batch, dist(model))[1]),
            "euat": (lambda m: losses.euat_loss(batch, dist(m)).value,
                     losses.euat_loss(batch, dist(model)).grads),
            "ce_pe": (lambda m: losses.ce_pe_loss(batch, dist(m), 0.5).value,
                      losses.ce_pe_loss(batch, dist(model), 0.5).grads),
        }
        for label, (loss_fn, grads) in cases.items():
            err = max_rel_error(flatten_grads(grads), fd_param_grads(loss_fn, model))
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    verdict(
        1, "gradient suite vs central differences",
        worst < 1e-4 and elapsed < 30.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# -- criterion 2: metric oracles --------------------------------------------

def test_criterion_2_metric_oracles():
    gen = np.random.default_rng(7)
    n = 200
    records = metrics.EvalRecords(
        true_label=np.zeros(n, dtype=np.int64),
        pred_label=(gen.random(n) < 0.35).astype(np.int64),
        uncertainty=np.round(gen.random(n), 2),  # induce ties
        confidence=gen.random(n),
        residual=gen.random(n),
    )
    correct = records.correct

    auc_ok = metrics.uauc(records) == pairwise_auc(
        records.uncertainty[~correct], records.uncertainty[correct]
    )

    w_ok = True
    for sizes in ((3, 5), (40, 17), (100, 100)):
        a, b = gen.random(sizes[0]), gen.random(sizes[1])
        w_ok &= abs(metrics.wasserstein1(a, b) - transport_w1(a, b)) < 1e-12

    ece_ok = abs(
        metrics.ece(records, 15)
        - ece_recount(list(records.confidence), list(records.correct), 15)
    ) < 1e-12

    ucm = metrics.build_ucm(records, 0.4)
    ua_ok = metrics.uncertainty_accuracy(ucm) == (ucm.tc + ucm.tu) / (
        ucm.tc + ucm.tu + ucm.fc + ucm.fu
    )

    verdict(
        2, "metric oracles (uAUC, W1, ECE, uA)",
        auc_ok and w_ok and ece_ok and ua_ok,
        f"uauc={auc_ok} w1={w_ok} ece={ece_ok} ua={ua_ok}",
    )


# -- criterion 3: MC-dropout invariants -------------------------------------

def test_criterion_3_mc_dropout_invariants():
    gen = np.random.default_rng(11)
    ok = True
    for dropout in (0.0, 0.25, 0.4):
        model = nn.MlpModel.init([4, 12, 5], dropout_rate=dropout, seed=3)
        x = gen.normal(size=(40, 4))
        dist = uncertainty.mc_predict(model, x, n_samples=15, seed=9)
        ok &= bool(np.max(np.abs(dist.probs.sum(axis=1) - 1.0)) < 1e-9)
        h = uncertainty.entropy(dist.probs)
        ok &= bool(np.all(h >= 0.0) and np.all(h <= np.log(5) + 1e-12))
        u = uncertainty.normalized_entropy(dist.probs)
        ok &= bool(np.all(u >= 0.0) and np.all(u <= 1.0))

    model = nn.MlpModel.init([4, 12, 5], dropout_rate=0.0, seed=4)
    x = gen.normal(size=(10, 4))
    logits, _ = nn.forward(model, x)
    collapse = np.array_equal(
        uncertainty.mc_predict(model, x, n_samples=25, seed=1).probs,
        nn.softmax(logits),
    )
    verdict(3, "MC-dropout invariants", ok and collapse,
            f"simplex/bounds={ok} zero-dropout collapse={collapse}")


# -- criterion 4: training-loop structure ------------------------------------

def test_criterion_4_algorithm_structure():
    gen = np.random.default_rng(13)

    # full balanced batches carry exactly B/2 rows from each side
    balance_ok = True
    x = gen.random((400, 2))
    y = gen.integers(0, 2, size=400)
    for trial in range(10):
        ids = gen.permutation(400)
        cut = int(gen.integers(50, 350))
        batches = training.balanced_batches(
            x, y, ids[:cut], ids[cut:], batch_size=32, seed=trial
        )
        for batch in batches:
            if len(batch) == 32:
                balance_ok &= int(np.sum(batch.membership == losses.CORRECT_SET)) == 16
                balance_ok &= int(np.sum(batch.membership == losses.WRONG_SET)) == 16

    # partition is recomputed with the current epoch tag
    model = nn.MlpModel.init([2, 8, 2], dropout_rate=0.2, seed=5)
    partition_ok = all(
        training.partition(model, x, y, epoch=e).epoch == e for e in range(1, 6)
    )

    # stratified subsample counts follow largest-remainder apportionment
    strat_ok = True
    for trial in range(10):
        k = int(gen.integers(2, 5))
        sizes = [int(s) for s in gen.integers(5, 60, size=k)]
        labels = np.concatenate([np.full(s, c) for c, s in enumerate(sizes)])
        ids = np.arange(len(labels))
        target = int(gen.integers(1, len(labels)))
        pick = training.stratified_subsample(ids, target, labels, seed=trial)
        counts = [int(np.sum(labels[pick] == c)) for c in range(k)]
        strat_ok &= counts == apportion_largest_remainder(sizes, target)

    # zero learning rate leaves the returned model parameter-identical
    ds = data.generate_dataset("gaussian_blobs", 300, 0.1, seed=3)
    schedule = training.TrainingSchedule(
        pretrain_epochs=5, euat_epochs=4, pretrain_lr=0.1, euat_lr=0.0, batch_size=32
    )
    pre = training.ce_family_train(
        nn.MlpModel.init([2, 8, 2], 0.2, seed=6), *ds.split("train"), schedule,
        epochs=schedule.pretrain_epochs, seed=7,
    )
    out = training.euat_train(
        pre.model, *ds.split("train"), *ds.split("validation"), schedule=schedule,
        n_mc=4, seed=8
    )
    frozen_ok = parameters_equal(out.model, pre.model)

    verdict(
        4, "training-loop structure",
        balance_ok and partition_ok and strat_ok and frozen_ok,
        f"balance={balance_ok} partition={partition_ok} "
        f"apportion={strat_ok} zero-lr={frozen_ok}",
    )


# -- criterion 5: separation trend on overlapping Gaussians ------------------

@pytest.fixture(scope="module")
def gaussian_trend_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("trend")
    results = {"euat": [], "ce": []}
    wall = []
    for seed in range(5):
        t0 = time.perf_counter()
        for method in ("euat", "ce"):
            manifest = run_experiment(
                presets.gaussian_trend_config(method, seed), out / f"{method}-{seed}"
            )
            results[method].append(manifest["reports"]["clean"])
        wall.append(time.perf_counter() - t0)
    return results, wall


def test_criterion_5_separation_trend(gaussian_trend_runs):
    results, wall = gaussian_trend_runs
    med = lambda key, m: float(np.median([r[key] for r in results[m]]))
    w1_euat, w1_ce = med("wasserstein", "euat"), med("wasserstein", "ce")
    uauc_euat, uauc_ce = med("uauc", "euat"), med("uauc", "ce")
    runtime_ok = max(wall) < 600.0
    verdict(
        5, "separation trend (overlapping Gaussians, 5 seeds)",
        w1_euat >= 1.2 * w1_ce and uauc_euat > uauc_ce and runtime_ok,
        f"W1 {w1_euat:.3f} vs {w1_ce:.3f} (x{w1_euat / w1_ce:.2f}), "
        f"uAUC {uauc_euat:.4f} vs {uauc_ce:.4f}, "
        f"max {max(wall):.0f}s/seed",
    )


# -- criterion 6: flipping trend on the binary task --------------------------

@pytest.fixture(scope="module")
def flipping_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("flip")
    results = {"euat": [], "ce": []}
    for seed in range(5):
        for method in ("euat", "ce"):
            manifest = run_experiment(
                presets.binary_flipping_config(method, seed), out / f"{method}-{seed}"
            )
            results[method].append(manifest["reports"]["flip"])
    return results


def test_criterion_6_flipping_trend(flipping_runs):
    gains = {
        m: [r["error_without_flip"] - r["error_with_flip"] for r in flipping_runs[m]]
        for m in ("euat", "ce")
    }
    holds = sum(
        r["error_with_flip"] <= r["error_without_flip"] + 1e-12
        for r in flipping_runs["euat"]
    )
    med_euat, med_ce = float(np.median(gains["euat"])), float(np.median(gains["ce"]))
    verdict(
        6, "flipping trend (binary task, 5 seeds)",
        holds >= 4 and med_euat > med_ce,
        f"flip never hurts in {holds}/5 seeds, "
        f"median gain {med_euat:+.3f} vs {med_ce:+.3f}",
    )


# -- criterion 7: gradient-sign attack contract ------------------------------

def attack_probe_config(method, seed):
    return ExperimentConfig.from_dict(
        {
            "method": method,
            "seed": seed,
            "dataset": {
                "kind": "gaussian_blobs",
                "n": 600,
                "noise": presets.GAUSSIAN_TREND_NOISE,
                "dim": 16,
                "val_fraction": 0.15,
                "test_fraction": 0.3,
            },
            "model": {"hidden": [16], "dropout_rate": 0.2},
            "schedule": {
                "pretrain_epochs": 8,
                "euat_epochs": 8,
                "pretrain_lr": 0.05,
                "euat_lr": 0.05,
                "batch_size": 32,
                "train_mc_samples": 2,
                "selection_metric": "error",
            },
            "mc_samples": 8,
            "ensemble_members": 3,
        }
    )


def test_criterion_7_attack_contract():
    gen = np.random.default_rng(17)

    # exact L-inf bound and zero-epsilon identity on raw models
    bound_ok, identity_ok = True, True
    cfg = robustness.AttackConfig(epsilon=4.0 / 255.0)
    for seed in range(5):
        model = nn.MlpModel.init([6, 10, 3], dropout_rate=0.3, seed=seed)
        x = gen.random((30, 6))
        y = gen.integers(0, 3, size=30)
        adv = robustness.fgsm([model], x, y, cfg)
        bound_ok &= bool(np.max(np.abs(adv - x)) <= cfg.epsilon)
        zero = robustness.fgsm([model], x, y, robustness.AttackConfig(epsilon=0.0))
        identity_ok &= np.array_equal(zero, x)

    # adversarial test error >= clean test error, per-method seed median
    methods = ("euat", "ce", "ce_pe", "calibrated_ce", "ensemble")
    degradation_ok = True
    detail = []
    for method in methods:
        diffs = []
        for seed in range(5):
            config = attack_probe_config(method, seed)
            dataset = data.generate_dataset(
                config.dataset.kind, config.dataset.n, config.dataset.noise,
                rng.derive_seed(config.seed, "data"), config.dataset.class_count,
                config.dataset.val_fraction, config.dataset.test_fraction,
                config.dataset.dim,
            )
            from euatlab.experiment import train_method

            trained = train_method(config, dataset)
            x_test, y_test = dataset.split("test")
            eval_seed = rng.derive_seed(seed, "attack-compare")
            clean = trained.predictor.records(x_test, y_test, eval_seed)
            adv_x = trained.predictor.attacked(x_test, y_test, config.attack)
            bound_ok &= bool(np.max(np.abs(adv_x - x_test)) <= config.attack.epsilon)
            adv = trained.predictor.records(adv_x, y_test, eval_seed)
            diffs.append(metrics.error_rate(adv) - metrics.error_rate(clean))
        med = float(np.median(diffs))
        degradation_ok &= med >= 0.0
        detail.append(f"{method}:{med:+.3f}")

    verdict(
        7, "gradient-sign attack contract",
        bound_ok and identity_ok and degradation_ok,
        f"bound={bound_ok} identity={identity_ok} adv-clean medians " + " ".join(detail),
    )


# -- criterion 8: isotonic calibration ---------------------------------------

def test_criterion_8_isotonic_calibration():
    gen = np.random.default_rng(19)

    monotone_ok, oracle_ok = True, True
    for trial in range(10):
        conf = np.sort(gen.random(25)) + np.arange(25) * 1e-9
        y = (gen.random(25) < conf).astype(float)
        mapping = isotonic_fit(conf, y)
        grid = mapping(np.linspace(0, 1, 1000))
        monotone_ok &= bool(np.all(np.diff(grid) >= -1e-15))
        oracle_ok &= bool(np.max(np.abs(mapping.levels - isotonic_nnls(y))) < 1e-6)

    argmax_ok = True
    from euatlab.baselines import IsotonicMap

    maps = [
        IsotonicMap(np.array([0.0, 1.0]), np.array([0.0, 0.25])),
        IsotonicMap(np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.2, 0.95])),
    ]
    for mapping in maps:
        assert np.all(np.diff(mapping.levels) > 0)
        for _ in range(200):
            probs = gen.dirichlet(np.ones(int(gen.integers(2, 6))))[None, :]
            out = isotonic_apply(mapping, probs)
            argmax_ok &= int(np.argmax(out)) == int(np.argmax(probs))

    verdict(
        8, "isotonic calibration",
        monotone_ok and oracle_ok and argmax_ok,
        f"monotone={monotone_ok} qp-oracle={oracle_ok} argmax={argmax_ok}",
    )


# -- criterion 9: determinism -------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    config = ExperimentConfig.from_dict(
        {
            "method": "euat",
            "seed": 5,
            "dataset": {"kind": "gaussian_blobs", "n": 200, "noise": 0.08},
            "model": {"hidden": [8], "dropout_rate": 0.3},
            "schedule": {
                "pretrain_epochs": 3, "euat_epochs": 3,
                "pretrain_lr": 0.1, "euat_lr": 0.01, "batch_size": 32,
            },
            "mc_samples": 4,
        }
    )
    run_experiment(config, tmp_path / "orig")
    result = replay(tmp_path / "orig" / "manifest.json", tmp_path / "replay")

    image = np.array([[[0, 7, 255], [13, 128, 64]]], dtype=np.uint8)
    ipath, lpath = tmp_path / "im.idx", tmp_path / "lb.idx"
    ipath.write_bytes(
        struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 1, 2, 3) + image.tobytes()
    )
    lpath.write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, 1) + b"\x04")
    ds = data.load_idx(ipath, lpath, val_fraction=0.0, test_fraction=0.0)
    idx_ok = np.array_equal(ds.inputs[0] * 255.0, image.reshape(-1).astype(np.float64))
    idx_ok &= ds.labels[0] == 4

    verdict(
        9, "determinism (manifest replay + IDX round trip)",
        result["identical"] and idx_ok,
        f"replay={result['identical']} idx={idx_ok}",
    )
