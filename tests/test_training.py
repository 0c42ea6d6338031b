import numpy as np
import pytest

from euatlab import data, metrics, nn, rng, training
from euatlab.losses import CORRECT_SET, WRONG_SET, LabeledBatch
from oracles import apportion_largest_remainder, naive_forward


def blob_data(seed=0, n=300, noise=0.03, class_count=2):
    ds = data.generate_dataset("gaussian_blobs", n, noise, seed, class_count)
    return ds


def constant_model(class_count, favored=0, d=2):
    bias = np.zeros(class_count)
    bias[favored] = 1.0
    return nn.MlpModel(
        [nn.DenseLayer(np.zeros((class_count, d)), bias, "identity")], 0.0
    )


class TestSchedule:
    def test_default_euat_lr_is_thousandth(self):
        s = training.TrainingSchedule(pretrain_lr=0.2)
        assert s.euat_lr == pytest.approx(0.0002)

    def test_odd_batch_size_rejected(self):
        with pytest.raises(ValueError):
            training.TrainingSchedule(batch_size=63)

    def test_unknown_selection_metric_rejected(self):
        with pytest.raises(ValueError):
            training.TrainingSchedule(selection_metric="accuracy")


class TestPartition:
    def test_perfect_model_has_empty_wrong_set(self):
        ds = blob_data(noise=0.0)
        centers = data._blob_centers(2)
        w = 2.0 * centers
        b = -np.sum(centers**2, axis=1)
        model = nn.MlpModel([nn.DenseLayer(w, b, "identity")], 0.0)
        part = training.partition(model, *ds.train, epoch=3)
        assert len(part.wrong) == 0
        assert part.epoch == 3
        assert len(part.correct) == len(ds.train[1])

    def test_constant_model_on_balanced_three_classes(self):
        n = 300
        ds = blob_data(n=n, class_count=3, noise=0.0)
        x, y = ds.inputs, ds.labels
        part = training.partition(constant_model(3), x, y)
        assert len(part.wrong) == 2 * n // 3
        assert len(part.correct) == n // 3

    def test_builds_no_forward_cache(self, monkeypatch):
        def no_cache(*args, **kwargs):
            raise AssertionError("partition built a ForwardCache")

        monkeypatch.setattr(nn, "ForwardCache", no_cache)
        model = nn.MlpModel.init([2, 6, 3], dropout_rate=0.3, seed=5)
        x = np.random.default_rng(5).random((40, 2))
        part = training.partition(model, x, np.zeros(40, dtype=int))
        assert len(part.correct) + len(part.wrong) == 40

    def test_matches_row_by_row_oracle(self):
        model = nn.MlpModel.init([2, 6, 3], dropout_rate=0.0, seed=4)
        gen = np.random.default_rng(4)
        x = gen.random((100, 2))
        y = gen.integers(0, 3, size=100)
        part = training.partition(model, x, y)
        preds = naive_forward(model, x).argmax(axis=1)
        assert np.array_equal(part.correct, np.flatnonzero(preds == y))
        assert np.array_equal(part.wrong, np.flatnonzero(preds != y))
        assert len(np.intersect1d(part.correct, part.wrong)) == 0
        assert len(part.correct) + len(part.wrong) == 100


class TestStratifiedSubsample:
    def test_full_target_is_identity(self):
        ids = np.arange(40)
        labels = np.arange(40) % 4
        out = training.stratified_subsample(ids, 40, labels, seed=0)
        assert np.array_equal(np.sort(out), ids)

    def test_even_split(self):
        ids = np.arange(100)
        labels = (np.arange(100) < 50).astype(int)
        out = training.stratified_subsample(ids, 10, labels, seed=1)
        assert len(out) == 10
        assert np.sum(labels[out] == 0) == 5
        assert np.sum(labels[out] == 1) == 5

    def test_largest_remainder_apportionment(self):
        sizes = [60, 30, 10]
        labels = np.concatenate([np.full(s, k) for k, s in enumerate(sizes)])
        ids = np.arange(100)
        out = training.stratified_subsample(ids, 20, labels, seed=2)
        counts = [int(np.sum(labels[out] == k)) for k in range(3)]
        assert counts == apportion_largest_remainder(sizes, 20) == [12, 6, 2]

    def test_matches_apportionment_oracle_on_random_cases(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            k = int(gen.integers(2, 6))
            sizes = gen.integers(1, 50, size=k)
            labels = np.concatenate([np.full(s, c) for c, s in enumerate(sizes)])
            ids = np.arange(labels.size)
            target = int(gen.integers(1, labels.size))
            out = training.stratified_subsample(ids, target, labels, seed=6)
            counts = [int(np.sum(labels[out] == c)) for c in range(k)]
            assert counts == apportion_largest_remainder(list(sizes), target)
            assert len(out) == target

    def test_proportions_within_one_count(self):
        gen = np.random.default_rng(7)
        labels = gen.integers(0, 3, size=200)
        ids = np.arange(200)
        target = 37
        out = training.stratified_subsample(ids, target, labels, seed=8)
        for c in range(3):
            exact = target * np.sum(labels == c) / 200
            assert abs(np.sum(labels[out] == c) - exact) <= 1.0

    def test_oversized_target_passes_through(self):
        ids = np.arange(10)
        out = training.stratified_subsample(ids, 15, np.zeros(10, int), seed=9)
        assert np.array_equal(out, ids)

    def test_seeded_determinism(self):
        labels = np.arange(60) % 3
        ids = np.arange(60)
        a = training.stratified_subsample(ids, 21, labels, seed=10)
        b = training.stratified_subsample(ids, 21, labels, seed=10)
        assert np.array_equal(a, b)


class TestBalancedBatches:
    def make(self, n_correct, n_wrong, batch_size, seed=0):
        n = n_correct + n_wrong
        x = np.arange(n, dtype=np.float64)[:, None]  # row id in feature 0
        y = np.zeros(n, dtype=np.int64)
        correct_ids = np.arange(n_correct)
        wrong_ids = np.arange(n_correct, n)
        return x, y, correct_ids, wrong_ids, training.balanced_batches(
            x, y, correct_ids, wrong_ids, batch_size, seed
        )

    def test_exact_fit_single_batch(self):
        _, _, _, _, batches = self.make(32, 32, 64)
        assert len(batches) == 1
        assert len(batches[0]) == 64
        assert int(np.sum(batches[0].membership == CORRECT_SET)) == 32
        assert int(np.sum(batches[0].membership == WRONG_SET)) == 32

    def test_remainder_batch(self):
        _, _, _, _, batches = self.make(33, 33, 64)
        assert len(batches) == 2
        assert len(batches[1]) == 2
        assert int(np.sum(batches[1].membership == CORRECT_SET)) == 1

    def test_batch_count_for_equalized_sets(self):
        gen = np.random.default_rng(11)
        for _ in range(20):
            n = int(gen.integers(1, 200))
            b = 2 * int(gen.integers(1, 40))
            _, _, _, _, batches = self.make(n, n, b)
            assert len(batches) == -(-2 * n // b)

    def test_membership_flags_match_source_sets(self):
        x, _, correct_ids, wrong_ids, batches = self.make(20, 12, 8, seed=3)
        for batch in batches:
            for row, flag in zip(batch.inputs[:, 0].astype(int), batch.membership):
                expected = CORRECT_SET if row in correct_ids else WRONG_SET
                assert flag == expected

    def test_all_rows_appear_exactly_once(self):
        _, _, _, _, batches = self.make(25, 17, 10, seed=4)
        rows = np.concatenate([b.inputs[:, 0] for b in batches]).astype(int)
        assert np.array_equal(np.sort(rows), np.arange(42))

    def test_empty_sets_give_empty_sequence(self):
        x = np.zeros((0, 1))
        y = np.zeros(0, dtype=np.int64)
        assert training.balanced_batches(x, y, np.array([], int), np.array([], int), 8, 0) == []

    def test_odd_batch_size_rejected(self):
        with pytest.raises(ValueError):
            self.make(4, 4, 5)


def reference_selection_score(records, metric):
    """Selection score computed from the records, as before it read the
    epoch's report row."""
    if metric == "error":
        return -metrics.error_rate(records)
    if metric == "ua":
        t = metrics.tune_threshold(records, "ua")
        return metrics.uncertainty_accuracy(metrics.build_ucm(records, t))
    if metric == "uauc":
        value = metrics.uauc(records)
    elif metric == "corr":
        value = metrics.residual_correlation(records)
    elif metric == "wasserstein":
        correct = records.correct
        if correct.all() or not correct.any():
            value = None
        else:
            value = metrics.wasserstein1(
                records.uncertainty[correct], records.uncertainty[~correct]
            )
    return -np.inf if value is None else float(value)


class TestSelectionScore:
    @pytest.mark.parametrize("metric", training.SELECTION_METRICS)
    @pytest.mark.parametrize("case", ["mixed", "tied", "all_correct", "all_wrong"])
    def test_row_score_equals_record_score(self, metric, case):
        gen = np.random.default_rng(len(case))
        probs = gen.dirichlet(np.ones(3), size=50)
        if case == "tied":
            probs = np.round(probs, 1) + 1e-3
            probs /= probs.sum(axis=1, keepdims=True)
        labels = gen.integers(0, 3, size=50)
        if case == "all_correct":
            labels = probs.argmax(axis=1)
        elif case == "all_wrong":
            labels = (probs.argmax(axis=1) + 1) % 3
        records = metrics.records_from_probs(probs, labels)
        row = training._report_row(1, 0.25, records, wall_time=0.0)
        assert training.selection_score(row, metric) == reference_selection_score(
            records, metric
        )

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            training.selection_score({"ece": 0.1}, "ece")


class TestPretrain:
    def test_zero_epochs_leaves_model_unchanged(self):
        ds = blob_data()
        model = nn.MlpModel.init([2, 8, 2], dropout_rate=0.3, seed=1)
        schedule = training.TrainingSchedule(pretrain_epochs=0)
        out = training.ce_family_train(
            model, *ds.train, schedule, epochs=schedule.pretrain_epochs, seed=0
        )
        assert out.model.parameters_equal(model)
        assert out.loss_trajectory == []

    def test_separable_blobs_reach_low_error(self):
        ds = blob_data(seed=1, n=300, noise=0.02)
        model = nn.MlpModel.init([2, 16, 2], dropout_rate=0.3, seed=2)
        schedule = training.TrainingSchedule(pretrain_epochs=30, pretrain_lr=0.1)
        out = training.ce_family_train(
            model, *ds.train, schedule, epochs=schedule.pretrain_epochs, seed=3
        )
        x, y = ds.train
        err = float(np.mean(training.predict_labels(out.model, x) != y))
        assert err < 0.05

    def test_loss_trajectory_moving_average_non_increasing(self):
        # dropout-free run: the smoothed descent curve is the SGD property
        # under test, not mask noise
        ds = blob_data(seed=2, n=300, noise=0.02)
        model = nn.MlpModel.init([2, 16, 2], dropout_rate=0.0, seed=4)
        schedule = training.TrainingSchedule(pretrain_epochs=30, pretrain_lr=0.1)
        out = training.ce_family_train(
            model, *ds.train, schedule, epochs=schedule.pretrain_epochs, seed=5
        )
        traj = np.array(out.loss_trajectory)
        smooth = np.convolve(traj, np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(smooth) <= 0.0)

    def test_seeded_run_is_reproducible(self):
        ds = blob_data(seed=3, n=200)
        model = nn.MlpModel.init([2, 8, 2], dropout_rate=0.3, seed=6)
        schedule = training.TrainingSchedule(pretrain_epochs=5)
        a = training.ce_family_train(
            model, *ds.train, schedule, epochs=schedule.pretrain_epochs, seed=7
        )
        b = training.ce_family_train(
            model, *ds.train, schedule, epochs=schedule.pretrain_epochs, seed=7
        )
        assert a.model.parameters_equal(b.model)
        assert a.loss_trajectory == b.loss_trajectory


class TestEuatTrain:
    def small_setup(self, seed=0, noise=0.1, n=240):
        ds = blob_data(seed=seed, n=n, noise=noise)
        model = nn.MlpModel.init([2, 16, 2], dropout_rate=0.3, seed=seed)
        schedule = training.TrainingSchedule(
            pretrain_epochs=8, euat_epochs=5, pretrain_lr=0.1, euat_lr=0.01,
            selection_metric="uauc",
        )
        pre = training.ce_family_train(
            model, *ds.train, schedule, epochs=schedule.pretrain_epochs, seed=seed
        )
        return ds, pre.model, schedule

    def test_perfect_model_returns_input_after_skips(self):
        ds = blob_data(seed=4, noise=0.0)
        centers = data._blob_centers(2)
        model = nn.MlpModel(
            [nn.DenseLayer(2.0 * centers, -np.sum(centers**2, axis=1), "identity")],
            0.0,
        )
        schedule = training.TrainingSchedule(
            euat_epochs=10, selection_metric="error", batch_size=8
        )
        out = training.euat_train(
            model, *ds.train, *ds.validation, schedule=schedule, n_mc=4, seed=1
        )
        assert out.model.parameters_equal(model)
        skipped = [row for row in out.report if row.get("skipped")]
        assert len(skipped) == training.MAX_CONSECUTIVE_SKIPS

    def test_skipped_epochs_are_never_selected(self):
        # the training rows are fit exactly, so every error-driven epoch is
        # skipped; on noisier validation rows a skipped epoch's MC
        # evaluation outscores epoch 0, yet epoch 0 stays selected
        ds = blob_data(seed=0, noise=0.0)
        val = blob_data(seed=0, noise=0.3)
        model = nn.MlpModel.init([2, 16, 2], dropout_rate=0.3, seed=0)
        schedule = training.TrainingSchedule(pretrain_epochs=20, euat_epochs=5)
        pre = training.ce_family_train(
            model, *ds.train, schedule, epochs=schedule.pretrain_epochs, seed=0
        )
        out = training.euat_train(
            pre.model, *ds.train, *val.validation, schedule=schedule, n_mc=8, seed=1
        )
        assert all(row["skipped"] for row in out.report[1:])
        assert max(row["uauc"] for row in out.report[1:]) > out.report[0]["uauc"]
        assert out.best_epoch == 0
        assert out.model.parameters_equal(pre.model)

    def test_returned_model_attains_best_epoch_score(self):
        ds, pre, schedule = self.small_setup(seed=5)
        out = training.euat_train(
            pre, *ds.train, *ds.validation, schedule=schedule, n_mc=8, seed=2
        )
        best = out.report[out.best_epoch]
        scores = [
            row["uauc"] if row["uauc"] is not None else -np.inf for row in out.report
        ]
        assert best["uauc"] == max(scores)
        # re-evaluating the returned checkpoint at the winning epoch's seed
        # reproduces the recorded score
        records = training.evaluate_records(
            out.model, *ds.validation, 8, rng.derive_seed(2, "val-eval", out.best_epoch)
        )
        assert metrics.uauc(records) == pytest.approx(
            best["uauc"], abs=1e-12
        )

    def test_zero_lr_returns_parameter_identical_model(self):
        ds, pre, schedule = self.small_setup(seed=6)
        schedule.euat_lr = 0.0
        out = training.euat_train(
            pre, *ds.train, *ds.validation, schedule=schedule, n_mc=4, seed=3
        )
        assert out.model.parameters_equal(pre)

    def test_report_schema(self):
        ds, pre, schedule = self.small_setup(seed=7)
        out = training.euat_train(
            pre, *ds.train, *ds.validation, schedule=schedule, n_mc=4, seed=4
        )
        for row in out.report:
            for col in training.REPORT_COLUMNS:
                assert col in row
        # the loop stops once the epoch budget is spent
        assert [row["epoch"] for row in out.report] == list(
            range(schedule.euat_epochs + 1)
        )

    def test_seeded_determinism(self):
        ds, pre, schedule = self.small_setup(seed=8)
        a = training.euat_train(
            pre, *ds.train, *ds.validation, schedule=schedule, n_mc=4, seed=5
        )
        b = training.euat_train(
            pre, *ds.train, *ds.validation, schedule=schedule, n_mc=4, seed=5
        )
        assert a.model.parameters_equal(b.model)
        assert a.best_epoch == b.best_epoch

    def test_loss_trajectory_is_the_row_weighted_mean_of_each_trained_epoch(
        self, monkeypatch
    ):
        ds, pre, schedule = self.small_setup(seed=5)
        batch_counts, losses = [], []
        balanced_batches, euat_loss = training.balanced_batches, training.euat_loss

        def counting_balanced_batches(*args):
            batches = balanced_batches(*args)
            batch_counts.append(len(batches))
            return batches

        def recording_euat_loss(batch, dist):
            res = euat_loss(batch, dist)
            losses.append((res.value, len(batch)))
            return res

        monkeypatch.setattr(training, "balanced_batches", counting_balanced_batches)
        monkeypatch.setattr(training, "euat_loss", recording_euat_loss)
        out = training.euat_train(
            pre, *ds.train, *ds.validation, schedule=schedule, n_mc=4, seed=2
        )
        trained = [row for row in out.report[1:] if not row["skipped"]]
        assert len(out.loss_trajectory) == len(trained) == len(batch_counts) > 0
        expected, calls = [], iter(losses)
        for count in batch_counts:
            epoch = [next(calls) for _ in range(count)]
            total = 0.0
            for value, rows in epoch:
                total += value * rows
            expected.append(total / sum(rows for _, rows in epoch))
        assert out.loss_trajectory == expected
        assert np.all(np.isfinite(out.loss_trajectory))

    def test_unbalanced_full_batch_raises(self, monkeypatch):
        # the balanced-halves check is explicit, so it also holds under -O
        ds, pre, schedule = self.small_setup(seed=9)

        def unbalanced(inputs, labels, correct_ids, wrong_ids, batch_size, seed):
            ids = np.arange(batch_size)
            membership = np.full(batch_size, CORRECT_SET, dtype=np.int8)
            membership[0] = WRONG_SET
            return [LabeledBatch(inputs[ids], labels[ids], membership)]

        monkeypatch.setattr(training, "balanced_batches", unbalanced)
        half = schedule.batch_size // 2
        with pytest.raises(nn.EngineError, match=f"expected {half} of each side"):
            training.euat_train(
                pre, *ds.train, *ds.validation, schedule=schedule, n_mc=4, seed=6
            )


def refuse_steps_from(monkeypatch, epoch):
    """Make ``sgd_step`` refuse every step of training epoch ``epoch`` and
    later. Each epoch's validation evaluation follows its steps, so the
    number of evaluations run so far is the epoch being trained."""
    evaluations = []
    evaluate_records = training.evaluate_records

    def counting_evaluate_records(*args):
        evaluations.append(args)
        return evaluate_records(*args)

    def refusing_sgd_step(model, grads, state):
        return len(evaluations) < epoch and nn.sgd_step(model, grads, state)

    monkeypatch.setattr(training, "evaluate_records", counting_evaluate_records)
    monkeypatch.setattr(training, "sgd_step", refusing_sgd_step)


class TestDivergence:
    """A refused step ends training but keeps the validation-selected model."""

    def make(self, seed=5):
        ds = blob_data(seed=seed, n=240, noise=0.1)
        model = nn.MlpModel.init([2, 16, 2], dropout_rate=0.3, seed=seed)
        schedule = training.TrainingSchedule(
            pretrain_epochs=8, euat_epochs=8, pretrain_lr=0.1, euat_lr=0.01,
            selection_metric="uauc",
        )
        return ds, model, schedule

    def assert_selected_model_kept(self, out, ds, n_mc, seed, diverge_epoch):
        assert out.diverged
        assert [row["epoch"] for row in out.report] == list(range(diverge_epoch))
        best = out.report[out.best_epoch]
        assert best["uauc"] == max(row["uauc"] for row in out.report)
        val_seed = rng.derive_seed(seed, "val-eval", out.best_epoch)
        records = training.evaluate_records(out.model, *ds.validation, n_mc, val_seed)
        assert metrics.uauc(records) == best["uauc"]

    def test_euat_keeps_best_model(self, monkeypatch):
        ds, model, schedule = self.make()
        pre = training.ce_family_train(
            model, *ds.train, schedule, epochs=schedule.pretrain_epochs, seed=5
        )
        refuse_steps_from(monkeypatch, 4)
        out = training.euat_train(
            pre.model, *ds.train, *ds.validation, schedule=schedule, n_mc=8, seed=2
        )
        assert out.best_epoch < 3
        self.assert_selected_model_kept(out, ds, 8, 2, diverge_epoch=4)

    def test_ce_family_keeps_best_model(self, monkeypatch):
        ds, model, schedule = self.make()
        refuse_steps_from(monkeypatch, 7)
        out = training.ce_family_train(
            model, *ds.train, schedule, epochs=8, seed=5,
            val_inputs=ds.validation[0], val_labels=ds.validation[1], n_mc_eval=8,
        )
        assert out.best_epoch < 6
        assert len(out.loss_trajectory) == 6
        self.assert_selected_model_kept(out, ds, 8, 5, diverge_epoch=7)

    def test_non_finite_loss_ends_training(self, monkeypatch):
        ds, model, schedule = self.make()
        pre = training.ce_family_train(
            model, *ds.train, schedule, epochs=schedule.pretrain_epochs, seed=5
        )
        euat_loss = training.euat_loss
        calls = []

        def poisoned_euat_loss(*args, **kwargs):
            res = euat_loss(*args, **kwargs)
            calls.append(1)
            if len(calls) == 9:
                res.value = np.nan
            return res

        monkeypatch.setattr(training, "euat_loss", poisoned_euat_loss)
        out = training.euat_train(
            pre.model, *ds.train, *ds.validation, schedule=schedule, n_mc=8, seed=2
        )
        assert out.diverged
        assert len(calls) == 9
        records = training.evaluate_records(
            out.model, *ds.validation, 8, rng.derive_seed(2, "val-eval", out.best_epoch)
        )
        assert metrics.uauc(records) == out.report[out.best_epoch]["uauc"]

    def test_unscored_run_keeps_last_accepted_step(self, monkeypatch):
        ds, model, schedule = self.make()
        accepted, at_refusal = [], []

        def sgd_step_refusing_the_eleventh(model, grads, state):
            if len(accepted) == 10:
                at_refusal.append(model.copy())
                return False
            accepted.append(1)
            return nn.sgd_step(model, grads, state)

        monkeypatch.setattr(training, "sgd_step", sgd_step_refusing_the_eleventh)
        out = training.ce_family_train(
            model, *ds.train, schedule, epochs=schedule.pretrain_epochs, seed=5
        )
        assert out.diverged
        assert out.report == [] and out.best_epoch is None
        assert out.model.parameters_equal(at_refusal[0])
