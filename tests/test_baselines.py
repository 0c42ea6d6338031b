import math

import numpy as np
import pytest

from euatlab import baselines, data, nn, rng, training, uncertainty
from euatlab.experiment import ExperimentConfig, Predictor, build_dataset, train_method
from oracles import isotonic_apply_rows, isotonic_nnls, parameters_equal


class TestIsotonicFit:
    def test_monotone_targets_interpolate(self):
        conf = np.array([0.1, 0.3, 0.6, 0.9])
        correct = np.array([0.0, 0.0, 1.0, 1.0])
        mapping = baselines.isotonic_fit(conf, correct)
        assert np.allclose(mapping(conf), correct, atol=1e-12)

    def test_single_violation_pools_to_half(self):
        mapping = baselines.isotonic_fit(np.array([0.2, 0.8]), np.array([1.0, 0.0]))
        assert np.allclose(mapping.levels, [0.5, 0.5], atol=1e-15)

    def test_matches_quadratic_program_oracle(self):
        gen = np.random.default_rng(0)
        for trial in range(10):
            conf = np.sort(gen.random(25))
            conf += np.arange(25) * 1e-9  # make breakpoints unique
            y = (gen.random(25) < conf).astype(float)
            mapping = baselines.isotonic_fit(conf, y)
            expected = isotonic_nnls(y)
            assert np.max(np.abs(mapping.levels - expected)) < 1e-6, f"trial {trial}"

    def test_duplicate_confidences_pool_targets(self):
        conf = np.array([0.5, 0.5, 0.9, 0.9])
        y = np.array([0.0, 1.0, 1.0, 1.0])
        mapping = baselines.isotonic_fit(conf, y)
        assert np.allclose(mapping.breakpoints, [0.5, 0.9])
        assert np.allclose(mapping.levels, [0.5, 1.0])

    def test_non_decreasing_on_dense_grid(self):
        gen = np.random.default_rng(1)
        conf = gen.random(60)
        y = (gen.random(60) < 0.5).astype(float)
        mapping = baselines.isotonic_fit(conf, y)
        grid = np.linspace(0.0, 1.0, 1000)
        values = mapping(grid)
        assert np.all(np.diff(values) >= -1e-15)
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            baselines.isotonic_fit(np.array([0.5]), np.array([1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["breakpoints", "levels"])
def test_non_finite_isotonic_map_rejected(field, bad):
    doc = {"breakpoints": np.array([0.0, 1.0]), "levels": np.array([0.0, 1.0])}
    doc[field][1 if bad > 0 else 0] = bad
    with pytest.raises(ValueError, match="finite"):
        baselines.IsotonicMap(**doc)


class TestIsotonicApply:
    def identity_map(self):
        return baselines.IsotonicMap(np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def test_identity_map_leaves_distribution_unchanged(self):
        probs = np.array([[0.7, 0.2, 0.1]])
        out = baselines.isotonic_apply(self.identity_map(), probs)
        assert np.array_equal(out, probs)

    def test_flat_half_map_on_binary(self):
        mapping = baselines.IsotonicMap(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        out = baselines.isotonic_apply(mapping, np.array([[0.9, 0.1]]))
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-12)
        assert out[0, 0] >= out[0, 1]  # argmax preserved through the tie

    def test_hand_rescaled_three_class_case(self):
        mapping = baselines.IsotonicMap(np.array([0.0, 1.0]), np.array([-0.2, 0.8]))
        # maps 0.8 -> 0.6; remaining classes scale by (1-0.6)/(1-0.8) = 2
        out = baselines.isotonic_apply(mapping, np.array([[0.8, 0.15, 0.05]]))
        assert np.allclose(out, [[0.6, 0.3, 0.1]], atol=1e-12)

    def test_argmax_preserved_under_strictly_increasing_maps(self):
        gen = np.random.default_rng(2)
        # include strongly deflating maps, which would dethrone the top
        # class under plain rescaling
        maps = [
            baselines.IsotonicMap(np.array([0.0, 1.0]), np.array([0.0, 0.3])),
            baselines.IsotonicMap(
                np.array([0.0, 0.4, 1.0]), np.array([0.05, 0.1, 0.9])
            ),
            self.identity_map(),
        ]
        for mapping in maps:
            assert np.all(np.diff(mapping.levels) > 0)
            for _ in range(50):
                probs = gen.dirichlet(np.ones(4))[None, :]
                out = baselines.isotonic_apply(mapping, probs)
                assert int(np.argmax(out)) == int(np.argmax(probs))
                assert out.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(out >= 0.0)

    def test_batch_apply(self):
        probs = np.random.default_rng(3).dirichlet(np.ones(3), size=8)
        out = baselines.isotonic_apply(self.identity_map(), probs)
        assert out.shape == probs.shape

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_matches_per_row_oracle(self, k):
        gen = np.random.default_rng(40 + k)
        probs = gen.dirichlet(np.full(k, 0.5), size=300)
        probs[:5] = np.eye(k)[np.arange(5) % k]  # one-hot rows
        probs[5:10] = 0.0  # exact ties between the top two classes
        probs[5:10, 0] = probs[5:10, k - 1] = 0.5
        probs[10] = 1.0 / k  # a uniform row
        maps = [
            self.identity_map(),
            # flat maps: the floor at the tie point decides every row
            baselines.IsotonicMap(np.array([0.0, 1.0]), np.array([0.0, 0.0])),
            baselines.IsotonicMap(np.array([0.0, 1.0]), np.array([0.5, 0.5])),
        ]
        for _ in range(20):
            xs = np.sort(gen.uniform(0.0, 1.0, size=gen.integers(2, 8)))
            maps.append(baselines.IsotonicMap(xs, np.sort(gen.uniform(size=len(xs)))))
        for mapping in maps:
            out = baselines.isotonic_apply(mapping, probs)
            assert np.array_equal(out, isotonic_apply_rows(mapping, probs))
            assert np.array_equal(np.argmax(out, axis=1), np.argmax(probs, axis=1))

    def test_single_row_matches_per_row_oracle(self):
        mapping = baselines.IsotonicMap(np.array([0.0, 1.0]), np.array([0.1, 0.4]))
        for row in (np.array([[0.6, 0.3, 0.1]]), np.array([[1.0, 0.0]]),
                    np.array([[0.5, 0.5]])):
            out = baselines.isotonic_apply(mapping, row)
            assert out.shape == row.shape
            assert np.array_equal(out, isotonic_apply_rows(mapping, row))


def small_schedule(**kw):
    defaults = dict(pretrain_epochs=4, euat_epochs=2, pretrain_lr=0.1, batch_size=32)
    defaults.update(kw)
    return training.TrainingSchedule(**defaults)


def train_ce_family(model, x, y, x_val, y_val, schedule, seed, lam=0.0):
    """The CE (lam = 0) and CE+PE baselines as ``experiment.train_method``
    runs them: the full epoch budget with validation selection."""
    return training.ce_family_train(
        model, x, y, schedule, epochs=schedule.pretrain_epochs + schedule.euat_epochs,
        seed=seed, lam=lam, val_inputs=x_val, val_labels=y_val,
    )


def reference_ensemble_probs(ensemble, inputs):
    """The former ``baselines.ensemble_probs``: a running sum of member
    softmax outputs divided by the member count."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    acc = None
    for member in ensemble.members:
        logits, _ = nn.forward(member, x)
        p = nn.softmax(logits)
        acc = p if acc is None else acc + p
    return acc / len(ensemble.members)


def ensemble_config(members, **schedule):
    """A 2-8-2 ensemble on 240 blobs; ``mc_samples`` keeps its default 20,
    the ``n_mc_eval`` default of ``train_ce_family``."""
    return ExperimentConfig.from_dict({
        "method": "ensemble",
        "ensemble_members": members,
        "dataset": {"kind": "gaussian_blobs", "n": 240, "noise": 0.08},
        "model": {"hidden": [8], "dropout_rate": 0.3},
        "schedule": {"pretrain_epochs": 4, "euat_epochs": 2, "pretrain_lr": 0.1,
                     "batch_size": 32, **schedule},
    })


class TestEnsemble:
    def setup_data(self, seed=0):
        ds = data.generate_dataset("gaussian_blobs", 240, 0.08, seed=seed)
        return ds

    def test_single_member_matches_ce_baseline(self):
        # one member takes the whole budget: it is the CE baseline trained
        # from the member's seed
        config = ensemble_config(1)
        ds = build_dataset(config)
        ens = train_method(config, ds).predictor.ensemble
        seed = rng.derive_seed(config.seed, "ensemble-member", 0)
        ce = train_ce_family(
            nn.MlpModel.init([2, 8, 2], 0.3, seed=seed),
            *ds.split("train"), *ds.split("validation"), config.schedule, seed=seed,
        )
        assert ens.seeds == [seed]
        assert parameters_equal(ens.members[0], ce.model)

    def test_identical_seeds_give_identical_members(self):
        ds = self.setup_data(seed=1)
        members = [
            training.ce_family_train(
                nn.MlpModel.init([2, 8, 2], 0.3, seed=7), *ds.split("train"),
                small_schedule(), epochs=2, seed=7,
                val_inputs=ds.split("validation")[0],
                val_labels=ds.split("validation")[1],
            ).model
            for _ in range(3)
        ]
        ens = baselines.Ensemble(members, [7, 7, 7])
        assert parameters_equal(ens.members[0], ens.members[1])
        assert parameters_equal(ens.members[0], ens.members[2])
        x = ds.split("test")[0][:5]
        single = uncertainty.eval_predict_probs([ens.members[0]], x)
        combined = uncertainty.eval_predict_probs(ens.members, x)
        assert np.allclose(combined, single, atol=1e-15)

    def test_prediction_is_hand_averaged_member_mean(self):
        members = [nn.MlpModel.init([2, 6, 3], 0.0, seed=s) for s in (1, 2, 3)]
        ens = baselines.Ensemble(members, [1, 2, 3])
        x = np.random.default_rng(4).random((7, 2))
        expected = np.zeros((7, 3))
        for m in members:
            logits, _ = nn.forward(m, x)
            expected += nn.softmax(logits)
        expected /= 3.0
        dist = uncertainty.eval_predict(ens.members, x)
        assert np.max(np.abs(dist.probs - expected)) < 1e-12
        assert dist.sample_count == 3

    @pytest.mark.parametrize("n_members", [1, 3, 5])
    def test_prediction_equals_ensemble_probs_exactly(self, n_members):
        members = [nn.MlpModel.init([4, 16, 3], 0.3, seed=s) for s in range(n_members)]
        ens = baselines.Ensemble(members, list(range(n_members)))
        x = np.random.default_rng(9).random((25, 4))
        dist = uncertainty.eval_predict(ens.members, x)
        assert (dist.probs == reference_ensemble_probs(ens, x)).all()
        assert (Predictor(ensemble=ens).probs(x, seed=0) == dist.probs).all()
        for member, (stack, _) in zip(members, dist.grad_passes, strict=True):
            single = reference_ensemble_probs(baselines.Ensemble([member], [0]), x)
            assert stack.shape == (1, *single.shape) and (stack[0] == single).all()
        one = uncertainty.eval_predict(ens.members, x[:1])
        assert (one.probs == reference_ensemble_probs(ens, x[:1])).all()
        assert [p.shape for p, _ in one.grad_passes] == [(1, 1, 3)] * n_members
        with pytest.raises(nn.EngineError, match="2-d"):
            uncertainty.eval_predict(ens.members, x[0])

    def test_two_opposed_members_give_uniform(self):
        a = nn.MlpModel([nn.DenseLayer(np.zeros((2, 1)), np.array([40.0, 0.0]), "identity")], 0.0)
        b = nn.MlpModel([nn.DenseLayer(np.zeros((2, 1)), np.array([0.0, 40.0]), "identity")], 0.0)
        dist = uncertainty.eval_predict([a, b], np.zeros((1, 1)))
        assert np.allclose(dist.probs, [[0.5, 0.5]], atol=1e-12)
        assert uncertainty.entropy(dist.probs)[0] == pytest.approx(math.log(2.0))

    def test_ensemble_entropy_jensen(self):
        members = [nn.MlpModel.init([2, 6, 4], 0.0, seed=s) for s in (5, 6, 7)]
        ens = baselines.Ensemble(members, [5, 6, 7])
        x = np.random.default_rng(8).random((20, 2))
        dist = uncertainty.eval_predict(ens.members, x)
        h_mean = uncertainty.entropy(dist.probs)
        per_member = np.concatenate([p for p, _ in dist.grad_passes])
        mean_h = uncertainty.entropy(per_member).mean(axis=0)
        assert np.all(h_mean >= mean_h - 1e-12)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            baselines.Ensemble([], [])

    def test_budget_split_across_members(self):
        config = ensemble_config(3, pretrain_epochs=6, euat_epochs=6)
        outcomes = train_method(config, build_dataset(config)).member_outcomes
        assert len(outcomes) == 3
        for out in outcomes:
            assert len(out.loss_trajectory) == 4  # 12 total epochs / 3 members


class TestCeFamily:
    def test_lambda_zero_reproduces_ce_bit_exactly(self):
        ds = data.generate_dataset("gaussian_blobs", 200, 0.08, seed=3)
        schedule = small_schedule()
        a = train_ce_family(
            nn.MlpModel.init([2, 8, 2], 0.3, seed=9), *ds.split("train"),
            *ds.split("validation"),
            schedule, seed=11,
        )
        b = train_ce_family(
            nn.MlpModel.init([2, 8, 2], 0.3, seed=9), *ds.split("train"),
            *ds.split("validation"),
            schedule, seed=11, lam=0.0,
        )
        assert a.loss_trajectory == b.loss_trajectory
        assert parameters_equal(a.model, b.model)
        assert a.best_epoch == b.best_epoch

    def test_both_paths_emit_identical_report_schema(self):
        ds = data.generate_dataset("gaussian_blobs", 200, 0.08, seed=4)
        schedule = small_schedule()
        a = train_ce_family(
            nn.MlpModel.init([2, 8, 2], 0.3, seed=1), *ds.split("train"),
            *ds.split("validation"),
            schedule, seed=1,
        )
        b = train_ce_family(
            nn.MlpModel.init([2, 8, 2], 0.3, seed=1), *ds.split("train"),
            *ds.split("validation"),
            schedule, seed=1, lam=1.0,
        )
        assert [set(r) for r in a.report] == [set(r) for r in b.report]

    def test_negative_lambda_rejected(self):
        ds = data.generate_dataset("gaussian_blobs", 100, 0.08, seed=5)
        with pytest.raises(ValueError):
            train_ce_family(
                nn.MlpModel.init([2, 8, 2], 0.3, seed=1), *ds.split("train"),
                *ds.split("validation"),
                small_schedule(), seed=1, lam=-1.0,
            )
