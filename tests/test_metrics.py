import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata, wasserstein_distance

from euatlab import metrics
from oracles import ece_recount, naive_ece, pairwise_auc, transport_w1


def make_records(correct, uncertainty, confidence=None, residual=None):
    correct = np.asarray(correct, dtype=bool)
    n = len(correct)
    true = np.zeros(n, dtype=np.int64)
    pred = np.where(correct, 0, 1).astype(np.int64)
    if confidence is None:
        confidence = np.full(n, 0.5)
    if residual is None:
        residual = 1.0 - np.asarray(confidence, dtype=np.float64)
    return metrics.EvalRecords(
        true_label=true,
        pred_label=pred,
        uncertainty=np.asarray(uncertainty, dtype=np.float64),
        confidence=np.asarray(confidence, dtype=np.float64),
        residual=np.asarray(residual, dtype=np.float64),
    )


def random_records(seed, n, p_wrong=0.4):
    gen = np.random.default_rng(seed)
    return make_records(
        correct=gen.random(n) > p_wrong,
        uncertainty=gen.random(n),
        confidence=gen.random(n),
        residual=gen.random(n),
    )


class TestUcm:
    def test_all_correct_all_certain(self):
        r = make_records([True] * 7, [0.0] * 7)
        ucm = metrics.build_ucm(r, 0.5)
        assert (ucm.tc, ucm.tu, ucm.fc, ucm.fu) == (7, 0, 0, 0)

    def test_all_wrong_all_uncertain(self):
        r = make_records([False] * 5, [1.0] * 5)
        ucm = metrics.build_ucm(r, 0.5)
        assert (ucm.tc, ucm.tu, ucm.fc, ucm.fu) == (0, 5, 0, 0)

    def test_mixed_case_against_hand_count(self):
        correct = [True, True, False, False, True, False, True, False, True, True]
        unc = [0.1, 0.8, 0.9, 0.2, 0.5, 0.55, 0.6, 0.5, 0.0, 1.0]
        t = 0.5
        ucm = metrics.build_ucm(make_records(correct, unc), t)
        tc = tu = fc = fu = 0
        for ok, u in zip(correct, unc):
            if ok and u <= t:
                tc += 1
            elif ok:
                fu += 1
            elif u > t:
                tu += 1
            else:
                fc += 1
        assert (ucm.tc, ucm.tu, ucm.fc, ucm.fu) == (tc, tu, fc, fu)
        assert ucm.total == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.build_ucm(make_records([], []), 0.5)


class TestUncertaintyAccuracy:
    def test_arithmetic(self):
        ucm = metrics.UncertaintyConfusionMatrix(tc=8, tu=1, fc=1, fu=0)
        assert metrics.uncertainty_accuracy(ucm) == pytest.approx(0.9)

    def test_perfect_separation(self):
        r = make_records([True, True, False], [0.1, 0.2, 0.9])
        assert metrics.uncertainty_accuracy(metrics.build_ucm(r, 0.5)) == 1.0

    def test_recount_on_random_records(self):
        r = random_records(0, 50)
        t = 0.37
        ucm = metrics.build_ucm(r, t)
        certain = r.uncertainty <= t
        expected = (np.sum(r.correct & certain) + np.sum(~r.correct & ~certain)) / 50
        assert metrics.uncertainty_accuracy(ucm) == pytest.approx(float(expected))


class TestUauc:
    def test_perfectly_separated(self):
        r = make_records([False, True], [0.9, 0.1])
        assert metrics.uauc(r) == 1.0

    def test_all_ties_is_half(self):
        r = make_records([True, False, True, False], [0.3] * 4)
        assert metrics.uauc(r) == 0.5

    def test_matches_pairwise_brute_force(self):
        r = random_records(1, 30)
        expected = pairwise_auc(r.uncertainty[~r.correct], r.uncertainty[r.correct])
        assert metrics.uauc(r) == expected

    def test_ties_match_brute_force(self):
        gen = np.random.default_rng(2)
        r = make_records(gen.random(40) > 0.5, gen.integers(0, 5, size=40) / 4.0)
        expected = pairwise_auc(r.uncertainty[~r.correct], r.uncertainty[r.correct])
        assert metrics.uauc(r) == expected

    def test_monotone_transform_invariance(self):
        r = random_records(3, 25)
        base = metrics.uauc(r)
        transformed = make_records(r.correct, np.tanh(3.0 * r.uncertainty))
        assert metrics.uauc(transformed) == base

    def test_degenerate_returns_none(self):
        assert metrics.uauc(make_records([True, True], [0.1, 0.2])) is None

    def test_nan_uncertainty_gives_nan(self):
        r = make_records([True, False, True, False], [0.1, np.nan, 0.3, 0.4])
        assert np.isnan(metrics.uauc(r))


def midrank_cases():
    gen = np.random.default_rng(19)
    cases = {
        "ties": np.array([0.3, 0.1, 0.3, 0.2, 0.1, 0.3]),
        "all-equal": np.full(7, 0.25),
        "one-row": np.array([0.4]),
        "infinities": np.array([np.inf, 0.2, -np.inf, np.inf, 0.0, -np.inf]),
        "signed-zeros": np.array([0.0, -0.0, 0.5, -0.0, 0.0, -0.5]),
    }
    for n in (100, 450, 2000):
        cases[f"random-{n}"] = gen.random(n)
        cases[f"random-ties-{n}"] = gen.integers(0, 9, size=n) / 8.0
    return cases


class TestMidranks:
    @pytest.mark.parametrize("case", sorted(midrank_cases()))
    def test_equals_scipy_rankdata(self, case):
        values = midrank_cases()[case]
        assert np.array_equal(metrics._midranks(values), rankdata(values))

    def test_nan_makes_every_rank_nan(self):
        values = np.array([0.2, np.nan, 0.1])
        assert np.isnan(metrics._midranks(values)).all()
        assert np.isnan(rankdata(values)).all()


class TestEce:
    def test_confident_and_correct_is_zero(self):
        r = make_records([True] * 10, [0.0] * 10, confidence=[1.0] * 10)
        assert metrics.ece(r, 15) == 0.0

    def test_single_bin_arithmetic(self):
        correct = [True, True, True, False, False]
        conf = [0.9, 0.75, 0.7, 0.85, 0.8]
        r = make_records(correct, [0.0] * 5, confidence=conf)
        assert metrics.ece(r, 1) == pytest.approx(abs(0.6 - 0.8), abs=1e-12)

    def test_matches_binning_oracle(self):
        r = random_records(4, 100)
        expected = ece_recount(list(r.confidence), list(r.correct), 15)
        assert metrics.ece(r, 15) == pytest.approx(expected, abs=1e-12)

    def test_boundary_convention(self):
        # confidence exactly at b/n goes to the lower bin; 0 goes to bin 0
        r = make_records([True, False], [0.0, 0.0], confidence=[0.2, 0.0])
        # n_bins=5: 0.2 in bin 0 (0, 0.2]; 0.0 forced into bin 0
        # bin 0 has acc 0.5, conf 0.1 -> ece = 1.0 * 0.4
        assert metrics.ece(r, 5) == pytest.approx(0.4, abs=1e-12)

    def test_empty_bins_contribute_nothing(self):
        r = make_records([True] * 4, [0.0] * 4, confidence=[0.95] * 4)
        assert metrics.ece(r, 15) == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize("seed", range(40))
    def test_bit_identical_to_one_mask_per_bin(self, seed):
        # sizes up to 600 rows put more than one pairwise-sum block in a bin;
        # a fifth of the confidences sit at exactly 0, 1 or a bin edge
        gen = np.random.default_rng(seed)
        n, n_bins = int(gen.integers(1, 600)), int(gen.integers(1, 30))
        confidence = gen.uniform(0.1, 1.0, n)
        pick = gen.random(n)
        confidence[pick < 0.05] = 0.0
        confidence[(pick >= 0.05) & (pick < 0.1)] = 1.0
        edge = (pick >= 0.1) & (pick < 0.2)
        confidence[edge] = gen.integers(0, n_bins + 1, int(edge.sum())) / n_bins
        r = make_records(gen.random(n) > 0.3, gen.random(n), confidence=confidence)
        assert metrics.ece(r, n_bins) == naive_ece(r, n_bins)


class TestWasserstein:
    def test_identical_samples(self):
        a = np.array([0.1, 0.4, 0.7])
        assert metrics.wasserstein1(a, a.copy()) == 0.0

    def test_point_masses(self):
        assert metrics.wasserstein1([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_unequal_sizes_match_transport_oracle(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            a = gen.random(3)
            b = gen.random(5)
            assert metrics.wasserstein1(a, b) == pytest.approx(
                transport_w1(a, b), abs=1e-12
            )

    def test_matches_scipy(self):
        gen = np.random.default_rng(6)
        for _ in range(10):
            a = gen.random(gen.integers(2, 40))
            b = gen.random(gen.integers(2, 40))
            assert metrics.wasserstein1(a, b) == pytest.approx(
                wasserstein_distance(a, b), abs=1e-12
            )

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=12),
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=12),
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=12),
    )
    def test_metric_properties(self, a, b, c):
        a, b, c = np.array(a), np.array(b), np.array(c)
        assert metrics.wasserstein1(a, a) == 0.0
        assert metrics.wasserstein1(a, b) == pytest.approx(
            metrics.wasserstein1(b, a), abs=1e-12
        )
        assert metrics.wasserstein1(a, c) <= (
            metrics.wasserstein1(a, b) + metrics.wasserstein1(b, c) + 1e-12
        )

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            metrics.wasserstein1([], [0.5])


class TestResidualCorrelation:
    def test_identity_relation(self):
        u = np.linspace(0.1, 0.9, 20)
        r = make_records([True] * 20, u, residual=u.copy())
        assert metrics.residual_correlation(r) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_relation(self):
        u = np.linspace(0.1, 0.9, 20)
        r = make_records([True] * 20, u, residual=1.0 - u)
        assert metrics.residual_correlation(r) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_textbook_formula(self):
        gen = np.random.default_rng(7)
        u = gen.random(20)
        res = gen.random(20)
        r = make_records([True] * 20, u, residual=res)
        n = 20
        sx, sy = res.sum(), u.sum()
        sxy = float(np.dot(res, u))
        sxx, syy = float(np.dot(res, res)), float(np.dot(u, u))
        expected = (n * sxy - sx * sy) / np.sqrt(
            (n * sxx - sx * sx) * (n * syy - sy * sy)
        )
        assert metrics.residual_correlation(r) == pytest.approx(expected, abs=1e-12)

    def test_zero_variance_is_undefined(self):
        r = make_records([True] * 5, [0.5] * 5, residual=np.linspace(0, 1, 5))
        assert metrics.residual_correlation(r) is None

    def test_binary_variant(self):
        gen = np.random.default_rng(8)
        correct = gen.random(30) > 0.5
        u = gen.random(30)
        r = make_records(correct, u)
        wrong = (~correct).astype(float)
        expected = np.corrcoef(wrong, u)[0, 1]
        assert metrics.residual_correlation(r, "binary") == pytest.approx(
            expected, abs=1e-12
        )


class TestTuneThreshold:
    def test_perfectly_separated_returns_gap_midpoint(self):
        r = make_records([True, True, False, False], [0.1, 0.2, 0.8, 0.9])
        t = metrics.tune_threshold(r, "ua")
        assert t == pytest.approx(0.5)

    def test_identical_uncertainty_majority_correct(self):
        r = make_records([True, True, True, False], [0.4] * 4)
        # all-certain (t >= 0.4) scores accuracy 0.75; candidates are {0, 1}
        assert metrics.tune_threshold(r, "ua") == 1.0

    def test_identical_uncertainty_majority_wrong(self):
        r = make_records([False, False, False, True], [0.4] * 4)
        assert metrics.tune_threshold(r, "ua") == 0.0

    def test_argmax_over_all_candidates(self):
        r = random_records(9, 60)
        t = metrics.tune_threshold(r, "ua")
        best = metrics.uncertainty_accuracy(metrics.build_ucm(r, t))
        for cand in metrics.threshold_candidates(r.uncertainty):
            other = metrics.uncertainty_accuracy(metrics.build_ucm(r, float(cand)))
            assert best >= other

    def test_tie_goes_to_smaller_threshold(self):
        # both candidates score 0.5; the sweep must return the smaller
        r = make_records([True, False], [0.3, 0.3])
        assert metrics.tune_threshold(r, "ua") == 0.0

    def test_tuned_ua_beats_trivial_thresholds(self):
        for seed in range(5):
            gen = np.random.default_rng(100 + seed)
            n = 40
            r = make_records(
                gen.random(n) > 0.4, 0.05 + 0.9 * gen.random(n)
            )  # uncertainties strictly inside (0, 1)
            t = metrics.tune_threshold(r, "ua")
            ua = metrics.uncertainty_accuracy(metrics.build_ucm(r, t))
            err = metrics.error_rate(r)
            assert ua >= max(1.0 - err, err) - 1e-12

    def test_flip_gain_objective(self):
        # wrong rows sit above 0.6, correct below: flipping there fixes all
        r = make_records(
            [True, True, False, False], [0.2, 0.3, 0.7, 0.8]
        )
        t = metrics.tune_threshold(r, "flip_gain")
        flipped_correct = np.where(r.uncertainty > t, ~r.correct, r.correct)
        assert np.all(flipped_correct)


def reference_tune_threshold(records, objective):
    """The per-candidate sweep that tune_threshold replaced: one full
    confusion matrix (or flip count) per candidate, first maximum wins."""
    def flip_gain(t):
        flipped_correct = np.where(
            records.uncertainty > t, ~records.correct, records.correct
        )
        return float(np.mean(~records.correct) - np.mean(~flipped_correct))

    def ua(t):
        return metrics.uncertainty_accuracy(metrics.build_ucm(records, t))

    score = ua if objective == "ua" else flip_gain
    best_t, best_v = None, -np.inf
    for t in metrics.threshold_candidates(records.uncertainty):
        v = score(float(t))
        if v > best_v:
            best_t, best_v = float(t), v
    return best_t


OBJECTIVES = ("ua", "flip_gain")


class TestTuneThresholdMatchesSweep:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_random_records(self, objective):
        gen = np.random.default_rng(20)
        for _ in range(300):
            n = int(gen.integers(1, 60))
            r = make_records(gen.random(n) < gen.random(), gen.random(n))
            assert metrics.tune_threshold(r, objective) == reference_tune_threshold(
                r, objective
            )

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("levels", [1, 2, 4, 10])
    def test_ties_and_quantised_uncertainties(self, objective, levels):
        gen = np.random.default_rng(21 + levels)
        for _ in range(100):
            n = int(gen.integers(2, 40))
            u = np.round(gen.random(n) * levels) / levels
            r = make_records(gen.random(n) < 0.5, u)
            assert metrics.tune_threshold(r, objective) == reference_tune_threshold(
                r, objective
            )

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("all_correct", [True, False])
    def test_one_sided_sets(self, objective, all_correct):
        u = np.random.default_rng(22).random(25)
        r = make_records([all_correct] * 25, u)
        assert metrics.tune_threshold(r, objective) == reference_tune_threshold(
            r, objective
        )

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("correct", [True, False])
    @pytest.mark.parametrize("u", [0.0, 0.37, 1.0])
    def test_single_row(self, objective, correct, u):
        r = make_records([correct], [u])
        assert metrics.tune_threshold(r, objective) == reference_tune_threshold(
            r, objective
        )

    def test_nan_uncertainty_is_never_above_threshold(self):
        r = make_records([True, True], [np.nan, 0.2])
        assert metrics.tune_threshold(r, "flip_gain") == reference_tune_threshold(
            r, "flip_gain"
        )

    def test_candidate_outside_unit_interval_rejected(self):
        r = make_records([True, False], [-0.4, 0.3])
        with pytest.raises(ValueError, match="threshold must be in"):
            metrics.tune_threshold(r, "ua")

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="unknown objective"):
            metrics.tune_threshold(random_records(23, 5), "error")


class TestHistograms:
    def test_counts_partition_the_records(self):
        r = random_records(10, 200)
        edges, c_counts, w_counts = metrics.uncertainty_histograms(r, 50)
        assert len(edges) == 51
        assert c_counts.sum() == np.sum(r.correct)
        assert w_counts.sum() == np.sum(~r.correct)


class TestSummarize:
    def test_schema_and_consistency(self):
        r = random_records(11, 80)
        report = metrics.summarize(r, threshold=0.5)
        assert report["count"] == 80
        assert report["ua"] == pytest.approx(
            metrics.uncertainty_accuracy(metrics.build_ucm(r, 0.5))
        )
        assert report["uauc"] == metrics.uauc(r)
        assert set(report["ucm"]) == {"tc", "tu", "fc", "fu"}
        assert sum(report["ucm"].values()) == 80
