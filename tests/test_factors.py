"""Unit tests for the adjustment factors and the evaluation dispatcher."""

import math
import tracemalloc

import numpy as np
import pytest

from normetric import (
    accuracy,
    mape_score,
    nmi,
    DegenerateDistributionError,
    ConfigurationError,
    DomainError,
    ShapeError,
    TaskKind,
    average_class_imbalance_ratio,
    class_imbalance_ratio,
    compose_normalized_metric,
    dimensionality_factor,
    evaluate,
    imbalance_adjustment_binary,
    imbalance_adjustment_multiclass,
    normalize_snr,
    snr_adjustment,
    snr_binary,
    snr_multiclass,
    snr_regression,
)


class TestDimensionalityFactor:
    def test_twenty_samples_per_feature_is_neutral(self):
        assert dimensionality_factor(10, 200) == 1.0

    def test_abundant_data_clips_to_one(self):
        # ratio far below 1: the recentered sigmoid is negative, max clips it
        assert dimensionality_factor(10, 10000) == 1.0

    def test_scarce_data_boost(self):
        # d=13 at n=80: sigmoid(13/4 - 1) = sigmoid(2.25)
        expected = 1.0 + (1.0 / (1.0 + math.exp(-2.25)) - 0.5)
        assert dimensionality_factor(13, 80) == pytest.approx(expected, abs=1e-12)
        assert dimensionality_factor(13, 80) == pytest.approx(1.4046505351008904, abs=1e-12)

    def test_neutral_at_exact_threshold_for_many_dims(self):
        for d in range(1, 101):
            assert dimensionality_factor(d, 20 * d) == 1.0

    def test_strictly_below_upper_bound(self):
        # a 100:1 feature-to-budget ratio is a big but unsaturated boost
        assert 1.0 < dimensionality_factor(100, 100) < 1.5
        # degenerate ratios saturate the sigmoid to the 1.5 supremum in float
        assert dimensionality_factor(1000, 1) == 1.5

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            dimensionality_factor(0, 100)
        with pytest.raises(DomainError):
            dimensionality_factor(5, 0)


class TestImbalanceBinary:
    def test_three_to_one(self):
        assert class_imbalance_ratio([75, 25]) == 3.0
        assert imbalance_adjustment_binary(3.0) == pytest.approx(1.4771212547196624, abs=1e-12)

    def test_balanced_is_neutral(self):
        assert class_imbalance_ratio([50, 50]) == 1.0
        assert imbalance_adjustment_binary(1.0) == 1.0

    def test_extreme(self):
        assert class_imbalance_ratio([1000, 1]) == 1000.0
        assert imbalance_adjustment_binary(1000.0) == 4.0

    def test_order_does_not_matter(self):
        assert class_imbalance_ratio([25, 75]) == 3.0

    def test_ten_to_one(self):
        assert imbalance_adjustment_binary(10.0) == 2.0

    def test_rejects_wrong_arity_or_empty_class(self):
        with pytest.raises(DomainError):
            class_imbalance_ratio([10, 10, 10])
        with pytest.raises(DomainError):
            class_imbalance_ratio([10, 0])


class TestImbalanceMulticlass:
    def test_balanced(self):
        assert average_class_imbalance_ratio([100, 100, 100]) == 1.0
        assert imbalance_adjustment_multiclass(1.0) == 1.0

    def test_two_to_one_pair(self):
        acir = average_class_imbalance_ratio([100, 50, 50])
        assert acir == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert imbalance_adjustment_multiclass(acir) == pytest.approx(1.1760912590556813, abs=1e-12)

    def test_nine_to_one(self):
        acir = average_class_imbalance_ratio([90, 10])
        assert acir == pytest.approx((1.0 + 1.0 / 9.0) / 2.0, abs=1e-12)

    def test_cluster_variant_matches_acir_form(self):
        def h(sizes):
            return imbalance_adjustment_multiclass(average_class_imbalance_ratio(sizes))

        assert h([60, 60, 60]) == 1.0
        assert h([120, 40, 40]) == pytest.approx(1.255272505103306, abs=1e-12)
        assert h([99, 1]) == pytest.approx(1.2966651902615312, abs=1e-12)

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            average_class_imbalance_ratio([100])
        with pytest.raises(DomainError):
            average_class_imbalance_ratio([100, 0])


class TestSnrRegression:
    def test_simple_residual(self):
        assert snr_regression([3, 4], [3, 5]) == pytest.approx(13.979400086720377, abs=1e-12)

    def test_zero_residual_is_positive_infinity(self):
        assert snr_regression([3, 4], [3, 4]) == math.inf

    def test_residual_equals_signal(self):
        assert snr_regression([3, 4], [0, 0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            snr_regression([1, 2], [1])


class TestSnrBinary:
    def test_mostly_correct_confident(self):
        y_true = [0] * 10
        y_pred = [0] * 8 + [1] * 2
        probs = [0.9] * 10
        assert snr_binary(y_true, y_pred, probs) == pytest.approx(19.030899869919438, abs=1e-12)

    def test_noise_counts_every_sample(self):
        # two perfectly confident correct, two coin-flips: noise is 0.5, not 0
        got = snr_binary([0, 0, 1, 1], [0, 0, 0, 0], [1, 1, 0.5, 0.5])
        assert got == pytest.approx(6.020599913279624, abs=1e-12)

    def test_perfect_is_positive_infinity(self):
        assert snr_binary([0, 1], [0, 1], [1.0, 1.0]) == math.inf

    def test_all_wrong_is_negative_infinity(self):
        assert snr_binary([0, 1], [1, 0], [0.8, 0.8]) == -math.inf

    def test_rejects_probabilities_outside_unit_interval(self):
        with pytest.raises(DomainError):
            snr_binary([0], [0], [1.5])


class TestSnrMulticlass:
    def test_constructed_twenty_db(self):
        """Diagonal (5,3,2) and one soft vector with squared distance 0.38."""
        y_true = [0] * 5 + [1] * 3 + [2] * 2
        probs = np.zeros((10, 3))
        probs[np.arange(10), y_true] = 1.0
        probs[0] = [0.5, 0.3, 0.2]
        assert snr_multiclass(y_true, probs) == pytest.approx(20.0, abs=1e-12)

    def test_one_hot_on_truth_is_positive_infinity(self):
        y_true = [0, 1, 2, 1]
        probs = np.zeros((4, 3))
        probs[np.arange(4), y_true] = 1.0
        assert snr_multiclass(y_true, probs) == math.inf

    def test_single_soft_sample_noise(self):
        got = snr_multiclass([0], [[0.5, 0.3, 0.2]])
        assert got == pytest.approx(10.0 * math.log10(1.0 / 0.38), abs=1e-12)

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(DomainError):
            snr_multiclass([0], [[0.5, 0.4]])


class TestNormalizeSnr:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (0.0, 0.125),
            (45.0, 0.5),
            (20.0, 0.4375),
            (30.0, 0.5),       # raw branch value 0.541667 gets clamped
            (10.0, 0.25),
            (15.0, 0.375),
            (25.0, 0.5),
            (12.5, 0.3125),
            (-3.0, 0.0),
            (math.inf, 0.5),
            (-math.inf, 0.0),
        ],
    )
    def test_band_values(self, x, expected):
        assert normalize_snr(x) == pytest.approx(expected, abs=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            normalize_snr(math.nan)

    def test_factor_from_normalized(self):
        assert snr_adjustment(0.0) == 1.0
        assert snr_adjustment(0.5) == 1.5
        assert snr_adjustment(0.4375) == 1.4375
        with pytest.raises(DomainError):
            snr_adjustment(0.6)


class TestCompose:
    def test_identity_factors(self):
        assert compose_normalized_metric(0.5, 1, 1, 1) == 0.5

    def test_cap_at_one(self):
        assert compose_normalized_metric(0.8, 1.4, 1.3, 1.2) == 1.0

    def test_heavy_imbalance_penalty(self):
        assert compose_normalized_metric(0.9, 1, 1, 4) == pytest.approx(0.225, abs=1e-15)


class TestEvaluateDispatcher:
    def test_perfect_binary_model(self):
        got = evaluate(
            TaskKind.BINARY_CLASSIFICATION, [0, 1] * 5, [0, 1] * 5, d=2, n_train=100,
            y_prob=[1.0] * 10, class_sizes=[50, 50],
        )
        assert got.dim_factor_f == 1.0
        assert got.snr_factor_g == 1.5
        assert got.imbalance_factor_h == 1.0
        assert got.normalized == 1.0

    def test_majority_predictor_paradox(self):
        """A 75%-accurate do-nothing predictor scores well below 0.75."""
        y_true = np.array([0] * 150 + [1] * 50)
        y_pred = np.zeros(200, dtype=int)
        got = evaluate(
            TaskKind.BINARY_CLASSIFICATION, y_true, y_pred, d=10, n_train=200,
            y_prob=np.full(200, 0.75), class_sizes=[150, 50],
        )
        assert got.base == 0.75
        assert got.dim_factor_f == 1.0
        assert got.snr_db == pytest.approx(10.79181246047625, abs=1e-9)
        assert got.imbalance_factor_h == pytest.approx(1.4771212547196624, abs=1e-12)
        assert got.normalized == pytest.approx(0.6447314197064155, abs=1e-9)
        assert got.normalized < got.base

    def test_regression_has_no_imbalance_penalty(self):
        got = evaluate(TaskKind.REGRESSION, [100.0, 200.0], [110.0, 180.0], d=5, n_train=100)
        assert got.imbalance_factor_h == 1.0
        assert got.imbalance_ratio == 1.0

    def test_clustering_maps_clusters_to_majority_labels(self):
        # two clean clusters, ids swapped relative to the true labels
        y_true = np.array([0, 0, 0, 1, 1, 1])
        assignments = np.array([1, 1, 1, 0, 0, 0])
        got = evaluate(TaskKind.CLUSTERING, y_true, assignments, d=2, n_train=40, class_sizes=[3, 3])
        # mapping is exact, so the one-hot vectors match truth: zero noise
        assert got.snr_db == math.inf
        assert got.snr_factor_g == 1.5
        assert got.normalized == 1.0

    def test_clustering_single_true_class_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            evaluate(TaskKind.CLUSTERING, [0, 0, 0], [0, 1, 1], d=2, n_train=10, class_sizes=[2, 1])

    def test_clustering_memory_grows_with_the_rows_not_the_id_pairs(self):
        # 5000 distinct ids on each side: a dense class x cluster table would hold 25M counts
        rng = np.random.default_rng(0)
        y_true = np.arange(5000)
        y_pred = rng.permutation(5000)
        tracemalloc.start()
        try:
            got = evaluate(TaskKind.CLUSTERING, y_true, y_pred, d=2, n_train=40, class_sizes=np.ones(5000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert got.base == 1.0 and got.snr_db == math.inf

    def test_missing_probabilities_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            evaluate(TaskKind.BINARY_CLASSIFICATION, [0, 1], [0, 1], d=1, n_train=10, class_sizes=[1, 1])

    @pytest.mark.parametrize("y_prob, ndim", [([0.5, 0.6, 0.7], 1), (0.5, 0)], ids=["1-D", "scalar"])
    def test_a_multiclass_y_prob_that_is_not_2_d_is_a_shape_error_before_any_rule(self, y_prob, ndim):
        """A 1-D y_prob once set the label range from its length: y_true's 5 broke a rule of [0, 3)."""
        with pytest.raises(ShapeError, match=fr"^y_prob must be 2-D \(samples x classes\), got ndim={ndim}$"):
            evaluate(MULTICLASS, [0, 1, 5], [0, 1, 2], 3, 100, y_prob=y_prob, class_sizes=[1, 1, 1])

    def test_missing_class_sizes_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            evaluate(TaskKind.CLUSTERING, [0, 1], [0, 1], d=1, n_train=10)

    @pytest.mark.parametrize(
        "task, y_true, y_pred, extra, metric",
        [
            (TaskKind.BINARY_CLASSIFICATION, [0, 1, 1, 0, 1], [0, 1, 0, 0, 0],
             {"y_prob": [0.9, 0.8, 0.6, 0.7, 0.55], "class_sizes": [20, 30]}, accuracy),
            (TaskKind.MULTICLASS_CLASSIFICATION, [0, 1, 2, 2], [0, 2, 2, 1],
             {"y_prob": [[0.8, 0.1, 0.1], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8], [0.3, 0.4, 0.3]],
              "class_sizes": [10, 12, 9]}, accuracy),
            (TaskKind.REGRESSION, [3.0, 5.0, 8.0], [2.5, 5.5, 9.0], {}, mape_score),
            (TaskKind.CLUSTERING, [5, 5, 9, 9, 7, 7], [-1, -1, 3, 3, 3, 0],
             {"class_sizes": [2, 3, 1]}, nmi),
        ],
        ids=["binary", "multiclass", "regression", "clustering"],
    )
    def test_base_metric_is_the_task_metric(self, task, y_true, y_pred, extra, metric):
        got = evaluate(task, y_true, y_pred, d=2, n_train=30, **extra)
        assert 0.0 < got.base < 1.0
        assert got.base == metric(y_true, y_pred)

    def test_breakdown_is_self_consistent(self):
        got = evaluate(
            TaskKind.BINARY_CLASSIFICATION, [0, 0, 1, 1], [0, 0, 0, 1], d=3, n_train=30,
            y_prob=[0.9, 0.8, 0.6, 0.7], class_sizes=[12, 18],
        )
        recomposed = min(
            1.0, got.base * got.dim_factor_f * got.snr_factor_g / got.imbalance_factor_h
        )
        assert got.normalized == pytest.approx(recomposed, abs=1e-15)


BINARY, MULTICLASS = TaskKind.BINARY_CLASSIFICATION, TaskKind.MULTICLASS_CLASSIFICATION
REGRESSION, CLUSTERING = TaskKind.REGRESSION, TaskKind.CLUSTERING
GOOD_ROWS = [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]


class TestInputRules:
    """evaluate holds each argument to the rule the predictions file's column is held to."""

    @pytest.mark.parametrize("task, arguments, message", [
        (BINARY, {"y_true": [0, 2], "y_pred": [0, 2], "y_prob": [0.9, 0.8]},
         "y_true must hold labels 0 or 1; y_true[1] is 2.0"),
        (BINARY, {"y_true": [0, 1], "y_pred": [0, np.nan], "y_prob": [0.9, 0.8]},
         "y_pred must hold labels 0 or 1; y_pred[1] is nan"),
        (BINARY, {"y_true": [0, 1], "y_pred": [0, 1], "y_prob": [np.nan, 0.8]},
         "y_prob must hold probabilities in [0, 1]; y_prob[0] is nan"),
        (BINARY, {"y_true": [0, 1], "y_pred": [0, 1], "y_prob": [0.9, 1.5]},
         "y_prob must hold probabilities in [0, 1]; y_prob[1] is 1.5"),
        (MULTICLASS, {"y_true": [0, 1, 3], "y_pred": [0, 1, 2], "y_prob": GOOD_ROWS},
         "y_true must hold integer labels in [0, 3); y_true[2] is 3.0"),
        (MULTICLASS, {"y_true": [0, 1, 2], "y_pred": [0, 1.5, 2], "y_prob": GOOD_ROWS},
         "y_pred must hold integer labels in [0, 3); y_pred[1] is 1.5"),
        (MULTICLASS, {"y_true": [0, 1, 2], "y_pred": [0, 1, 2], "y_prob": GOOD_ROWS[:2] + [[1.1, -0.1, 0.0]]},
         "y_prob must hold probabilities in [0, 1]; y_prob[2] is [1.1, -0.1, 0.0]"),
        (REGRESSION, {"y_true": [1.0, np.inf], "y_pred": [1.0, 2.0]},
         "y_true must hold finite numbers; y_true[1] is inf"),
        (REGRESSION, {"y_true": [1.0, 2.0], "y_pred": [np.nan, 2.0]},
         "y_pred must hold finite numbers; y_pred[0] is nan"),
        (CLUSTERING, {"y_true": [0, -1], "y_pred": [0, 1]},
         "y_true must hold non-negative integer labels; y_true[1] is -1.0"),
        (CLUSTERING, {"y_true": [0, 1], "y_pred": [0, 0.5]},
         "y_pred must hold integer cluster ids; y_pred[1] is 0.5"),
    ], ids=["binary-label-2", "binary-nan-label", "binary-nan-probability", "binary-probability-over-1",
            "multiclass-label-out-of-range", "multiclass-fractional-label", "multiclass-negative-probability",
            "regression-inf-truth", "regression-nan-prediction", "clustering-negative-truth",
            "clustering-fractional-id"])
    def test_a_breach_names_the_argument_and_its_first_bad_index(self, task, arguments, message):
        arguments = dict(arguments, class_sizes=[1] * (3 if task is MULTICLASS else 2))
        if task is REGRESSION:
            del arguments["class_sizes"]
        with pytest.raises(DomainError) as raised:
            evaluate(task, d=2, n_train=30, **arguments)
        assert str(raised.value) == message
