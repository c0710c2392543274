"""The library's error contract: a malformed array argument raises a NormetricError, never a bare numpy error.

CALLS lists every public callable that takes an array, with one valid call; the fuzz breaks one array argument
at a time.  test_every_public_callable_that_takes_an_array_is_fuzzed keeps the list complete against each
module's __all__.
"""

import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as npst

import normetric
from normetric import (
    Dataset, DomainError, LearnerConfig, NormetricError, ShapeError, TaskKind, accuracy,
    average_class_imbalance_ratio, class_imbalance_ratio, evaluate, fit_kmeans, fit_linear, fit_logistic,
    make_blobs, mape_score, nmi, run_curve, schedule, smooth, snr_binary, snr_multiclass, snr_regression, split,
    synthetic_expand,
)

BINARY, MULTICLASS = TaskKind.BINARY_CLASSIFICATION, TaskKind.MULTICLASS_CLASSIFICATION
REGRESSION, CLUSTERING = TaskKind.REGRESSION, TaskKind.CLUSTERING
ROWS = [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6], [0.3, 0.3, 0.4]]
X = [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.5, 0.2], [0.2, 0.9], [0.9, 0.4], [0.4, 0.6]]
LABELS = [0, 1, 0, 1, 0, 1, 1, 0]
LINEAR = fit_linear(X, [1.0, 2.0, 0.5, 3.0, 1.5, 2.5, 0.7, 1.1])
LOGISTIC = fit_logistic(X, LABELS, 2, epochs=2)
SOFTMAX = fit_logistic(X, [0, 1, 2, 1, 0, 2, 1, 0], 3, epochs=2)
KMEANS = fit_kmeans(X, 2)
CURVE = dict(sched=schedule(3, 5, 1), config=LearnerConfig(test_fraction=0.25, epochs=2))


def _dataset(task, features, target):
    return Dataset(["x0", "x1"], np.asarray(features), np.asarray(target), task, "y")


def _curve(task):
    return lambda features, target: run_curve(_dataset(task, features, target), task=task, **CURVE)


def _split(task):
    return lambda features, target: split(_dataset(task, features, target), 0.25, 0)


# every public callable that takes an array (and run_curve and split, on a Dataset's arrays): its name as the
# completeness test finds it, a call, and valid arguments by name, each of which the fuzz breaks in turn
CALLS = [
    ("accuracy", accuracy, {"y_true": [0, 1, 1, 0], "y_pred": [0, 1, 0, 0]}),
    ("mape_score", mape_score, {"y_true": [1.0, 2.0, 4.0], "y_pred": [1.5, 2.0, 3.0]}),
    ("nmi", nmi, {"labels_a": [0, 0, 1, 1], "labels_b": [1, 1, 0, 2]}),
    ("class_imbalance_ratio", class_imbalance_ratio, {"class_sizes": [3, 1]}),
    ("average_class_imbalance_ratio", average_class_imbalance_ratio, {"class_sizes": [3, 1, 2]}),
    ("snr_regression", snr_regression, {"y_true": [1.0, 2.0, 4.0], "y_pred": [1.5, 2.0, 3.0]}),
    ("snr_binary", snr_binary, {"y_true": [0, 1, 1], "y_pred": [0, 1, 0], "y_prob": [0.9, 0.6, 0.7]}),
    ("snr_multiclass", snr_multiclass, {"y_true": [0, 1, 2, 2], "y_prob": ROWS}),
    ("evaluate", lambda **kw: evaluate(BINARY, d=2, n_train=30, **kw),
     {"y_true": [0, 1, 0, 1], "y_pred": [0, 1, 1, 1], "y_prob": [0.9, 0.8, 0.6, 0.7], "class_sizes": [2, 2]}),
    ("evaluate", lambda **kw: evaluate(MULTICLASS, d=2, n_train=30, **kw),
     {"y_true": [0, 1, 2, 2], "y_pred": [0, 1, 2, 2], "y_prob": ROWS, "class_sizes": [1, 1, 2]}),
    ("evaluate", lambda **kw: evaluate(REGRESSION, d=2, n_train=30, **kw),
     {"y_true": [1.0, 2.0, 3.0], "y_pred": [1.0, 2.5, 3.0]}),
    ("evaluate", lambda **kw: evaluate(CLUSTERING, d=2, n_train=30, **kw),
     {"y_true": [0, 0, 1, 1], "y_pred": [5, 5, 5, 7], "class_sizes": [3, 1]}),
    ("fit_linear", fit_linear, {"X": X, "y": [1.0, 2.0, 0.5, 3.0, 1.5, 2.5, 0.7, 1.1]}),
    ("fit_logistic", lambda **kw: fit_logistic(n_classes=2, epochs=2, **kw), {"X": X, "y": LABELS}),
    ("fit_kmeans", lambda **kw: fit_kmeans(k=2, **kw), {"X": X}),
    ("LinearModel.predict", LINEAR.predict, {"X": X[:3]}),
    ("LogisticModel.predict_proba", LOGISTIC.predict_proba, {"X": X[:3]}),
    ("LogisticModel.predict", SOFTMAX.predict, {"X": X[:3]}),
    ("KMeansModel.predict", KMEANS.predict, {"X": X[:3]}),
    ("make_blobs", lambda **kw: make_blobs(12, 2, 2, **kw), {"weights": [1.0, 2.0]}),
    ("smooth", lambda **kw: smooth(window=3, **kw), {"values": [0.5, 0.6, 0.8, 0.7]}),
    ("split", _split(BINARY), {"features": X, "target": LABELS}),
    ("split", _split(REGRESSION), {"features": X, "target": [1.0, 2.0, 0.5, 3.0, 1.5, 2.5, 0.7, 1.1]}),
    ("run_curve", _curve(BINARY), {"features": X, "target": LABELS}),
    ("run_curve", _curve(MULTICLASS), {"features": X, "target": [0, 1, 2, 1, 0, 2, 1, 2]}),
    ("run_curve", _curve(REGRESSION), {"features": X, "target": [1.0, 2.0, 0.5, 3.0, 1.5, 2.5, 0.7, 1.1]}),
    ("run_curve", _curve(CLUSTERING), {"features": X, "target": LABELS}),
]
# public callables whose array parameters are not a caller's numbers, and why they are not fuzzed
NOT_FUZZED = {
    "Dataset": "holds the arrays it is given; split and run_curve read them, and are fuzzed on them",
    "Dataset.take": "indexes the Dataset's own arrays with the rows split and run_curve draw",
    "LinearModel": "a fitted model's fields, as fit_linear makes them",
    "LogisticModel": "a fitted model's fields, as fit_logistic makes them",
    "KMeansModel": "a fitted model's fields, as fit_kmeans makes them",
    "stability_report": "its points are CurvePoints, read by attribute",
    "format_series_csv": "its points are CurvePoints, read by attribute",
}


def _public_callables():
    """Each public function, class and class method of the package, by the name CALLS gives it."""
    for module in normetric._MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isfunction(value):
                yield name, value
            elif inspect.isclass(value) and hasattr(value, "__dataclass_fields__"):
                yield name, value
                for attribute, method in vars(value).items():
                    if inspect.isfunction(method) and not attribute.startswith("_"):
                        yield f"{name}.{attribute}", method


def _takes_an_array(function) -> bool:
    return any("ndarray" in str(p.annotation) or "Sequence" in str(p.annotation)
               for p in inspect.signature(function).parameters.values())


def test_every_public_callable_that_takes_an_array_is_fuzzed():
    public = dict(_public_callables())
    takes_arrays = {name for name, function in public.items() if _takes_an_array(function)}
    fuzzed = {name for name, _, _ in CALLS}
    assert takes_arrays - set(NOT_FUZZED) == fuzzed - {"split", "run_curve"}
    assert set(NOT_FUZZED) <= takes_arrays
    assert fuzzed <= set(public)


def test_every_listed_call_is_valid():
    for _, call, arguments in CALLS:
        call(**arguments)


_ODD_ARRAYS = [np.array(["a", "b"]), np.array([None, 1.0]), np.empty((0, 2)), np.empty((2, 0)), np.empty(0)]
_ODD = [None, "x", ["a", "b"], [["a"]], [[1.0, 2.0], [3.0]], [1.0, [2.0, 3.0]], [None, 1.0], [{}], [1 + 2j],
        [10**400], 1.0, [], [[]], [[[1.0]]], np.array(1.0), *_ODD_ARRAYS]
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


def _malformed(valid, dataset: bool):
    """One value to put in place of a valid array argument.

    A Dataset's arrays are numpy arrays of one dimension or more, as it declares: it counts its rows (Dataset.n)
    from its features' first dimension.
    """
    valid = np.asarray(valid, dtype=float)
    with_one = st.tuples(st.integers(0, valid.size - 1), st.sampled_from([math.nan, math.inf, -math.inf, 1e308]))
    shapes = npst.array_shapes(min_dims=int(dataset), max_dims=3, min_side=0, max_side=4)
    return st.one_of(
        st.sampled_from(_ODD_ARRAYS if dataset else _ODD),
        npst.arrays(float, shapes, elements=_FLOATS),
        with_one.map(lambda at: np.where(np.arange(valid.size).reshape(valid.shape) == at[0], at[1], valid)),
        st.sampled_from([valid[:-1], np.concatenate([valid, valid[-1:]]), valid.T, valid[np.newaxis]]),
        npst.arrays(np.intp, st.integers(0, 6), elements=st.integers(0, len(valid) - 1)).map(lambda rows: valid[rows]),
    )


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_only_a_normetric_error_escapes_a_malformed_array(data):
    name, call, arguments = data.draw(st.sampled_from(CALLS), label="call")
    broken = data.draw(st.sampled_from(sorted(arguments)), label="argument")
    value = data.draw(_malformed(arguments[broken], name in ("split", "run_curve")), label="value")
    try:
        call(**{**arguments, broken: value})
    except NormetricError:
        pass


NOT_A_NUMBER = r"must hold numbers; could not convert string to float: 'a'$"


@pytest.mark.parametrize("call, error, message", [
    (lambda: evaluate(MULTICLASS, [0, 1], [0, 1], 2, 10, y_prob=[[0.5, 0.5], [1.0]], class_sizes=[1, 1]),
     ShapeError, r"^y_prob must be 2-D \(samples x classes\), got a ragged sequence$"),
    (lambda: evaluate(MULTICLASS, [0, 1], [0, 1], 2, 10, y_prob=ROWS[:2], class_sizes=[[1, 1], [1]]),
     ShapeError, r"^class_sizes must be 1-D, got a ragged sequence$"),
    (lambda: class_imbalance_ratio([[1, 1], [1]]), ShapeError, r"^class_sizes must be 1-D, got a ragged sequence$"),
    (lambda: fit_linear([[1.0, 2.0], [3.0]], [1.0, 2.0]), ShapeError, r"^feature matrix must be 2-D, got a ragged"),
    (lambda: accuracy([[0, 1], [1]], [0, 1]), ShapeError, r"^y_true must be 1-D, got a ragged sequence$"),
    (lambda: evaluate(BINARY, ["a", "b"], ["a", "b"], 2, 10, y_prob=[0.5, 0.5], class_sizes=[1, 1]),
     DomainError, "^y_true " + NOT_A_NUMBER),
    (lambda: class_imbalance_ratio(["a", "b"]), DomainError, "^class_sizes " + NOT_A_NUMBER),
    (lambda: average_class_imbalance_ratio(["a", "b"]), DomainError, "^class_sizes " + NOT_A_NUMBER),
    (lambda: snr_regression(["a"], [1.0]), DomainError, "^y_true " + NOT_A_NUMBER),
    (lambda: mape_score([1.0], ["a"]), DomainError, "^y_pred " + NOT_A_NUMBER),
    (lambda: fit_kmeans([["a", "b"]], 1), DomainError, "^X " + NOT_A_NUMBER),
    (lambda: smooth(["a"], 1), DomainError, "^values " + NOT_A_NUMBER),
    (lambda: make_blobs(12, 2, 2, weights=["a", "b"]), DomainError, "^weights " + NOT_A_NUMBER),
    (lambda: fit_linear(X, None), ShapeError, r"^y must be 1-D, got ndim=0$"),
    (lambda: fit_logistic(X, None, 2), ShapeError, r"^y must be 1-D, got ndim=0$"),
    (lambda: LINEAR.predict(np.ones((2, 3))), ShapeError, r"^X must have 2 columns, got 3$"),
    (lambda: LOGISTIC.predict_proba(np.ones((2, 1))), ShapeError, r"^X must have 2 columns, got 1$"),
    (lambda: KMEANS.predict(np.ones((2, 3))), ShapeError, r"^X must have 2 columns, got 3$"),
    (lambda: LINEAR.predict(np.ones(2)), ShapeError, r"^feature matrix must be 2-D, got ndim=1$"),
    (lambda: SOFTMAX.predict(np.ones(2)), ShapeError, r"^feature matrix must be 2-D, got ndim=1$"),
    (lambda: KMEANS.predict(np.ones(2)), ShapeError, r"^feature matrix must be 2-D, got ndim=1$"),
    (lambda: SOFTMAX.predict(np.array([[-math.inf, 0.0]])), DomainError, r"^X must hold finite numbers; X\[0\] is "),
    (lambda: snr_regression([1e200, 2.0], [1.0, 2.0]), DomainError, r"^regression values too large to score"),
    (lambda: mape_score([1.0, math.inf], [1.0, 2.0]), DomainError, r"^regression values too large to score"),
    (lambda: make_blobs(12, 2, 2, weights=[math.nan, 1.0]), DomainError, r"^weights must be 2 positive values"),
    (lambda: make_blobs(12, 2, 2, weights=[1e308, 1e308]), DomainError, r"^weights must be 2 positive values"),
], ids=["ragged-y_prob", "ragged-class_sizes-in-evaluate", "ragged-class_sizes", "ragged-X", "ragged-labels",
        "text-labels-in-evaluate", "text-class_sizes", "text-class_sizes-acir", "text-snr_regression", "text-mape",
        "text-kmeans", "text-smooth", "text-weights", "linear-without-y", "logistic-without-y",
        "linear-wrong-width", "logistic-wrong-width",
        "kmeans-wrong-width", "linear-1-D", "softmax-1-D", "kmeans-1-D", "softmax-infinite-feature",
        "snr_regression-overflow", "mape-infinite", "weights-nan", "weights-sum-overflows"])
def test_a_malformed_array_raises_a_normetric_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("y_pred", [[1.0, math.inf], [1e150, 1e150]], ids=["infinite-noise", "ratio-underflows"])
def test_a_signal_to_noise_ratio_of_zero_is_minus_infinite_decibels(y_pred):
    assert snr_regression([1e-160, 1e-160], y_pred) == -math.inf


def test_smooth_averages_non_finite_values_without_a_warning():
    assert np.isnan(smooth([math.inf, -math.inf, 1.0], 3)[:2]).all()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_feature_is_named_as_such_by_run_curve(value):
    features = np.array(X)
    features[5, 1] = value
    with pytest.raises(DomainError) as raised:
        _curve(BINARY)(features, LABELS)
    assert str(raised.value) == f"feature column 'x1' must hold finite numbers; row 5 is {value!r}"


@pytest.mark.parametrize("value", [math.nan, math.inf, 8.0], ids=["nan", "inf", "no-such-class"])
def test_split_names_a_class_target_that_is_no_class_id(value):
    target = np.array(LABELS, dtype=float)
    target[3] = value
    with pytest.raises(DomainError) as raised:  # a RuntimeWarning would fail this too
        _split(BINARY)(X, target)
    assert str(raised.value) == f"y must hold class ids in [0, 8); y[3] is {value!r}"


@pytest.mark.parametrize("value", [math.nan, math.inf, 1.5], ids=["nan", "inf", "fraction"])
def test_synthetic_expand_names_a_class_target_that_is_no_integer(value):
    """Before any draw: each of these was grown as a class of its own."""
    target = np.array(LABELS, dtype=float)
    target[3] = value
    with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drawn")), \
            pytest.raises(DomainError) as raised:
        synthetic_expand(_dataset(BINARY, X, target), 12, 2, seed=0)
    assert str(raised.value) == f"y must hold integer class ids; y[3] is {value!r}"


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_regression_target_is_named_as_such_by_run_curve(value):
    target = np.array([1.0, 2.0, 0.5, 3.0, 1.5, 2.5, 0.7, 1.1])
    target[3] = value
    with pytest.raises(DomainError) as raised:
        _curve(REGRESSION)(X, target)
    assert str(raised.value) == f"y must hold finite numbers; y[3] is {value!r}"
