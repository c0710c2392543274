"""Each evaluate argument's rule: declared once in factors.input_rules, applied once per call."""

import inspect
import math
import sys
from collections import Counter

import numpy as np
import pytest

from normetric import (
    ConfigurationError,
    DegenerateDistributionError,
    DomainError,
    ShapeError,
    TaskKind,
    average_class_imbalance_ratio,
    class_imbalance_ratio,
    dimensionality_factor,
    evaluate,
    factors,
    metrics,
    snr_multiclass,
)
from normetric.cli import main

BINARY, MULTICLASS = TaskKind.BINARY_CLASSIFICATION, TaskKind.MULTICLASS_CLASSIFICATION
REGRESSION, CLUSTERING = TaskKind.REGRESSION, TaskKind.CLUSTERING
ROWS = [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]

# one valid evaluate call per task: every array argument the task needs, and no other
VALID = {
    BINARY: {"y_true": [0, 1, 0, 1], "y_pred": [0, 1, 1, 1], "y_prob": [0.9, 0.8, 0.6, 0.7], "class_sizes": [2, 2]},
    MULTICLASS: {"y_true": [0, 1, 2], "y_pred": [0, 1, 2], "y_prob": ROWS, "class_sizes": [1, 1, 1]},
    REGRESSION: {"y_true": [1.0, 2.0, 3.0], "y_pred": [1.0, 2.5, 3.0]},
    CLUSTERING: {"y_true": [0, 0, 1, 1], "y_pred": [5, 5, 5, 7], "class_sizes": [3, 1]},
}


@pytest.mark.parametrize("task", list(TaskKind), ids=lambda task: task.value)
def test_input_rules_name_exactly_the_arrays_evaluate_takes(task):
    arguments = VALID[task]
    want = evaluate(task, d=2, n_train=30, **arguments)
    taken = {"y_true", "y_pred"}  # positional, always taken
    keywords = [p.name for p in inspect.signature(evaluate).parameters.values() if p.kind is p.KEYWORD_ONLY]
    for name in keywords:
        if name in arguments:  # taken: leaving it out is an incomplete call
            with pytest.raises(ConfigurationError):
                evaluate(task, d=2, n_train=30, **{key: value for key, value in arguments.items() if key != name})
            taken.add(name)
        else:  # not taken: even a value that breaks every rule changes nothing
            assert evaluate(task, d=2, n_train=30, **arguments, **{name: [math.nan]}) == want
    assert set(factors.input_rules(task, 3 if task is MULTICLASS else 2)) == taken


@pytest.mark.parametrize("task", list(TaskKind), ids=lambda task: task.value)
def test_each_rule_is_applied_once_per_evaluate_call(task, monkeypatch):
    applied = Counter()
    read = metrics._read

    def counting(name, *args, rule=None, **kwargs):
        if rule is not None:
            applied[name] += 1
        return read(name, *args, rule=rule, **kwargs)

    for module in (metrics, factors):  # every module evaluate's path reads an argument in
        monkeypatch.setattr(module, "_read", counting)
    evaluate(task, d=2, n_train=30, **VALID[task])
    assert applied == dict.fromkeys(factors.input_rules(task, 3 if task is MULTICLASS else 2), 1)


@pytest.mark.parametrize("task, class_sizes, error, message", [
    (BINARY, [math.nan, 2], DomainError, "class_sizes must hold integer counts >= 1; class_sizes[0] is nan"),
    (BINARY, [2, math.nan], DomainError, "class_sizes must hold integer counts >= 1; class_sizes[1] is nan"),
    (BINARY, [math.inf, 2], DomainError, "class_sizes must hold integer counts >= 1; class_sizes[0] is inf"),
    (BINARY, [2, -math.inf], DomainError, "class_sizes must hold integer counts >= 1; class_sizes[1] is -inf"),
    (CLUSTERING, [3, math.nan], DomainError, "class_sizes must hold integer counts >= 1; class_sizes[1] is nan"),
    (CLUSTERING, [-math.inf, 1], DomainError, "class_sizes must hold integer counts >= 1; class_sizes[0] is -inf"),
    (BINARY, [2.5, 1.5], DomainError, "class_sizes must hold integer counts >= 1; class_sizes[0] is 2.5"),
    (MULTICLASS, [1, 1, math.inf], DomainError, "class_sizes must hold integer counts >= 1; class_sizes[2] is inf"),
    (MULTICLASS, [1, 1, 1, 50], ShapeError, "class_sizes has 4 sizes but y_prob has 3 columns"),
], ids=["binary-nan-first", "binary-nan-second", "binary-inf", "binary-minus-inf", "clustering-nan",
        "clustering-minus-inf", "binary-fractional", "multiclass-inf", "multiclass-extra-class"])
def test_class_sizes_outside_their_rule_raise(task, class_sizes, error, message):
    arguments = dict(VALID[task], class_sizes=class_sizes)
    with pytest.raises(error) as raised:
        evaluate(task, d=2, n_train=30, **arguments)  # a RuntimeWarning would fail this too
    assert str(raised.value) == message


@pytest.mark.parametrize("value", [-math.inf, math.inf, math.nan], ids=["-inf", "+inf", "nan"])
@pytest.mark.parametrize("task, name, requirement", [
    (BINARY, "y_true", "labels 0 or 1"),
    (MULTICLASS, "y_pred", "integer labels in [0, 3)"),
    (CLUSTERING, "y_true", "non-negative integer labels"),
    (CLUSTERING, "y_pred", "integer cluster ids"),
], ids=["binary-labels", "multiclass-labels", "clustering-labels", "cluster-ids"])
def test_integer_rules_refuse_every_non_finite_value(task, name, requirement, value):
    """NaN fails the integer test, +inf the upper bound and -inf the lower one."""
    arguments = dict(VALID[task])
    arguments[name] = [arguments[name][0], value] + list(arguments[name][2:])
    with pytest.raises(DomainError) as raised:
        evaluate(task, d=2, n_train=30, **arguments)
    assert str(raised.value) == f"{name} must hold {requirement}; {name}[1] is {value!r}"


@pytest.mark.parametrize("y_true, y_prob, message", [
    ([0, 1.5, 2], ROWS, "y_true must hold integer labels in [0, 3); y_true[1] is 1.5"),
    ([0, math.nan, 2], ROWS, "y_true must hold integer labels in [0, 3); y_true[1] is nan"),
    ([0, 1, 2], ROWS[:2] + [[1.1, -0.1, 0.0]], "y_prob must hold probabilities in [0, 1]; y_prob[2] is [1.1, -0.1, 0.0]"),
    ([0], [[0.5, 0.4]], "every probability vector must sum to 1 within 1e-6"),
], ids=["fractional-label", "nan-label", "negative-probability", "row-sum"])
def test_snr_multiclass_holds_its_own_arguments_to_their_rules(y_true, y_prob, message):
    # the labels are checked before they are cast to indices, so 1.5 is not read as class 1
    with pytest.raises(DomainError) as raised:
        snr_multiclass(y_true, y_prob)
    assert str(raised.value) == message


@pytest.mark.parametrize("d, n", [(math.nan, 10), (math.inf, 10), (3, math.nan)], ids=["nan-d", "inf-d", "nan-n"])
def test_non_finite_d_or_n_raises(d, n):
    with pytest.raises(DomainError, match="d and n must be finite and positive"):
        dimensionality_factor(d, n)
    with pytest.raises(DomainError, match="d and n must be finite and positive"):
        evaluate(BINARY, d=d, n_train=n, **VALID[BINARY])


def test_an_empty_class_is_degenerate_and_keeps_its_message():
    with pytest.raises(DegenerateDistributionError, match=r"^every class needs at least one sample, got \[10, 0\]$"):
        class_imbalance_ratio([10, 0])
    with pytest.raises(DegenerateDistributionError, match=r"^every class needs at least one sample, got \[100, 0, 5\]$"):
        average_class_imbalance_ratio([100, 0, 5])


def test_an_empty_class_among_many_is_named_on_one_line():
    """numpy breaks the text of a long array into lines, and a message's last line is read as its reason."""
    sizes = np.array([26] * 40 + [0])
    assert "\n" in str(sizes)
    with pytest.raises(DegenerateDistributionError) as raised:
        average_class_imbalance_ratio(sizes)
    with np.printoptions(linewidth=sys.maxsize):
        assert str(raised.value) == f"every class needs at least one sample, got {sizes}"


@pytest.mark.parametrize("seed", [4, 6])
def test_curve_whose_training_pool_lacks_a_class_exits_3(tmp_path, capsys, seed):
    # class 2 has one row; these seeds put it in the test split, so the pool counts zero of it
    features = np.random.default_rng(0).normal(size=(60, 2)).tolist()
    labels = [0] * 30 + [1] * 29 + [2]
    path = tmp_path / "absent.csv"
    path.write_text("\n".join(["x0,x1,label", *(f"{a!r},{b!r},{c}" for (a, b), c in zip(features, labels))]) + "\n")
    code = main([
        "curve", "--task", "multiclass", "--data", str(path), "--target-column", "label",
        "--start", "10", "--stop", "40", "--step", "10", "--seed", str(seed), "--epochs", "5",
    ])
    assert (code, capsys.readouterr()) == (3, ("", "normetric: error: target column 'label' has no training row of class 2\n"))
