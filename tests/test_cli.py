"""End-to-end tests of the command-line interface, run in-process."""

import csv
import errno
import io
import json
import os
import signal
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from normetric import (DataError, TaskKind, data, load_csv, make_binary_classification, make_blobs, make_regression,
                       save_csv)
from normetric.cli import main
from test_data_oracles import FAILING, PARSING, csv_texts, plain_csv_texts
from workers import assert_no_child, usable_cores


@pytest.fixture
def binary_preds(tmp_path):
    path = tmp_path / "preds.csv"
    lines = ["y_true,y_pred,y_prob"]
    lines += ["0,0,0.75"] * 150
    lines += ["1,0,0.75"] * 50
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def blobs_csv(tmp_path):
    ds = make_blobs(300, d=2, n_classes=2, seed=0, task=TaskKind.BINARY_CLASSIFICATION)
    path = tmp_path / "blobs.csv"
    save_csv(ds, str(path))
    return str(path)


@pytest.fixture
def huge_csv(tmp_path):
    """200 rows whose x0 is drawn from -1.5e308, 1.5e308 and 1.7e308, so a sum of two of them can overflow."""
    rng = np.random.default_rng(0)
    x0 = rng.choice([-1.5e308, 1.5e308, 1.7e308], size=200).tolist()
    x1 = rng.standard_normal(200).tolist()
    path = tmp_path / "huge.csv"
    path.write_text("x0,x1,label\n" + "".join(f"{a!r},{b!r},{i % 2}\n" for i, (a, b) in enumerate(zip(x0, x1))),
                    encoding="utf-8")
    return str(path)


BINARY_ROWS = ["y_true,y_pred,y_prob", "0,0,0.9", "1,1,0.8", "0,1,0.6", "1,0,0.7"]
SERIES_ROWS = [
    "train_size,base_metric,adjusted_metric,f,g,h,snr_db,snr_normalized,imbalance_ratio,base_smoothed,adjusted_smoothed",
    "30,0.7,0.8,1.2,1.1,1.05,3.0,0.1,1.2,0.725,0.8",
    "60,0.75,0.8,1.0,1.1,1.05,3.5,0.1,1.2,0.75,0.817",
    "90,0.8,0.85,1.0,1.1,1.05,4.0,0.1,1.2,0.775,0.825",
]
MULTICLASS_ROWS = ["y_true,y_pred,p_0,p_1,p_2", "0,0,0.8,0.1,0.1", "1,1,0.1,0.8,0.1", "2,2,0.1,0.1,0.8"]


class TestEvaluate:
    def test_binary_happy_path(self, binary_preds, capsys):
        code = main([
            "evaluate", "--task", "binary", "--predictions", binary_preds,
            "--d", "10", "--n", "200",
        ])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        assert got["base"] == 0.75
        assert got["dim_factor_f"] == 1.0
        assert got["imbalance_factor_h"] == pytest.approx(1.4771212547196624)
        assert got["normalized"] == pytest.approx(0.6447314197064155, abs=1e-9)

    def test_multiclass_with_probability_columns(self, tmp_path, capsys):
        path = tmp_path / "mc.csv"
        path.write_text(
            "y_true,y_pred,p_0,p_1,p_2\n"
            "0,0,1,0,0\n"
            "1,1,0,1,0\n"
            "2,2,0,0,1\n"
            "1,1,0,1,0\n",
            encoding="utf-8",
        )
        code = main([
            "evaluate", "--task", "multiclass", "--predictions", str(path),
            "--d", "3", "--n", "100",
        ])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        assert got["base"] == 1.0
        assert got["snr_db"] == "inf"
        assert got["snr_factor_g"] == 1.5

    def test_regression(self, tmp_path, capsys):
        path = tmp_path / "reg.csv"
        path.write_text("y_true,y_pred\n100,110\n200,180\n", encoding="utf-8")
        code = main([
            "evaluate", "--task", "regression", "--predictions", str(path),
            "--d", "5", "--n", "100",
        ])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        assert got["base"] == pytest.approx(0.9)
        assert got["imbalance_factor_h"] == 1.0

    def test_clustering(self, tmp_path, capsys):
        path = tmp_path / "cl.csv"
        path.write_text(
            "y_true,y_pred\n" + "\n".join(["0,1"] * 5 + ["1,0"] * 5) + "\n",
            encoding="utf-8",
        )
        code = main([
            "evaluate", "--task", "clustering", "--predictions", str(path),
            "--d", "4", "--n", "120",
        ])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        assert got["base"] == pytest.approx(1.0)  # relabeling-invariant NMI

    def test_clustering_noise_ids_are_relabelled(self, tmp_path, capsys):
        """DBSCAN-style noise (-1) is one more cluster id, not a crash."""
        def run(rows, name):
            path = tmp_path / name
            path.write_text("y_true,y_pred\n" + "\n".join(rows) + "\n", encoding="utf-8")
            code = main([
                "evaluate", "--task", "clustering", "--predictions", str(path),
                "--d", "4", "--n", "120",
            ])
            return code, capsys.readouterr().out

        rows = ["0,-1"] * 3 + ["0,0"] * 4 + ["1,1"] * 5 + ["1,-1"] * 2
        code, noisy = run(rows, "noise.csv")
        assert code == 0
        renamed = [row.replace(",1", ",7").replace(",-1", ",1") for row in rows]
        assert run(renamed, "renamed.csv") == (0, noisy)

    def test_clustering_true_ids_are_names(self, tmp_path, capsys):
        """Sparse class ids score as their ranks do, without a table sized by the largest id."""
        def run(rows, name):
            path = tmp_path / name
            path.write_text("y_true,y_pred\n" + "\n".join(rows) + "\n", encoding="utf-8")
            code = main([
                "evaluate", "--task", "clustering", "--predictions", str(path),
                "--d", "4", "--n", "120",
            ])
            return code, capsys.readouterr().out

        rows = ["0,0"] * 4 + ["1,0"] * 2 + ["1,1"] * 5 + ["2,1"] * 3
        code, dense = run(rows, "dense.csv")
        assert code == 0
        sparse = [row.replace("2,", "1000000000000,").replace("1,", "7,", 1) for row in rows]
        assert run(sparse, "sparse.csv") == (0, dense)

    @pytest.mark.parametrize("task, text, column, row, value", [
        ("binary", "y_true,y_pred,y_prob\n0,0,0.9\n0.7,0,0.8\n1,1,0.6\n", "y_true", 2, "0.7"),
        ("multiclass", "y_true,y_pred,p_0,p_1,p_2\n0,0,1,0,0\n2,1.5,0,1,0\n", "y_pred", 2, "1.5"),
        ("clustering", "y_true,y_pred\n0,0\n1,1\n1,inf\n", "y_pred", 3, "inf"),
    ], ids=["binary-fraction", "multiclass-fraction", "clustering-inf"])
    def test_non_integer_labels_are_a_data_error(self, tmp_path, capsys, task, text, column, row, value):
        path = tmp_path / "labels.csv"
        path.write_text(text, encoding="utf-8")
        code = main(["evaluate", "--task", task, "--predictions", str(path), "--d", "2", "--n", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and repr(column) in err and f"data row {row} has {value!r}" in err

    @pytest.mark.parametrize("task, text, column, row, value", [
        ("binary", "y_true,y_pred,y_prob\n0,0,0.9\n1,1,nan\n", "y_prob", 2, "nan"),
        ("binary", "y_true,y_pred,y_prob\n0,0,-0.1\n1,1,0.5\n", "y_prob", 1, "-0.1"),
        ("multiclass", "y_true,y_pred,p_0,p_1\n0,0,0.9,0.1\n1,1,0.2,1.5\n", "p_1", 2, "1.5"),
        ("multiclass", "y_true,y_pred,p_0,p_1\n0,0,inf,0.1\n1,1,0.2,0.8\n", "p_0", 1, "inf"),
    ], ids=["binary-nan", "binary-negative", "multiclass-above-one", "multiclass-inf"])
    def test_invalid_probabilities_are_a_data_error(self, tmp_path, capsys, task, text, column, row, value):
        path = tmp_path / "probs.csv"
        path.write_text(text, encoding="utf-8")
        code = main(["evaluate", "--task", task, "--predictions", str(path), "--d", "2", "--n", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert repr(column) in err and f"data row {row} has {value!r}" in err

    @pytest.mark.parametrize("task, text, column, row, value", [
        ("binary", "y_true,y_pred,y_prob\n0,0,0.9\n-1,0,0.9\n1,1,0.6\n", "y_true", 2, "-1"),
        ("binary", "y_true,y_pred,y_prob\n0,0,0.9\n1,2,0.8\n", "y_pred", 2, "2"),
        ("binary", "y_true,y_pred,y_prob\n0,-1,0.9\n1,1,0.8\n", "y_pred", 1, "-1"),
        ("multiclass", "y_true,y_pred,p_0,p_1\n0,0,0.9,0.1\n5,1,0.2,0.8\n", "y_true", 2, "5"),
        ("multiclass", "y_true,y_pred,p_0,p_1\n0,-1,0.9,0.1\n1,1,0.2,0.8\n", "y_pred", 1, "-1"),
        ("multiclass", "y_true,y_pred,p_0,p_1\n0,0,0.9,0.1\n1,2,0.2,0.8\n", "y_pred", 2, "2"),
        ("clustering", "y_true,y_pred\n0,0\n1,1\n-1,1\n", "y_true", 3, "-1"),
    ], ids=["binary-negative-true", "binary-pred-two", "binary-negative-pred", "multiclass-true-beyond",
            "multiclass-negative-pred", "multiclass-pred-beyond", "clustering-negative-true"])
    def test_labels_outside_the_class_range_are_a_data_error(
        self, tmp_path, capsys, task, text, column, row, value
    ):
        path = tmp_path / "labels.csv"
        path.write_text(text, encoding="utf-8")
        code = main(["evaluate", "--task", task, "--predictions", str(path), "--d", "2", "--n", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and repr(column) in err and f"data row {row} has {value!r}" in err

    @pytest.mark.parametrize("label", ["0", "1"])
    def test_one_class_binary_file_is_a_data_error(self, tmp_path, capsys, label):
        path = tmp_path / "one.csv"
        path.write_text(f"y_true,y_pred,y_prob\n{label},0,0.9\n{label},1,0.8\n", encoding="utf-8")
        code = main(["evaluate", "--task", "binary", "--predictions", str(path), "--d", "2", "--n", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"only class {label}" in err

    @pytest.mark.parametrize("rows, row, total", [
        (["0,0,0.5,0.25,0.25", "1,1,0.5,0.5,0.5", "2,2,0,0,1"], 2, "1.5"),
        (["0,0,1,0,0", "1,1,0,1,0", "2,2,0,0,0.5", "2,2,0,0,0.5"], 3, "0.5"),
        (["0,0,0.5,0.5,0.000002", "1,1,0,1,0", "2,2,0,0,1"], 1, "1.000002"),
    ], ids=["middle-row", "later-row", "just-outside-tolerance"])
    def test_probabilities_not_summing_to_one_are_a_data_error(self, tmp_path, capsys, rows, row, total):
        path = tmp_path / "sums.csv"
        path.write_text("y_true,y_pred,p_0,p_1,p_2\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code = main(["evaluate", "--task", "multiclass", "--predictions", str(path), "--d", "2", "--n", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and "sum to 1 within 1e-6" in err and f"data row {row} sums to {total}" in err

    def test_probabilities_within_the_sum_tolerance_are_accepted(self, tmp_path, capsys):
        path = tmp_path / "thirds.csv"
        path.write_text(
            "y_true,y_pred,p_0,p_1,p_2\n0,0,0.3333333,0.3333333,0.3333333\n1,1,0,1,0\n2,2,0,0,1\n",
            encoding="utf-8",
        )
        code = main(["evaluate", "--task", "multiclass", "--predictions", str(path), "--d", "2", "--n", "10"])
        assert code == 0

    @pytest.mark.parametrize("labels, missing, present", [
        ([0, 2, 0, 2], 1, "classes 0, 2"),
        ([0, 1, 1, 0], 2, "classes 0, 1"),
        ([1, 2, 2, 1], 0, "classes 1, 2"),
    ], ids=["middle", "top", "bottom"])
    def test_multiclass_class_missing_from_y_true_is_a_data_error(
        self, tmp_path, capsys, labels, missing, present
    ):
        """Class sizes span every p_* column, so an absent class is named, not dropped from h."""
        path = tmp_path / "missing.csv"
        rows = [f"{c},{c}," + ",".join("1" if k == c else "0" for k in range(3)) for c in labels]
        path.write_text("y_true,y_pred,p_0,p_1,p_2\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code = main(["evaluate", "--task", "multiclass", "--predictions", str(path), "--d", "2", "--n", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"no row of class {missing}" in err and f"only {present}" in err

    @pytest.mark.parametrize("text, message", [
        ("y_true,y_pred,y_prob\n0,0,0.9\n1,1\n0,0,0.7\n", "data row 2 of {path} ends after field 2"),
        ("y_true,y_pred,y_prob\n0,0,0.9\n1,1,x\n1,1\n", "data row 2 has 'x'"),
        ("y_true,y_pred,y_prob\n0,0,0.9\n1\n1,1,x\n", "data row 2 of {path} ends after field 1"),
    ], ids=["short", "bad-before-short", "short-before-bad"])
    def test_first_short_or_bad_row_is_named(self, tmp_path, capsys, text, message):
        path = tmp_path / "short.csv"
        path.write_text(text, encoding="utf-8")
        code = main(["evaluate", "--task", "binary", "--predictions", str(path), "--d", "2", "--n", "10"])
        assert code == 2
        assert message.format(path=path) in capsys.readouterr().err

    @pytest.mark.parametrize("task, rows, message", [
        ("binary", BINARY_ROWS[:3] + ["0,1,x"] + BINARY_ROWS[4:],
         "column 'y_prob' of {path} must hold numbers; data row 3 has 'x'"),
        ("binary", BINARY_ROWS[:3] + ["0,1"] + BINARY_ROWS[4:],
         "data row 3 of {path} ends after field 2; column 'y_prob' is field 3"),
        ("binary", BINARY_ROWS[:2] + ["1,2,0.8"] + BINARY_ROWS[3:],
         "column 'y_pred' of {path} must hold labels 0 or 1; data row 2 has '2'"),
        ("binary", BINARY_ROWS[:4] + ["1,0,1.5"],
         "column 'y_prob' of {path} must hold probabilities in [0, 1]; data row 4 has '1.5'"),
        ("multiclass", MULTICLASS_ROWS[:2] + ["1,1,0.1,0.5,0.1"] + MULTICLASS_ROWS[3:],
         "probabilities p_0..p_2 of {path} must sum to 1 within 1e-6; data row 2 sums to 0.7"),
        ("multiclass", MULTICLASS_ROWS[:3] + ["1,2,0.1,0.1,0.8"],
         "'y_true' of {path} has no row of class 2 (it holds only classes 0, 1); "
         "each class 0..2 needs one for the imbalance factor h"),
        ("binary", BINARY_ROWS[:2] + ["", "0,0,0.9,extra", "0,1,x"] + BINARY_ROWS[4:],
         "column 'y_prob' of {path} must hold numbers; data row 3 has 'x'"),
        ("binary", BINARY_ROWS[:2] + ["1,1,0.8,extra", "", "0"] + BINARY_ROWS[4:],
         "data row 3 of {path} ends after field 1; column 'y_pred' is field 2"),
        ("multiclass", ["y_true,y_pred,p_0,p_2", "0,0,0.9,0.1", "1,1,0.1,0.9"],
         "probability columns of {path} must be contiguous p_0..p_(C-1), got ['p_0', 'p_2']"),
        ("multiclass", [MULTICLASS_ROWS[0].replace("p_2", "p_02")] + MULTICLASS_ROWS[1:],
         "probability column 'p_02' of {path} must be named p_2"),
        ("multiclass", [MULTICLASS_ROWS[0].replace("p_2", "p_\u0662")] + MULTICLASS_ROWS[1:],  # Arabic-Indic two
         "probability column 'p_\u0662' of {path} must be named p_2"),
    ], ids=["not-a-number", "short-row", "label-out-of-range", "probability-above-one", "row-sum",
            "absent-class", "bad-cell-after-blank-and-long-rows", "short-row-after-long-and-blank-rows",
            "probability-columns-not-contiguous", "probability-column-with-a-leading-zero",
            "probability-column-in-arabic-indic-digits"])
    def test_each_input_rule_reads_the_same_through_both_tokenizers(self, tmp_path, capsys, task, rows, message):
        """One mutation of a valid file per documented rule, read plain and through csv.reader.

        A quoted header cell sends the same rows through csv.reader; the exit
        code and every byte of stderr must agree with the plain reading.
        """
        path = tmp_path / "mutated.csv"
        argv = ["evaluate", "--task", task, "--predictions", str(path), "--d", "2", "--n", "10"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with mock.patch("normetric.data.csv.reader", side_effect=AssertionError("plain file sent to csv.reader")):
            plain = main(argv), capsys.readouterr().err
        path.write_text('"y_true"' + "\n".join(rows)[len("y_true"):] + "\n", encoding="utf-8")
        quoted = main(argv), capsys.readouterr().err
        assert plain == quoted == (2, f"normetric: data error: {message.format(path=path)}\n")

    def test_regression_values_must_be_finite(self, tmp_path, capsys):
        path = tmp_path / "reg.csv"
        path.write_text("y_true,y_pred\n1.5,1.4\ninf,2.0\n", encoding="utf-8")
        code = main(["evaluate", "--task", "regression", "--predictions", str(path), "--d", "2", "--n", "10"])
        assert code == 2
        assert "column 'y_true' of" in capsys.readouterr().err

    def test_regression_values_too_large_to_score_are_a_numeric_error(self, tmp_path, capsys):
        path = tmp_path / "reg.csv"
        path.write_text("y_true,y_pred\n1e200,1.0\n2.0,1.0\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["evaluate", "--task", "regression", "--predictions", str(path), "--d", "2", "--n", "10"])
        assert code == 3
        assert "too large to score" in capsys.readouterr().err
        assert not caught

    def test_missing_file_is_a_data_error(self, capsys):
        code = main([
            "evaluate", "--task", "binary", "--predictions", "/nope/missing.csv",
            "--d", "2", "--n", "10",
        ])
        assert code == 2
        assert "normetric:" in capsys.readouterr().err

    def test_missing_probability_column_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y_true,y_pred\n0,0\n1,1\n", encoding="utf-8")
        code = main([
            "evaluate", "--task", "binary", "--predictions", str(path),
            "--d", "2", "--n", "10",
        ])
        assert code == 2

    def test_numeric_domain_failure_exits_three(self, tmp_path, capsys):
        # regression target containing zero: MAPE division is undefined
        path = tmp_path / "zero.csv"
        path.write_text("y_true,y_pred\n0,1\n2,2\n", encoding="utf-8")
        code = main([
            "evaluate", "--task", "regression", "--predictions", str(path),
            "--d", "2", "--n", "10",
        ])
        assert code == 3
        assert "normetric:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--d", "--n"])
    @pytest.mark.parametrize("value", ["0", "-5", "2.5"])
    def test_nonpositive_size_flag_is_a_usage_error(self, binary_preds, capsys, flag, value):
        argv = {"--task": "binary", "--predictions": binary_preds, "--d": "10", "--n": "200"}
        argv[flag] = value
        code = main(["evaluate"] + [item for pair in argv.items() for item in pair])
        assert code == 1
        assert f"argument {flag}: must be an integer >= 1" in capsys.readouterr().err

    def test_missing_required_flag_is_a_usage_error(self, capsys):
        code = main(["evaluate", "--task", "binary", "--d", "2", "--n", "10"])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_a_misnamed_probability_column_is_named_before_the_missing_data_rows(self, tmp_path, capsys):
        """The header is checked before the one read of its named columns, so a header fault comes first."""
        path = tmp_path / "header_only.csv"
        path.write_text("y_true,y_pred,p_0,p_1,p_02\n", encoding="utf-8")
        code = main(["evaluate", "--task", "multiclass", "--predictions", str(path), "--d", "2", "--n", "10"])
        assert (code, capsys.readouterr().err) == (
            2, f"normetric: data error: probability column 'p_02' of {path} must be named p_2\n")

    def test_probability_column_named_with_a_non_ascii_digit_is_ignored(self, tmp_path, capsys):
        """p_² passes str.isdigit but not int(): like p_x, it is not a probability column."""
        outputs = []
        for name in ("p_x", "p_²"):
            path = tmp_path / "mc.csv"
            rows = [MULTICLASS_ROWS[0] + f",{name}"] + [row + ",7" for row in MULTICLASS_ROWS[1:]]
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            code = main(["evaluate", "--task", "multiclass", "--predictions", str(path), "--d", "2", "--n", "10"])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    def test_unknown_task_is_a_usage_error(self, binary_preds, capsys):
        code = main([
            "evaluate", "--task", "ordinal", "--predictions", binary_preds,
            "--d", "2", "--n", "10",
        ])
        assert code == 1


class TestCurve:
    def test_writes_series_and_report(self, blobs_csv, tmp_path, capsys):
        series = tmp_path / "series.csv"
        report = tmp_path / "report.json"
        code = main([
            "curve", "--task", "binary", "--data", blobs_csv, "--target-column", "label",
            "--start", "30", "--stop", "90", "--step", "20",
            "--series", str(series), "--report", str(report),
            "--epochs", "30", "--seed", "3",
        ])
        assert code == 0
        rows = series.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1 + 4  # header plus one row per schedule size
        assert rows[0].startswith("train_size,base_metric,adjusted_metric,f,g,h,")
        got = json.loads(report.read_text(encoding="utf-8"))
        assert set(got) == {"threshold_n_star", "initial", "adjusted"}
        assert set(got["initial"]) == {"overall_avg", "avg_before", "avg_after", "mad_from_target"}

    def test_report_to_stdout_when_no_outputs_requested(self, blobs_csv, capsys):
        code = main([
            "curve", "--task", "binary", "--data", blobs_csv, "--target-column", "label",
            "--start", "30", "--stop", "90", "--step", "30", "--epochs", "20",
        ])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        assert got["threshold_n_star"] == 40  # 20 * (d = 2 features)

    def test_byte_identical_reruns(self, blobs_csv, tmp_path):
        outs = []
        for tag in ("a", "b"):
            series = tmp_path / f"s_{tag}.csv"
            report = tmp_path / f"r_{tag}.json"
            code = main([
                "curve", "--task", "binary", "--data", blobs_csv, "--target-column", "label",
                "--start", "30", "--stop", "120", "--step", "30",
                "--series", str(series), "--report", str(report),
                "--epochs", "25", "--seed", "11",
            ])
            assert code == 0
            outs.append((series.read_bytes(), report.read_bytes()))
        assert outs[0] == outs[1]

    def test_series_alone_is_not_blocked_by_the_report_threshold(self, blobs_csv, tmp_path, capsys):
        # every size is at or past n* = 40, so no report can be made; --series alone asks for none
        argv = [
            "curve", "--task", "binary", "--data", blobs_csv, "--target-column", "label",
            "--start", "50", "--stop", "90", "--step", "20", "--epochs", "10",
        ]
        series = tmp_path / "s.csv"
        assert main(argv + ["--series", str(series)]) == 0
        assert capsys.readouterr().out == ""
        rows = series.read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["50", "70", "90"]
        # asked for, the report still fails, and before any output is written
        other = tmp_path / "other.csv"
        assert main(argv + ["--series", str(other), "--report", str(tmp_path / "r.json")]) == 3
        assert "no curve points before the threshold n* = 40" in capsys.readouterr().err
        assert not other.exists() and not (tmp_path / "r.json").exists()

    def test_missing_target_column_flag_is_usage(self, blobs_csv, capsys):
        code = main([
            "curve", "--task", "binary", "--data", blobs_csv,
            "--start", "30", "--stop", "60", "--step", "10",
        ])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_overlarge_schedule_is_domain_error(self, blobs_csv, capsys):
        code = main([
            "curve", "--task", "binary", "--data", blobs_csv, "--target-column", "label",
            "--start", "100", "--stop", "400", "--step", "100", "--epochs", "10",
        ])
        assert code == 3

    @pytest.mark.parametrize("task", ["binary", "multiclass"])
    def test_divergent_training_is_a_numeric_error_without_numpy_warnings(self, tmp_path, capsys, task):
        if task == "binary":  # flipped labels keep the gradient from vanishing
            ds = make_binary_classification(300, d=3, seed=0)
        else:
            ds = make_blobs(300, d=2, n_classes=3, seed=0, task=TaskKind.MULTICLASS_CLASSIFICATION)
        path = tmp_path / "data.csv"
        save_csv(ds, str(path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "curve", "--task", task, "--data", str(path), "--target-column", "label",
                "--start", "30", "--stop", "90", "--step", "30", "--epochs", "50", "--lr", "1e308",
            ])
        err = capsys.readouterr().err
        assert code == 3
        assert "fit diverged at training size 30, learning rate 1e+308" in err
        assert "Warning" not in err and not caught

    def test_a_divergence_in_a_worker_reads_as_in_the_serial_loop(self, tmp_path, capsys, monkeypatch):
        """Workers fit the largest size first, yet the error names the first size of the schedule."""
        path = tmp_path / "data.csv"
        save_csv(make_binary_classification(300, d=3, seed=0), str(path))
        argv = ["curve", "--task", "binary", "--data", str(path), "--target-column", "label",
                "--start", "30", "--stop", "150", "--step", "30", "--epochs", "50", "--lr", "1e308"]
        outcomes = []
        for cores in ({0, 1, 2}, {0}):  # three workers, then the serial loop
            usable_cores(monkeypatch, cores)
            outcomes.append((main(argv), capsys.readouterr()))
            assert_no_child()
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 3
        assert outcomes[0][1].err == "normetric: error: fit diverged at training size 30, learning rate 1e+308\n"

    @pytest.mark.parametrize("task", ["binary", "regression", "clustering"])
    def test_features_too_large_to_standardize_exit_3_naming_the_column(self, huge_csv, capsys, task):
        """Not an overflow warning followed by a divergence, a NaN prediction or a one-cluster fit."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "curve", "--task", task, "--data", huge_csv, "--target-column", "label",
                "--start", "30", "--stop", "90", "--step", "30", "--epochs", "5",
            ])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "normetric: error: feature column 'x0' is too large to standardize\n"
        assert not caught

    @staticmethod
    def _write(path, header, rows):
        path.write_text(header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows), encoding="utf-8")
        return str(path)

    def test_targets_that_overflow_a_line_fit_exit_3_naming_the_column_without_numpy_warnings(self, tmp_path, capfd):
        """40 rows of y = 1e308 on every 7th row and -1e308 on every 11th: the normal equations overflow."""
        rng = np.random.default_rng(0)
        y = [1e308 if i % 7 == 0 else -1e308 if i % 11 == 0 else float(v)
             for i, v in enumerate(rng.standard_normal(40))]
        path = self._write(tmp_path / "huge_y.csv", "x,y", zip(rng.standard_normal(40).tolist(), y))
        errors = []
        for seed in range(1, 7):
            code = main(["curve", "--task", "regression", "--data", path, "--target-column", "y", "--start", "5",
                         "--stop", "30", "--step", "5", "--d", "1", "--n-star", "10", "--seed", str(seed)])
            err = capfd.readouterr().err
            assert code == 3 and "Warning" not in err, err
            errors.append(err.splitlines()[-1])
        # every seed names the column, whether the line fit, the prediction or the score overflows first
        assert all(line.startswith("normetric: error: target column 'y' is too large to ") for line in errors), errors
        assert "normetric: error: target column 'y' is too large to fit a line to" in errors
        assert "normetric: error: target column 'y' is too large to score" in errors

    def test_a_test_feature_whose_distance_overflows_exits_3_naming_the_column_without_numpy_warnings(
            self, tmp_path, capfd):
        """60 rows of x, z, y: x holds 1e200 in data row 7.  In the test split it standardizes to a finite value
        whose distance to a centroid overflows; the binary and two-class curves of the same file never square it."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal(60)
        x[6] = 1e200
        path = self._write(tmp_path / "far.csv", "x,z,y",
                           zip(x.tolist(), rng.standard_normal(60).tolist(), [i % 2 for i in range(60)]))
        outcomes = {}
        for task in ("clustering", "binary", "multiclass"):
            for seed in range(1, 7):
                code = main(["curve", "--task", task, "--data", path, "--target-column", "y", "--start", "10",
                             "--stop", "40", "--step", "10", "--d", "1", "--n-star", "20", "--seed", str(seed)])
                err = capfd.readouterr().err
                assert "Warning" not in err, err
                assert code == 0 or err.splitlines()[-1].startswith("normetric:"), err
                outcomes[task, seed] = code, err
        for task in ("binary", "multiclass"):
            assert {outcomes[task, seed][0] for seed in range(1, 7)} == {0, 3}
        far = [seed for seed in range(1, 7) if outcomes["binary", seed][0] == 0]
        assert far and all(outcomes["clustering", seed] == (
            3, "normetric: error: feature column 'x' is too large for k-means distances\n") for seed in far)

    def test_a_test_feature_whose_prediction_overflows_exits_3_naming_it_not_the_target(self, tmp_path, capfd):
        """60 rows of x, z, y = 1e4 x + z, but x holds 1e305 in data row 7 (whose y is 0).  In the test split it
        standardizes to a finite value whose product with the weight on x overflows the prediction."""
        rng = np.random.default_rng(0)
        x, z = rng.standard_normal(60), rng.standard_normal(60)
        y = 1e4 * x + z
        x[6], y[6] = 1e305, 0.0
        path = self._write(tmp_path / "far.csv", "x,z,y", zip(x.tolist(), z.tolist(), y.tolist()))
        errors = []
        for seed in range(1, 9):
            code = main(["curve", "--task", "regression", "--data", path, "--target-column", "y", "--start", "10",
                         "--stop", "40", "--step", "10", "--d", "2", "--n-star", "20", "--seed", str(seed)])
            err = capfd.readouterr().err
            assert "Warning" not in err, err
            assert code == 0 or (code == 3 and err.splitlines()[-1].startswith("normetric:")), err
            errors.append(err)
        assert "normetric: error: feature column 'x' is too large to predict\n" in errors
        assert not any("target column" in err for err in errors), errors

    def test_a_zero_test_target_is_named_as_mape_s_zero_not_as_an_overflow(self, tmp_path, capfd):
        """40 rows of x, y with y = 0 in data row 5: where it falls in the test split, MAPE is undefined."""
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(40), rng.standard_normal(40)
        y[4] = 0.0
        path = self._write(tmp_path / "zero_y.csv", "x,y", zip(x.tolist(), y.tolist()))
        outcomes = []
        for seed in range(1, 9):
            code = main(["curve", "--task", "regression", "--data", path, "--target-column", "y", "--start", "5",
                         "--stop", "30", "--step", "5", "--d", "1", "--n-star", "10", "--seed", str(seed)])
            outcomes.append((code, capfd.readouterr().err))
        assert {code for code, _ in outcomes} == {0, 3}
        assert all(err == "normetric: error: target column 'y' holds 0 in the test split, where MAPE is undefined\n"
                   for code, err in outcomes if code), outcomes

    @pytest.mark.parametrize("task", ["binary", "multiclass", "clustering"])
    def test_a_training_size_too_small_to_fit_is_named(self, tmp_path, capfd, task):
        """60 rows of x, y with y alternating 0 and 1: a training set of one row holds one class, and fewer
        rows than two clusters."""
        reason = ("holds fewer rows than k=2 clusters" if task == "clustering"
                  else "holds only class 0 of target column 'y'")
        x = np.random.default_rng(0).standard_normal(60)
        path = self._write(tmp_path / "two.csv", "x,y", zip(x.tolist(), [i % 2 for i in range(60)]))
        code = main(["curve", "--task", task, "--data", path, "--target-column", "y", "--start", "1", "--stop", "21",
                     "--step", "5", "--d", "1", "--n-star", "10", "--epochs", "5"])
        assert (code, capfd.readouterr()) == (3, ("", f"normetric: error: training size 1 {reason}\n"))

    def test_a_binary_curve_of_three_classes_names_the_third(self, tmp_path, capfd):
        """Not evaluate's "y_true must hold labels 0 or 1", or its count of class sizes, at the first size."""
        x = np.random.default_rng(0).standard_normal(60)
        path = self._write(tmp_path / "three.csv", "x,y", zip(x.tolist(), [i % 3 for i in range(60)]))
        code = main(["curve", "--task", "binary", "--data", path, "--target-column", "y", "--start", "10",
                     "--stop", "40", "--step", "10", "--d", "1", "--n-star", "20", "--epochs", "5"])
        assert (code, capfd.readouterr()) == (
            3, ("", "normetric: error: target column 'y' holds class 2, but a binary curve's classes are 0 and 1\n"))

    def test_even_smooth_window_is_domain_error(self, blobs_csv, tmp_path, capsys):
        code = main([
            "curve", "--task", "binary", "--data", blobs_csv, "--target-column", "label",
            "--start", "30", "--stop", "60", "--step", "30",
            "--series", str(tmp_path / "s.csv"), "--smooth-window", "4", "--epochs", "10",
        ])
        assert code == 1
        assert "--smooth-window" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--k", "0"), ("--k", "-2"), ("--epochs", "0"), ("--start", "0"), ("--stop", "-1"),
        ("--step", "0"), ("--step", "1.5"), ("--test-fraction", "0"), ("--test-fraction", "1"),
        ("--test-fraction", "nan"), ("--smooth-window", "0"), ("--smooth-window", "-3"),
        ("--lr", "0"), ("--lr", "-0.1"), ("--lr", "inf"), ("--lr", "nan"), ("--lr", "x"),
        ("--d", "0"), ("--n-star", "0"), ("--seed", "-1"),
    ])
    def test_out_of_domain_flag_is_a_usage_error_naming_it(self, blobs_csv, tmp_path, capsys, flag, value):
        argv = {
            "--task": "clustering", "--data": blobs_csv, "--target-column": "label",
            "--start": "30", "--stop": "60", "--step": "30", "--epochs": "10",
            "--series": str(tmp_path / "s.csv"),
        }
        argv[flag] = value
        code = main(["curve"] + [item for pair in argv.items() for item in pair])
        assert code == 1
        assert f"argument {flag}: must be" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


class TestReport:
    def test_reproduces_curve_report(self, blobs_csv, tmp_path, capsys):
        series = tmp_path / "series.csv"
        report = tmp_path / "report.json"
        main([
            "curve", "--task", "binary", "--data", blobs_csv, "--target-column", "label",
            "--start", "30", "--stop", "120", "--step", "30",
            "--series", str(series), "--report", str(report),
            "--epochs", "25", "--seed", "5",
        ])
        code = main(["report", "--series", str(series), "--d", "2"])
        assert code == 0
        assert capsys.readouterr().out == report.read_text(encoding="utf-8")

    def test_mad_scope_before(self, blobs_csv, tmp_path, capsys):
        series = tmp_path / "series.csv"
        main([
            "curve", "--task", "binary", "--data", blobs_csv, "--target-column", "label",
            "--start", "30", "--stop", "120", "--step", "30",
            "--series", str(series), "--epochs", "25", "--seed", "5",
        ])
        code = main(["report", "--series", str(series), "--n-star", "60", "--mad-scope", "before"])
        assert code == 0
        json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("column, bad", [
        ("base_metric", "nan"), ("base_metric", "1.5"), ("adjusted_metric", "inf"), ("adjusted_metric", "-0.1"),
    ])
    def test_metric_outside_unit_interval_is_a_data_error(self, blobs_csv, tmp_path, capsys, column, bad):
        series = tmp_path / "series.csv"
        main([
            "curve", "--task", "binary", "--data", blobs_csv, "--target-column", "label",
            "--start", "30", "--stop", "90", "--step", "30",
            "--series", str(series), "--epochs", "10",
        ])
        rows = list(csv.reader(io.StringIO(series.read_text(encoding="utf-8"))))
        rows[2][rows[0].index(column)] = bad
        series.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        code = main(["report", "--series", str(series), "--d", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert str(series) in err and "data row 2" in err and column in err

    @pytest.mark.parametrize("sizes, row", [(("30", "30", "90"), 2), (("30", "90", "60"), 3)])
    def test_train_size_not_strictly_increasing_is_a_data_error(self, blobs_csv, tmp_path, capsys, sizes, row):
        series = tmp_path / "series.csv"
        main([
            "curve", "--task", "binary", "--data", blobs_csv, "--target-column", "label",
            "--start", "30", "--stop", "90", "--step", "30",
            "--series", str(series), "--epochs", "10",
        ])
        rows = list(csv.reader(io.StringIO(series.read_text(encoding="utf-8"))))
        for cells, size in zip(rows[1:], sizes):
            cells[0] = size
        series.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        code = main(["report", "--series", str(series), "--d", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert str(series) in err and "train_size" in err and f"data row {row}" in err

    @pytest.mark.parametrize("rows, message", [
        (SERIES_ROWS[:2] + ["60.5" + SERIES_ROWS[2][2:]] + SERIES_ROWS[3:],
         "column 'train_size' of {path} must hold integers >= 1; data row 2 has '60.5'"),
        (SERIES_ROWS[:1] + ["0" + SERIES_ROWS[1][2:]] + SERIES_ROWS[2:],
         "column 'train_size' of {path} must hold integers >= 1; data row 1 has '0'"),
        (SERIES_ROWS[:3] + ["60" + SERIES_ROWS[3][2:]],
         "column 'train_size' of {path} must increase strictly; data row 3 has 60 after 60"),
        (SERIES_ROWS[:1] + [SERIES_ROWS[1].replace(",0.8,", ",1.5,", 1)] + SERIES_ROWS[2:],
         "column 'adjusted_metric' of {path} must hold numbers in [0, 1]; data row 1 has '1.5'"),
        (SERIES_ROWS[:3] + [SERIES_ROWS[3].replace(",1.1,", ",x,")],
         "column 'g' of {path} must hold numbers; data row 3 has 'x'"),
        ([row.replace(",h,", ",").replace(",1.05,", ",") for row in SERIES_ROWS],
         "series file {path} lacks a 'h' column"),
        (SERIES_ROWS[:2] + ["60,0.75,0.8,1.0"] + SERIES_ROWS[3:],
         "data row 2 of {path} ends after field 4; column 'g' is field 5"),
        (SERIES_ROWS[:2] + ["", SERIES_ROWS[2] + ",extra", SERIES_ROWS[3].replace("0.8", "nan", 1)],
         "column 'base_metric' of {path} must hold numbers in [0, 1]; data row 3 has 'nan'"),
    ], ids=["train-size-not-an-integer", "train-size-zero", "train-size-not-increasing", "metric-outside-unit-interval",
            "not-a-number", "missing-column", "short-row", "bad-cell-after-blank-and-long-rows"])
    def test_each_series_rule_reads_the_same_through_both_tokenizers(self, tmp_path, capsys, rows, message):
        """One mutation of a valid series per rule, read plain and through csv.reader."""
        path = tmp_path / "mutated.csv"
        argv = ["report", "--series", str(path), "--d", "2"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with mock.patch("normetric.data.csv.reader", side_effect=AssertionError("plain file sent to csv.reader")):
            plain = main(argv), capsys.readouterr().err
        path.write_text('"train_size"' + "\n".join(rows)[len("train_size"):] + "\n", encoding="utf-8")
        quoted = main(argv), capsys.readouterr().err
        assert plain == quoted == (2, f"normetric: data error: {message.format(path=path)}\n")

    def test_blank_lines_and_long_rows_are_read_for_their_columns(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("\n".join(SERIES_ROWS) + "\n", encoding="utf-8")
        assert main(["report", "--series", str(path), "--d", "2"]) == 0
        want = capsys.readouterr().out
        rows = SERIES_ROWS[:2] + ["", SERIES_ROWS[2] + ",extra,cells"] + SERIES_ROWS[3:] + [""]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["report", "--series", str(path), "--d", "2"]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("tail", [
        b"\xff\xfe\n",
        b"30," + b"1" * (csv.field_size_limit() + 1) + b"\n",
    ], ids=["not-utf-8", "field-over-the-limit"])
    def test_unreadable_series_is_a_data_error_naming_the_file(self, tmp_path, capsys, tail):
        path = tmp_path / "series.csv"
        path.write_bytes(("\n".join(SERIES_ROWS) + "\n").encode("utf-8") + tail)
        code = main(["report", "--series", str(path), "--d", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"normetric: data error: {path} is not a readable UTF-8 CSV file: ")
        assert "Traceback" not in err

    def test_threshold_required(self, blobs_csv, tmp_path, capsys):
        series = tmp_path / "series.csv"
        main([
            "curve", "--task", "binary", "--data", blobs_csv, "--target-column", "label",
            "--start", "30", "--stop", "60", "--step", "30",
            "--series", str(series), "--epochs", "10",
        ])
        code = main(["report", "--series", str(series)])
        assert code == 1

    def test_report_file_output(self, blobs_csv, tmp_path):
        series = tmp_path / "series.csv"
        main([
            "curve", "--task", "binary", "--data", blobs_csv, "--target-column", "label",
            "--start", "30", "--stop", "60", "--step", "30",
            "--series", str(series), "--epochs", "10",
        ])
        out = tmp_path / "again.json"
        code = main(["report", "--series", str(series), "--d", "2", "--report", str(out)])
        assert code == 0
        json.loads(out.read_text(encoding="utf-8"))


class TestExpand:
    def test_expansion_round_trip(self, tmp_path, capsys):
        ds = make_blobs(40, d=3, n_classes=3, seed=2)
        src = tmp_path / "small.csv"
        save_csv(ds, str(src))
        out = tmp_path / "big.csv"
        code = main([
            "expand", "--task", "multiclass", "--data", str(src), "--target-column", "label",
            "--target-n", "100", "--k-neighbors", "3", "--out", str(out), "--seed", "1",
        ])
        assert code == 0
        assert "100 rows" in capsys.readouterr().err
        back = load_csv(str(out), "label", TaskKind.MULTICLASS_CLASSIFICATION)
        assert back.n == 100

    def test_shrinking_is_a_domain_error(self, tmp_path, capsys):
        ds = make_regression(30, d=2, seed=0)
        src = tmp_path / "reg.csv"
        save_csv(ds, str(src))
        code = main([
            "expand", "--task", "regression", "--data", str(src), "--target-column", "y",
            "--target-n", "10", "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 3

    def test_features_whose_distances_overflow_exit_3(self, huge_csv, tmp_path, capsys):
        """Not overflow warnings followed by infinite-distance ties ranked by position and exit 0."""
        out = tmp_path / "big.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "expand", "--task", "binary", "--data", huge_csv, "--target-column", "label",
                "--target-n", "300", "--out", str(out),
            ])
        assert code == 3
        assert capsys.readouterr().err == (
            "normetric: error: features too large to compare: the distance between two rows overflows\n"
        )
        assert not caught and not out.exists()

    def test_distances_that_overflow_under_a_caller_that_ignores_overflow_exit_3(self, huge_csv, tmp_path, capsys):
        """The scan raises on overflow itself, whatever the errstate its caller set."""
        out = tmp_path / "big.csv"
        with warnings.catch_warnings(record=True) as caught, np.errstate(over="ignore"):
            warnings.simplefilter("always")
            code = main([
                "expand", "--task", "binary", "--data", huge_csv, "--target-column", "label",
                "--target-n", "300", "--out", str(out),
            ])
        assert code == 3
        assert capsys.readouterr().err == (
            "normetric: error: features too large to compare: the distance between two rows overflows\n"
        )
        assert not caught and not out.exists()

    def test_a_killed_save_worker_exits_4_and_leaves_no_file(self, blobs_csv, tmp_path, capsys, monkeypatch):
        """A file cut short at a row boundary would read back as a valid, smaller dataset."""
        parent, text_rows = os.getpid(), data._text_rows

        def killed(features, labels, start):
            if os.getpid() != parent and start == 0:  # the first block, so no row can have been written
                os.kill(os.getpid(), signal.SIGKILL)
            return text_rows(features, labels, start)

        monkeypatch.setattr(data, "_text_rows", killed)
        monkeypatch.setattr(data, "_BLOCK_ROWS", 100)
        usable_cores(monkeypatch, {0, 1})
        out = tmp_path / "big.csv"
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.alarm(60)
        try:
            code = main([
                "expand", "--task", "binary", "--data", blobs_csv, "--target-column", "label",
                "--target-n", "400", "--out", str(out),
            ])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 4
        assert capsys.readouterr().err == (
            f"normetric: error: a worker process died before data row 1 of {out} was written "
            "(killed, or out of memory)\n"
        )
        assert not out.exists()
        assert_no_child()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_failed_save_exits_2_and_leaves_no_file(self, blobs_csv, tmp_path, capsys, monkeypatch, cores):
        """The disk filling up after the first block is written: the rows before would read back as a dataset."""
        text_rows = data._text_rows

        def failed(features, labels, start):
            if start:
                raise OSError(errno.ENOSPC, "No space left on device")
            return text_rows(features, labels, start)

        monkeypatch.setattr(data, "_text_rows", failed)
        monkeypatch.setattr(data, "_BLOCK_ROWS", 100)
        usable_cores(monkeypatch, range(cores))
        out = tmp_path / "big.csv"
        code = main([
            "expand", "--task", "binary", "--data", blobs_csv, "--target-column", "label",
            "--target-n", "400", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "normetric: data error: [Errno 28] No space left on device\n"
        assert not out.exists()
        assert_no_child()


@pytest.mark.parametrize("command", ["curve", "evaluate"])
def test_a_killed_reader_worker_exits_4(blobs_csv, binary_preds, capsys, monkeypatch, command):
    """Every forked read of a block kills its worker, so the first block is never read."""
    parent, read_block = os.getpid(), data._read_block

    def killed(path, width, work, job):
        if os.getpid() != parent:  # never this process
            os.kill(os.getpid(), signal.SIGKILL)
        return read_block(path, width, work, job)

    monkeypatch.setattr(data, "_read_block", killed)
    monkeypatch.setattr(data, "_BLOCK_ROWS", 100)
    usable_cores(monkeypatch, {0, 1})
    path = blobs_csv if command == "curve" else binary_preds
    argv = (["curve", "--task", "binary", "--data", path, "--target-column", "label", "--start", "40", "--stop", "80",
             "--step", "40"] if command == "curve" else
            ["evaluate", "--task", "binary", "--predictions", path, "--d", "2", "--n", "100"])
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(60)
    try:
        code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 4
    assert capsys.readouterr().err == (
        f"normetric: error: a worker process died before data row 1 of {path} was read (killed, or out of memory)\n"
    )
    assert_no_child()


def _raise_timeout(signum, frame):
    raise TimeoutError("expand still waiting after 60 s")


def _dataset_lines(tmp_path):
    path = tmp_path / "clean.csv"
    save_csv(make_blobs(300, d=2, n_classes=2, seed=0, task=TaskKind.BINARY_CLASSIFICATION), str(path))
    return path.read_text(encoding="utf-8").splitlines()  # header x0,x1,label, then 300 rows


def _run_on_dataset(command, data, out_dir):
    """Run curve or expand on a binary dataset CSV; returns (exit code, each output file's bytes or None)."""
    outputs = [out_dir / "series.csv", out_dir / "report.json"] if command == "curve" else [out_dir / "big.csv"]
    argv = [command, "--task", "binary", "--data", str(data), "--target-column", "label"]
    if command == "curve":
        argv += ["--start", "30", "--stop", "60", "--step", "30", "--epochs", "10",
                 "--series", str(outputs[0]), "--report", str(outputs[1])]
    else:
        argv += ["--target-n", "320", "--out", str(outputs[0])]
    code = main(argv)
    written = [out.read_bytes() if out.exists() else None for out in outputs]
    for out in outputs:
        out.unlink(missing_ok=True)
    return code, written


def _short(row):
    return row.rsplit(",", 1)[0]


def _cell(row, at, text):
    cells = row.split(",")
    cells[at] = text
    return ",".join(cells)


# one mutation of a valid dataset per documented rule; "\udcff" is written as the byte 0xff
DATASET_ERRORS = {
    "target-column-missing": (lambda lines: ["x0,x1,klass"] + lines[1:],
                              "target column 'label' not in header ['x0', 'x1', 'klass']"),
    "empty-file": (lambda lines: [], "{path} is empty (no header row)"),
    "no-usable-rows": (lambda lines: lines[:1] + [_cell(row, 0, "") for row in lines[1:]],
                       "{path} has no usable data rows (300 dropped)"),
    "not-utf-8": (lambda lines: ["x\udcff0,x1,label"] + lines[1:],
                  "{path} is not a readable UTF-8 CSV file: "
                  "'utf-8' codec can't decode byte 0xff in position 1: invalid start byte"),
    "field-over-the-limit": (lambda lines: lines[:4] + [_cell(lines[4], 0, "1" * (csv.field_size_limit() + 1))]
                             + lines[5:],
                             "{path} is not a readable UTF-8 CSV file: field larger than field limit (131072)"),
}
# (mutation, data rows it makes unusable): each such row is dropped and counted in the note
DATASET_DROPS = {
    "clean": (lambda lines: lines, []),
    "short-row": (lambda lines: lines[:5] + [_short(lines[5])] + lines[6:], [5]),
    "empty-cell": (lambda lines: lines[:9] + [_cell(lines[9], 1, "")] + lines[10:], [9]),
    "unparseable-number": (lambda lines: lines[:20] + [_cell(lines[20], 0, "1.5x")] + lines[21:], [20]),
    "short-row-and-empty-cell": (
        lambda lines: lines[:5] + [_short(lines[5])] + lines[6:9] + [_cell(lines[9], 1, "")] + lines[10:], [5, 9]),
}


def _write_lines(path, lines, quote_header=False):
    if quote_header:  # a quoted cell sends the file through csv.reader
        head, last = lines[0].rsplit(",", 1)
        lines = [f'{head},"{last}"'] + lines[1:]
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))


def _read_both_ways(command, path, lines, out_dir, capsys):
    """(code, stderr, outputs) read plain, with csv.reader failing if called, and with a quoted header cell."""
    runs = []
    for quoted in (False, True):
        _write_lines(path, lines, quote_header=quoted)
        if quoted or any(len(line) > csv.field_size_limit() for line in lines):
            code, written = _run_on_dataset(command, path, out_dir)
        else:
            with mock.patch("normetric.data.csv.reader", side_effect=AssertionError("plain file sent to csv.reader")):
                code, written = _run_on_dataset(command, path, out_dir)
        runs.append((code, capsys.readouterr().err, written))
    return runs


@pytest.mark.parametrize("command", ["curve", "expand"])
@pytest.mark.parametrize("rule", list(DATASET_ERRORS))
def test_each_dataset_error_reads_the_same_through_both_tokenizers(tmp_path, capsys, command, rule):
    mutate, message = DATASET_ERRORS[rule]
    lines = mutate(_dataset_lines(tmp_path))
    path = tmp_path / "mutated.csv"
    want = (2, f"normetric: data error: {message.format(path=path)}\n", [None] * (2 if command == "curve" else 1))
    if not lines:  # zero bytes hold no cell to quote, and csv.reader reads them
        _write_lines(path, lines)
        code, written = _run_on_dataset(command, path, tmp_path)
        assert (code, capsys.readouterr().err, written) == want
        return
    plain, quoted = _read_both_ways(command, path, lines, tmp_path, capsys)
    assert plain == quoted == want


@pytest.mark.parametrize("command", ["curve", "expand"])
@pytest.mark.parametrize("rule", list(DATASET_DROPS))
def test_each_unusable_row_is_dropped_and_noted_once(tmp_path, capsys, command, rule):
    """Both readings run as on the file without the unusable rows, plus one note counting them."""
    clean = _dataset_lines(tmp_path)
    mutate, dropped = DATASET_DROPS[rule]
    kept = tmp_path / "kept.csv"
    _write_lines(kept, [row for at, row in enumerate(clean) if at not in dropped])
    code, written = _run_on_dataset(command, kept, tmp_path)
    reference_err = capsys.readouterr().err
    assert code == 0 and None not in written
    path = tmp_path / "mutated.csv"
    note = f"note: dropped {len(dropped)} unusable rows from {path}\n" if dropped else ""
    plain, quoted = _read_both_ways(command, path, mutate(clean), tmp_path, capsys)
    assert plain == quoted == (0, note + reference_err, written)


@pytest.mark.parametrize("argv", [
    ["expand", "--task", "binary", "--data", "{data}", "--target-column", "label", "--target-n", "320",
     "--out", "{missing}"],
    ["curve", "--task", "binary", "--data", "{data}", "--target-column", "label", "--start", "30", "--stop", "60",
     "--step", "30", "--epochs", "10", "--series", "{missing}"],
    ["report", "--series", "{series}", "--d", "2", "--report", "{missing}"],
], ids=["expand-out", "curve-series", "report-report"])
def test_output_into_a_missing_directory_is_a_data_error(blobs_csv, tmp_path, capsys, argv):
    series = tmp_path / "series.csv"
    series.write_text("\n".join(SERIES_ROWS) + "\n", encoding="utf-8")
    missing = tmp_path / "no-such-dir" / "out"
    code = main([arg.format(data=blobs_csv, series=series, missing=missing) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("normetric: data error: ") and str(missing) in err
    assert "Traceback" not in err


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1


@pytest.mark.parametrize("argv, flag", [
    (["expand", "--target-n", "0"], "--target-n"),
    (["expand", "--target-n", "500", "--k-neighbors", "0"], "--k-neighbors"),
    (["expand", "--target-n", "500", "--seed", "-1"], "--seed"),
    (["report", "--d", "0"], "--d"),
    (["report", "--n-star", "-4"], "--n-star"),
])
def test_out_of_domain_flag_of_expand_or_report_is_a_usage_error(blobs_csv, tmp_path, capsys, argv, flag):
    out = tmp_path / "out.csv"
    if argv[0] == "expand":
        argv = argv + ["--task", "binary", "--data", blobs_csv, "--target-column", "label", "--out", str(out)]
    else:
        argv = argv + ["--series", blobs_csv]
    assert main(argv) == 1
    assert f"argument {flag}: must be" in capsys.readouterr().err
    assert not out.exists()


PREDICTION_COLUMNS = ["y_true", "y_pred", "y_prob", "p_0", "p_1", "p_2", "p_4", "p_x", "extra"]
ODD_CELLS = ["2", "-1", "1.5", "nan", "inf", "-inf", "1e400", "", "x", " 1 ", "1_0"]


@st.composite
def malformed_predictions(draw):
    """Bytes of a predictions file: well formed for some task, then partly broken."""
    n_classes = draw(st.integers(1, 4))
    header = ["y_true", "y_pred"] + draw(st.sampled_from([[], ["y_prob"], [f"p_{c}" for c in range(n_classes)]]))
    if draw(st.integers(0, 3)) == 0:  # columns missing, misnamed or repeated
        header = draw(st.lists(st.sampled_from(PREDICTION_COLUMNS), max_size=6))
    label = st.integers(0, n_classes - 1).map(str)
    probability = st.sampled_from(["0", "1", "0.25", "0.5", "0.75"])
    rows = [
        [draw(label if name in ("y_true", "y_pred") else probability) for name in header]
        for _ in range(draw(st.integers(0, 8)))
    ]
    odd_cell = st.one_of(
        st.sampled_from(ODD_CELLS),
        st.floats().map(repr),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
    )
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        cut = draw(st.integers(0, len(row)))
        kind = draw(st.sampled_from(["cell", "short", "long"]))
        if kind == "cell" and row:
            row[min(cut, len(row) - 1)] = draw(odd_cell)
        elif kind == "short":
            del row[cut:]
        else:
            row.append(draw(odd_cell))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    if header or draw(st.booleans()):
        writer.writerow(header)
    writer.writerows(rows)
    data = text.getvalue().encode("utf-8")
    if draw(st.integers(0, 19)) == 0:  # not UTF-8
        data += b"\xff\xfe"
    return data


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=malformed_predictions(),
    task=st.sampled_from([kind.value for kind in TaskKind]),
    d=st.integers(-1, 30),
    n=st.integers(-1, 400),
)
def test_evaluate_fails_cleanly_on_malformed_files(tmp_path, capsys, data, task, d, n):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    code = main(["evaluate", "--task", task, "--predictions", str(path), "--d", str(d), "--n", str(n)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    if code:
        assert err.startswith("normetric:"), err
    assert "Traceback" not in err
    # rows that do not sum to 1, and classes absent from y_true, are data errors
    if "sum to 1" in err or "at least one sample" in err or "no row of class" in err:
        assert code == 2, err


@st.composite
def fittable_csv_texts(draw):
    """A dataset CSV a curve can fit: 40-80 rows of 1-3 standard normal features and a label y of 2 or 3
    classes, or a float in [1, 2), with up to three cells spoiled (huge, odd or missing), plain or all quoted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d, classes = draw(st.integers(40, 80)), draw(st.integers(1, 3)), draw(st.sampled_from([0, 2, 3]))
    labels = rng.integers(classes, size=n).tolist() if classes else rng.uniform(1, 2, n).tolist()
    rows = [list(map(repr, features)) + [repr(label)] for features, label in zip(rng.standard_normal((n, d)).tolist(),
                                                                                 labels)]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, d))] = draw(
            st.sampled_from(["1e300", "-1e300", "1e200"] + PARSING + FAILING))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n", quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerows([[f"x{j}" for j in range(d)] + ["y"]] + rows)
    return out.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    text=st.one_of(plain_csv_texts(max_rows=40), csv_texts(max_rows=40), fittable_csv_texts()),
    task=st.sampled_from(list(TaskKind)),
    shares=st.lists(st.integers(30, 100), min_size=3, max_size=3),
    step=st.integers(1, 4),
    extra=st.integers(-2, 30),
    k=st.integers(1, 4),
    seed=st.integers(0, 3),
)
def test_curve_expand_and_report_fail_cleanly_on_small_files(tmp_path, capfd, text, task, shares, step, extra, k,
                                                             seed):
    """Each command on a small dataset CSV, plain or quoted, and report on the series curve wrote (else on the
    dataset): an exit code of 0-4, a failure's reason on the last stderr line, and no traceback or numpy warning,
    a forked worker's included.  The curve's sizes and n* are drawn as shares (in %) of its training pool, and
    expand's target as a number of rows added, so that most runs get past the argument checks."""
    data, series = tmp_path / "fuzz.csv", tmp_path / "series.csv"
    data.write_text(text, encoding="utf-8", newline="")
    series.unlink(missing_ok=True)
    try:
        rows = load_csv(str(data), "y", task).n
    except DataError:
        rows = 12
    start, n_star, stop = sorted(max(1, (rows - rows // 2) * share // 100) for share in shares)
    dataset = ["--task", task.value, "--data", str(data), "--target-column", "y", "--seed", str(seed)]
    runs = [
        ["curve", *dataset, "--start", str(start), "--stop", str(stop), "--step", str(step), "--d", "1",
         "--n-star", str(n_star), "--test-fraction", "0.5", "--epochs", "20", "--series", str(series),
         "--report", str(tmp_path / "r.json")],
        ["expand", *dataset, "--target-n", str(max(1, rows + extra)), "--k-neighbors", str(k),
         "--out", str(tmp_path / "x.csv")],
        ["report", "--series", None, "--n-star", str(n_star)],
    ]
    for argv in runs:
        if argv[0] == "report":
            argv[2] = str(series if series.exists() else data)
        code = main(argv)
        err = capfd.readouterr().err
        assert code in range(5), (argv, err)
        assert code == 0 or err.splitlines()[-1].startswith("normetric:"), (argv, err)
        assert "Traceback" not in err and "Warning" not in err, (argv, err)
        if argv[0] == "curve":  # its user wrote a dataset, not evaluate's arrays
            assert not any(name in err for name in ("y_true", "y_pred", "y_prob", "class_sizes")), (argv, err)
