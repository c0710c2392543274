"""End-to-end tests of the command-line interface, run in-process."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from normetric import TaskKind, load_csv, make_blobs, make_regression, save_csv
from normetric.cli import main


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
