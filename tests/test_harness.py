"""Unit tests for the learning-curve harness and the stability report."""

import dataclasses
import math
import os
import pickle
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference as ref
from workers import assert_no_child, in_pool_worker, recorded_pools, usable_cores
from normetric import (
    ConfigurationError,
    CurvePoint,
    DataError,
    Dataset,
    DomainError,
    LearnerConfig,
    MetricBreakdown,
    TaskKind,
    WorkerError,
    derive_seed,
    format_report_json,
    format_series_csv,
    harness,
    make_binary_classification,
    make_blobs,
    make_regression,
    parse_series_csv,
    run_curve,
    schedule,
    smooth,
    stability_report,
)
from normetric.harness import _standardize


def make_point(size, base, adjusted):
    breakdown = MetricBreakdown(
        base=base,
        dim_factor_f=1.0,
        snr_db=10.0,
        snr_normalized=0.25,
        snr_factor_g=1.25,
        imbalance_ratio=1.0,
        imbalance_factor_h=1.0,
        normalized=adjusted,
    )
    return CurvePoint(train_size=size, breakdown=breakdown)


class TestRunCurve:
    def test_point_count_and_sizes(self):
        ds = make_blobs(120, d=2, n_classes=2, seed=0, task=TaskKind.BINARY_CLASSIFICATION)
        cfg = LearnerConfig(epochs=30)
        points = run_curve(ds, schedule(30, 60, 10), TaskKind.BINARY_CLASSIFICATION, cfg, seed=1)
        assert [p.train_size for p in points] == [30, 40, 50, 60]

    def test_single_point_schedule(self):
        ds = make_regression(80, d=2, seed=3)
        points = run_curve(ds, schedule(30, 30, 5), TaskKind.REGRESSION, seed=2)
        assert len(points) == 1

    def test_adjusted_recomposes_from_breakdown(self):
        ds = make_blobs(150, d=3, n_classes=3, seed=4)
        points = run_curve(ds, schedule(40, 100, 20), TaskKind.MULTICLASS_CLASSIFICATION,
                           LearnerConfig(epochs=40), seed=0)
        for p in points:
            b = p.breakdown
            want = min(1.0, b.base * b.dim_factor_f * b.snr_factor_g / b.imbalance_factor_h)
            assert p.adjusted_metric == pytest.approx(want, abs=1e-12)

    def test_deterministic(self):
        ds = make_regression(100, d=2, seed=5)
        a = run_curve(ds, schedule(20, 60, 20), TaskKind.REGRESSION, seed=7)
        b = run_curve(ds, schedule(20, 60, 20), TaskKind.REGRESSION, seed=7)
        assert a == b

    def test_schedule_exceeding_pool_rejected(self):
        ds = make_regression(50, d=2, seed=6)
        with pytest.raises(DomainError):
            run_curve(ds, schedule(30, 45, 5), TaskKind.REGRESSION, seed=0)

    def test_dimensionality_factor_threshold(self):
        """f stays above 1 before 20 samples per feature and hits exactly 1 after."""
        ds = make_blobs(400, d=2, n_classes=2, seed=9, task=TaskKind.BINARY_CLASSIFICATION)
        points = run_curve(ds, schedule(20, 80, 20), TaskKind.BINARY_CLASSIFICATION,
                           LearnerConfig(epochs=20), seed=0)
        for p in points:
            if p.train_size < 40:
                assert p.breakdown.dim_factor_f > 1.0
            else:
                assert p.breakdown.dim_factor_f == 1.0

    def test_clustering_curve_runs(self):
        ds = make_blobs(200, d=2, n_classes=3, seed=12, task=TaskKind.CLUSTERING)
        points = run_curve(ds, schedule(60, 120, 30), TaskKind.CLUSTERING,
                           LearnerConfig(n_clusters=3), seed=3)
        assert all(0.0 <= p.base_metric <= 1.0 for p in points)
        assert all(p.breakdown.imbalance_factor_h >= 1.0 for p in points)

    def test_zero_clusters_is_not_read_as_unset(self):
        ds = make_blobs(200, d=2, n_classes=3, seed=12, task=TaskKind.CLUSTERING)
        with pytest.raises(DomainError):
            run_curve(ds, schedule(60, 120, 30), TaskKind.CLUSTERING, LearnerConfig(n_clusters=0), seed=3)


def _chunk_rows(monkeypatch, rows, d=3):
    """Cut the curve's schedule into chunks of at most `rows` training rows of d features (one size may exceed it)."""
    monkeypatch.setattr(harness, "_CHUNK_BYTES", rows * d * 8)


def _before_each_set(monkeypatch, before):
    """Call before(rows) as the curve's stacked logistic fit draws each training set, in whichever process."""
    stack = harness._fit_logistic_stack

    def drawn(sets):
        for X, y, seed in sets:
            before(len(X))
            yield X, y, seed

    monkeypatch.setattr(harness, "_fit_logistic_stack", lambda sets, *args: stack(drawn(sets), *args))


def _raise_timeout(signum, frame):
    raise TimeoutError("run_curve still waiting after 60 s")


class TestForkedCurve:
    CURVES = {
        TaskKind.BINARY_CLASSIFICATION: (
            make_binary_classification(300, d=3, seed=1), schedule(30, 150, 30), LearnerConfig(epochs=60)),
        TaskKind.MULTICLASS_CLASSIFICATION: (
            make_blobs(300, d=3, n_classes=3, seed=2), schedule(30, 150, 30), LearnerConfig(epochs=60)),
        TaskKind.REGRESSION: (make_regression(200, d=3, seed=3), schedule(20, 100, 20), LearnerConfig()),
        TaskKind.CLUSTERING: (
            make_blobs(300, d=2, n_classes=3, seed=4, task=TaskKind.CLUSTERING), schedule(60, 180, 30),
            LearnerConfig(n_clusters=3)),
    }

    @pytest.mark.parametrize("d", [0, -1, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
    @pytest.mark.parametrize("task", list(CURVES), ids=lambda task: task.value)
    def test_a_d_that_is_not_finite_and_positive_is_refused_before_the_split(self, monkeypatch, task, d):
        """In factors' words for every task, and before a chunk is fitted, not after as a score's failure."""
        ds, sched, config = self.CURVES[task]
        for stage in ("split", "map_on_cores"):
            monkeypatch.setattr(harness, stage, lambda *args, stage=stage: pytest.fail(f"{stage} ran"))
        with pytest.raises(DomainError) as raised:
            run_curve(ds, sched, task, config, seed=5, d=d)
        assert str(raised.value) == f"d must be finite and positive, got d={d}"

    FORKED = [task for task in CURVES if task is not TaskKind.REGRESSION]  # a regression curve is one chunk

    @pytest.mark.parametrize("task", FORKED, ids=lambda task: task.value)
    def test_workers_give_the_serial_points_bit_for_bit(self, monkeypatch, task):
        """Two and three workers (more than this host may have cores) on four chunks, the first of two sizes,
        against the serial loop in this process, on one chunk of every size and on one chunk per size."""
        ds, sched, config = self.CURVES[task]
        pools = recorded_pools(monkeypatch)
        _chunk_rows(monkeypatch, 150 if task is TaskKind.CLUSTERING else 100, ds.d)
        forked = []
        for cores in ({0, 1}, {0, 1, 2}):
            usable_cores(monkeypatch, cores)
            forked.append(run_curve(ds, sched, task, config, seed=5))
            assert_no_child()
        assert pools == [2, 3]
        usable_cores(monkeypatch, {0})
        for chunk_bytes in (1, 2**30):
            monkeypatch.setattr(harness, "_CHUNK_BYTES", chunk_bytes)
            serial = run_curve(ds, sched, task, config, seed=5)
            assert pickle.dumps(forked[0]) == pickle.dumps(forked[1]) == pickle.dumps(serial)
        assert pools == [2, 3]
        assert [p.train_size for p in serial] == list(sched.sizes)
        assert format_series_csv(forked[1]) == format_series_csv(serial)

    def test_one_chunk_is_fitted_here_and_two_fork_on_two_workers(self, monkeypatch):
        ds, sched, config = self.CURVES[TaskKind.BINARY_CLASSIFICATION]
        usable_cores(monkeypatch, {0, 1, 2})
        pools = recorded_pools(monkeypatch)
        points = []
        for rows in (450, 449):  # sizes 30..150 by 30 as one chunk, then as [30, 60, 90, 120] and [150]
            _chunk_rows(monkeypatch, rows, ds.d)
            points.append(pickle.dumps(run_curve(ds, sched, TaskKind.BINARY_CLASSIFICATION, config, seed=5)))
            assert_no_child()
        assert pools == [2]
        assert points[0] == points[1]

    def test_a_regression_curve_is_one_chunk_fitted_here(self, monkeypatch):
        """Its line fits take a few milliseconds, less than forking costs, so no byte bound cuts it; its points
        are those of each size fitted on its own."""
        ds, sched, config = self.CURVES[TaskKind.REGRESSION]
        usable_cores(monkeypatch, {0, 1})
        _chunk_rows(monkeypatch, 1, ds.d)
        pools, chunks, forking = recorded_pools(monkeypatch), [], harness.map_on_cores
        monkeypatch.setattr(harness, "map_on_cores", lambda work, jobs, lost: chunks.extend(jobs) or forking(
            work, jobs, lost))
        points = run_curve(ds, sched, TaskKind.REGRESSION, config, seed=5)
        assert chunks == [list(sched.sizes)]
        alone = [run_curve(ds, schedule(size, size, 1), TaskKind.REGRESSION, config, seed=5)[0] for size in sched.sizes]
        assert pools == []
        assert pickle.dumps(points) == pickle.dumps(alone)

    def test_chunks_hold_consecutive_sizes_under_the_byte_bound(self, monkeypatch):
        ds, sched, config = self.CURVES[TaskKind.BINARY_CLASSIFICATION]
        chunks = []
        monkeypatch.setattr(harness, "map_on_cores", lambda work, jobs, lost: chunks.extend(jobs) or [])
        for rows in (1, 90, 100, 449, 450):
            _chunk_rows(monkeypatch, rows)
            run_curve(ds, sched, TaskKind.BINARY_CLASSIFICATION, config, seed=5)
        assert chunks == [[30], [60], [90], [120], [150],
                          [30, 60], [90], [120], [150],
                          [30, 60], [90], [120], [150],
                          [30, 60, 90, 120], [150],
                          [30, 60, 90, 120, 150]]

    @pytest.mark.parametrize("task", list(CURVES), ids=lambda task: task.value)
    def test_a_chunk_holds_no_scaled_test_split_per_size(self, monkeypatch, task):
        """A 9/10 test split of 18,000 rows dwarfs the training sets: a chunk of 16 sizes peaks within two
        copies of it of a chunk of one, where a scaled copy kept for each size would add fifteen."""
        ds = {TaskKind.BINARY_CLASSIFICATION: make_binary_classification(20000, d=4, seed=1),
              TaskKind.MULTICLASS_CLASSIFICATION: make_blobs(20000, d=4, n_classes=3, seed=1),
              TaskKind.REGRESSION: make_regression(20000, d=4, seed=1),
              TaskKind.CLUSTERING: make_blobs(20000, d=4, n_classes=2, seed=1, task=TaskKind.CLUSTERING)}[task]
        usable_cores(monkeypatch, {0})
        monkeypatch.setattr(harness, "_CHUNK_BYTES", 2**30)
        peaks = []
        for stop in (20, 320):
            tracemalloc.start()
            try:
                run_curve(ds, schedule(20, stop, 20), task, LearnerConfig(test_fraction=0.9, epochs=5), seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * 18000 * ds.features[:1].nbytes

    def test_a_pool_worker_forks_the_curve(self, monkeypatch):
        """A multiprocessing.Pool worker is daemonic; it forks a curve's chunks as any other process does."""
        ds, sched, config = self.CURVES[TaskKind.BINARY_CLASSIFICATION]
        usable_cores(monkeypatch, {0, 1})
        _chunk_rows(monkeypatch, 100, ds.d)
        inside, pools = in_pool_worker(run_curve, ds, sched, TaskKind.BINARY_CLASSIFICATION, config, 5)
        assert pools == [2]
        usable_cores(monkeypatch, {0})
        assert pickle.dumps(inside) == pickle.dumps(run_curve(ds, sched, TaskKind.BINARY_CLASSIFICATION, config, seed=5))
        assert_no_child()

    def test_a_column_too_large_to_standardize_is_named_from_a_worker(self, monkeypatch):
        rng = np.random.default_rng(0)
        ds = Dataset(["x0", "x1"], np.column_stack([rng.choice([-1.5e308, 1.5e308, 1.7e308], size=200),
                                                    rng.standard_normal(200)]),
                     np.arange(200) % 2, TaskKind.CLUSTERING)
        usable_cores(monkeypatch, {0, 1})
        _chunk_rows(monkeypatch, 1, ds.d)  # a chunk per size, so the first fails in a worker
        pools = recorded_pools(monkeypatch)
        with pytest.raises(DomainError, match=r"^feature column 'x0' is too large to standardize$"):
            run_curve(ds, schedule(40, 160, 40), TaskKind.CLUSTERING, seed=0)
        assert pools == [2]
        assert_no_child()

    def test_a_killed_worker_ends_the_curve_with_an_error(self, monkeypatch):
        ds, sched, config = self.CURVES[TaskKind.BINARY_CLASSIFICATION]
        parent = os.getpid()

        def killed_at_90_rows(rows):
            if os.getpid() != parent and rows == 90:  # never this process
                os.kill(os.getpid(), signal.SIGKILL)

        _before_each_set(monkeypatch, killed_at_90_rows)
        _chunk_rows(monkeypatch, 1)
        usable_cores(monkeypatch, {0, 1})
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.alarm(60)
        try:
            with pytest.raises(WorkerError, match=r"^a worker process died before training size \d+ was fitted "
                                                  r"\(killed, or out of memory\)$"):
                run_curve(ds, sched, TaskKind.BINARY_CLASSIFICATION, config, seed=5)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child()

    def test_points_keep_schedule_order_when_the_smallest_size_finishes_last(self, monkeypatch):
        ds, sched, config = self.CURVES[TaskKind.BINARY_CLASSIFICATION]
        parent = os.getpid()

        def slow_at_30_rows(rows):
            if os.getpid() != parent and rows == 30:  # every other size is fitted before this one
                time.sleep(1.0)

        _before_each_set(monkeypatch, slow_at_30_rows)
        _chunk_rows(monkeypatch, 1)
        pools = recorded_pools(monkeypatch)
        usable_cores(monkeypatch, {0, 1, 2})
        forked = run_curve(ds, sched, TaskKind.BINARY_CLASSIFICATION, config, seed=5)
        usable_cores(monkeypatch, {0})
        serial = run_curve(ds, sched, TaskKind.BINARY_CLASSIFICATION, config, seed=5)
        assert pools == [3]
        assert [p.train_size for p in forked] == list(sched.sizes)
        assert pickle.dumps(forked) == pickle.dumps(serial)

    @pytest.mark.parametrize("rows, started", [(1, [3]), (450, [])], ids=["chunk-per-size", "one-chunk"])
    def test_the_smaller_failing_size_is_raised_when_the_larger_fails_first(self, monkeypatch, rows, started):
        """Forked on a chunk per size, and in this process on one chunk whose stack draws every size."""
        ds, sched, config = self.CURVES[TaskKind.BINARY_CLASSIFICATION]
        parent = os.getpid()

        def failing_at_60_and_120_rows(rows):
            if rows == 60:
                if os.getpid() != parent:
                    time.sleep(1.0)  # long after 120 rows has failed
                raise ArithmeticError("the fit at 60 rows failed")
            if rows == 120:
                raise LookupError("the fit at 120 rows failed")

        _before_each_set(monkeypatch, failing_at_60_and_120_rows)
        _chunk_rows(monkeypatch, rows)
        pools = recorded_pools(monkeypatch)
        usable_cores(monkeypatch, {0, 1, 2})
        with pytest.raises(ArithmeticError, match=r"^the fit at 60 rows failed$"):
            run_curve(ds, sched, TaskKind.BINARY_CLASSIFICATION, config, seed=5)
        assert pools == started
        assert_no_child()


class TestSmooth:
    def test_window_one_is_identity(self):
        values = [0.2, 0.9, 0.4]
        assert smooth(values, 1).tolist() == values

    def test_constant_series_unchanged(self):
        assert smooth([0.7] * 5, 3).tolist() == pytest.approx([0.7] * 5, abs=1e-15)

    def test_centered_truncated_window(self):
        assert smooth([0.0, 1.0, 0.0], 3).tolist() == pytest.approx([0.5, 1.0 / 3.0, 0.5])

    def test_never_escapes_raw_range(self):
        values = np.random.default_rng(8).uniform(0.1, 0.9, size=15)
        out = smooth(values, 7)
        assert (values.min() - 1e-12 <= out).all() and (out <= values.max() + 1e-12).all()

    @given(values=st.lists(st.floats(0.0, 1.0), max_size=30), half=st.integers(0, 20))
    def test_matches_the_loop_oracle(self, values, half):
        out = smooth(values, 2 * half + 1)
        assert out.shape == (len(values),)
        np.testing.assert_allclose(out, ref.ref_smooth(values, 2 * half + 1), rtol=0, atol=1e-14)

    def test_even_window_rejected(self):
        with pytest.raises(DomainError):
            smooth([0.5], 4)


class TestStabilityReport:
    def test_constant_series(self):
        pts = [make_point(s, 0.9, 0.9) for s in (10, 20, 30)]
        rep = stability_report(pts, n_star=15)
        assert rep.initial.mad_from_target == 0.0
        assert rep.initial.overall_avg == pytest.approx(0.9)
        assert rep.adjusted.mad_from_target == 0.0

    def test_adjusted_equal_to_initial_gives_identical_stats(self):
        pts = [make_point(s, v, v) for s, v in zip((10, 20, 30), (0.5, 0.8, 0.7))]
        rep = stability_report(pts, n_star=15)
        assert rep.initial == rep.adjusted

    def test_three_point_example(self):
        """One pre-threshold point at 0.8 boosted to 0.88 against a 0.9 tail."""
        bases = [0.8, 0.9, 0.9]
        adjusted = [0.88, 0.9, 0.9]
        pts = [make_point(s, b, a) for s, b, a in zip((10, 20, 30), bases, adjusted)]
        rep = stability_report(pts, n_star=15)
        assert rep.threshold_n_star == 15
        assert rep.initial.avg_before == pytest.approx(0.8)
        assert rep.initial.avg_after == pytest.approx(0.9)
        assert rep.initial.mad_from_target == pytest.approx(0.1 / 3.0, abs=1e-12)
        assert rep.adjusted.mad_from_target == pytest.approx(0.02 / 3.0, abs=1e-12)
        assert rep.adjusted.mad_from_target < rep.initial.mad_from_target

    def test_default_threshold_is_twenty_per_feature(self):
        pts = [make_point(s, 0.5, 0.5) for s in (100, 300)]
        rep = stability_report(pts, d=13)
        assert rep.threshold_n_star == 260

    def test_before_scope(self):
        pts = [make_point(s, b, a) for s, b, a in
               zip((10, 20, 30), (0.8, 0.9, 0.9), (0.88, 0.9, 0.9))]
        rep = stability_report(pts, n_star=15, mad_scope="before")
        assert rep.initial.mad_from_target == pytest.approx(0.1, abs=1e-12)
        assert rep.adjusted.mad_from_target == pytest.approx(0.02, abs=1e-12)

    def test_needs_a_threshold(self):
        pts = [make_point(10, 0.5, 0.5)]
        with pytest.raises(ConfigurationError):
            stability_report(pts)

    def test_error_names_the_empty_side(self):
        pts = [make_point(s, 0.5, 0.5) for s in (10, 20)]
        with pytest.raises(DomainError, match="after"):
            stability_report(pts, n_star=50)
        with pytest.raises(DomainError, match="before"):
            stability_report(pts, n_star=5)

    def test_unknown_scope_rejected(self):
        pts = [make_point(s, 0.5, 0.5) for s in (10, 20)]
        with pytest.raises(ConfigurationError):
            stability_report(pts, n_star=15, mad_scope="sideways")


def test_curve_point_holds_each_number_once():
    point = make_point(10, 0.5, 0.625)
    assert [field.name for field in dataclasses.fields(CurvePoint)] == ["train_size", "breakdown"]
    assert (point.base_metric, point.adjusted_metric) == (0.5, 0.625)


class TestSerialization:
    def test_series_round_trip_is_exact(self, tmp_path):
        ds = make_regression(120, d=2, seed=1)
        points = run_curve(ds, schedule(20, 80, 20), TaskKind.REGRESSION, seed=5)
        path = tmp_path / "series.csv"
        path.write_text(format_series_csv(points), encoding="utf-8")
        back = parse_series_csv(str(path))
        assert len(back) == len(points)
        for p, q in zip(points, back):
            assert p.train_size == q.train_size
            assert p.base_metric == q.base_metric  # str(float) round-trips exactly
            assert p.adjusted_metric == q.adjusted_metric
            assert p.breakdown.snr_db == q.breakdown.snr_db

    def test_report_survives_the_round_trip(self, tmp_path):
        ds = make_regression(150, d=3, seed=2)
        points = run_curve(ds, schedule(30, 120, 30), TaskKind.REGRESSION, seed=9)
        direct = stability_report(points, n_star=60)
        path = tmp_path / "series.csv"
        path.write_text(format_series_csv(points), encoding="utf-8")
        re_read = stability_report(parse_series_csv(str(path)), n_star=60)
        for side in ("initial", "adjusted"):
            a, b = getattr(direct, side), getattr(re_read, side)
            assert a.overall_avg == pytest.approx(b.overall_avg, abs=1e-12)
            assert a.mad_from_target == pytest.approx(b.mad_from_target, abs=1e-12)

    def test_infinite_snr_uses_inf_token(self, tmp_path):
        breakdown = MetricBreakdown(
            base=1.0, dim_factor_f=1.0, snr_db=math.inf, snr_normalized=0.5,
            snr_factor_g=1.5, imbalance_ratio=1.0, imbalance_factor_h=1.0, normalized=1.0,
        )
        pts = [CurvePoint(train_size=10, breakdown=breakdown)]
        text = format_series_csv(pts)
        row = text.splitlines()[1].split(",")
        header = text.splitlines()[0].split(",")
        assert row[header.index("snr_db")] == "inf"
        path = tmp_path / "series.csv"
        path.write_text(text, encoding="utf-8")
        assert parse_series_csv(str(path))[0].breakdown.snr_db == math.inf

    def test_header_layout(self):
        pts = [make_point(10, 0.5, 0.5)]
        header = format_series_csv(pts).splitlines()[0].split(",")
        assert header[:9] == [
            "train_size", "base_metric", "adjusted_metric", "f", "g", "h",
            "snr_db", "snr_normalized", "imbalance_ratio",
        ]

    def test_parse_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,series\n1,2,3\n", encoding="utf-8")
        with pytest.raises(DataError):
            parse_series_csv(str(bad))
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            parse_series_csv(str(empty))
        with pytest.raises(DataError):
            parse_series_csv(str(tmp_path / "missing.csv"))

    def test_parse_uses_the_column_table(self, tmp_path):
        # columns in another order, plus an extra one, read back by name
        point = make_point(10, 0.5, 0.625)
        path = tmp_path / "series.csv"
        path.write_text(
            "extra,imbalance_ratio,snr_normalized,snr_db,h,g,f,adjusted_metric,base_metric,train_size\n"
            "x,1.0,0.25,10.0,1.0,1.25,1.0,0.625,0.5,10\n",
            encoding="utf-8",
        )
        assert parse_series_csv(str(path)) == [point]

    def test_report_json_has_six_decimal_reals(self):
        pts = [make_point(s, b, a) for s, b, a in
               zip((10, 20, 30), (0.8, 0.9, 0.9), (0.88, 0.9, 0.9))]
        text = format_report_json(stability_report(pts, n_star=15))
        assert '"threshold_n_star": 15' in text
        assert '"mad_from_target": 0.033333' in text
        assert '"mad_from_target": 0.006667' in text
        assert text.endswith("\n")


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(42, 1, 80) == derive_seed(42, 1, 80)
    assert derive_seed(42, 1, 80) != derive_seed(42, 1, 100)
    assert derive_seed(42, 0) != derive_seed(43, 0)


@pytest.mark.parametrize("train, test", [
    ([1.5e308, 1.7e308], [0.0]),  # the training sum overflows, so mean and std do
    ([1e200, -1e200], [0.0]),  # the mean is 0, but the squares overflow the std
    ([-0.9e308, -0.8e308], [1.7e308]),  # finite statistics, but 1.7e308 - (-0.85e308) overflows
], ids=["training-mean", "training-std", "test-side"])
def test_a_column_too_large_to_standardize_is_named(train, test):
    """Column 1 holds the values; column 0 is ordinary, so the message must point past it."""
    train, test = np.column_stack([[0.0, 1.0], train]), np.column_stack([[0.5] * len(test), test])
    with pytest.raises(DomainError, match=r"^feature column 'big' is too large to standardize$"):
        _standardize(train, test, ["small", "big"])


@pytest.mark.parametrize("train", [
    [1e-300, 2e-300], [0.0, 1.0], [-0.9e308, -0.8e308], [0.8e308, 0.9e308], [1.5e308, 1.7e308], [1e200, -1e200],
], ids=["tiny-std", "ordinary", "far-below", "far-above", "training-mean", "training-std"])
def test_standardizing_on_the_test_columns_ends_accepts_what_the_whole_test_split_allows(train):
    """The check on each column's least and greatest test values passes exactly when every scaled test
    value is finite, whichever end lies far out, and the scaling it returns gives the test split those values."""
    train = np.array(train)[:, np.newaxis]
    for test in ([0.5], [0.5, 1e10], [-1e10, 0.5], [0.5, 1.7e308], [-1.7e308, 0.5], [-1.7e308, 0.5, 1.7e308]):
        test = np.array(test)[:, np.newaxis]
        with np.errstate(all="ignore"):
            mean, std = train.mean(axis=0), train.std(axis=0)
            full = (test - mean) / np.where(std == 0.0, 1.0, std)
        fits = bool(np.isfinite(std).all() and np.isfinite(full).all())
        try:
            _, (mean, std) = _standardize(train, test, ["x"])
        except DomainError:
            assert not fits, test
        else:
            assert fits and np.array_equal((test - mean) / std, full), test
