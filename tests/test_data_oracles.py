"""The array-code data layer against its former row loops, bit for bit.

load_csv, save_csv and the neighbour scan inside synthetic_expand were
rewritten as array code under the promise of identical output, and the
scan, save_csv and the CSV reader were then forked across cores under the
same promise; the scan was then narrowed to the rows synthetic_expand draws.
The old loops live on in tests/reference.py; these property tests feed
both the kinds of input where column parsing, label encoding and
tie-breaking could drift: wrong-width rows, cells Python's float() treats
specially, columns at the half-numeric threshold, heavy distance ties and
tiny classes.
read_blocks splits a plain file (no quotes, no carriage returns) itself and
sends any other through csv.reader, so both kinds of file are generated.
"""

import concurrent.futures
import contextlib
import csv
import errno
import io
import multiprocessing
import os
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference as ref
from normetric import (DataError, Dataset, DomainError, TaskKind, load_csv, make_binary_classification, make_blobs,
                       make_regression, save_csv)
from normetric import data
from normetric.cli import main
from normetric.data import _neighbor_table, read_blocks, read_columns

CLASS_TASKS = [TaskKind.BINARY_CLASSIFICATION, TaskKind.MULTICLASS_CLASSIFICATION, TaskKind.CLUSTERING]

# cells float() reads as finite numbers, in several spellings
PARSING = ["0", "1", "-2", "2.5", "-0.0", "1e-5", "5e-324", "1e16", "1_000", "١٢", " 7 ", "+.5"]
# cells that are empty, unparseable or not finite; some need CSV quoting
FAILING = ["", "n/a", "nan", "inf", "-Infinity", "1e500", "x", "b", "a,b", 'say "hi"', "1,5"]
NAMES = ["a", "b", "y", "c,d", "a"]


def bits(array):
    return array.dtype, array.shape, array.tobytes()


@st.composite
def csv_texts(draw):
    """A dataset CSV whose target column is 'y', plus some wrong-width rows."""
    n_columns = draw(st.integers(1, 5))
    header = draw(st.lists(st.sampled_from(NAMES), min_size=n_columns, max_size=n_columns))
    header[draw(st.integers(0, n_columns - 1))] = "y"
    n_rows = draw(st.integers(1, 12))
    number = st.one_of(
        st.sampled_from(PARSING),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-3, 3).map(str),
    )
    columns = []
    for _ in range(n_columns):
        # how many cells parse: all, none, either side of half, or any
        half = n_rows // 2
        n_parsing = draw(st.sampled_from([n_rows, 0, half, half + 1, draw(st.integers(0, n_rows))]))
        n_parsing = min(n_parsing, n_rows)
        cells = [draw(number) for _ in range(n_parsing)]
        cells += [draw(st.sampled_from(FAILING)) for _ in range(n_rows - n_parsing)]
        columns.append(draw(st.permutations(cells)))
    rows = [list(row) for row in zip(*columns)]
    for _ in range(draw(st.integers(0, 3))):  # rows of the wrong width, blank lines included
        width = draw(st.integers(0, n_columns + 2).filter(lambda w: w != n_columns))
        rows.insert(draw(st.integers(0, len(rows))), [draw(number) for _ in range(width)])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


# cells a plain file can hold: no quote and no comma
PLAIN_CELLS = [cell for cell in PARSING + FAILING if '"' not in cell and "," not in cell]


@st.composite
def plain_csv_texts(draw):
    """A dataset CSV written line by line with no quoting, as read_blocks splits it itself.

    Blank lines, rows a field short or over, one-column files, an empty
    header line and a missing final newline all occur.
    """
    n_columns = draw(st.integers(1, 4))
    header = draw(st.lists(st.sampled_from(["a", "b", "y", ""]), min_size=n_columns, max_size=n_columns))
    if draw(st.integers(0, 9)):
        header[draw(st.integers(0, n_columns - 1))] = "y"
    elif draw(st.booleans()):
        header = []  # an empty header line
    cell = st.one_of(
        st.sampled_from(PLAIN_CELLS),
        st.floats().map(repr),
        st.integers(-3, 3).map(str),
    )
    widths = st.sampled_from([n_columns] * 4 + [0, n_columns - 1, n_columns + 1])
    rows = [[draw(cell) for _ in range(draw(widths))] for _ in range(draw(st.integers(0, 12)))]
    text = "\n".join(",".join(row) for row in [header] + rows)
    return text + draw(st.sampled_from(["\n", ""]))


def load_both(path, task):
    outcomes = []
    for loader in (ref.ref_load_csv, load_csv):
        try:
            outcomes.append(loader(path, "y", task))
        except DataError as exc:
            outcomes.append(str(exc))
    return outcomes


@contextlib.contextmanager
def reading_on(cores):
    """Reads in blocks of three rows on this many usable cores, forked on more than one whatever the file's size."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores))), \
            mock.patch.object(data, "_BLOCK_ROWS", 3), mock.patch.object(data, "_FORK_READ_BYTES", 1):
        yield
    assert multiprocessing.active_children() == []


def assert_loads_as_row_loop(path, task, cores=None):
    """load_csv against the row loop, on this many cores in blocks of three rows, or as configured (None)."""
    with reading_on(cores) if cores else contextlib.nullcontext():
        expected, got = load_both(str(path), task)
    if isinstance(expected, str):
        assert got == expected
        return
    assert got.feature_names == expected.feature_names
    assert got.target_name == expected.target_name
    assert got.n_dropped == expected.n_dropped
    assert got.task is expected.task
    assert bits(got.features) == bits(expected.features)
    assert bits(got.target) == bits(expected.target)


@pytest.mark.parametrize("cores", [1, 3])
@settings(max_examples=400, deadline=None)
@given(text=csv_texts(), task=st.sampled_from(list(TaskKind)))
def test_load_csv_matches_row_loop(tmp_path_factory, cores, text, task):
    path = tmp_path_factory.mktemp("load") / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_loads_as_row_loop(path, task, cores)


@pytest.mark.parametrize("cores", [1, 3])
@settings(max_examples=400, deadline=None)
@given(text=plain_csv_texts(), task=st.sampled_from(list(TaskKind)))
def test_load_csv_matches_row_loop_on_plain_files(tmp_path_factory, cores, text, task):
    path = tmp_path_factory.mktemp("plain") / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_loads_as_row_loop(path, task, cores)


def rows_of(blocks):
    """The data rows in file order, rebuilt block by block from what read_blocks yields."""
    rows = []
    for columns, others in blocks:
        full = zip(*columns)
        odd = dict(others)
        n_rows = (len(columns[0]) if columns else 0) + len(odd)
        rows += [list(odd[at]) if at in odd else list(next(full)) for at in range(n_rows)]
    return rows


def read_as_csv_reader_does(path, text):
    """read_blocks's header and blocks, asserting that a plain file never reaches csv.reader."""
    def read():
        header, blocks = read_blocks(str(path))
        return header, list(blocks(lambda block: block))

    if '"' in text or "\r" in text:
        return read()
    with mock.patch.object(data.csv, "reader", side_effect=AssertionError("plain file sent to csv.reader")):
        return read()


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(plain_csv_texts(), csv_texts()))
def test_read_blocks_gives_the_rows_of_csv_reader(tmp_path_factory, text):
    assume(text)  # an empty file has no header: a DataError, tested with load_csv
    path = tmp_path_factory.mktemp("read") / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = list(csv.reader(io.StringIO(text, newline="")))
    header, blocks = read_as_csv_reader_does(path, text)
    assert header == expected[0]
    for columns, others in blocks:
        assert len(columns) == len(header)
        assert all(not row or len(row) != len(header) for _, row in others)
    assert rows_of(blocks) == expected[1:]


@pytest.mark.parametrize("text", [
    "y\n1\n\n2",  # one column, a blank line, no final newline
    "\n1,2\n\n",  # an empty header line
    "a,y\n1,2\n\n1\n1,2,3\n3,4",  # blank, short and long rows
    "a,y\n",  # no data rows
    "y\n\n\n",  # only blank rows
], ids=["one-column", "empty-header", "odd-rows", "header-only", "only-blank"])
def test_plain_edge_cases_read_as_csv_reader_reads_them(tmp_path, text):
    path = tmp_path / "edge.csv"
    path.write_text(text, encoding="utf-8", newline="")
    header, blocks = read_as_csv_reader_does(path, text)
    expected = list(csv.reader(io.StringIO(text, newline="")))
    assert [header] + rows_of(blocks) == expected
    for task in TaskKind:
        assert_loads_as_row_loop(path, task)


def test_load_csv_oracle_sees_the_generator_cases(tmp_path):
    """A fixed file with every hard case, so the property above cannot pass vacuously."""
    text = (
        'a,b,"c,d",a,y\n'
        '1_000,"x,z",6,-0.0,p\n'
        "2,,7,1e16,q\n"
        "١٢,b,8,5e-324,p\n"
        "nan,x,9,1e-5,\n"
        "3,b,inf,2,r\n"
        "4,b\n"
        "\n"
    )
    path = tmp_path / "hard.csv"
    path.write_text(text, encoding="utf-8")
    for task in CLASS_TASKS:
        expected, got = load_both(str(path), task)
        assert got.n_dropped == expected.n_dropped == 5
        assert bits(got.features) == bits(expected.features)
        assert bits(got.target) == bits(expected.target)
    assert bits(got.features) == bits(np.array([[1000.0, 0.0, 6.0, -0.0], [12.0, 1.0, 8.0, 5e-324]]))
    assert got.feature_names == ["a", "b", "c,d", "a"]


def test_plain_tokenizer_spans_several_blocks(tmp_path):
    """A plain file of many blocks of lines, with odd rows scattered, read as csv.reader reads it."""
    rng = np.random.default_rng(3)
    widths = rng.choice([3, 3, 3, 3, 0, 2, 4], size=9000)
    lines = ["a,b,y"] + [",".join(repr(v) for v in rng.standard_normal(w).round(3)) for w in widths]
    text = "\n".join(lines) + "\n"
    path = tmp_path / "blocks.csv"
    path.write_text(text, encoding="utf-8", newline="")
    header, blocks = read_as_csv_reader_does(path, text)
    assert [header] + rows_of(blocks) == list(csv.reader(io.StringIO(text, newline="")))
    assert_loads_as_row_loop(path, TaskKind.REGRESSION)


def test_a_line_over_the_field_limit_is_left_to_csv_reader(tmp_path):
    """A plain file whose cell exceeds csv.field_size_limit() fails as csv.reader fails."""
    path = tmp_path / "long.csv"
    path.write_text("a,y\n" + "1" * (csv.field_size_limit() + 1) + ",0\n", encoding="utf-8")
    with pytest.raises(csv.Error):
        ref.ref_load_csv(str(path), "y", TaskKind.BINARY_CLASSIFICATION)
    with pytest.raises(DataError, match="field larger than field limit"):
        load_csv(str(path), "y", TaskKind.BINARY_CLASSIFICATION)


special_floats = st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, -1.5e300, 123456789.125])
feature_values = st.one_of(special_floats, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def saveable_datasets(draw):
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 4))
    features = np.array(draw(st.lists(feature_values, min_size=n * d, max_size=n * d))).reshape(n, d)
    task = draw(st.sampled_from(list(TaskKind)))
    if task.has_class_targets:
        target = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    else:
        target = np.array(draw(st.lists(feature_values, min_size=n, max_size=n)))
    names = draw(st.lists(st.sampled_from(NAMES + ['q"t']), min_size=d, max_size=d))
    return Dataset(names, features, target, task, target_name=draw(st.sampled_from(["y", "a,y"])))


@pytest.mark.parametrize("cores", [1, 3])
@settings(max_examples=300, deadline=None)
@given(ds=saveable_datasets())
@example(ds=Dataset(["a"], np.ones((4, 1)), np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1]),
                    TaskKind.REGRESSION))
def test_save_csv_matches_row_loop(tmp_path_factory, cores, ds):
    """Blocks of three rows, so most files span several; on three cores every one of those forks."""
    folder = tmp_path_factory.mktemp("save")
    ref.ref_save_csv(ds, str(folder / "expected.csv"))
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores))), \
            mock.patch.object(data, "_BLOCK_ROWS", 3), mock.patch.object(data, "_FORK_SAVE_CELLS", 1):
        save_csv(ds, str(folder / "got.csv"))
    assert (folder / "got.csv").read_bytes() == (folder / "expected.csv").read_bytes()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cores", [1, 3])
def test_save_csv_rejects_a_nan_class_target(tmp_path, monkeypatch, cores):
    """Before the file is opened, and before any worker starts."""
    ds = Dataset(["a"], np.zeros((2, 1)), np.array([0.0, np.nan]), TaskKind.BINARY_CLASSIFICATION)
    with pytest.raises(ValueError):
        ref.ref_save_csv(ds, str(tmp_path / "expected.csv"))
    _usable_cores(monkeypatch, set(range(cores)))
    monkeypatch.setattr(data, "_BLOCK_ROWS", 1)
    monkeypatch.setattr(data, "_FORK_SAVE_CELLS", 1)
    pools = _recorded_pools(monkeypatch)
    with pytest.raises(ValueError):
        save_csv(ds, str(tmp_path / "got.csv"))
    assert not (tmp_path / "got.csv").exists()
    assert pools == []


@st.composite
def neighbour_datasets(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(0, 17))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    # rounding to few distinct values makes distance ties common
    decimals = draw(st.sampled_from([None, 1, 0]))
    if decimals is not None:
        features = np.round(features, decimals)
    for _ in range(draw(st.integers(0, 3))):  # exact duplicate rows
        features[rng.integers(n)] = features[rng.integers(n)]
    if d and draw(st.integers(0, 9)) == 0:  # a non-finite cell, as a library caller may pass
        features[rng.integers(n), rng.integers(d)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    task = draw(st.sampled_from([TaskKind.REGRESSION] + CLASS_TASKS))
    if task.has_class_targets:
        # up to n classes: singletons and classes smaller than k are common
        target = rng.integers(0, draw(st.integers(1, n)), n)
    else:
        target = rng.standard_normal(n)
    k = draw(st.integers(1, n - 1))
    return Dataset([f"x{j}" for j in range(d)], features, target, task), k


def _pools(ds):
    if ds.task.has_class_targets:
        return [np.flatnonzero(ds.target == label) for label in np.unique(ds.target)]
    return [np.arange(ds.n)]


def _neighbor_lists(ds, k):
    """Each row's neighbour list, every row scanned as if drawn: its line of _neighbor_table up to the -1s."""
    return [line[line >= 0] for line in _neighbor_table(ds.features, _pools(ds), k, np.arange(ds.n))]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(case=neighbour_datasets())
def test_neighbour_scan_matches_row_loop(case):
    ds, k = case
    expected = ref.ref_neighbor_lists(ds, k)
    got = _neighbor_lists(ds, k)
    assert len(got) == len(expected)
    for row_got, row_expected in zip(got, expected):
        assert bits(row_got) == bits(row_expected)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("cores", [1, 3])
@settings(max_examples=200, deadline=None)
@given(case=neighbour_datasets(), extra=st.integers(1, 60))
def test_expand_matches_row_loop(cores, case, extra):
    """Drawn first and scanned only where drawn, as the row loop over every row's list; a block and a job per
    drawn row, so on three cores every scan of two drawn rows or more forks.  No distance here overflows, so a
    scan of every row would succeed too."""
    ds, k = case
    expected = ref.ref_synthetic_expand(ds, ds.n + extra, k, seed=extra)
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores))), \
            mock.patch.object(data, "_SCAN_BLOCK_FLOATS", 1), mock.patch.object(data, "_FORK_BLOCKS", 1), \
            mock.patch.object(data, "_JOB_BLOCKS", 1):
        got = data.synthetic_expand(ds, ds.n + extra, k, seed=extra)
    assert (bits(got.features), bits(got.target)) == (bits(expected.features), bits(expected.target))
    assert multiprocessing.active_children() == []


def _one_draw_beside_huge_rows(anchor_joins_them):
    """Ten rows of one feature, expanded by one row at seed 0, so the first anchor drawn is the only one.

    Two other rows, 1.5e308 and -1.5e308, make class 1, where every distance overflows; the anchor stays in
    class 0 unless it joins them.
    """
    anchor = int(np.random.default_rng(0).integers(10))  # synthetic_expand's first draw
    features, target = np.arange(10.0)[:, np.newaxis], np.zeros(10, dtype=np.int64)
    huge = [row for row in range(10) if row != anchor][:2]
    features[huge, 0] = [1.5e308, -1.5e308]
    target[huge + [anchor] * anchor_joins_them] = 1
    return Dataset(["x"], features, target, TaskKind.BINARY_CLASSIFICATION)


def test_distances_that_overflow_between_rows_never_drawn_do_not_stop_expand():
    """A scan of every row, as before the scan was narrowed to the drawn rows, rejected this input."""
    ds = _one_draw_beside_huge_rows(False)
    with np.errstate(over="ignore"):  # the row loop measures class 1 too
        expected = ref.ref_synthetic_expand(ds, 11, 2, seed=0)
    got = data.synthetic_expand(ds, 11, 2, seed=0)
    assert got.target[-1] == 0
    assert (bits(got.features), bits(got.target)) == (bits(expected.features), bits(expected.target))


def test_a_distance_that_overflows_from_a_drawn_row_stops_expand():
    with pytest.raises(DomainError, match="the distance between two rows overflows"):
        data.synthetic_expand(_one_draw_beside_huge_rows(True), 11, 2, seed=0)


def _several_blocks():
    """Two classes too large for one block each, with ties."""
    rng = np.random.default_rng(11)
    features = np.round(rng.standard_normal((700, 3)), 1)
    target = rng.integers(0, 2, 700)
    return Dataset(["a", "b", "c"], features, target, TaskKind.BINARY_CLASSIFICATION)


def test_neighbour_scan_spans_several_blocks():
    """A class too large for one block, with ties, against the row loop."""
    ds = _several_blocks()
    for got, expected in zip(_neighbor_lists(ds, 6), ref.ref_neighbor_lists(ds, 6)):
        assert bits(got) == bits(expected)


def _usable_cores(monkeypatch, cores):
    """The scan starts one worker per usable core; {0} means this process scans."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cores))


def _recorded_pools(monkeypatch):
    """The worker count of every process pool started from here on."""
    pools = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, *args):
            pools.append(max_workers)
            super().__init__(max_workers, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    return pools


def _scan_blocks(ds, rows):
    """The blocks of a scan of the given rows, pool by pool."""
    return sum(-(-np.count_nonzero(np.isin(pool, rows)) // data._block_rows(pool.size, ds.d)) for pool in _pools(ds))


class TestForkedExpand:
    # four times their rows draws over 192 scan blocks, from which the scan forks, and saves under 2**17 cells;
    # regression is one pool
    DATASETS = {
        TaskKind.BINARY_CLASSIFICATION: make_binary_classification(1800, d=8, seed=1),
        TaskKind.MULTICLASS_CLASSIFICATION: make_blobs(2400, d=8, n_classes=3, seed=2),
        TaskKind.REGRESSION: make_regression(1300, d=8, seed=3),
        TaskKind.CLUSTERING: make_blobs(2400, d=8, n_classes=3, seed=4, task=TaskKind.CLUSTERING),
    }

    @pytest.mark.parametrize("task", list(DATASETS), ids=lambda task: task.value)
    def test_workers_write_the_serial_file_byte_for_byte(self, tmp_path, monkeypatch, task):
        """Three workers (more than this host may have cores) against the scan in this process."""
        ds = self.DATASETS[task]
        save_csv(ds, str(tmp_path / "in.csv"))
        drawn, scan = [], data._neighbor_table

        def recorded(features, pools, k, rows):
            drawn.append(rows)
            return scan(features, pools, k, rows)

        monkeypatch.setattr(data, "_neighbor_table", recorded)
        pools = _recorded_pools(monkeypatch)
        written = []
        for cores in ({0, 1, 2}, {0}):
            _usable_cores(monkeypatch, cores)
            out = tmp_path / f"out{len(cores)}.csv"
            assert main(["expand", "--task", task.value, "--data", str(tmp_path / "in.csv"), "--target-column",
                         ds.target_name, "--target-n", str(4 * ds.n), "--out", str(out), "--seed", "3"]) == 0
            assert multiprocessing.active_children() == []
            written.append(out.read_bytes())
        assert _scan_blocks(ds, drawn[0]) >= data._FORK_BLOCKS
        assert 4 * ds.n * (ds.d + 1) < data._FORK_SAVE_CELLS
        assert pools == [3]
        assert written[0] == written[1]

    def test_a_scan_under_the_threshold_stays_in_this_process(self, monkeypatch):
        ds = make_regression(1150, d=8, seed=3)
        assert _scan_blocks(ds, np.arange(ds.n)) < data._FORK_BLOCKS
        pools = _recorded_pools(monkeypatch)
        _usable_cores(monkeypatch, {0, 1, 2})
        _neighbor_lists(ds, 5)
        assert pools == []

    def test_scan_spans_several_blocks_and_jobs_on_three_workers(self, monkeypatch):
        """test_neighbour_scan_spans_several_blocks again, forked, with a job per block."""
        ds = _several_blocks()
        monkeypatch.setattr(data, "_FORK_BLOCKS", 1)
        monkeypatch.setattr(data, "_JOB_BLOCKS", 1)
        pools = _recorded_pools(monkeypatch)
        _usable_cores(monkeypatch, {0, 1, 2})
        got = _neighbor_lists(ds, 6)
        assert pools == [3]
        assert multiprocessing.active_children() == []
        assert len(got) == ds.n
        for row_got, expected in zip(got, ref.ref_neighbor_lists(ds, 6)):
            assert bits(row_got) == bits(expected)

    def test_a_pool_worker_scans_in_its_own_process(self, monkeypatch):
        """A multiprocessing.Pool worker is daemonic, and a daemonic process may not start workers."""
        ds = self.DATASETS[TaskKind.MULTICLASS_CLASSIFICATION]
        _usable_cores(monkeypatch, {0, 1})
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            inside = pool.apply_async(_neighbor_lists, (ds, 5)).get(timeout=60)
        finally:
            pool.terminate()
            pool.join()
        _usable_cores(monkeypatch, {0})
        assert [bits(row) for row in inside] == [bits(row) for row in _neighbor_lists(ds, 5)]
        assert multiprocessing.active_children() == []


class TestForkedSave:
    def test_a_pool_worker_saves_in_its_own_process(self, tmp_path, monkeypatch):
        """A daemonic process may not start workers, so a save of several blocks runs where it is called."""
        ds = make_blobs(20_000, d=8, n_classes=3, seed=5)
        assert ds.n * (ds.d + 1) >= data._FORK_SAVE_CELLS and ds.n > data._BLOCK_ROWS
        _usable_cores(monkeypatch, {0, 1})
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            pool.apply_async(save_csv, (ds, str(tmp_path / "inside.csv"))).get(timeout=60)
        finally:
            pool.terminate()
            pool.join()
        _usable_cores(monkeypatch, {0})
        save_csv(ds, str(tmp_path / "here.csv"))
        assert (tmp_path / "inside.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n, d, threshold", [(4000, 8, 1), (10_000, 1, None)],
                             ids=["one block", "under the cell threshold"])
    def test_a_small_save_stays_in_this_process(self, tmp_path, monkeypatch, n, d, threshold):
        """One block is one job; three blocks of two cells a row cost less than starting the workers."""
        if threshold is not None:
            monkeypatch.setattr(data, "_FORK_SAVE_CELLS", threshold)
        ds = make_regression(n, d=d, seed=6)
        pools = _recorded_pools(monkeypatch)
        _usable_cores(monkeypatch, {0, 1, 2})
        save_csv(ds, str(tmp_path / "got.csv"))
        ref.ref_save_csv(ds, str(tmp_path / "expected.csv"))
        assert pools == []
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device whose writes fail")
    def test_a_failed_write_stops_the_workers_before_save_csv_raises(self, monkeypatch):
        """The disk filling up mid-file: the workers are joined before the OSError leaves save_csv.

        /dev/full is a device, not a regular file, so save_csv must not remove it: os.remove only records here.
        """
        removed = []
        monkeypatch.setattr(os, "remove", removed.append)
        monkeypatch.setattr(data, "_FORK_SAVE_CELLS", 1)
        _usable_cores(monkeypatch, {0, 1})
        with pytest.raises(OSError) as caught:  # holding the error keeps save_csv's frame alive
            save_csv(make_regression(30_000, d=2, seed=7), "/dev/full")
        assert multiprocessing.active_children() == []
        assert caught.value.errno == errno.ENOSPC
        assert removed == []


def _columns(path):
    """Every column of a file as read_columns reads it (its column reader cannot leave a pool worker)."""
    header, column = read_columns(path, "series file")
    return [column(name) for name in header]


class TestForkedRead:
    @pytest.fixture
    def blobs(self, tmp_path, monkeypatch):
        """A 2000-row file of 20 blocks, read forked whatever its size."""
        ds = make_blobs(2000, d=3, n_classes=3, seed=5)
        save_csv(ds, str(tmp_path / "blobs.csv"))
        monkeypatch.setattr(data, "_BLOCK_ROWS", 100)
        monkeypatch.setattr(data, "_FORK_READ_BYTES", 1)
        return str(tmp_path / "blobs.csv"), ds

    def test_workers_read_the_blocks_of_one_process(self, blobs, monkeypatch):
        path, ds = blobs
        pools = _recorded_pools(monkeypatch)
        outcomes = []
        for cores in ({0, 1, 2}, {0}):
            _usable_cores(monkeypatch, cores)
            outcomes.append(pickle.dumps((load_csv(path, ds.target_name, ds.task), _columns(path))))
            assert multiprocessing.active_children() == []
        assert pools == [3, 3]
        assert outcomes[0] == outcomes[1]
        assert bits(pickle.loads(outcomes[0])[0].features) == bits(ds.features)

    def test_a_pool_worker_reads_in_its_own_process(self, blobs, monkeypatch):
        """A daemonic process may not start workers, so a read of several blocks runs where it is called."""
        path, ds = blobs
        _usable_cores(monkeypatch, {0, 1})
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            inside = pool.apply_async(load_csv, (path, ds.target_name, ds.task)).get(timeout=60)
            columns = pool.apply_async(_columns, (path,)).get(timeout=60)
        finally:
            pool.terminate()
            pool.join()
        _usable_cores(monkeypatch, {0})
        assert pickle.dumps(inside) == pickle.dumps(load_csv(path, ds.target_name, ds.task))
        assert [bits(c) for c in columns] == [bits(c) for c in _columns(path)]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("rows, threshold", [(100, 1), (2000, None)], ids=["one block", "under the byte threshold"])
    def test_a_small_read_stays_in_this_process(self, tmp_path, monkeypatch, rows, threshold):
        """One block is one job, and a file far under 3 MB costs less to read than starting the workers."""
        ds = make_regression(rows, d=3, seed=6)
        path = str(tmp_path / "small.csv")
        save_csv(ds, path)
        monkeypatch.setattr(data, "_BLOCK_ROWS", 100)
        if threshold is not None:
            monkeypatch.setattr(data, "_FORK_READ_BYTES", threshold)
        assert os.path.getsize(path) < data._FORK_READ_BYTES or rows <= data._BLOCK_ROWS
        pools = _recorded_pools(monkeypatch)
        _usable_cores(monkeypatch, {0, 1, 2})
        got = load_csv(path, ds.target_name, ds.task)
        columns = _columns(path)
        assert pools == []
        assert bits(got.features) == bits(ds.features) and bits(columns[-1]) == bits(ds.target)
