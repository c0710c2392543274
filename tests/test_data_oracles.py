"""The array-code data layer against its former row loops, bit for bit.

load_csv, save_csv and the neighbour scan inside synthetic_expand were
rewritten as array code under the promise of identical output.  The old
loops live on in tests/reference.py; these property tests feed both the
kinds of input where column parsing, label encoding and tie-breaking could
drift: wrong-width rows, cells Python's float() treats specially, columns
at the half-numeric threshold, heavy distance ties and tiny classes.
read_blocks splits a plain file (no quotes, no carriage returns) itself and
sends any other through csv.reader, so both kinds of file are generated.
"""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference as ref
from normetric import DataError, Dataset, TaskKind, load_csv, save_csv
from normetric import data
from normetric.data import _neighbor_lists, read_blocks

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


def assert_loads_as_row_loop(path, task):
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


@settings(max_examples=400, deadline=None)
@given(text=csv_texts(), task=st.sampled_from(list(TaskKind)))
def test_load_csv_matches_row_loop(tmp_path_factory, text, task):
    path = tmp_path_factory.mktemp("load") / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_loads_as_row_loop(path, task)


@settings(max_examples=400, deadline=None)
@given(text=plain_csv_texts(), task=st.sampled_from(list(TaskKind)))
def test_load_csv_matches_row_loop_on_plain_files(tmp_path_factory, text, task):
    path = tmp_path_factory.mktemp("plain") / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_loads_as_row_loop(path, task)


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
        blocks = read_blocks(str(path))
        return next(blocks), list(blocks)

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


@settings(max_examples=300, deadline=None)
@given(ds=saveable_datasets())
def test_save_csv_matches_row_loop(tmp_path_factory, ds):
    folder = tmp_path_factory.mktemp("save")
    ref.ref_save_csv(ds, str(folder / "expected.csv"))
    save_csv(ds, str(folder / "got.csv"))
    assert (folder / "got.csv").read_bytes() == (folder / "expected.csv").read_bytes()


def test_save_csv_rejects_a_nan_class_target(tmp_path):
    ds = Dataset(["a"], np.zeros((2, 1)), np.array([0.0, np.nan]), TaskKind.BINARY_CLASSIFICATION)
    with pytest.raises(ValueError):
        ref.ref_save_csv(ds, str(tmp_path / "expected.csv"))
    with pytest.raises(ValueError):
        save_csv(ds, str(tmp_path / "got.csv"))


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


def test_neighbour_scan_spans_several_blocks():
    """A class too large for one block, with ties, against the row loop."""
    rng = np.random.default_rng(11)
    features = np.round(rng.standard_normal((700, 3)), 1)
    target = rng.integers(0, 2, 700)
    ds = Dataset(["a", "b", "c"], features, target, TaskKind.BINARY_CLASSIFICATION)
    for got, expected in zip(_neighbor_lists(ds, 6), ref.ref_neighbor_lists(ds, 6)):
        assert bits(got) == bits(expected)
