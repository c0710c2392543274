"""CSV files of several blocks of rows, read and written a block at a time.

read_blocks hands load_csv and read_columns at most 4096 data rows at a
time, and save_csv writes that many rows at a time.  Here the cases a block
boundary could break are placed at and around data rows 4096 and 8192:
rows of the wrong width, blank lines, a first bad cell, a categorical
column whose first block parses whole, quoted cells that hand the rest of
a file to csv.reader, and bytes that are not UTF-8.  load_csv is held to
tests/reference.py's ref_load_csv and read_columns to ref_read_columns,
row loops over the whole file.  The memory each reader takes is bounded by
a multiple of the arrays it returns or writes.
"""

import contextlib
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from normetric import DataError, TaskKind, load_csv, save_csv
from normetric import data
from normetric.data import read_columns
from normetric.factors import input_rules

BLOCK = data._BLOCK_ROWS
N_ROWS = 2 * BLOCK + 50  # two full blocks and part of a third
# data lines, from 0, where a block ends or starts: the first block of lines holds the header
# and data lines 0..4094, the next data lines 4095..8190
AROUND = [BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 2, 2 * BLOCK - 1, 2 * BLOCK]


def bits(array):
    return array.dtype, array.shape, array.tobytes()


def dataset_lines(seed=0):
    """Header and data lines: two numeric columns, a categorical one and a class label y."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((N_ROWS, 2)).round(3).tolist()
    colors = rng.choice(["red", "green", "blue"], N_ROWS).tolist()
    labels = rng.integers(0, 3, N_ROWS).tolist()
    return ["a,b,color,y"] + [f"{u!r},{v!r},{c},{y}" for (u, v), c, y in zip(x, colors, labels)]


def predictions_lines(seed=0):
    """Header and data lines of a binary predictions file."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, N_ROWS).tolist()
    p = (rng.integers(500, 1001, N_ROWS) / 1000).tolist()
    return ["y_true,y_pred,y_prob"] + [f"{t},{1 - t},{q!r}" for t, q in zip(y, p)]


def mutate(lines, at, kind):
    """The lines with data line `at` changed by one kind of fault."""
    lines = list(lines)
    row = lines[at + 1]
    if kind == "blank":
        lines.insert(at + 1, "")
    elif kind == "short":
        lines[at + 1] = row.rsplit(",", 1)[0]
    elif kind == "long":
        lines[at + 1] = row + ",1.0"
    elif kind == "first-field-only":
        lines[at + 1] = row.split(",")[0]
    elif kind == "bad":
        lines[at + 1] = "n/a," + row.split(",", 1)[1]
    elif kind == "out-of-rule":
        lines[at + 1] = "2," + row.split(",", 1)[1]
    return lines


def write(path, lines, variant="plain"):
    """Write lines as a plain file, with a quoted cell after the first block, or with CRLF endings."""
    if variant == "quoted":  # csv.reader takes over in the second block
        at = next(at for at in range(BLOCK + 10, len(lines)) if lines[at])
        head, *rest = lines[at].split(",")
        lines = lines[:at] + [",".join([f'"{head}"'] + rest)] + lines[at + 1:]
    ending = "\r\n" if variant == "crlf" else "\n"
    path.write_bytes("".join(line + ending for line in lines).encode("utf-8", "surrogateescape"))
    return str(path)


def plain_only(variant):
    """For a plain file, a patch that fails the test if csv.reader is reached."""
    if variant == "plain":
        return mock.patch.object(data.csv, "reader", side_effect=AssertionError("plain file sent to csv.reader"))
    return contextlib.nullcontext()


def loaded(path, task):
    try:
        return load_csv(path, "y", task)
    except DataError as exc:
        return str(exc)


def assert_loads_as_row_loop(path, task, variant):
    expected = ref.ref_load_csv(path, "y", task)
    with plain_only(variant):
        got = loaded(path, task)
    assert not isinstance(got, str), got
    assert (got.feature_names, got.target_name, got.n_dropped) == (
        expected.feature_names, expected.target_name, expected.n_dropped)
    assert bits(got.features) == bits(expected.features)
    assert bits(got.target) == bits(expected.target)


faults = st.lists(
    st.tuples(st.sampled_from(AROUND), st.sampled_from(["blank", "short", "long", "bad", "first-field-only"])),
    min_size=1, max_size=4, unique_by=lambda change: change[0],
)


@settings(max_examples=20, deadline=None)
@given(changes=faults, variant=st.sampled_from(["plain", "quoted", "crlf"]),
       task=st.sampled_from(list(TaskKind)))
def test_load_csv_matches_row_loop_across_blocks(tmp_path_factory, changes, variant, task):
    lines = dataset_lines()
    for at, kind in sorted(changes, reverse=True):  # from the end, so earlier positions hold
        lines = mutate(lines, at, kind)
    path = write(tmp_path_factory.mktemp("blocks") / "data.csv", lines, variant)
    assert_loads_as_row_loop(path, task, variant)


@pytest.mark.parametrize("variant", ["plain", "quoted", "crlf"])
@pytest.mark.parametrize("at", [BLOCK - 2, BLOCK - 1, BLOCK])
@pytest.mark.parametrize("kind", ["blank", "short", "long"])
def test_odd_rows_at_data_rows_4095_to_4097(tmp_path, kind, at, variant):
    path = write(tmp_path / "data.csv", mutate(dataset_lines(), at, kind), variant)
    assert_loads_as_row_loop(path, TaskKind.MULTICLASS_CLASSIFICATION, variant)


@pytest.mark.parametrize("variant", ["plain", "quoted"])
def test_categorical_column_whose_first_block_parses_is_read_again(tmp_path, variant):
    """'inf'/'nan' cells and numbers fill the first block; words the rest, so both columns are categorical."""
    rng = np.random.default_rng(5)
    odd = rng.choice(["inf", "nan", "-inf", "1e999"], N_ROWS).tolist()
    numbers = rng.choice(["1", "2", "1.0"], N_ROWS).tolist()
    words = rng.choice(["p", "q", "r"], N_ROWS).tolist()
    lines = ["c,d,y"] + [
        f"{odd[i] if i < BLOCK else words[i]},{numbers[i] if i < BLOCK else words[i]},{i % 3}" for i in range(N_ROWS)
    ]
    path = write(tmp_path / "data.csv", lines, variant)
    with mock.patch.object(data, "read_blocks", wraps=data.read_blocks) as reads:
        assert_loads_as_row_loop(path, TaskKind.MULTICLASS_CLASSIFICATION, variant)
    assert reads.call_count == 3  # the file, then once more for each of the two columns
    ds = load_csv(path, "y", TaskKind.MULTICLASS_CLASSIFICATION)
    assert sorted(set(ds.features[:, 0].tolist())) == list(map(float, range(7)))  # four spellings, three words


def test_categorical_column_whose_blocks_all_fail_is_read_once(tmp_path):
    path = write(tmp_path / "data.csv", dataset_lines())
    with mock.patch.object(data, "read_blocks", wraps=data.read_blocks) as reads:
        assert_loads_as_row_loop(path, TaskKind.MULTICLASS_CLASSIFICATION, "plain")
    assert reads.call_count == 1


def column_outcomes(reader, path):
    """Each column of a binary predictions file read under each rule, plus an absent one: values or message."""
    try:
        header, column = reader(path, "predictions file")
    except DataError as exc:
        return str(exc)
    rules = [None] + list(input_rules(TaskKind.BINARY_CLASSIFICATION).values())
    outcomes = []
    for name in header + ["absent"]:
        for rule in rules:
            try:
                outcomes.append(bits(column(name, rule)))
            except DataError as exc:
                outcomes.append(str(exc))
    return outcomes


faults_of_predictions = st.lists(
    st.tuples(st.sampled_from(AROUND),
              st.sampled_from(["blank", "short", "long", "bad", "out-of-rule", "first-field-only"])),
    min_size=1, max_size=4, unique_by=lambda change: change[0],
)


@settings(max_examples=20, deadline=None)
@given(changes=faults_of_predictions, variant=st.sampled_from(["plain", "quoted", "crlf"]))
def test_read_columns_matches_row_loop_across_blocks(tmp_path_factory, changes, variant):
    lines = predictions_lines()
    for at, kind in sorted(changes, reverse=True):
        lines = mutate(lines, at, kind)
    path = write(tmp_path_factory.mktemp("blocks") / "predictions.csv", lines, variant)
    expected = column_outcomes(ref.ref_read_columns, path)
    with plain_only(variant):
        assert column_outcomes(read_columns, path) == expected


@pytest.mark.parametrize("variant", ["plain", "quoted"])
@pytest.mark.parametrize("at", [BLOCK - 2, BLOCK - 1, 2 * BLOCK - 2], ids=["last-of-first", "first-of-second",
                                                                     "last-of-second"])
@pytest.mark.parametrize("kind, message", [
    ("bad", "column 'y_true' of {path} must hold numbers; data row {row} has 'n/a'"),
    ("out-of-rule", "column 'y_true' of {path} must hold labels 0 or 1; data row {row} has '2'"),
    ("first-field-only", "data row {row} of {path} ends after field 1; column 'y_pred' is field 2"),
])
def test_first_fault_at_the_edge_of_a_block(tmp_path, variant, at, kind, message):
    path = write(tmp_path / "predictions.csv", mutate(predictions_lines(), at, kind), variant)
    column = read_columns(path, "predictions file")[1]
    rules = input_rules(TaskKind.BINARY_CLASSIFICATION)
    with pytest.raises(DataError) as raised:
        column("y_pred" if kind == "first-field-only" else "y_true", rules["y_true"])
    assert str(raised.value) == message.format(path=path, row=at + 1)
    assert column_outcomes(read_columns, path) == column_outcomes(ref.ref_read_columns, path)


@pytest.mark.parametrize("variant", ["plain", "quoted"])
@pytest.mark.parametrize("kind, requirement, cell", [("bad", "numbers", "n/a"), ("out-of-rule", "labels 0 or 1", "2")])
def test_blank_lines_of_an_earlier_block_are_not_counted(tmp_path, variant, kind, requirement, cell):
    lines = mutate(mutate(predictions_lines(), BLOCK + 5, kind), 10, "blank")
    path = write(tmp_path / "predictions.csv", lines, variant)
    with pytest.raises(DataError) as raised:
        read_columns(path, "predictions file")[1]("y_true", input_rules(TaskKind.BINARY_CLASSIFICATION)["y_true"])
    assert str(raised.value) == f"column 'y_true' of {path} must hold {requirement}; data row {BLOCK + 6} has {cell!r}"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open files through /proc")
def test_naming_a_cell_that_breaks_a_rule_leaves_no_file_open(tmp_path):
    path = write(tmp_path / "predictions.csv", mutate(predictions_lines(), BLOCK + 5, "out-of-rule"))
    column = read_columns(path, "predictions file")[1]
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(DataError) as raised:  # its traceback holds the frame that read the file again
        column("y_true", input_rules(TaskKind.BINARY_CLASSIFICATION)["y_true"])
    assert len(os.listdir("/proc/self/fd")) == before
    assert "data row 4102 has '2'" in str(raised.value)


def whole_file_decode_error(raw):
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return str(exc)
    raise AssertionError("the bytes are UTF-8")


@pytest.mark.parametrize("bad, reason", [
    (b"\xff", "byte 0xff in position {at}: invalid start byte"),
    (b"\xe2\x82", "bytes in position {at}-{end}: invalid continuation byte"),
], ids=["one-byte", "two-bytes"])
@pytest.mark.parametrize("kind", ["dataset", "predictions"])
def test_a_byte_that_is_not_utf8_is_placed_in_the_whole_file(tmp_path, kind, bad, reason):
    lines = dataset_lines() if kind == "dataset" else predictions_lines()
    raw = "".join(line + "\n" for line in lines).encode()
    at = len("".join(line + "\n" for line in lines[:BLOCK + 3]).encode()) + 1  # in the second block
    raw = raw[:at] + bad + raw[at:]
    path = tmp_path / "file.csv"
    path.write_bytes(raw)
    detail = f"'utf-8' codec can't decode {reason.format(at=at, end=at + len(bad) - 1)}"
    assert whole_file_decode_error(raw) == detail
    with pytest.raises(DataError) as raised:
        if kind == "dataset":
            load_csv(str(path), "y", TaskKind.MULTICLASS_CLASSIFICATION)
        else:
            read_columns(str(path), "predictions file")
    assert str(raised.value) == f"{path} is not a readable UTF-8 CSV file: {detail}"


def test_an_unreadable_file_says_so_before_a_missing_target_column(tmp_path):
    raw = "".join(line + "\n" for line in dataset_lines()).encode()
    raw = raw[:-5] + b"\xff" + raw[-5:]
    path = tmp_path / "file.csv"
    path.write_bytes(raw)
    with pytest.raises(DataError) as raised:
        load_csv(str(path), "label", TaskKind.MULTICLASS_CLASSIFICATION)
    assert str(raised.value) == f"{path} is not a readable UTF-8 CSV file: {whole_file_decode_error(raw)}"


def traced_peak(call):
    """The traced bytes a call allocates at its peak, beyond what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


MEMORY_ROWS = 50_000


@pytest.fixture(scope="module")
def large_files(tmp_path_factory):
    """A 50k-row dataset (eight numeric columns, one categorical, a class label) and a 4-class predictions file."""
    folder = tmp_path_factory.mktemp("large")
    rng = np.random.default_rng(0)
    numeric = (rng.standard_normal((MEMORY_ROWS, 8)) * 10.0 ** np.arange(-3, 5)).tolist()
    colors = rng.choice(["red", "green", "blue", "teal"], MEMORY_ROWS).tolist()
    with open(folder / "data.csv", "w", encoding="utf-8") as fh:
        fh.write("x0,x1,x2,x3,color,x4,x5,x6,x7,y\n")
        for i, (row, color) in enumerate(zip(numeric, colors)):
            cells = list(map(repr, row))
            if i % 20_000 == 7:
                cells[1] = "n/a"
            fh.write(",".join(cells[:4] + [color] + cells[4:] + [str(i % 5)]) + "\n")
    thousandths = np.floor(1000 * rng.dirichlet(np.ones(4), size=MEMORY_ROWS)).astype(int)
    thousandths[:, 0] += 1000 - thousandths.sum(axis=1)
    with open(folder / "predictions.csv", "w", encoding="utf-8") as fh:
        fh.write("y_true,y_pred,p_0,p_1,p_2,p_3\n")
        for row in thousandths.tolist():
            label = int(np.argmax(row))
            fh.write(f"{label},{label}," + ",".join(repr(t / 1000) for t in row) + "\n")
    return str(folder / "data.csv"), str(folder / "predictions.csv")


# peak traced memory over the bytes of the arrays read or written; reading the
# whole file as cell strings first took 11.1x, 6.2x and 6.8x on 200k rows
@pytest.mark.parametrize("reader, bound", [("load_csv", 5.0), ("save_csv", 2.0), ("read_columns", 3.5)])
def test_memory_follows_the_arrays_not_the_cell_text(large_files, tmp_path, reader, bound):
    dataset, predictions = large_files
    if reader == "read_columns":
        def read():
            header, column = read_columns(predictions, "predictions file")
            return [column(name) for name in header]

        peak, columns = traced_peak(read)
        arrays = sum(values.nbytes for values in columns)
    else:
        ds = load_csv(dataset, "y", TaskKind.MULTICLASS_CLASSIFICATION)
        call = (lambda: load_csv(dataset, "y", TaskKind.MULTICLASS_CLASSIFICATION)) if reader == "load_csv" else (
            lambda: save_csv(ds, str(tmp_path / "saved.csv")))
        peak, _ = traced_peak(call)
        arrays = ds.features.nbytes + ds.target.nbytes
    assert peak < bound * arrays, f"{reader} peaked at {peak / arrays:.2f}x its arrays"
