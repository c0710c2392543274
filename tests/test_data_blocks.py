"""CSV files of several blocks of rows, read and written a block at a time.

read_blocks hands load_csv and read_columns a block of data rows at a time,
as many rows as _fork.block_rows gives for the header line's width.  Here,
in blocks of 4 * 4096 values (on_cores), a block of the four-column dataset
file holds 4096 rows and one of the three-column predictions file 5461, and
the cases a block boundary could break are placed at and around the ends of
the first two blocks: rows of the wrong width, blank lines, a first bad
cell, a categorical column whose first block parses whole, quoted cells
that hand the rest of a file to csv.reader, and bytes that are not UTF-8.  load_csv is held to
tests/reference.py's ref_load_csv and read_columns to ref_read_columns,
row loops over the whole file.  Each read runs on one usable core and on
three, where forked workers split and parse the blocks whatever the file's
size.  The memory each reader takes is bounded by a multiple of the arrays
it returns or writes, for a narrow file and a wide one.
"""

import contextlib
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from workers import assert_no_child
from normetric import DataError, TaskKind, load_csv, save_csv
from normetric import _fork, data
from normetric.cli import main
from normetric.data import read_columns
from normetric.factors import input_rules

VALUES = 4 * 4096  # _fork._BLOCK_VALUES while on_cores reads here
BLOCK, PREDICTION_BLOCK = VALUES // 4, VALUES // 3  # data rows per block of dataset_lines and predictions_lines


def around(block):
    """Data lines, from 0, where a block ends or starts: the first block holds data lines 0..block - 1, the next
    block..2 * block - 1."""
    return [block - 2, block - 1, block, block + 1, 2 * block - 2, 2 * block - 1, 2 * block]


def n_rows(block):
    return 2 * block + 50  # two full blocks and part of a third


def bits(array):
    return array.dtype, array.shape, array.tobytes()


def dataset_lines(seed=0):
    """Header and data lines: two numeric columns, a categorical one and a class label y."""
    rng, rows = np.random.default_rng(seed), n_rows(BLOCK)
    x = rng.standard_normal((rows, 2)).round(3).tolist()
    colors = rng.choice(["red", "green", "blue"], rows).tolist()
    labels = rng.integers(0, 3, rows).tolist()
    return ["a,b,color,y"] + [f"{u!r},{v!r},{c},{y}" for (u, v), c, y in zip(x, colors, labels)]


def predictions_lines(seed=0):
    """Header and data lines of a binary predictions file."""
    rng, rows = np.random.default_rng(seed), n_rows(PREDICTION_BLOCK)
    y = rng.integers(0, 2, rows).tolist()
    p = (rng.integers(500, 1001, rows) / 1000).tolist()
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
        at = next(at for at in range(VALUES // (lines[0].count(",") + 1) + 10, len(lines)) if lines[at])
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


@contextlib.contextmanager
def on_cores(cores, values=VALUES):
    """Reads on this many usable cores, forked on more than one for a file of two blocks or more, in blocks of
    `values` values."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores))), \
            mock.patch.object(_fork, "_BLOCK_VALUES", values):
        yield
    assert_no_child()


def loaded(path, task, cores=1):
    try:
        with on_cores(cores):
            return load_csv(path, "y", task)
    except DataError as exc:
        return str(exc)


def assert_loads_as_row_loop(path, task, variant, cores):
    expected = ref.ref_load_csv(path, "y", task)
    with plain_only(variant):
        got = loaded(path, task, cores)
    assert not isinstance(got, str), got
    assert (got.feature_names, got.target_name, got.n_dropped) == (
        expected.feature_names, expected.target_name, expected.n_dropped)
    assert bits(got.features) == bits(expected.features)
    assert bits(got.target) == bits(expected.target)


faults = st.lists(
    st.tuples(st.sampled_from(around(BLOCK)), st.sampled_from(["blank", "short", "long", "bad", "first-field-only"])),
    min_size=1, max_size=4, unique_by=lambda change: change[0],
)


@pytest.mark.parametrize("cores", [1, 3])
@settings(max_examples=20, deadline=None)
@given(changes=faults, variant=st.sampled_from(["plain", "quoted", "crlf"]),
       task=st.sampled_from(list(TaskKind)))
def test_load_csv_matches_row_loop_across_blocks(tmp_path_factory, cores, changes, variant, task):
    lines = dataset_lines()
    for at, kind in sorted(changes, reverse=True):  # from the end, so earlier positions hold
        lines = mutate(lines, at, kind)
    path = write(tmp_path_factory.mktemp("blocks") / "data.csv", lines, variant)
    assert_loads_as_row_loop(path, task, variant, cores)


@pytest.mark.parametrize("cores", [1, 3])
@pytest.mark.parametrize("variant", ["plain", "quoted", "crlf"])
@pytest.mark.parametrize("at", [BLOCK - 2, BLOCK - 1, BLOCK])
@pytest.mark.parametrize("kind", ["blank", "short", "long"])
def test_odd_rows_at_data_rows_4095_to_4097(tmp_path, kind, at, variant, cores):
    path = write(tmp_path / "data.csv", mutate(dataset_lines(), at, kind), variant)
    assert_loads_as_row_loop(path, TaskKind.MULTICLASS_CLASSIFICATION, variant, cores)


@contextlib.contextmanager
def counted_passes():
    """The path of each pass over a file's blocks, as read_blocks's blocks(work) makes them."""
    passes, read_blocks = [], data.read_blocks

    def counted(path):
        header, blocks = read_blocks(path)

        def counted_blocks(work):
            passes.append(path)
            return blocks(work)

        return header, counted_blocks

    with mock.patch.object(data, "read_blocks", counted):
        yield passes


@pytest.mark.parametrize("cores", [1, 3])
@pytest.mark.parametrize("variant", ["plain", "quoted"])
def test_categorical_column_whose_first_block_parses_is_read_again(tmp_path, variant, cores):
    """'inf'/'nan' cells and numbers fill the first block; words the rest, so both columns are categorical."""
    rng, block = np.random.default_rng(5), VALUES // 3
    odd = rng.choice(["inf", "nan", "-inf", "1e999"], n_rows(block)).tolist()
    numbers = rng.choice(["1", "2", "1.0"], n_rows(block)).tolist()
    words = rng.choice(["p", "q", "r"], n_rows(block)).tolist()
    lines = ["c,d,y"] + [
        f"{odd[i] if i < block else words[i]},{numbers[i] if i < block else words[i]},{i % 3}"
        for i in range(n_rows(block))
    ]
    path = write(tmp_path / "data.csv", lines, variant)
    with counted_passes() as passes:
        assert_loads_as_row_loop(path, TaskKind.MULTICLASS_CLASSIFICATION, variant, cores)
    assert passes == [path, path]  # the file, then once more for the two columns
    ds = loaded(path, TaskKind.MULTICLASS_CLASSIFICATION, cores)
    assert sorted(set(ds.features[:, 0].tolist())) == list(map(float, range(7)))  # four spellings, three words


@pytest.mark.parametrize("cores", [1, 3])
def test_categorical_column_whose_blocks_all_fail_is_read_once(tmp_path, cores):
    path = write(tmp_path / "data.csv", dataset_lines())
    with counted_passes() as passes:
        assert_loads_as_row_loop(path, TaskKind.MULTICLASS_CLASSIFICATION, "plain", cores)
    assert passes == [path]


def column_outcomes(reader, path, cores=1):
    """Each column of a binary predictions file, plus an absent one, read under each rule, one read per rule:
    values or message."""
    rules = [None] + list(input_rules(TaskKind.BINARY_CLASSIFICATION).values())
    with on_cores(cores):
        try:
            header, read = reader(path, "predictions file")
            columns = [read(dict.fromkeys(header + ["absent"], rule)) for rule in rules]
        except DataError as exc:
            return str(exc)
        outcomes = []
        for name in header + ["absent"]:
            for column in columns:
                try:
                    outcomes.append(bits(column(name)))
                except DataError as exc:
                    outcomes.append(str(exc))
        return outcomes


faults_of_predictions = st.lists(
    st.tuples(st.sampled_from(around(PREDICTION_BLOCK)),
              st.sampled_from(["blank", "short", "long", "bad", "out-of-rule", "first-field-only"])),
    min_size=1, max_size=4, unique_by=lambda change: change[0],
)


@pytest.mark.parametrize("cores", [1, 3])
@settings(max_examples=20, deadline=None)
@given(changes=faults_of_predictions, variant=st.sampled_from(["plain", "quoted", "crlf"]))
def test_read_columns_matches_row_loop_across_blocks(tmp_path_factory, cores, changes, variant):
    lines = predictions_lines()
    for at, kind in sorted(changes, reverse=True):
        lines = mutate(lines, at, kind)
    path = write(tmp_path_factory.mktemp("blocks") / "predictions.csv", lines, variant)
    expected = column_outcomes(ref.ref_read_columns, path)
    with plain_only(variant):
        assert column_outcomes(read_columns, path, cores) == expected


@pytest.mark.parametrize("cores", [1, 3])
@pytest.mark.parametrize("variant", ["plain", "quoted"])
@pytest.mark.parametrize("at", [PREDICTION_BLOCK - 1, PREDICTION_BLOCK, 2 * PREDICTION_BLOCK - 1],
                         ids=["last-of-first", "first-of-second", "last-of-second"])
@pytest.mark.parametrize("kind, message", [
    ("bad", "column 'y_true' of {path} must hold numbers; data row {row} has 'n/a'"),
    ("out-of-rule", "column 'y_true' of {path} must hold labels 0 or 1; data row {row} has '2'"),
    ("first-field-only", "data row {row} of {path} ends after field 1; column 'y_pred' is field 2"),
])
def test_first_fault_at_the_edge_of_a_block(tmp_path, variant, at, kind, message, cores):
    path = write(tmp_path / "predictions.csv", mutate(predictions_lines(), at, kind), variant)
    name = "y_pred" if kind == "first-field-only" else "y_true"
    with on_cores(cores), pytest.raises(DataError) as raised:
        read_columns(path, "predictions file")[1]({name: input_rules(TaskKind.BINARY_CLASSIFICATION)["y_true"]})(name)
    assert str(raised.value) == message.format(path=path, row=at + 1)
    assert column_outcomes(read_columns, path, cores) == column_outcomes(ref.ref_read_columns, path)


@pytest.mark.parametrize("cores", [1, 3])
@pytest.mark.parametrize("variant", ["plain", "quoted"])
@pytest.mark.parametrize("kind, requirement, cell", [("bad", "numbers", "n/a"), ("out-of-rule", "labels 0 or 1", "2")])
def test_blank_lines_of_an_earlier_block_are_not_counted(tmp_path, variant, kind, requirement, cell, cores):
    lines = mutate(mutate(predictions_lines(), PREDICTION_BLOCK + 5, kind), 10, "blank")
    path = write(tmp_path / "predictions.csv", lines, variant)
    rule = input_rules(TaskKind.BINARY_CLASSIFICATION)["y_true"]
    with on_cores(cores), pytest.raises(DataError) as raised:
        read_columns(path, "predictions file")[1]({"y_true": rule})("y_true")
    assert str(raised.value) == (f"column 'y_true' of {path} must hold {requirement}; "
                                 f"data row {PREDICTION_BLOCK + 6} has {cell!r}")


@pytest.mark.parametrize("cores", [1, 3])
def test_a_rule_broken_on_the_last_row_is_named_from_one_read(tmp_path, cores):
    """The rule is tested where each block is split, so naming the cell that breaks it reads no block again."""
    lines = mutate(predictions_lines()[:PREDICTION_BLOCK + 51], PREDICTION_BLOCK + 49, "out-of-rule")  # two blocks
    path = write(tmp_path / "predictions.csv", lines)
    reads, jobs = [], []
    read_blocks, map_on_cores = data.read_blocks, data.map_on_cores

    def counted_reads(path):
        header, blocks = read_blocks(path)
        return header, lambda work: reads.append(path) or blocks(work)

    def counted_jobs(work, todo, lost):
        jobs.extend([len(todo)] if getattr(work, "func", None) is data._read_block else [])
        return map_on_cores(work, todo, lost)

    rule = input_rules(TaskKind.BINARY_CLASSIFICATION)["y_true"]
    with mock.patch.object(data, "read_blocks", counted_reads), mock.patch.object(data, "map_on_cores", counted_jobs):
        with on_cores(cores), pytest.raises(DataError) as raised:
            read_columns(path, "predictions file")[1]({"y_true": rule})("y_true")
    assert str(raised.value) == (f"column 'y_true' of {path} must hold labels 0 or 1; "
                                 f"data row {PREDICTION_BLOCK + 50} has '2'")
    assert (reads, jobs) == ([path], [2])


@pytest.mark.parametrize("cores", [1, 3])
def test_a_column_no_caller_names_is_never_parsed(tmp_path, capsys, cores):
    """A text id column in a file of three blocks reaches no parse_column or _coded call, here or in a worker,
    and evaluate scores the file as it scores the same file without it."""
    lines = predictions_lines()
    plain = write(tmp_path / "plain.csv", lines)
    with_id = write(tmp_path / "with_id.csv", [lines[0] + ",id"] + [f"{line},id-{at}" for at, line in
                                                                     enumerate(lines[1:])])

    def guarded(real):
        def call(cells):
            assert not any(cell.startswith("id-") for cell in cells), "the id column was parsed"
            return real(cells)
        return call

    argv = ["evaluate", "--task", "binary", "--d", "2", "--n", "100", "--predictions"]
    with mock.patch.object(data, "parse_column", guarded(data.parse_column)), \
            mock.patch.object(data, "_coded", guarded(data._coded)), on_cores(cores):
        scored = [(main(argv + [path]), *capsys.readouterr()) for path in (plain, with_id)]
    assert scored[0][:2] == scored[1][:2] and scored[0][0] == 0, scored


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open files through /proc")
@pytest.mark.parametrize("cores", [1, 3])
def test_naming_a_cell_that_breaks_a_rule_leaves_no_file_open(tmp_path, cores):
    """Nor a worker: the rule is tested where each block is split, so the one read has ended, its file closed and
    its workers reaped, before column names the cell."""
    path = write(tmp_path / "predictions.csv", mutate(predictions_lines(), PREDICTION_BLOCK + 5, "out-of-rule"))
    with on_cores(cores):
        read = read_columns(path, "predictions file")[1]
        before = len(os.listdir("/proc/self/fd"))
        column = read({"y_true": input_rules(TaskKind.BINARY_CLASSIFICATION)["y_true"]})
        with pytest.raises(DataError) as raised:
            column("y_true")
        assert len(os.listdir("/proc/self/fd")) == before
    assert f"data row {PREDICTION_BLOCK + 6} has '2'" in str(raised.value)


@pytest.mark.parametrize("char", ['"', "\r", "\0"], ids=["quote", "carriage-return", "nul"])
@pytest.mark.parametrize("kind", ["dataset", "predictions"])
def test_a_file_handed_to_csv_reader_in_its_third_block_reads_as_on_one_core(tmp_path, kind, char):
    """Workers split the first two blocks; csv.reader reads the rest here, from the third block's first byte."""
    lines, block = (dataset_lines(), BLOCK) if kind == "dataset" else (predictions_lines(), PREDICTION_BLOCK)
    at = 2 * block + 8  # a data line of the third block, the first to hold char
    head, last = lines[at + 1].rsplit(",", 1)
    lines[at + 1] = {'"': f'{head},"{last}"', "\r": f"{head},{last}\r", "\0": f"{head},{last}\0"}[char]
    path = write(tmp_path / "file.csv", lines)
    handed = []
    reader_rows = data._reader_rows

    def recorded(path, ranges):
        handed.append(ranges[0][0])
        return reader_rows(path, ranges)

    outcomes = []
    for cores in (1, 3):
        with mock.patch.object(data, "_reader_rows", recorded):
            outcomes.append(loaded(path, TaskKind.MULTICLASS_CLASSIFICATION, cores) if kind == "dataset" else
                            column_outcomes(read_columns, path, cores))
    third = len("".join(line + "\n" for line in lines[:2 * block + 1]).encode())  # the header and two blocks
    assert set(handed) == {third}
    if kind == "dataset":
        expected = ref.ref_load_csv(path, "y", TaskKind.MULTICLASS_CLASSIFICATION)
        for got in outcomes:
            assert (got.n_dropped, bits(got.features), bits(got.target)) == (
                expected.n_dropped, bits(expected.features), bits(expected.target))
    else:
        assert outcomes == [column_outcomes(ref.ref_read_columns, path)] * 2


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
@pytest.mark.parametrize("cores", [1, 3])
def test_a_byte_that_is_not_utf8_is_placed_in_the_whole_file(tmp_path, cores, kind, bad, reason):
    lines, block = (dataset_lines(), BLOCK) if kind == "dataset" else (predictions_lines(), PREDICTION_BLOCK)
    raw = "".join(line + "\n" for line in lines).encode()
    at = len("".join(line + "\n" for line in lines[:block + 3]).encode()) + 1  # in the second block
    raw = raw[:at] + bad + raw[at:]
    path = tmp_path / "file.csv"
    path.write_bytes(raw)
    detail = f"'utf-8' codec can't decode {reason.format(at=at, end=at + len(bad) - 1)}"
    assert whole_file_decode_error(raw) == detail
    with on_cores(cores), pytest.raises(DataError) as raised:  # raised in a worker on three cores
        if kind == "dataset":
            load_csv(str(path), "y", TaskKind.MULTICLASS_CLASSIFICATION)
        else:
            read_columns(str(path), "predictions file")[1]({"y_true": None})
    assert str(raised.value) == f"{path} is not a readable UTF-8 CSV file: {detail}"


@pytest.mark.parametrize("cores", [1, 3])
def test_an_unreadable_file_says_so_before_a_missing_target_column(tmp_path, cores):
    raw = "".join(line + "\n" for line in dataset_lines()).encode()
    raw = raw[:-5] + b"\xff" + raw[-5:]
    path = tmp_path / "file.csv"
    path.write_bytes(raw)
    with on_cores(cores), pytest.raises(DataError) as raised:
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


# peak traced memory over the bytes of the arrays read or written, in blocks of the
# library's own size; reading the whole file as cell strings first took 11.1x, 6.2x
# and 6.8x on 200k rows.  On two cores every read and save forks, and only this
# process's memory is traced.
@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("reader, bound", [("load_csv", 5.0), ("save_csv", 2.0), ("read_columns", 3.5)])
def test_memory_follows_the_arrays_not_the_cell_text(large_files, tmp_path, reader, bound, cores):
    dataset, predictions = large_files
    with on_cores(cores, _fork._BLOCK_VALUES):
        if reader == "read_columns":
            def read():
                header, read = read_columns(predictions, "predictions file")
                column = read(dict.fromkeys(header))
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


@pytest.fixture(scope="module")
def wide_file(tmp_path_factory):
    """A 400-row file of 1000 numeric columns and a class label: 1001 cells a row, 5.1 MB."""
    path = tmp_path_factory.mktemp("wide") / "wide.csv"
    x = np.random.default_rng(0).standard_normal((400, 1000)).round(3).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{j}" for j in range(1000)) + ",y\n")
        fh.writelines(",".join(map(repr, row)) + f",{i % 2}\n" for i, row in enumerate(x))
    return str(path)


# the narrow files' bounds: a block holds 2**16 cells whatever the width, 65 rows here, and loading this file
# peaked at 2.7x its arrays, saving it at 0.7x; blocks of 4096 rows held every row's cell text at once, and
# peaked at 9.0x and 4.0x
@pytest.mark.parametrize("stage, bound", [("load_csv", 5.0), ("save_csv", 2.0)])
def test_memory_of_a_wide_file_follows_the_arrays(wide_file, tmp_path, stage, bound):
    with on_cores(1, _fork._BLOCK_VALUES):
        if stage == "load_csv":
            peak, ds = traced_peak(lambda: load_csv(wide_file, "y", TaskKind.BINARY_CLASSIFICATION))
        else:
            ds = load_csv(wide_file, "y", TaskKind.BINARY_CLASSIFICATION)
            peak, _ = traced_peak(lambda: save_csv(ds, str(tmp_path / "saved.csv")))
    arrays = ds.features.nbytes + ds.target.nbytes
    assert peak < bound * arrays, f"{stage} peaked at {peak / arrays:.2f}x its arrays"
