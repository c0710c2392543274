"""One block size for every stage: a block of rows `width` values wide holds _fork.block_rows(width) rows.

The CSV reader's width is the header line's commas + 1, the save's the features and the target, the neighbour
scan's a pool of m rows of d features (m * d), and a curve's chunks join consecutive training sizes while their
rows fit in block_rows(d).  Here each stage is held to the rule at the library's own block size, 2**16 values,
and the scan and the curve to the blocks and chunks they have been cut into since before the rule was shared.
"""

import pathlib
from unittest import mock

import numpy as np
import pytest

from workers import assert_no_child, recorded_pools, usable_cores
from normetric import (Dataset, LearnerConfig, TaskKind, _fork, data, harness, load_csv, make_binary_classification,
                       make_regression, run_curve, save_csv, schedule)
from normetric.data import _neighbor_table, read_blocks, read_columns


@pytest.mark.parametrize("width", [1, 3, 16, 1000, 2**16, 2**16 + 1])
def test_a_block_holds_2_to_the_16_values_and_at_least_one_row(width):
    assert _fork.block_rows(width) == max(1, 2**16 // width)


def _block_lines(path):
    """The data lines of each block read_blocks splits, read on one core so every _read_block call is made here."""
    jobs, read_block = [], data._read_block

    def recorded(path, width, work, job):
        jobs.append(job)
        return read_block(path, width, work, job)

    with mock.patch.object(data, "_read_block", recorded), mock.patch.object(data.os, "sched_getaffinity",
                                                                             lambda pid: {0}):
        header, blocks = read_blocks(str(path))
        for _ in blocks(len):
            pass
    raw = pathlib.Path(path).read_bytes()
    return [raw[offset:offset + length].count(b"\n") for offset, length in jobs[1:]]  # past the header's range


@pytest.mark.parametrize("width", [1, 3, 16, 1000])
def test_the_reader_s_blocks_hold_block_rows_of_the_header_line_s_width(tmp_path, width):
    """Two full blocks and three rows, whatever the width: 65,536 rows a block of one column, 65 of 1000."""
    rows = _fork.block_rows(width)
    path = tmp_path / "file.csv"
    path.write_text(",".join(f"c{j}" for j in range(width)) + "\n" + ("0," * (width - 1) + "1\n") * (2 * rows + 3))
    assert _block_lines(path) == [rows, rows, 3]


@pytest.mark.parametrize("d", [1, 15, 999])
def test_the_save_s_blocks_hold_block_rows_of_the_features_and_the_target(tmp_path, d):
    rows = _fork.block_rows(d + 1)
    ds = Dataset([f"x{j}" for j in range(d)], np.zeros((2 * rows + 1, d)), np.arange(2 * rows + 1) % 2,
                 TaskKind.BINARY_CLASSIFICATION)
    written, text_rows = [], data._text_rows

    def recorded(features, labels, step, start):
        written.append(text := text_rows(features, labels, step, start))
        return text

    with mock.patch.object(data, "_text_rows", recorded), mock.patch.object(data.os, "sched_getaffinity",
                                                                           lambda pid: {0}):
        save_csv(ds, str(tmp_path / "saved.csv"))
    assert [text.count("\n") for text in written] == [rows, rows, 1]


@pytest.mark.parametrize("m, d, per_call", [(600, 1, 109), (600, 8, 13), (128, 256, 2), (100, 700, 1)])
def test_the_scan_s_blocks_hold_2_to_the_16_over_m_times_d_anchors(monkeypatch, m, d, per_call):
    """One pool of m rows of d features, three blocks and one row drawn: each _pool_neighbors call scans per_call
    anchors, as the scan has since its blocks were first bounded at 2**16 floats."""
    assert per_call == max(1, 2**16 // (m * d))
    calls, scan = [], data._pool_neighbors

    def recorded(pooled, k, anchors):
        calls.append(anchors.size)
        return scan(pooled, k, anchors)

    monkeypatch.setattr(data, "_pool_neighbors", recorded)
    drawn = np.arange(m) < 3 * per_call + 1
    _neighbor_table(np.random.default_rng(0).standard_normal((m, d)), [np.arange(m)], 3, drawn)
    assert calls == [per_call] * 3 + [1]


def _chunks(monkeypatch, ds, sched):
    """The chunks run_curve hands map_on_cores, none of them fitted."""
    chunks = []
    monkeypatch.setattr(harness, "map_on_cores", lambda work, jobs, lost: chunks.extend(jobs) or [])
    run_curve(ds, sched, TaskKind.BINARY_CLASSIFICATION, LearnerConfig(epochs=1), seed=0)
    return chunks


def test_binary_study_s_curve_is_cut_into_the_chunks_it_had(monkeypatch):
    """1400 rows of 13 features, sizes 80..1000 by 20: at most 5041 training rows a chunk, 2**16 // 13."""
    chunks = _chunks(monkeypatch, make_binary_classification(1400, d=13, seed=0), schedule(80, 1000, 20))
    assert [len(chunk) for chunk in chunks] == [19, 9, 7, 6, 5, 1]
    assert [size for chunk in chunks for size in chunk] == list(range(80, 1001, 20))
    assert all(sum(chunk) <= 5041 for chunk in chunks)
    assert sum(chunks[0]) + chunks[1][0] > 5041


@pytest.mark.parametrize("d, chunks", [
    (1, [[10, 40, 70, 100, 130, 160, 190]]),
    (300, [[10, 40, 70], [100], [130], [160], [190]]),  # 218 rows a chunk
    (700, [[10, 40], [70], [100], [130], [160], [190]]),  # 93
    (2000, [[10], [40], [70], [100], [130], [160], [190]]),  # 32
])
def test_a_curve_s_chunks_hold_at_most_block_rows_of_its_features(monkeypatch, d, chunks):
    """Consecutive sizes join a chunk while their rows sum to at most 2**16 // d, as when a chunk's training features
    were bounded at 2**19 bytes; a size past the bound alone is a chunk of its own."""
    ds = Dataset([f"x{j}" for j in range(d)], np.random.default_rng(1).standard_normal((250, d)),
                 np.arange(250) % 2, TaskKind.BINARY_CLASSIFICATION)
    assert _chunks(monkeypatch, ds, schedule(10, 190, 30)) == chunks


@pytest.mark.parametrize("read", ["load_csv", "read_columns", "save_csv"])
def test_a_4097_row_file_of_two_columns_is_read_and_saved_here(tmp_path, monkeypatch, read):
    """A block holds 32,768 rows of two columns, so no stage forks on three usable cores until a file passes that."""
    ds = make_regression(4097, d=1, seed=6)
    path = str(tmp_path / "small.csv")
    save_csv(ds, path)
    usable_cores(monkeypatch, {0, 1, 2})
    pools = recorded_pools(monkeypatch)
    if read == "load_csv":
        assert load_csv(path, ds.target_name, ds.task).features.tobytes() == ds.features.tobytes()
    elif read == "read_columns":
        header, columns = read_columns(path, "series file")
        assert columns(dict.fromkeys(header))(ds.target_name).tobytes() == ds.target.tobytes()
    else:
        save_csv(ds, str(tmp_path / "again.csv"))
        assert (tmp_path / "again.csv").read_bytes() == pathlib.Path(path).read_bytes()
    assert pools == []
    assert_no_child()
