"""Dataset ingestion, deterministic splitting, size schedules, and synthetic expansion."""

from __future__ import annotations

import bisect
import contextlib
import csv
import functools
import io
import itertools
import math
import os
import stat
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ._fork import map_on_cores
from .exceptions import DataError, DomainError
from .factors import _FINITE, TaskKind, integer_rule
from .metrics import _read

__all__ = [
    "Dataset",
    "SampleSchedule",
    "load_csv",
    "save_csv",
    "split",
    "schedule",
    "synthetic_expand",
]


@dataclass
class Dataset:
    """Column-labeled tabular data with a designated target.

    Features are a dense float matrix with no missing values; class targets
    (classification and clustering ground truth) are contiguous integers
    starting at 0, regression targets are floats.
    """

    feature_names: list[str]
    features: np.ndarray  # (n, d)
    target: np.ndarray  # (n,)
    task: TaskKind
    target_name: str = "target"
    n_dropped: int = 0  # rows discarded during ingestion

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset preserving all metadata."""
        return replace(
            self, features=self.features[indices], target=self.target[indices], n_dropped=0
        )


@dataclass(frozen=True)
class SampleSchedule:
    """Increasing training sizes start, start+step, ..., capped at stop."""

    sizes: tuple[int, ...]

    @property
    def max_size(self) -> int:
        return self.sizes[-1]


def schedule(start: int, stop: int, step: int) -> SampleSchedule:
    """Arithmetic size sequence inclusive of start and capped at stop."""
    if start < 1 or stop < start or step < 1:
        raise DomainError(f"need 1 <= start <= stop and step >= 1, got ({start}, {stop}, {step})")
    return SampleSchedule(sizes=tuple(range(start, stop + 1, step)))


# data rows per block of a CSV file read or written: a block's cells are parsed before the next is split
_BLOCK_ROWS = 4096
_SCAN_BYTES = 2**20  # bytes per read of read_blocks's scan for the newlines that end its blocks


def read_blocks(path: str) -> tuple[list[str], Callable[[Callable], Iterator]]:
    """The header of a UTF-8 CSV file, and blocks(work), which yields work(block) for each block of data rows.

    A block (columns, others) holds at most _BLOCK_ROWS rows, as csv.reader
    reads them: columns[j] lists cell j of each row as wide as the header, in
    order; others lists (position in the block from 0, cells) for every other
    row, blank lines as [].  A block ends at every _BLOCK_ROWS-th newline, which
    numpy finds a _SCAN_BYTES read at a time.  The same scan finds the first
    '"', '\\r' or NUL and the first line over csv.field_size_limit() bytes:
    the blocks before the one that holds either are split at '\\n' and ','
    (_read_block), and csv.reader reads the rest in this process.  Two plain
    blocks or more are split on every usable core by forked workers
    (map_on_cores), each reading its own blocks and running work on them, so
    only what work returns comes back; the blocks are yielded in order, and
    an error is raised as a read in one process raises it.  A worker that
    dies raises WorkerError naming the first data row not read.  Each call
    of blocks reads the file again.
    """
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    if not os.path.getsize(path):
        raise DataError(f"{path} is empty (no header row)")
    ends, seen, last, found = [], 0, -1, []  # the header's and each block's end; the newlines so far, and the last
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN_BYTES):
            newlines = np.flatnonzero(np.frombuffer(chunk, np.uint8) == 10) + (fh.tell() - len(chunk))
            ends += (newlines[-seen % _BLOCK_ROWS::_BLOCK_ROWS] + 1).tolist()  # newline number 0 ends the header
            seen += newlines.size
            if not found:  # the first bytes csv.reader must read: '"', '\r', NUL, a line over the field limit
                found = [at + fh.tell() - len(chunk) for at in map(chunk.find, b'"\r\0') if at >= 0]
                found += newlines[np.diff(newlines, prepend=last) > csv.field_size_limit() + 1][:1].tolist()
            last = newlines[-1] if newlines.size else last
        found += [last + 1] if fh.tell() - last - 1 > csv.field_size_limit() else []  # a last line with no newline
        # (offset, length); the last range ends with the file, and is empty only if a block ended there
        ranges = [(start, end - start) for start, end in zip([0] + ends, ends + [fh.tell()]) if end > start]
    rest = bisect.bisect(ends, min(found)) if found else len(ranges)  # the first range csv.reader reads
    if rest:
        header = _read_block(path, 0, lambda block: block[1], ranges[0])[0][1]  # with no width, lines are others
    else:
        with contextlib.closing(_reader_rows(path, ranges)) as rows:
            header = next(rows)
    width = len(header)

    def lost(job: tuple[int, int]) -> str:
        return f"data row {(ranges.index(job) - 1) * _BLOCK_ROWS + 1} of {path} was read"

    def blocks(work: Callable) -> Iterator:
        yield from map_on_cores(functools.partial(_read_block, path, width, work), ranges[1:rest], lost)
        if rest == len(ranges):
            return
        rows = itertools.islice(_reader_rows(path, ranges[rest:]), int(not rest), None)  # past the header
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            full = [row for row in block if row and len(row) == width]
            others = [(at, row) for at, row in enumerate(block) if not row or len(row) != width]
            yield work((list(zip(*full)) if full else [()] * width, others))

    return header, blocks


def _decoded(path: str, raw: bytes, offset: int) -> str:
    """The text of bytes read from offset in path; a DataError places a byte that is not UTF-8 in the whole file."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        exc = UnicodeDecodeError("utf-8", bytes(offset) + exc.object, offset + exc.start, offset + exc.end, exc.reason)
        raise DataError(f"{path} is not a readable UTF-8 CSV file: {exc}") from None


def _read_block(path: str, width: int, work: Callable, job: tuple[int, int]):
    """work(block) for the lines in the byte range job = (offset, length) of path, split a row per line.

    The lines are split at '\\n' and ',' only: read_blocks's scan hands a
    range here only if no line in it holds '"', '\\r', NUL or more than
    csv.field_size_limit() bytes.  No Python code runs per line: numpy finds
    the lines and counts their commas, and sets apart blank and odd-width ones.
    """
    offset, length = job
    with open(path, "rb") as fh:
        fh.seek(offset)
        raw = fh.read(length)
    text = _decoded(path, raw, offset)
    codes = np.frombuffer(raw if raw.endswith(b"\n") else raw + b"\n", np.uint8)  # each line ends at a newline
    ends = np.flatnonzero(codes == 10)
    sizes = np.diff(ends, prepend=-1) - 1
    commas = np.diff(np.searchsorted(np.flatnonzero(codes == 44), ends), prepend=0)
    odd = (commas != width - 1) | (sizes == 0)
    del codes, raw
    text = text.removesuffix("\n").replace("\n", ",")  # each line's commas + 1 cells, in order
    cells = text.split(",")
    del text
    at, firsts = np.flatnonzero(odd), np.cumsum(commas + 1) - commas - 1  # the odd lines, each line's first cell
    others = [(line, cells[first:first + n] if size else []) for line, first, n, size in
              zip(at.tolist(), firsts[at].tolist(), (commas[at] + 1).tolist(), sizes[at].tolist())]
    if at.size:
        cells = list(itertools.compress(cells, np.repeat(~odd, commas + 1).tolist()))
    columns = [cells[j::width] for j in range(width)]
    del cells  # only the cells of a block are held while it is parsed
    return work((columns, others))


def _reader_rows(path: str, ranges: list) -> Iterator[list[str]]:
    """csv.reader's rows of path from the start of ranges[0] on."""
    with open(path, "rb") as fh:
        fh.seek(ranges[0][0])
        texts = (_decoded(path, fh.read(length), offset) for offset, length in ranges)
        try:
            yield from csv.reader(line for text in texts for line in io.StringIO(text, newline=""))
        except csv.Error as exc:
            raise DataError(f"{path} is not a readable UTF-8 CSV file: {exc}") from None


def parse_column(cells: Sequence[str]) -> tuple[np.ndarray, Optional[int], Optional[tuple[list, np.ndarray]]]:
    """Floats from CSV cells, each read as Python's float() reads it.

    numpy parses the cells (a block of a column) in one call, as float()
    does; only cells among which one does not parse fall back to coding
    them (_coded) and parsing each distinct cell once.  Returns the values,
    NaN where a cell does not parse, the index of the first such cell (None
    if every cell parses), and the coding if the cells fell back (else None).
    """
    try:
        return np.array(cells, dtype=float), None, None
    except ValueError:
        pass
    distinct, codes = _coded(cells)
    floats, first_bad = np.empty(len(distinct)), None
    for at, cell in enumerate(distinct):
        try:
            floats[at] = float(cell)
        except ValueError:
            floats[at] = math.nan
            if first_bad is None:
                first_bad = cells.index(cell)
    return floats[codes], first_bad, (distinct, codes)


def read_columns(path: str, kind: str) -> tuple[list[str], Callable[[dict], Callable[[str], np.ndarray]]]:
    """The header of a CSV file, and read(rules), which reads the file once and returns column(name).

    rules maps each column the caller needs to its rule, (requirement, test), the test marking each value that
    holds, or to None.  Only those columns are parsed, as parse_column does, and their rules tested (_parsed) where
    read_blocks splits each block, on every usable core for a file of two blocks or more: no cell text is kept.
    Blank lines are skipped and not counted as data rows; a longer row is read for its named cells.  A DataError
    names the file (a `kind`, such as "series file"): read raises it for a file with no data rows, column(name) for
    a name not in the header, else, among the rows before the first that ends before the column, for the first cell
    not a number, else the first that breaks the rule, else that short row.
    """
    header, blocks = read_blocks(path)

    def read(rules: dict) -> Callable[[str], np.ndarray]:
        plan = {header.index(name): rule for name, rule in rules.items() if name in header}
        parts: dict = {j: [] for j in plan}  # each column's values, a block at a time
        faults: dict = {j: [None] * 3 for j in plan}  # its first cell not a number, first to break the rule, short row
        n_rows = 0
        for n_full, columns, widths in blocks(functools.partial(_parsed, plan, True)):
            for j, (values, fault, _, ends) in columns.items():
                if (found := faults[j])[0] or found[2]:  # read up to its first cell not a number or short row
                    continue
                parts[j].append(values)
                if fault is not None and not found[slot := int(fault[1] is not None)]:
                    found[slot] = (f"column {header[j]!r} of {path} must hold {fault[1] or 'numbers'}; "
                                   f"data row {n_rows + fault[0] + 1} has {fault[2]!r}")
                if ends is not None:
                    found[2] = (f"data row {n_rows + ends[0] + 1} of {path} ends after field {ends[1]}; "
                                f"column {header[j]!r} is field {j + 1}")
            n_rows += n_full + sum(map(bool, widths))
        if not n_rows:
            raise DataError(f"{kind} {path} has no data rows")
        parts = {j: np.concatenate(values) for j, values in parts.items()}

        def column(name: str) -> np.ndarray:
            if name not in header:
                raise DataError(f"{kind} {path} lacks a {name!r} column")
            if message := next(filter(None, faults[header.index(name)]), None):
                raise DataError(message)
            return parts[header.index(name)]

        return column

    return header, read


def _parsed(plan: dict, spliced: bool, block: tuple) -> tuple[int, dict, list[int]]:
    """The columns of a block of data rows that plan names, read in the process that split the block.

    plan maps a column to "code", or to parse it to None or to a rule (read_columns's).  A column holds cell j of
    the block's full rows, or if spliced, of each of its data rows up to the first that ends before the column
    (_spliced).  Returns the number of full rows; for each planned column its values and coding, as parse_column
    gives them (None and _coded's for a coded column), its first fault (at, requirement, cell) or None, the
    requirement None for a cell that is not a number, and where a row ends before it (or None); and the field count
    of each other row.
    """
    columns, others = block
    read = {}
    for j, rule in plan.items():
        cells, ends = _spliced(columns[j], others, j) if spliced else (columns[j], None)
        values, at, coding = (None, None, _coded(cells)) if rule == "code" else parse_column(cells)
        fault = None if at is None else (at, None, cells[at])  # the first cell that is not a number, else
        if at is None and rule not in (None, "code") and not (holds := rule[1](values)).all():
            fault = (at := int(np.argmin(holds))), rule[0], cells[at]  # the first that breaks the rule
        read[j] = values, fault, coding, ends
    return len(columns[0]) if columns else 0, read, [len(row) for _, row in others]


def _spliced(full: Sequence[str], others: list, j: int) -> tuple[list[str], Optional[tuple]]:
    """Cell j of a block's data rows in order, up to the first one without it: cells, (at, fields) or None."""
    cells: list[str] = []
    taken = 0  # rows of full used
    for k, (at, row) in enumerate(others):
        cells += full[taken:at - k]
        taken = at - k
        if row and len(row) <= j:
            return cells, (len(cells), len(row))
        cells += row[j:j + 1]  # a blank line adds no cell
    cells += full[taken:]
    return cells, None


def _coded(cells: Sequence) -> tuple[list, np.ndarray]:
    """The distinct cells in order of first appearance, and the index of each cell among them."""
    index = {cell: at for at, cell in enumerate(dict.fromkeys(cells))}
    return list(index), np.fromiter(map(index.__getitem__, cells), dtype=np.intp, count=len(cells))


def _recoded(seen: dict, cells: list, codes: np.ndarray) -> np.ndarray:
    """A block's codes (_coded) renumbered in order of first appearance after the cells in seen (cell: code)."""
    return np.array([seen.setdefault(cell, len(seen)) for cell in cells], dtype=np.intp)[codes]


def load_csv(path: str, target_column: str, task: TaskKind) -> Dataset:
    """Ingest a CSV with a header row into a Dataset.

    A cell parses when Python's float() reads it as a finite number; a
    column counts as numeric when more than half of its cells parse.  Other
    columns are categorical and label-encoded in first-appearance order over
    the kept rows.  Rows with the wrong field count, an empty cell, or an
    unparseable cell in a numeric column are dropped and counted in
    n_dropped.  Classification and clustering targets are re-indexed to
    0..C-1 in first-appearance order over the kept rows; regression targets
    must parse.  If the target name occurs twice in the header, the last
    such column is the target.  Each block is parsed as parse_column parses
    it, or coded where it does not parse, where read_blocks splits it, on
    every usable core for a file of two blocks or more.
    """
    header, blocks = read_blocks(path)
    if target_column not in header:
        for _ in blocks(len):  # a file that cannot be read says so first
            pass
        raise DataError(f"target column {target_column!r} not in header {header}")
    target_idx = len(header) - 1 - header[::-1].index(target_column)
    categorical = [target_idx] if task.has_class_targets else []

    parts: list = [[] for _ in header]  # each column's floats, a block at a time
    codes: list = [[] for _ in header]  # and its cells' codes, None for a block that parsed whole
    seen: list[dict] = [{} for _ in header]  # the cells coded so far, with their codes
    n_read = n_full = 0
    plan = {col: "code" if col in categorical else None for col in range(len(header))}
    for rows, columns, widths in blocks(functools.partial(_parsed, plan, False)):
        n_full += rows
        n_read += rows + len(widths)
        for col, (values, _, coding, _) in columns.items():
            parts[col].append(values)
            codes[col].append(None if coding is None else _recoded(seen[col], *coding))
    if not n_full:
        raise DataError(f"{path} has no usable data rows ({n_read} dropped)")

    usable = np.ones(n_full, dtype=bool)
    for col in [col for col in range(len(header)) if col not in categorical]:
        parts[col] = np.concatenate(parts[col])
        finite = np.isfinite(parts[col])
        if col == target_idx or 2 * np.count_nonzero(finite) > n_full:
            usable &= finite
        else:
            categorical.append(col)
    # a block that parsed whole kept no codes: such columns are read again, coded from the first block
    again = {col: "code" for col in categorical if any(block is None for block in codes[col])}
    if again:
        for col in again:
            seen[col], codes[col] = {}, []
        for _, columns, _ in blocks(functools.partial(_parsed, again, False)):
            for col, (_, _, coding, _) in columns.items():
                codes[col].append(_recoded(seen[col], *coding))
    for col in categorical:
        codes[col] = np.concatenate(codes[col])
        usable &= codes[col] != seen[col].get("", -1)
    keep = np.flatnonzero(usable)
    dropped = n_read - keep.size
    if not keep.size:
        raise DataError(f"{path} has no usable data rows ({dropped} dropped)")

    def kept(col: int) -> np.ndarray:
        return _coded(codes[col][keep].tolist())[1] if col in categorical else parts[col][keep]  # renumbered

    feature_cols = [c for c in range(len(header)) if c != target_idx]
    features = np.empty((keep.size, len(feature_cols)))
    for out_col, col in enumerate(feature_cols):
        features[:, out_col] = kept(col)
    return Dataset(
        feature_names=[header[c] for c in feature_cols],
        features=features,
        target=kept(target_idx),
        task=task,
        target_name=header[target_idx],
        n_dropped=dropped,
    )


def _text_rows(features: np.ndarray, labels: list, start: int) -> str:
    """The text save_csv writes for the block of data rows from start."""
    rows = features[start:start + _BLOCK_ROWS].tolist()
    for at, label in enumerate(labels[start:start + _BLOCK_ROWS]):
        rows[at].append(label)
        rows[at] = ",".join(map(repr, rows[at])) + "\n"  # a row's floats are freed as its text is made
    return "".join(rows)


def save_csv(ds: Dataset, path: str) -> None:
    """Write a Dataset back out in the ingestion dialect (header + rows).

    Features and regression targets are written as Python's repr of the
    float, the shortest text that reads back to the same bits; class
    targets as integers (a NaN class target raises ValueError before the
    file is opened).  Rows are turned into text a block of _BLOCK_ROWS rows
    at a time, a file of two blocks or more on every usable core by forked
    workers (map_on_cores), each block written here in order as it comes
    back; the bytes are the same either way.  A worker that dies raises
    WorkerError naming the first data row not written.  An error once the
    file is open removes it, if it is a regular file (not /dev/null, say).
    """
    labels = list(map(int if ds.task.has_class_targets else float, ds.target.tolist()))
    blocks = map_on_cores(functools.partial(_text_rows, ds.features, labels), range(0, ds.n, _BLOCK_ROWS),
                          lambda start: f"data row {start + 1} of {path} was written")
    fh = open(path, "w", newline="", encoding="utf-8")
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    try:
        with fh, contextlib.closing(blocks):
            # only the names may need csv's quoting: a float's or int's repr never does
            csv.writer(fh, lineterminator="\n").writerow(ds.feature_names + [ds.target_name])
            fh.writelines(blocks)
    except BaseException:
        if regular:
            os.remove(path)  # a shorter file would read back as a valid dataset
        raise


def split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded train/test partition.

    Classification and clustering datasets are stratified by class whenever
    every class has at least two members (per-class test counts allocated
    by largest remainder); otherwise the split is a plain shuffle.  The two
    sides are disjoint, exhaustive, and deterministic given the seed.  The
    target must hold a class id per row (regression: a finite number).
    """
    rule = integer_rule(f"class ids in [0, {ds.n})", 0, ds.n) if ds.task.has_class_targets else _FINITE
    target = _read(ds.target_name, ds.target, rows=ds.n, rule=rule)
    if not 0.0 < test_fraction < 1.0:
        raise DomainError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = int(ds.n * test_fraction)
    if n_test < 1 or ds.n - n_test < 1:
        raise DomainError(f"split of {ds.n} rows at {test_fraction} leaves an empty side")

    rng = np.random.default_rng(seed)
    test_indices: np.ndarray
    if ds.task.has_class_targets:
        counts = np.bincount(target.astype(int))
    else:
        counts = np.array([])
    if ds.task.has_class_targets and counts.min() >= 2:
        exact = counts * test_fraction
        base = np.floor(exact).astype(int)
        leftover = n_test - base.sum()
        order = np.argsort(-(exact - base), kind="stable")
        base[order[:leftover]] += 1
        picks = []
        for cls, take in enumerate(base):
            members = np.flatnonzero(ds.target == cls)
            picks.append(rng.permutation(members)[:take])
        test_indices = np.concatenate(picks)
    else:
        test_indices = rng.permutation(ds.n)[:n_test]

    mask = np.zeros(ds.n, dtype=bool)
    mask[test_indices] = True
    return ds.take(np.flatnonzero(~mask)), ds.take(np.flatnonzero(mask))


# float temporaries per block of the neighbour scan (512 KB each, whatever the pool size)
_SCAN_BLOCK_FLOATS = 2**16


def _block_rows(m: int, d: int) -> int:  # anchor rows per block of a scan over m rows of d features
    return max(1, _SCAN_BLOCK_FLOATS // max(1, m * d))


def _pool_neighbors(features: np.ndarray, k: int, anchors: np.ndarray) -> np.ndarray:
    """The neighbour table of the rows of a pool's features at positions anchors.

    Row i lists the positions of the k pool rows nearest to the row at anchors[i], itself excluded, ordered by
    (Euclidean distance, position), as a stable sort of the distances orders them, so ties go to the lower
    position.  A pool of one row lists that row itself; a pool of m <= k rows lists the other m - 1.  A
    distance that overflows raises FloatingPointError.
    """
    m, b = features.shape[0], anchors.size
    if m == 1:
        return np.zeros((b, 1), dtype=np.intp)
    k = min(k, m - 1)
    with np.errstate(over="raise"):  # an infinite distance would tie with every other, ranked by position
        diff = features - features[anchors][:, np.newaxis, :]
        # the very sum np.linalg.norm takes, so distances match it bit for bit
        distances = np.sqrt(np.add.reduce(np.square(diff, out=diff), axis=-1))
    # the k nearest others lie within the (k+1)-th smallest distance, self included
    cutoff = np.partition(distances, k, axis=1)[:, k:k + 1]
    candidate = (distances <= cutoff) | np.isnan(cutoff)
    candidate[np.arange(b), anchors] = False
    rows, cols = np.nonzero(candidate)
    order = np.lexsort((cols, distances[rows, cols], rows))
    counts = np.bincount(rows, minlength=b)
    rank = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return cols[order][rank < k].reshape(b, k)


def _neighbor_table(features: np.ndarray, pools: list, k: int, drawn: np.ndarray) -> np.ndarray:
    """Line r lists the k nearest rows to row r in its pool, then -1 up to k columns; a row not drawn is all -1.

    One pool at a time, its features are gathered and its drawn rows scanned in this process, in blocks of
    _block_rows anchors.  The gathered pool is at most n x d floats (0.19 MB at n = 3000, d = 8, one pool), the table
    n x k (0.12 MB at k = 5).
    """
    table = np.full((features.shape[0], k), -1, dtype=np.intp)
    for pool in pools:
        pooled, positions = features[pool], np.flatnonzero(drawn[pool])
        step = _block_rows(pool.size, features.shape[1])
        for start in range(0, positions.size, step):
            anchors = positions[start:start + step]
            nearest = _pool_neighbors(pooled, k, anchors)
            table[pool[anchors], :nearest.shape[1]] = pool[nearest]
    return table


def synthetic_expand(ds: Dataset, target_n: int, k_neighbors: int, seed: int) -> Dataset:
    """Grow a dataset by interpolating between nearest-neighbor pairs.

    Each synthetic row is anchor + lambda * (neighbor - anchor) with a
    seeded lambda in (0, 1), where the neighbor is one of the anchor's
    k nearest originals under Euclidean distance.  With class targets the
    neighbor pool is restricted to the anchor's class and the synthetic row
    inherits that class (a singleton class replicates its one member).  The
    original rows are preserved, bitwise, ahead of the synthetic ones.

    Neighbours are ranked by distance, ties going to the lower row index.
    The anchors, picks and lambdas are drawn first, and only the drawn
    anchors are scanned in this process, each exactly against its whole
    class of m rows, in blocks of 2**16 // (m * d) anchors: each float
    temporary is at most 512 KB.  It also holds a gathered copy of one class
    at a time and an n x k table.  A drawn anchor's distance that overflows
    raises DomainError.
    """
    if target_n <= ds.n:
        raise DomainError(f"target_n must exceed the current {ds.n} rows, got {target_n}")
    if not 1 <= k_neighbors < ds.n:
        raise DomainError(f"k_neighbors must be in [1, {ds.n - 1}], got {k_neighbors}")

    pool_of = np.unique(ds.target, return_inverse=True)[1] if ds.task.has_class_targets else np.zeros(ds.n, np.intp)
    pools = [np.flatnonzero(pool_of == at) for at in range(pool_of.max() + 1)]
    widths = np.clip(np.bincount(pool_of)[pool_of] - 1, 1, k_neighbors).tolist()  # a lone row lists itself
    rng = np.random.default_rng(seed)
    (anchors, picks), lams = np.empty((2, target_n - ds.n), dtype=np.intp), np.empty(target_n - ds.n)
    for row in range(target_n - ds.n):
        anchors[row] = anchor = rng.integers(ds.n)
        picks[row] = rng.integers(widths[anchor])
        lams[row] = rng.random()
    drawn = np.bincount(anchors, minlength=ds.n).astype(bool)
    try:
        table = _neighbor_table(ds.features, pools, k_neighbors, drawn)
    except FloatingPointError:
        raise DomainError("features too large to compare: the distance between two rows overflows") from None
    base = ds.features[anchors]
    new_features = ds.features[table[anchors, picks]] - base
    new_features *= lams[:, np.newaxis]
    new_features += base  # base + lam * (neighbor - base), one IEEE step at a time
    return replace(ds, features=np.concatenate([ds.features, new_features]),
                   target=np.concatenate([ds.target, ds.target[anchors]]), n_dropped=0)
