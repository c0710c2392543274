"""Dataset ingestion, deterministic splitting, size schedules, and synthetic expansion."""

from __future__ import annotations

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
from .factors import TaskKind

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
# save_csv forks a file of this many cells or more: the workers cost some 45 ms to start, a cell about 1.2 us
_FORK_SAVE_CELLS = 2**17
# read_blocks forks a file of this many bytes or more: its cost follows the bytes, not the cells, and the
# workers cost some 55 ms to start in a new process; files of every shape measured broke even at 2-3 MB
_FORK_READ_BYTES = 3 * 2**20


def read_blocks(path: str) -> tuple[list[str], Callable[[Callable], Iterator]]:
    """The header of a UTF-8 CSV file, and blocks(work), which yields work(block) for each block of data rows.

    A block (columns, others) holds at most _BLOCK_ROWS rows, as csv.reader
    reads them: columns[j] lists cell j of each row as wide as the header, in
    order; others lists (position in the block from 0, cells) for every other
    row, blank lines as [].  Lines are split at '\\n' and ',' until a block
    holds '"', '\\r', NUL or a line over csv.field_size_limit(); from there
    csv.reader reads the rest in this process.  A file of 3 MB or more
    (_FORK_READ_BYTES) is split on every usable core by forked workers, each
    reading its own blocks and running work on them, so only what work
    returns (never None) comes back; the blocks are yielded in order, and an
    error is raised as a read in one process raises it.  A worker that dies
    raises WorkerError naming the first data row not read.  Each call of
    blocks reads the file again.
    """
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    if not os.path.getsize(path):
        raise DataError(f"{path} is empty (no header row)")
    with open(path, "rb") as fh:  # (offset, length) of the header line, then of each block of lines
        sizes = [len(fh.readline())]
        while size := sum(map(len, itertools.islice(fh, _BLOCK_ROWS))):
            sizes.append(size)
    ranges = list(zip(itertools.accumulate(sizes, initial=0), sizes))
    plain = _read_block(path, 0, lambda block: block[1], ranges[0])  # with no width, each line is an other row
    if plain is None:
        with contextlib.closing(_reader_rows(path, ranges)) as rows:
            header = next(rows)
    else:
        header = plain[0][1]
    width = len(header)

    def lost(job: tuple[int, int]) -> str:
        return f"data row {(ranges.index(job) - 1) * _BLOCK_ROWS + 1} of {path} was read"

    def blocks(work: Callable) -> Iterator:
        start = 0  # the range csv.reader reads from: the header's if that is not plain
        if plain is not None:
            fork = os.path.getsize(path) >= _FORK_READ_BYTES
            results = map_on_cores(functools.partial(_read_block, path, width, work), ranges[1:], lost, fork)
            with contextlib.closing(results):
                for start, result in enumerate(results, 1):
                    if result is None:  # each line so far was one row, so csv.reader can take over here
                        break
                    yield result
                else:
                    return
        rows = _reader_rows(path, ranges[start:])
        if not start:
            next(rows)  # the header
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

    The lines are split at '\\n' and ',' only if none holds '"', '\\r', NUL or
    more than csv.field_size_limit() characters; else csv.reader must read
    them, and the result is None.
    """
    offset, length = job
    with open(path, "rb") as fh:
        fh.seek(offset)
        text = _decoded(path, fh.read(length), offset)
    lines = text.removesuffix("\n").split("\n")  # the newline that ends a range starts no row
    if any(c in text for c in '"\r\0') or max(map(len, lines)) > csv.field_size_limit():
        return None
    del text
    # odd rows are split alone, and the full ones all at once with no list per row
    odd = np.fromiter(map(str.count, lines, itertools.repeat(",")), np.intp, len(lines)) != width - 1
    odd |= ~np.fromiter(map(bool, lines), bool, len(lines))
    others = [(at, lines[at].split(",") if lines[at] else []) for at in np.flatnonzero(odd).tolist()]
    cells = ",".join(itertools.compress(lines, (~odd).tolist())).split(",") if not odd.all() else []
    del lines  # only the cells of a block are held while it is parsed
    columns = [cells[j::width] for j in range(width)]
    del cells
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


def read_columns(path: str, kind: str) -> tuple[list[str], Callable[..., np.ndarray]]:
    """The header of a CSV file, and a reader of its columns by name.

    column(name, rule=None) parses the named column over every data row as
    parse_column does; rule is (requirement, test), the test marking each
    value that holds.  Blank lines are skipped and not counted as data rows,
    and a row longer than the header is read for its named cells.  A
    DataError names the file (a `kind`, such as "series file") and the
    column when it is absent.  Else, among the rows before the first that
    ends before the column, it names the first whose cell is not a number,
    else the first that fails the rule, and else that short row.  Columns
    are parsed a block at a time where read_blocks splits the block, on
    every usable core for a large file: no cell text is kept.
    """
    header, blocks = read_blocks(path)
    parts: list = [[] for _ in header]  # each column's values, a block at a time
    bad: list = [None] * len(header)  # the message on its first cell that is not a number
    short: list = [None] * len(header)  # and on the first data row that ends before it

    def must_hold(j: int, requirement: str, row: int, cell: str) -> str:
        return f"column {header[j]!r} of {path} must hold {requirement}; data row {row + 1} has {cell!r}"

    n_rows = 0
    every_column = dict.fromkeys(range(len(header)), "parse")
    for n_full, columns, widths in blocks(functools.partial(_parsed, every_column, True)):
        for j, (values, at, coding, ends) in columns.items():
            if bad[j] is None and short[j] is None:  # a column is read up to its first fault
                parts[j].append(values)
                bad[j] = None if at is None else must_hold(j, "numbers", n_rows + at, coding[0][coding[1][at]])
                if ends is not None:
                    short[j] = (f"data row {n_rows + ends[0] + 1} of {path} ends after field {ends[1]}; "
                                f"column {header[j]!r} is field {j + 1}")
        n_rows += n_full + sum(map(bool, widths))
    if not n_rows:
        raise DataError(f"{kind} {path} has no data rows")
    for j, values in enumerate(parts):
        parts[j] = np.concatenate(values)

    def column(name: str, rule: Optional[tuple] = None) -> np.ndarray:
        if name not in header:
            raise DataError(f"{kind} {path} lacks a {name!r} column")
        j = header.index(name)
        if bad[j] is None and rule is not None and not (holds := rule[1](parts[j])).all():
            row = at = int(np.argmin(holds))
            # read again for the cell's text, and leave no worker or file behind
            with contextlib.closing(blocks(functools.partial(_parsed, {j: "code"}, True))) as coded:
                for _, columns, _ in coded:
                    cells, codes = columns[j][2]
                    if at < codes.size:
                        raise DataError(must_hold(j, rule[0], row, cells[codes[at]]))
                    at -= codes.size
        if bad[j] or short[j]:
            raise DataError(bad[j] or short[j])
        return parts[j]

    return header, column


def _parsed(plan: dict, spliced: bool, block: tuple) -> tuple[int, dict, list[int]]:
    """The columns of a block of data rows that plan names, read in the process that split the block.

    plan maps a column to "parse" or to "code".  A column holds cell j of the
    block's full rows, or if spliced, of each of its data rows up to the first
    that ends before the column (_spliced).  Returns the number of full rows;
    for each planned column its values, first bad cell and coding, as
    parse_column gives them (None, None and _coded's for a coded column), and
    where a row ends before it (or None); and the field count of each other row.
    """
    columns, others = block
    read = {}
    for j, how in plan.items():
        cells, ends = _spliced(columns[j], others, j) if spliced else (columns[j], None)
        read[j] = *(parse_column(cells) if how == "parse" else (None, None, _coded(cells))), ends
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
    every usable core for a large file.
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
    plan = {col: "code" if col in categorical else "parse" for col in range(len(header))}
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
    file is opened).  Rows are turned into text a block at a time, a file
    of 2**17 cells or more (13108 rows of 9 features, say) on every usable
    core by forked workers, each block written here in order as it comes
    back; the bytes are the same either way.  A worker that dies raises
    WorkerError naming the first data row not written.  An error once the
    file is open removes it, if it is a regular file (not /dev/null, say).
    """
    labels = list(map(int if ds.task.has_class_targets else float, ds.target.tolist()))
    fork = ds.n * (ds.d + 1) >= _FORK_SAVE_CELLS
    blocks = map_on_cores(functools.partial(_text_rows, ds.features, labels), range(0, ds.n, _BLOCK_ROWS),
                          lambda start: f"data row {start + 1} of {path} was written", fork)
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
    sides are disjoint, exhaustive, and deterministic given the seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DomainError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = int(ds.n * test_fraction)
    if n_test < 1 or ds.n - n_test < 1:
        raise DomainError(f"split of {ds.n} rows at {test_fraction} leaves an empty side")

    rng = np.random.default_rng(seed)
    test_indices: np.ndarray
    if ds.task.has_class_targets:
        counts = np.bincount(ds.target.astype(int))
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
# a scan of fewer blocks runs in this process: starting the workers costs 15-80 ms, a block about 0.5 ms
_FORK_BLOCKS = 192
_JOB_BLOCKS = 32  # blocks per job of a scan


def _block_rows(m: int, d: int) -> int:  # anchor rows per block of a scan over m rows of d features
    return max(1, _SCAN_BLOCK_FLOATS // max(1, m * d))


def _pool_neighbors(features: np.ndarray, pools: list, k: int, job: tuple) -> np.ndarray:
    """The neighbour table of pools[at]'s rows at positions, for job (at, positions), positions ascending.

    Row i lists the positions of the k pool rows nearest to the row at positions[i], itself excluded, ordered by
    (Euclidean distance, position), as a stable sort of the distances orders them, so ties go to the lower
    position.  A pool of one row lists that row itself; a pool of m <= k rows lists the other m - 1.  A
    distance that overflows raises FloatingPointError.
    """
    at, positions = job
    features = features[pools[at]]
    m, d = features.shape
    if m == 1:
        return np.zeros((positions.size, 1), dtype=np.intp)
    k = min(k, m - 1)
    step = _block_rows(m, d)
    table = np.empty((positions.size, k), dtype=np.intp)
    with np.errstate(over="raise"):  # an infinite distance would tie with every other, ranked by position
        for start in range(0, positions.size, step):
            anchors = positions[start:start + step]
            b = anchors.size
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
            table[start:start + b] = cols[order][rank < k].reshape(b, k)
    return table


def _neighbor_table(features: np.ndarray, pools: list, k: int, rows: np.ndarray) -> np.ndarray:
    """Line i lists the k nearest rows to rows[i] (ascending, distinct) in its pool, then -1 up to k columns.

    Each pool's rows among them are cut into jobs of _JOB_BLOCKS blocks, run in order and forked for _FORK_BLOCKS
    blocks or more: an anchor's neighbours depend on its own row of distances alone, so any cut gives the same bits.
    """
    jobs, blocks = [], 0
    for at, pool in enumerate(pools):
        positions = np.flatnonzero(np.isin(pool, rows))
        step = _block_rows(pool.size, features.shape[1])
        blocks += -(-positions.size // step)
        jobs += [(at, positions[lo:lo + step * _JOB_BLOCKS]) for lo in range(0, positions.size, step * _JOB_BLOCKS)]
    scan = functools.partial(_pool_neighbors, features, pools, k)
    tables = list(map_on_cores(scan, jobs, "the neighbour scan ended".format, blocks >= _FORK_BLOCKS))
    table = np.full((rows.size, k), -1, dtype=np.intp)
    for (at, positions), nearest in zip(jobs, tables):
        table[np.searchsorted(rows, pools[at][positions]), :nearest.shape[1]] = pools[at][nearest]
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
    anchors are scanned, each exactly against its whole class of m rows, in
    blocks of 2**16 // (m * d) anchors: each float temporary is at most 512
    KB.  A scan of 192 blocks of drawn anchors or more (all of three classes
    of 700 rows at d = 8, say) forks on every usable core, with the same
    bits.  A worker that dies raises WorkerError; a distance from a drawn
    anchor that overflows raises DomainError.
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
    rows = np.unique(anchors)
    try:
        table = _neighbor_table(ds.features, pools, k_neighbors, rows)
    except FloatingPointError:
        raise DomainError("features too large to compare: the distance between two rows overflows") from None
    base = ds.features[anchors]
    new_features = ds.features[table[np.searchsorted(rows, anchors), picks]] - base
    new_features *= lams[:, np.newaxis]
    new_features += base  # base + lam * (neighbor - base), one IEEE step at a time
    return replace(ds, features=np.concatenate([ds.features, new_features]),
                   target=np.concatenate([ds.target, ds.target[anchors]]), n_dropped=0)
