"""Dataset ingestion, deterministic splitting, size schedules, and synthetic expansion."""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

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


def read_blocks(path: str) -> Iterator:
    """Yield the header of a UTF-8 CSV file, then its data rows (as csv.reader reads them) in blocks.

    A block (columns, others) holds at most _BLOCK_ROWS rows: columns[j] lists
    cell j of each row as wide as the header, in order; others lists (position
    in the block from 0, cells) for every other row, blank lines as [].  Lines
    are split at '\\n' and ',' until a block holds '"', '\\r', NUL or a line
    over csv.field_size_limit(); from there csv.reader reads the rest.
    """
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    if not os.path.getsize(path):
        raise DataError(f"{path} is empty (no header row)")
    with open(path, "rb") as fh:
        try:
            raws = iter(lambda: b"".join(itertools.islice(fh, _BLOCK_ROWS)), b"")  # each ends at a newline
            texts, width = map(bytes.decode, raws), None
            for text in texts:
                lines = text.removesuffix("\n").split("\n")  # the newline that ends a block starts no row
                if any(c in text for c in '"\r\0') or max(map(len, lines)) > csv.field_size_limit():
                    # each line so far was one row, so csv.reader can take over here and read the rest
                    lines = (line for t in itertools.chain([text], texts) for line in io.StringIO(t, newline=""))
                    rows = csv.reader(lines)
                    if width is None:
                        yield (header := next(rows))
                        width = len(header)
                    while block := list(itertools.islice(rows, _BLOCK_ROWS)):
                        full = [row for row in block if row and len(row) == width]
                        others = [(at, row) for at, row in enumerate(block) if not row or len(row) != width]
                        yield list(zip(*full)) if full else [()] * width, others
                    return
                del text  # only the cells of a block are held while it is parsed
                if width is None:
                    header = lines[0].split(",") if lines[0] else []
                    width, lines = len(header), lines[1:]
                    yield header
                # a row per line: odd rows are split alone, and the full ones all at once with no list per row
                odd = np.fromiter(map(str.count, lines, itertools.repeat(",")), np.intp, len(lines)) != width - 1
                odd |= ~np.fromiter(map(bool, lines), bool, len(lines))
                others = [(at, lines[at].split(",") if lines[at] else []) for at in np.flatnonzero(odd).tolist()]
                cells = ",".join(itertools.compress(lines, (~odd).tolist())).split(",") if not odd.all() else []
                block = [cells[j::width] for j in range(width)], others
                del lines, cells
                yield block
        except (UnicodeDecodeError, csv.Error) as exc:
            if isinstance(exc, UnicodeDecodeError):  # count the position from the file's start, not the block's
                at = fh.tell() - len(exc.object)
                exc = UnicodeDecodeError("utf-8", bytes(at) + exc.object, at + exc.start, at + exc.end, exc.reason)
            raise DataError(f"{path} is not a readable UTF-8 CSV file: {exc}") from None


def parse_column(cells: Sequence[str]) -> tuple[np.ndarray, Optional[int]]:
    """Floats from CSV cells, each read as Python's float() reads it.

    numpy parses the cells (a block of a column) in one call, as float()
    does; only cells among which one does not parse fall back to parsing
    each distinct cell once.  Returns the values, NaN where a cell does not
    parse, and the index of the first such cell (None if every cell parses).
    """
    try:
        return np.array(cells, dtype=float), None
    except ValueError:
        pass
    parsed = dict.fromkeys(cells)  # distinct cells in order of first appearance
    first_bad = None
    for cell in parsed:
        try:
            parsed[cell] = float(cell)
        except ValueError:
            parsed[cell] = math.nan
            if first_bad is None:
                first_bad = cells.index(cell)
    return np.fromiter(map(parsed.__getitem__, cells), dtype=float, count=len(cells)), first_bad


def read_columns(path: str, kind: str) -> tuple[list[str], Callable[..., np.ndarray]]:
    """The header of a CSV file, and a reader of its columns by name.

    column(name, rule=None) parses the named column over every data row as
    parse_column does; rule is (requirement, test), the test marking each
    value that holds.  Blank lines are skipped and not counted as data rows,
    and a row longer than the header is read for its named cells.  A
    DataError names the file (a `kind`, such as "series file") and the
    column when it is absent, and else the first bad data row: one whose
    cell is not a number or fails the rule, or one that ends before the
    column.  Columns are parsed a block at a time: no cell text is kept.
    """
    blocks = read_blocks(path)
    header = next(blocks)
    parts: list = [[] for _ in header]  # each column's values, a block at a time
    bad: list = [None] * len(header)  # the message on its first cell that is not a number
    short: list = [None] * len(header)  # and on the first data row that ends before it

    def must_hold(j: int, requirement: str, row: int, cell: str) -> str:
        return f"column {header[j]!r} of {path} must hold {requirement}; data row {row + 1} has {cell!r}"

    n_rows = 0
    for columns, others in blocks:
        for j in range(len(header)):
            if bad[j] is None and short[j] is None:  # a column is read up to its first fault
                cells, ends = _spliced(columns[j], others, j)
                values, at = parse_column(cells)
                parts[j].append(values)
                bad[j] = None if at is None else must_hold(j, "numbers", n_rows + at, cells[at])
                if ends is not None:
                    short[j] = (f"data row {n_rows + ends[0] + 1} of {path} ends after field {ends[1]}; "
                                f"column {header[j]!r} is field {j + 1}")
        n_rows += (len(columns[0]) if columns else 0) + sum(1 for _, row in others if row)
    if not n_rows:
        raise DataError(f"{kind} {path} has no data rows")
    for j, values in enumerate(parts):
        parts[j] = np.concatenate(values)

    def column(name: str, rule: Optional[tuple] = None) -> np.ndarray:
        if name not in header:
            raise DataError(f"{kind} {path} lacks a {name!r} column")
        j = header.index(name)
        if bad[j] is None and rule is not None and not (holds := rule[1](parts[j])).all():
            at = int(np.argmin(holds))
            with contextlib.closing(read_blocks(path)) as blocks:  # read again for the cell's text
                next(blocks)
                cells = itertools.chain.from_iterable(_spliced(c[j], o, j)[0] for c, o in blocks)
                raise DataError(must_hold(j, rule[0], at, next(itertools.islice(cells, at, None))))
        if bad[j] or short[j]:
            raise DataError(bad[j] or short[j])
        return parts[j]

    return header, column


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


def _codes(seen: dict, cells: Sequence[str]) -> np.ndarray:
    """Codes of cells, numbering distinct cells in order of first appearance after those in seen (cell: code)."""
    for cell in dict.fromkeys(cells):
        seen.setdefault(cell, len(seen))
    return np.fromiter(map(seen.__getitem__, cells), dtype=np.intp, count=len(cells))


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
    it, or coded where it does not parse, before the next is split.
    """
    blocks = read_blocks(path)
    header = next(blocks)
    if target_column not in header:
        for _ in blocks:  # a file that cannot be read says so first
            pass
        raise DataError(f"target column {target_column!r} not in header {header}")
    target_idx = len(header) - 1 - header[::-1].index(target_column)
    categorical = [target_idx] if task.has_class_targets else []

    parts: list = [[] for _ in header]  # each column's floats, a block at a time
    codes: list = [[] for _ in header]  # and its cells' codes, None for a block that parsed whole
    seen: list[dict] = [{} for _ in header]  # the cells coded so far, with their codes
    n_read = n_full = 0
    for columns, others in blocks:
        n_full += len(columns[0])
        n_read += len(columns[0]) + len(others)
        for col, cells in enumerate(columns):
            values, bad = (None, 0) if col in categorical else parse_column(cells)
            parts[col].append(values)
            codes[col].append(None if bad is None else _codes(seen[col], cells))
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
    for col in categorical:
        if any(block is None for block in codes[col]):  # a block that parsed kept no codes: read them again
            seen[col], blocks = {}, itertools.islice(read_blocks(path), 1, None)
            codes[col] = [_codes(seen[col], columns[col]) for columns, _ in blocks]
        codes[col] = np.concatenate(codes[col])
        usable &= codes[col] != seen[col].get("", -1)
    keep = np.flatnonzero(usable)
    dropped = n_read - keep.size
    if not keep.size:
        raise DataError(f"{path} has no usable data rows ({dropped} dropped)")

    def kept(col: int) -> np.ndarray:
        return _codes({}, codes[col][keep].tolist()) if col in categorical else parts[col][keep]  # renumbered

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


def save_csv(ds: Dataset, path: str) -> None:
    """Write a Dataset back out in the ingestion dialect (header + rows).

    Features and regression targets are written as Python's repr of the
    float, the shortest text that reads back to the same bits; class
    targets as integers (a NaN class target raises ValueError before the
    file is opened).  Rows are turned into text a block at a time.
    """
    labels = list(map(int if ds.task.has_class_targets else float, ds.target.tolist()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # only the names may need csv's quoting: a float's or int's repr never does
        csv.writer(fh, lineterminator="\n").writerow(ds.feature_names + [ds.target_name])
        for start in range(0, ds.n, _BLOCK_ROWS):
            rows = ds.features[start:start + _BLOCK_ROWS].tolist()
            for row, label in zip(rows, labels[start:start + _BLOCK_ROWS]):
                row.append(label)
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


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


def _pool_neighbors(features: np.ndarray, k: int) -> np.ndarray:
    """Row i lists the positions of the k rows nearest to row i, itself excluded.

    Neighbours are ordered by (Euclidean distance, position), the order a
    stable sort of the distances gives, so ties go to the lower position.
    A pool of one row lists that row itself; a pool of m <= k rows lists
    the other m - 1.
    """
    m, d = features.shape
    if m == 1:
        return np.zeros((1, 1), dtype=np.intp)
    k = min(k, m - 1)
    step = max(1, _SCAN_BLOCK_FLOATS // max(1, m * d))
    table = np.empty((m, k), dtype=np.intp)
    for start in range(0, m, step):
        block = features[start:start + step]
        b = block.shape[0]
        diff = features - block[:, np.newaxis, :]
        # the very sum np.linalg.norm takes, so distances match it bit for bit
        distances = np.sqrt(np.add.reduce(np.square(diff, out=diff), axis=-1))
        # the k nearest others lie within the (k+1)-th smallest distance, self included
        cutoff = np.partition(distances, k, axis=1)[:, k:k + 1]
        candidate = (distances <= cutoff) | np.isnan(cutoff)
        candidate[np.arange(b), np.arange(start, start + b)] = False
        rows, cols = np.nonzero(candidate)
        order = np.lexsort((cols, distances[rows, cols], rows))
        counts = np.bincount(rows, minlength=b)
        rank = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        table[start:start + b] = cols[order][rank < k].reshape(b, k)
    return table


def _neighbor_lists(ds: Dataset, k: int) -> list[np.ndarray]:
    """Each row's k nearest rows, by index, within its class (or all rows)."""
    if ds.task.has_class_targets:
        pools = [np.flatnonzero(ds.target == label) for label in np.unique(ds.target)]
    else:
        pools = [np.arange(ds.n)]
    neighbor_lists: list[np.ndarray] = [np.empty(0, dtype=np.intp)] * ds.n
    for pool in pools:
        for i, nearest in zip(pool.tolist(), pool[_pool_neighbors(ds.features[pool], k)]):
            neighbor_lists[i] = nearest
    return neighbor_lists


def synthetic_expand(ds: Dataset, target_n: int, k_neighbors: int, seed: int) -> Dataset:
    """Grow a dataset by interpolating between nearest-neighbor pairs.

    Each synthetic row is anchor + lambda * (neighbor - anchor) with a
    seeded lambda in (0, 1), where the neighbor is one of the anchor's
    k nearest originals under Euclidean distance.  With class targets the
    neighbor pool is restricted to the anchor's class and the synthetic row
    inherits that class (a singleton class replicates its one member).  The
    original rows are preserved, bitwise, ahead of the synthetic ones.

    Neighbours are ranked by distance, ties going to the lower row index.
    The scan is exact and so quadratic in the class size m: each class's
    anchors are processed in blocks of about 2**16 // (m * d) rows, which
    caps each float temporary at 2**16 elements (512 KB) however large
    the class.
    """
    if target_n <= ds.n:
        raise DomainError(f"target_n must exceed the current {ds.n} rows, got {target_n}")
    if not 1 <= k_neighbors < ds.n:
        raise DomainError(f"k_neighbors must be in [1, {ds.n - 1}], got {k_neighbors}")

    neighbor_lists = _neighbor_lists(ds, k_neighbors)
    rng = np.random.default_rng(seed)
    new_features = np.empty((target_n - ds.n, ds.d))
    new_targets = np.empty(target_n - ds.n, dtype=ds.target.dtype)
    for row in range(target_n - ds.n):
        anchor = int(rng.integers(ds.n))
        options = neighbor_lists[anchor]
        neighbor = int(options[rng.integers(options.size)])
        lam = rng.random()
        new_features[row] = ds.features[anchor] + lam * (ds.features[neighbor] - ds.features[anchor])
        new_targets[row] = ds.target[anchor]

    return replace(
        ds,
        features=np.concatenate([ds.features, new_features]),
        target=np.concatenate([ds.target, new_targets]),
        n_dropped=0,
    )
