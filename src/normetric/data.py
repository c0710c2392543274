"""Dataset ingestion, deterministic splitting, size schedules, and synthetic expansion."""

from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

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


def read_csv(path: str) -> tuple[list[str], list[Sequence[str]], list[tuple[int, list[str]]]]:
    """The header and the data rows of a UTF-8 CSV file, as csv.reader reads them.

    columns[j] lists cell j of each row as wide as the header, in order; others
    lists (position from 0, cells) for every other row, blank lines as [].  A plain
    file (no '"', '\\r' or NUL, no line over csv.field_size_limit()) is split at
    '\\n' and ',' a block of lines at a time, with no list per row: the same cells.
    """
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
            lines = text.split("\n") if text and not any(c in text for c in '"\r\0') else None
            del text
            if lines is None or max(map(len, lines)) > csv.field_size_limit():
                fh.seek(0)
                lines, rows = None, list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path} is not a readable UTF-8 CSV file: {exc}") from None
    if lines is None:
        if not rows:
            raise DataError(f"{path} is empty (no header row)")
        header, width = rows[0], len(rows[0])
        others = [(at, row) for at, row in enumerate(rows[1:]) if not row or len(row) != width]
        full = [row for row in rows[1:] if row and len(row) == width]
        return header, list(zip(*full)) if full else [()] * width, others
    header = lines[0].split(",") if lines[0] else []
    width, lines = len(header), lines[1:len(lines) - (not lines[-1])]  # a final newline starts no row
    odd = np.fromiter(map(str.count, lines, itertools.repeat(",")), np.intp, len(lines)) != width - 1
    odd |= ~_nonempty(lines)
    others = [(at, lines[at].split(",") if lines[at] else []) for at in np.flatnonzero(odd).tolist()]
    lines = list(itertools.compress(lines, (~odd).tolist()))
    columns: list[list[str]] = [[] for _ in range(width)]
    while lines:  # lines are freed as they are split, so they and the cells never all coexist
        cells = ",".join(lines[:4096]).split(",")
        del lines[:4096]
        for j, column in enumerate(columns):
            column += cells[j::width]
    return header, columns, others


def parse_column(cells: Sequence[str]) -> tuple[np.ndarray, Optional[int]]:
    """Floats from CSV cells, each read as Python's float() reads it.

    numpy parses the whole column in one call (it converts a str through
    float() too); only a column holding a cell that does not parse falls
    back to parsing each distinct cell once.  Returns the values, NaN where
    a cell does not parse, and the index of the first such cell (None if
    every cell parses).
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


def integer_rule(requirement: str, low: float = -(2.0**63), high: float = 2.0**63) -> tuple:
    """A column rule for read_columns: integers in [low, high), and its vectorized test (NaN fails).

    The default range is int64's, so converting the column to int is exact.
    """
    return requirement, lambda v: np.isfinite(v) & (v == np.trunc(v)) & (v >= low) & (v < high)


def read_columns(path: str, kind: str) -> tuple[list[str], Callable[..., np.ndarray]]:
    """The header of a CSV file, and a reader of its columns by name.

    column(name, rule=None) parses the named column over every data row as
    parse_column does; rule is (requirement, test), the test marking each
    value that holds.  Blank lines are skipped and not counted as data rows,
    and a row longer than the header is read for its named cells.  A
    DataError names the file (a `kind`, such as "series file") and the
    column when it is absent, and else the first bad data row: one whose
    cell is not a number or fails the rule, or one that ends before the
    column.
    """
    header, columns, others = read_csv(path)
    blanks_so_far = itertools.accumulate(not row for _, row in others)
    odd = [(at - blanks, row) for (at, row), blanks in zip(others, blanks_so_far) if row]
    if not odd and not (columns and columns[0]):
        raise DataError(f"{kind} {path} has no data rows")

    def column(name: str, rule: Optional[tuple] = None) -> np.ndarray:
        if name not in header:
            raise DataError(f"{kind} {path} lacks a {name!r} column")
        index = header.index(name)
        full, cells, short = columns[index], [], None
        for spliced, (at, row) in enumerate(odd):  # splice the odd rows in among the full ones
            used = len(cells) - spliced
            cells += full[used:used + at - len(cells)]
            if len(row) <= index:
                short = (at, len(row))
                break
            cells.append(row[index])
        else:
            cells += full[len(cells) - len(odd):]
        values, bad = parse_column(cells)
        requirement = "numbers"
        if bad is None and rule is not None:
            requirement, holds = rule
            failed = np.flatnonzero(~holds(values))
            bad = int(failed[0]) if failed.size else None
        if bad is not None:
            raise DataError(
                f"column {name!r} of {path} must hold {requirement}; data row {bad + 1} has {cells[bad]!r}"
            )
        if short is not None:
            raise DataError(
                f"data row {short[0] + 1} of {path} ends after field {short[1]}; "
                f"column {name!r} is field {index + 1}"
            )
        return values

    return header, column


def _nonempty(cells: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(bool, cells), dtype=bool, count=len(cells))


def _first_appearance_codes(cells: list[str]) -> np.ndarray:
    """Integer codes numbering distinct cells 0, 1, ... in order of first appearance."""
    codes = {cell: code for code, cell in enumerate(dict.fromkeys(cells))}
    return np.fromiter(map(codes.__getitem__, cells), dtype=int, count=len(cells))


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
    such column is the target.  Files are read as csv.reader reads them
    (see read_csv), and columns parsed as parse_column parses them.
    """
    header, columns, others = read_csv(path)
    if target_column not in header:
        raise DataError(f"target column {target_column!r} not in header {header}")
    target_idx = len(header) - 1 - header[::-1].index(target_column)
    n_columns = len(header)

    n_read = len(columns[0]) + len(others)
    if not columns[0]:
        raise DataError(f"{path} has no usable data rows ({n_read} dropped)")

    class_targets = task.has_class_targets
    usable = np.ones(len(columns[0]), dtype=bool)
    numbers: dict[int, np.ndarray] = {}  # parsed numeric columns, the regression target included
    for col, cells in enumerate(columns):
        if col == target_idx and class_targets:
            usable &= _nonempty(cells)
            continue
        values, _ = parse_column(cells)
        finite = np.isfinite(values)
        if col == target_idx or 2 * np.count_nonzero(finite) > len(cells):
            numbers[col] = values
            usable &= finite
        else:
            usable &= _nonempty(cells)
    keep = np.flatnonzero(usable)
    dropped = n_read - keep.size
    if not keep.size:
        raise DataError(f"{path} has no usable data rows ({dropped} dropped)")

    kept = keep.tolist()

    def kept_codes(col: int) -> np.ndarray:
        cells = columns[col]
        return _first_appearance_codes([cells[i] for i in kept])

    feature_cols = [c for c in range(n_columns) if c != target_idx]
    features = np.empty((keep.size, len(feature_cols)))
    for out_col, col in enumerate(feature_cols):
        features[:, out_col] = numbers[col][keep] if col in numbers else kept_codes(col)
    target = kept_codes(target_idx) if class_targets else numbers[target_idx][keep]

    return Dataset(
        feature_names=[header[c] for c in feature_cols],
        features=features,
        target=target,
        task=task,
        target_name=header[target_idx],
        n_dropped=dropped,
    )


def save_csv(ds: Dataset, path: str) -> None:
    """Write a Dataset back out in the ingestion dialect (header + rows).

    Features and regression targets are written as Python's repr of the
    float, the shortest text that reads back to the same bits; class
    targets as integers (a NaN class target raises ValueError).
    """
    to_label = int if ds.task.has_class_targets else float
    rows = ds.features.tolist()
    for row, label in zip(rows, ds.target.tolist()):
        row.append(to_label(label))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # only the names may need csv's quoting: a float's or int's repr never does
        csv.writer(fh, lineterminator="\n").writerow(ds.feature_names + [ds.target_name])
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
