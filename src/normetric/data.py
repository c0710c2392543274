"""Dataset ingestion, deterministic splitting, size schedules, and synthetic expansion."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

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


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """The header and the data rows of a UTF-8 CSV file, as lists of cells."""
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path} is not a readable UTF-8 CSV file: {exc}") from None
    if header is None:
        raise DataError(f"{path} is empty (no header row)")
    return header, rows


def parse_column(cells: Sequence[str]) -> tuple[np.ndarray, Optional[int]]:
    """Floats from CSV cells, each read as Python's float() reads it.

    numpy parses the whole column in one call (it converts a str through
    float() too); only a column holding a cell that does not parse falls
    back to one cell at a time.  Returns the values, NaN where a cell does
    not parse, and the index of the first such cell (None if every cell
    parses).
    """
    try:
        return np.array(cells, dtype=float), None
    except ValueError:
        pass
    values = np.empty(len(cells))
    first_bad = None
    for i, cell in enumerate(cells):
        try:
            values[i] = float(cell)
        except ValueError:
            values[i] = math.nan
            if first_bad is None:
                first_bad = i
    return values, first_bad


def _nonempty(cells: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(bool, cells), dtype=bool, count=len(cells))


def _first_appearance_codes(cells: list[str]) -> np.ndarray:
    """Integer codes numbering distinct cells 0, 1, ... in order of first appearance."""
    codes: dict[str, int] = {}
    return np.fromiter((codes.setdefault(cell, len(codes)) for cell in cells), dtype=int, count=len(cells))


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
    such column is the target.  Each column is parsed in one numpy call
    (see parse_column), not cell by cell.
    """
    header, rows = read_csv(path)
    if target_column not in header:
        raise DataError(f"target column {target_column!r} not in header {header}")
    target_idx = len(header) - 1 - header[::-1].index(target_column)
    n_columns = len(header)

    n_read = len(rows)
    rows = [r for r in rows if len(r) == n_columns]
    if not rows:
        raise DataError(f"{path} has no usable data rows ({n_read} dropped)")
    columns = list(zip(*rows))
    del rows

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
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ds.feature_names + [ds.target_name])
        writer.writerows(rows)


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
