"""Naive reference implementations used as oracles by the test suite.

Everything here is written as a direct, loop-heavy transcription of the
defining formulas, on purpose: no shared helpers with the library, no
vectorization, no clever branches.  When a library function and its
counterpart here agree on randomized inputs, that is evidence the library
implements the formula and not merely itself.

The exceptions are the logistic training loop and the data layer's former
row loops at the end: they pin bits, not a formula, so they repeat the
library's earlier code exactly.
"""

import csv
import dataclasses
import itertools
import math
import os

import numpy as np

from normetric import DataError, Dataset, TaskKind


def ref_dimensionality_factor(d, n):
    x = d / (0.05 * n)
    sig = 1.0 / (1.0 + math.exp(-(x - 1.0)))
    return 1.0 + max(0.0, sig - 0.5)


def ref_class_imbalance(majority, minority):
    return majority / minority


def ref_imbalance_factor_binary(ci):
    return 1.0 + math.log10(ci)


def ref_acir(sizes):
    biggest = max(sizes)
    total = 0.0
    for s in sizes:
        total += s / biggest
    return total / len(sizes)


def ref_imbalance_factor_acir(acir):
    return 1.0 + math.log10(1.0 / acir)


def ref_snr_regression(y_true, y_pred):
    signal = 0.0
    noise = 0.0
    for t, p in zip(y_true, y_pred):
        signal += t * t
        noise += (t - p) * (t - p)
    if noise == 0.0:
        return math.inf
    if signal == 0.0:
        return -math.inf
    return 10.0 * math.log10(signal / noise)


def ref_snr_binary(y_true, y_pred, prob_predicted):
    correct = 0
    for t, p in zip(y_true, y_pred):
        if t == p:
            correct += 1
    noise = 0.0
    for q in prob_predicted:
        noise += (1.0 - q) * (1.0 - q)
    if noise == 0.0:
        return math.inf
    if correct == 0:
        return -math.inf
    return 10.0 * math.log10(correct / noise)


def ref_snr_multiclass(y_true, y_pred, prob_rows):
    classes = 0
    for row in prob_rows:
        classes = max(classes, len(row))
    counts = [[0] * classes for _ in range(classes)]
    for t, p in zip(y_true, y_pred):
        counts[t][p] += 1
    signal = 0.0
    for i in range(classes):
        signal += counts[i][i] ** 2
    noise = 0.0
    for t, row in zip(y_true, prob_rows):
        for j, q in enumerate(row):
            ideal = 1.0 if j == t else 0.0
            noise += (q - ideal) * (q - ideal)
    if noise == 0.0:
        return math.inf
    if signal == 0.0:
        return -math.inf
    return 10.0 * math.log10(signal / noise)


def ref_majority_votes(y_true, clusters):
    """Each row's vote: the most common true label in its cluster, ties to the lowest label."""
    counts = {}
    for t, c in zip(y_true, clusters):
        if c not in counts:
            counts[c] = {}
        counts[c][t] = counts[c].get(t, 0) + 1
    vote = {}
    for c in counts:
        best = None
        for t in sorted(counts[c]):
            if best is None or counts[c][t] > counts[c][best]:
                best = t
        vote[c] = best
    return [vote[c] for c in clusters]


def _ref_distance(row, centroid):
    return math.sqrt(sum((x - c) * (x - c) for x, c in zip(row, centroid)))


def _ref_nearest(rows, centroids):
    out = []
    for row in rows:
        best, best_dist = 0, None
        for j, centroid in enumerate(centroids):
            dist = _ref_distance(row, centroid)
            if best_dist is None or dist < best_dist:
                best, best_dist = j, dist
        out.append(best)
    return out


def ref_fit_kmeans(X, k, seed, max_iters=100):
    """Lloyd's algorithm row by row; an empty cluster is reseeded at the row
    farthest from its own assigned centroid, never at a row already taken
    in the same round.  Returns (centroids, assignments) as lists."""
    rows = [list(map(float, row)) for row in X]
    start = np.random.default_rng(seed).choice(len(rows), size=k, replace=False)
    centroids = [list(rows[i]) for i in start]
    assignments = _ref_nearest(rows, centroids)
    for _ in range(max_iters):
        taken = []
        for cluster in range(k):
            members = [row for row, a in zip(rows, assignments) if a == cluster]
            if members:
                total = [0.0] * len(rows[0])
                for row in members:
                    total = [t + x for t, x in zip(total, row)]
                centroids[cluster] = [t / len(members) for t in total]
                continue
            far, far_dist = None, None
            for i, (row, a) in enumerate(zip(rows, assignments)):
                if i in taken:
                    continue
                dist = _ref_distance(row, centroids[a])
                if far_dist is None or dist > far_dist:
                    far, far_dist = i, dist
            centroids[cluster] = list(rows[far])
            taken.append(far)
        new_assignments = _ref_nearest(rows, centroids)
        if new_assignments == assignments:
            break
        assignments = new_assignments
    return centroids, assignments


def ref_normalize_snr(x):
    if math.isinf(x) and x > 0:
        return 0.5
    if x < 0.0:
        value = 0.0
    elif x < 10.0:
        value = 0.125 + 0.0125 * x
    elif x < 15.0:
        value = 0.25 + 0.025 * (x - 10.0)
    elif x < 25.0:
        value = 0.375 + 0.0125 * (x - 15.0)
    elif x < 40.0:
        value = 0.5 + 0.125 * (x - 25.0) / 15.0
    else:
        value = 0.5
    return min(0.5, max(0.0, value))


def ref_snr_factor(normalized_snr):
    return 1.0 + normalized_snr


def ref_normalized_metric(base, f, g, h):
    return min(1.0, base * f * g / h)


def ref_accuracy(y_true, y_pred):
    correct = 0
    for t, p in zip(y_true, y_pred):
        if t == p:
            correct += 1
    return correct / len(y_true)


def ref_mape_score(y_true, y_pred):
    total = 0.0
    for t, p in zip(y_true, y_pred):
        total += abs(p - t) / abs(t)
    return max(0.0, 1.0 - total / len(y_true))


def _entropy(labels):
    n = len(labels)
    freq = {}
    for v in labels:
        freq[v] = freq.get(v, 0) + 1
    h = 0.0
    for c in freq.values():
        p = c / n
        h -= p * math.log(p)
    return h


def ref_nmi(labels_a, labels_b):
    n = len(labels_a)
    ha = _entropy(labels_a)
    hb = _entropy(labels_b)
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    joint = {}
    for a, b in zip(labels_a, labels_b):
        joint[(a, b)] = joint.get((a, b), 0) + 1
    ca = {}
    cb = {}
    for a in labels_a:
        ca[a] = ca.get(a, 0) + 1
    for b in labels_b:
        cb[b] = cb.get(b, 0) + 1
    mi = 0.0
    for (a, b), c in joint.items():
        pab = c / n
        mi += pab * math.log(pab / ((ca[a] / n) * (cb[b] / n)))
    return mi / ((ha + hb) / 2.0)


def ref_smooth(values, window):
    half = window // 2
    out = []
    for i in range(len(values)):
        lo = max(0, i - half)
        hi = min(len(values), i + half + 1)
        out.append(sum(values[lo:hi]) / (hi - lo))
    return out


def binary_cross_entropy(w, b, X, y):
    """Mean of -[y log(p + eps) + (1 - y) log(1 - p + eps)], p = sigmoid(w.x + b)."""
    eps = 1e-12
    total = 0.0
    for row, target in zip(X, y):
        z = b
        for weight, x in zip(w, row):
            z += weight * x
        p = 1.0 / (1.0 + math.exp(-z))
        total += target * math.log(p + eps) + (1.0 - target) * math.log(1.0 - p + eps)
    return -total / len(y)


def softmax_cross_entropy(W, b, X, onehot):
    """Mean of -log(p_true + eps), p = softmax over classes of W.x + b."""
    eps = 1e-12
    total = 0.0
    for row, target in zip(X, onehot):
        scores = []
        for weights, bias in zip(W, b):
            z = bias
            for weight, x in zip(weights, row):
                z += weight * x
            scores.append(z)
        top = max(scores)
        exps = [math.exp(s - top) for s in scores]
        norm = sum(exps)
        p_true = 0.0
        for e, t in zip(exps, target):
            p_true += t * e / norm
        total += math.log(p_true + eps)
    return -total / len(X)


def ref_masked_sigmoid(z):
    """Sigmoid computed separately on the z >= 0 and z < 0 entries."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def ref_softmax(z):
    """The library's softmax before its row max became a column fold, verbatim."""
    shifted = z - z.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=1, keepdims=True)


def _ref_binary_loss_and_grads(w, b, X, y):
    n = X.shape[0]
    p = ref_masked_sigmoid(X @ w + b)
    eps = 1e-12
    loss = -float(np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps)))
    residual = p - y
    return loss, (X.T @ residual) / n, float(np.mean(residual))


def _ref_softmax_loss_and_grads(W, b, X, y_onehot):
    n = X.shape[0]
    z = X @ W.T + b
    ez = np.exp(z - z.max(axis=1, keepdims=True))
    probs = ez / ez.sum(axis=1, keepdims=True)
    eps = 1e-12
    loss = -float(np.mean(np.log(np.sum(probs * y_onehot, axis=1) + eps)))
    residual = probs - y_onehot
    return loss, (residual.T @ X) / n, residual.mean(axis=0)


def ref_fit_logistic_with_loss(X, y, n_classes, epochs, learning_rate, seed):
    """Gradient descent whose every epoch also evaluates the cross-entropy.

    The loss never feeds the update, so a loop that leaves it out must
    produce these weights bit for bit.  Returns (weights, intercepts)
    shaped as LogisticModel holds them.
    """
    rng = np.random.default_rng(seed)
    d = X.shape[1]
    if n_classes == 2:
        w = 0.01 * rng.standard_normal(d)
        b = 0.0
        yf = y.astype(float)
        for _ in range(epochs):
            _, grad_w, grad_b = _ref_binary_loss_and_grads(w, b, X, yf)
            w = w - learning_rate * grad_w
            b = b - learning_rate * grad_b
        return w[np.newaxis, :], np.array([b])

    W = 0.01 * rng.standard_normal((n_classes, d))
    b = np.zeros(n_classes)
    onehot = np.zeros((y.size, n_classes))
    onehot[np.arange(y.size), y] = 1.0
    for _ in range(epochs):
        _, grad_W, grad_b = _ref_softmax_loss_and_grads(W, b, X, onehot)
        W = W - learning_rate * grad_W
        b = b - learning_rate * grad_b
    return W, b


# ---------------------------------------------------------------------------
# The data layer's former row loops, kept verbatim.  Like the training loop
# above they pin bits: load_csv, save_csv and synthetic_expand, its
# neighbour scan included, must reproduce them exactly.


def _parse_finite(cell):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def ref_load_csv(path, target_column, task):
    """load_csv as a per-cell loop (returns a normetric Dataset)."""
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty (no header row)") from None
        raw_rows = list(reader)

    if target_column not in header:
        raise DataError(f"target column {target_column!r} not in header {header}")
    target_idx = len(header) - 1 - header[::-1].index(target_column)
    n_columns = len(header)

    rows = [r for r in raw_rows if len(r) == n_columns]
    dropped = len(raw_rows) - len(rows)

    parsed = [[_parse_finite(cell) for cell in row] for row in rows]
    numeric = []
    for col in range(n_columns):
        ok = sum(1 for row in parsed if row[col] is not None)
        numeric.append(2 * ok > len(rows))

    keep = []
    for i, row in enumerate(rows):
        usable = True
        for col in range(n_columns):
            cell = row[col]
            if col == target_idx and task.has_class_targets:
                if cell == "":
                    usable = False
            elif numeric[col] or (col == target_idx and task is TaskKind.REGRESSION):
                if parsed[i][col] is None:
                    usable = False
            elif cell == "":
                usable = False
            if not usable:
                break
        if usable:
            keep.append(i)
    dropped += len(rows) - len(keep)
    if not keep:
        raise DataError(f"{path} has no usable data rows ({dropped} dropped)")

    feature_cols = [c for c in range(n_columns) if c != target_idx]
    encodings = {c: {} for c in range(n_columns) if not numeric[c]}

    def encode(col, cell):
        codes = encodings[col]
        if cell not in codes:
            codes[cell] = len(codes)
        return float(codes[cell])

    features = np.empty((len(keep), len(feature_cols)))
    for out_row, i in enumerate(keep):
        for out_col, col in enumerate(feature_cols):
            value = parsed[i][col]
            features[out_row, out_col] = value if numeric[col] else encode(col, rows[i][col])

    if task.has_class_targets:
        labels = {}
        target = np.empty(len(keep), dtype=int)
        for out_row, i in enumerate(keep):
            cell = rows[i][target_idx]
            if cell not in labels:
                labels[cell] = len(labels)
            target[out_row] = labels[cell]
    else:
        target = np.array([parsed[i][target_idx] for i in keep], dtype=float)

    return Dataset(
        feature_names=[header[c] for c in feature_cols],
        features=features,
        target=target,
        task=task,
        target_name=header[target_idx],
        n_dropped=dropped,
    )


def ref_read_columns(path, kind):
    """read_columns as a row loop over every row csv.reader reads from the whole file."""
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path} is not a readable UTF-8 CSV file: {exc}") from None
    if not rows:
        raise DataError(f"{path} is empty (no header row)")
    header, data = rows[0], [row for row in rows[1:] if row]

    def read(rules):
        if not data:
            raise DataError(f"{kind} {path} has no data rows")

        def column(name):
            if name not in header:
                raise DataError(f"{kind} {path} lacks a {name!r} column")
            index, rule = header.index(name), rules[name]
            cells, short = [], None
            for number, row in enumerate(data, 1):
                if len(row) <= index:
                    short = (number, len(row))
                    break
                cells.append(row[index])
            values = []
            for number, cell in enumerate(cells, 1):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise DataError(f"column {name!r} of {path} must hold numbers; data row {number} has {cell!r}")
            values = np.array(values, dtype=float)
            if rule is not None:
                requirement, holds = rule
                for number, (cell, holds_here) in enumerate(zip(cells, holds(values).tolist()), 1):
                    if not holds_here:
                        raise DataError(
                            f"column {name!r} of {path} must hold {requirement}; data row {number} has {cell!r}"
                        )
            if short is not None:
                raise DataError(
                    f"data row {short[0]} of {path} ends after field {short[1]}; column {name!r} is field {index + 1}"
                )
            return values

        return column

    return header, read


def ref_block_ranges(path, block_rows):
    """read_blocks's (offset, length) byte ranges as its former line loop found them: the header line, then
    blocks of block_rows lines each, the last one ending where the file ends."""
    with open(path, "rb") as fh:
        sizes = [len(fh.readline())]
        while size := sum(map(len, itertools.islice(fh, block_rows))):
            sizes.append(size)
    return list(zip(itertools.accumulate(sizes, initial=0), sizes))


def ref_save_csv(ds, path):
    """save_csv as a per-row loop of str() calls."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ds.feature_names + [ds.target_name])
        class_targets = ds.task.has_class_targets
        for row, label in zip(ds.features, ds.target):
            values = [str(v) for v in row]
            values.append(str(int(label)) if class_targets else str(float(label)))
            writer.writerow(values)


def ref_neighbor_lists(ds, k_neighbors):
    """synthetic_expand's neighbour lists, one pool and one full sort per row."""
    class_targets = ds.task.has_class_targets
    neighbor_lists = []
    for i in range(ds.n):
        if class_targets:
            pool = np.flatnonzero(ds.target == ds.target[i])
        else:
            pool = np.arange(ds.n)
        pool = pool[pool != i]
        if pool.size == 0:
            neighbor_lists.append(np.array([i]))  # singleton class: self-replicate
            continue
        distances = np.linalg.norm(ds.features[pool] - ds.features[i], axis=1)
        nearest = pool[np.argsort(distances, kind="stable")[:k_neighbors]]
        neighbor_lists.append(nearest)
    return neighbor_lists


def ref_synthetic_expand(ds, target_n, k_neighbors, seed):
    """synthetic_expand as a per-row loop over every row's neighbour list (returns a normetric Dataset)."""
    neighbor_lists = ref_neighbor_lists(ds, k_neighbors)
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
    return dataclasses.replace(
        ds,
        features=np.concatenate([ds.features, new_features]),
        target=np.concatenate([ds.target, new_targets]),
        n_dropped=0,
    )
