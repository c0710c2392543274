"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
for every criterion even when all of them pass.  The checks range from exact
anchor values through randomized equivalence against the loop-based oracles
in reference.py to full end-to-end determinism of the command-line harness.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import reference as ref
from normetric import (
    LearnerConfig,
    TaskKind,
    accuracy,
    average_class_imbalance_ratio,
    class_imbalance_ratio,
    compose_normalized_metric,
    dimensionality_factor,
    evaluate,
    imbalance_adjustment_binary,
    imbalance_adjustment_multiclass,
    make_binary_classification,
    make_blobs,
    mape_score,
    nmi,
    normalize_snr,
    run_curve,
    save_csv,
    schedule,
    snr_adjustment,
    snr_binary,
    snr_multiclass,
    snr_regression,
    stability_report,
    synthetic_expand,
)
from normetric.cli import main


def _verdict(name: str, ok: bool, detail: str = "") -> bool:
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


# ---------------------------------------------------------------------------
# 1. Anchor values


def test_anchor_values_exact():
    anchors = [
        (imbalance_adjustment_binary(1000.0), 4.0),
        (imbalance_adjustment_binary(1.0), 1.0),
        (dimensionality_factor(10, 200), 1.0),
        (normalize_snr(0.0), 0.125),
        (normalize_snr(40.0), 0.5),
        (normalize_snr(75.0), 0.5),
        (normalize_snr(math.inf), 0.5),
    ]
    worst = max(abs(got - want) for got, want in anchors)
    assert _verdict("anchor values", worst < 1e-12, f"max deviation {worst:.3g}")
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# 2. Equivalence against the independent loop-based oracles


def test_matches_reference_oracles_on_randomized_inputs():
    start = time.monotonic()
    rng = np.random.default_rng(20240817)
    trials = 1000
    worst = 0.0

    def check(got, want):
        nonlocal worst
        if math.isinf(want) or math.isinf(got):
            assert got == want
            return
        worst = max(worst, abs(got - want))
        assert got == pytest.approx(want, abs=1e-9)

    for _ in range(trials):
        d = int(rng.integers(1, 25))
        n = int(rng.integers(1, 5000))
        check(dimensionality_factor(d, n), ref.ref_dimensionality_factor(d, n))

        a, b = (int(v) for v in rng.integers(1, 10**5, size=2))
        ci = class_imbalance_ratio([a, b])
        check(ci, ref.ref_class_imbalance(max(a, b), min(a, b)))
        check(imbalance_adjustment_binary(ci), ref.ref_imbalance_factor_binary(ci))

        sizes = [int(v) for v in rng.integers(1, 500, size=int(rng.integers(2, 7)))]
        acir = average_class_imbalance_ratio(sizes)
        check(acir, ref.ref_acir(sizes))
        check(imbalance_adjustment_multiclass(acir), ref.ref_imbalance_factor_acir(acir))

        m = int(rng.integers(1, 12))
        y = rng.uniform(0.5, 10.0, size=m)
        p = y + rng.normal(0, 0.5, size=m)
        check(snr_regression(y, p), ref.ref_snr_regression(list(y), list(p)))
        check(mape_score(y, p), ref.ref_mape_score(list(y), list(p)))

        yt = rng.integers(0, 2, size=m)
        yp = rng.integers(0, 2, size=m)
        prob = rng.uniform(0.5, 1.0, size=m)
        check(snr_binary(yt, yp, prob), ref.ref_snr_binary(list(yt), list(yp), list(prob)))
        check(accuracy(yt, yp), ref.ref_accuracy(list(yt), list(yp)))

        c = int(rng.integers(2, 4))
        yt3 = rng.integers(0, c, size=m)
        rows = rng.uniform(0.01, 1.0, size=(m, c))
        rows /= rows.sum(axis=1, keepdims=True)
        yp3 = rows.argmax(axis=1)
        check(
            snr_multiclass(yt3, rows),
            ref.ref_snr_multiclass(list(yt3), list(yp3), [list(r) for r in rows]),
        )
        check(nmi(yt3, yp3), ref.ref_nmi(list(yt3), list(yp3)))

        x = float(rng.uniform(-20.0, 60.0))
        norm = normalize_snr(x)
        check(norm, ref.ref_normalize_snr(x))
        check(snr_adjustment(norm), ref.ref_snr_factor(norm))

        base = float(rng.uniform(0.0, 1.0))
        f = float(rng.uniform(1.0, 1.5))
        g = float(rng.uniform(1.0, 1.5))
        h = float(rng.uniform(1.0, 4.0))
        check(compose_normalized_metric(base, f, g, h), ref.ref_normalized_metric(base, f, g, h))

    elapsed = time.monotonic() - start
    assert _verdict(
        "oracle equivalence",
        worst < 1e-9 and elapsed < 10.0,
        f"{trials} trials/formula, max |diff| {worst:.3g}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Invariants, exhaustive on small instances plus fuzz


def test_invariants_exhaustive_and_fuzzed():
    start = time.monotonic()
    rng = np.random.default_rng(7)

    # Neutrality and monotonicity of the dimensionality boost.
    for d in range(1, 101):
        assert dimensionality_factor(d, 20 * d) == 1.0
        assert dimensionality_factor(d, 20 * d - 1) > 1.0
    for d in (1, 5, 13, 40):
        grid = [dimensionality_factor(d, n) for n in range(max(1, d // 2), 40 * d, 7)]
        assert all(a >= b for a, b in zip(grid, grid[1:]))  # nonincreasing in n

    # Bands of the piecewise normalization are nondecreasing and stay in range.
    xs = np.linspace(-30.0, 70.0, 4001)
    ns = np.array([normalize_snr(float(x)) for x in xs])
    assert (np.diff(ns) >= 0).all() and ns.min() == 0.0 and ns.max() == 0.5

    # 10,000 fuzzed instances across the factor ranges and the cap.
    fuzzed = 0
    for _ in range(2500):
        d = int(rng.integers(1, 30))
        n = int(rng.integers(max(1, d), 100000))
        f = dimensionality_factor(d, n)
        assert 1.0 <= f <= 1.5
        fuzzed += 1
    for _ in range(2500):
        sizes = [int(v) for v in rng.integers(1, 1000, size=int(rng.integers(2, 7)))]
        h = imbalance_adjustment_multiclass(average_class_imbalance_ratio(sizes))
        assert h >= 1.0
        if len(set(sizes)) == 1:
            assert h == 1.0
        fuzzed += 1
    for _ in range(2500):
        base = float(rng.uniform(0, 1))
        f = float(rng.uniform(1, 1.5))
        g = 1.0 + normalize_snr(float(rng.uniform(-10, 60)))
        h = float(rng.uniform(1, 4))
        value = compose_normalized_metric(base, f, g, h)
        assert 0.0 <= value <= 1.0 and value <= base * f * g / h + 1e-15
        fuzzed += 1
    for _ in range(2500):
        m = int(rng.integers(2, 9))
        yt = rng.integers(0, 2, size=m)
        yp = rng.integers(0, 2, size=m)
        prob = rng.uniform(0.5, 1.0, size=m)
        perm = rng.permutation(m)
        before = snr_binary(yt, yp, prob)
        after = snr_binary(yt[perm], yp[perm], prob[perm])
        if math.isinf(before):
            assert before == after
        else:
            assert after == pytest.approx(before, abs=1e-9)
        fuzzed += 1

    # Exhaustive: every binary truth/prediction pair up to 6 samples on a
    # coarse confidence grid.
    grid = (0.5, 0.8, 1.0)
    for m in range(1, 7):
        for yt in itertools.product((0, 1), repeat=m):
            for yp in itertools.product((0, 1), repeat=m):
                prob = [grid[(i + m) % 3] for i in range(m)]
                norm = normalize_snr(snr_binary(yt, yp, prob))
                assert 0.0 <= norm <= 0.5
                assert 1.0 <= snr_adjustment(norm) <= 1.5

    # Exhaustive: every 3-class labeling up to 4 samples with one-hot rows.
    for m in range(1, 5):
        for yt in itertools.product((0, 1, 2), repeat=m):
            for yp in itertools.product((0, 1, 2), repeat=m):
                rows = np.zeros((m, 3))
                rows[np.arange(m), yp] = 1.0
                norm = normalize_snr(snr_multiclass(yt, rows))
                assert 1.0 <= snr_adjustment(norm) <= 1.5

    # With one-hot rows the score depends only on the confusion counts, so
    # enumerating 3x3 count matrices exhausts the 5- and 6-sample instances.
    for m in (5, 6):
        for cuts in itertools.combinations(range(m + 8), 8):
            counts = np.diff((-1,) + cuts + (m + 8,)) - 1
            cm = counts.reshape(3, 3)
            yt = np.repeat([0, 0, 0, 1, 1, 1, 2, 2, 2], counts)
            yp = np.repeat([0, 1, 2] * 3, counts)
            rows = np.zeros((m, 3))
            rows[np.arange(m), yp] = 1.0
            got = snr_multiclass(yt, rows)
            signal = float((np.diag(cm) ** 2).sum())
            noise = 2.0 * (m - np.trace(cm))
            if signal and noise:
                assert got == pytest.approx(10 * math.log10(signal / noise), abs=1e-9)
            assert 1.0 <= snr_adjustment(normalize_snr(got)) <= 1.5

    # Exhaustive balance identities over small class sizes.
    for a, b in itertools.product(range(1, 7), repeat=2):
        assert class_imbalance_ratio([a, b]) == max(a, b) / min(a, b)
        if a == b:
            assert imbalance_adjustment_binary(class_imbalance_ratio([a, b])) == 1.0

    elapsed = time.monotonic() - start
    assert _verdict(
        "invariant sweep",
        elapsed < 30.0,
        f"{fuzzed} fuzzed + exhaustive small instances, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. The majority-class predictor is penalized below its raw accuracy


def test_imbalance_penalty_demotes_majority_predictor():
    y_true = [0] * 150 + [1] * 50
    y_pred = [0] * 200
    prob = [0.75] * 200
    got = evaluate(
        TaskKind.BINARY_CLASSIFICATION, y_true, y_pred, d=10, n_train=200, y_prob=prob, class_sizes=[150, 50]
    ).normalized

    # Chain the loop-based oracles end to end for the same scenario.
    f = ref.ref_dimensionality_factor(10, 200)
    g = ref.ref_snr_factor(ref.ref_normalize_snr(ref.ref_snr_binary(y_true, y_pred, prob)))
    h = ref.ref_imbalance_factor_binary(ref.ref_class_imbalance(150, 50))
    want = ref.ref_normalized_metric(0.75, f, g, h)

    ok = abs(got - want) < 1e-4 and got < 0.75
    assert _verdict(
        "imbalance penalty demo",
        ok,
        f"adjusted {got:.5f} vs oracle {want:.5f}, base 0.75",
    )
    assert abs(got - want) < 1e-4
    assert got < 0.75


# ---------------------------------------------------------------------------
# 5 & 6. Twenty-seed learning-curve study shared by the two criteria


@pytest.fixture(scope="module")
def stability_runs():
    sched = schedule(80, 1000, 20)
    config = LearnerConfig(learning_rate=1.0)
    runs = []
    start = time.monotonic()
    for seed in range(20):
        ds = make_binary_classification(1400, d=13, seed=seed)
        points = run_curve(ds, sched, TaskKind.BINARY_CLASSIFICATION, config, seed=seed)
        runs.append((points, stability_report(points, d=13)))
    return runs, time.monotonic() - start


def test_adjusted_metric_tracks_settled_value_more_tightly(stability_runs):
    runs, elapsed = stability_runs
    wins = sum(
        1
        for _, report in runs
        if report.adjusted.mad_from_target < report.initial.mad_from_target
    )
    ok = wins >= 14 and elapsed < 120.0
    assert _verdict(
        "stability sign test",
        ok,
        f"adjusted MAD smaller in {wins}/20 seeds (need 14), {elapsed:.0f}s",
    )
    assert elapsed < 120.0
    assert wins >= 14, (
        f"the adjusted metric tracked the settled value more tightly in only "
        f"{wins}/20 seeds; the g and h factors trade away the raw metric's "
        f"small-sample optimism but overshoot it on this generator"
    )


def test_dimensionality_boost_threshold(stability_runs):
    runs, _ = stability_runs
    ok = all(
        (p.breakdown.dim_factor_f == 1.0) == (p.train_size >= 260)
        and (p.breakdown.dim_factor_f > 1.0) == (p.train_size < 260)
        for points, _ in runs
        for p in points
    )
    assert _verdict("dimensionality threshold", ok, "f == 1.0 exactly at sizes >= 260")
    assert ok


# ---------------------------------------------------------------------------
# 7. End-to-end determinism of the command-line harness


def test_end_to_end_determinism(tmp_path):
    ds = make_binary_classification(400, d=4, seed=9)
    data = tmp_path / "data.csv"
    save_csv(ds, str(data))

    outputs = []
    for tag in ("a", "b"):
        series = tmp_path / f"series_{tag}.csv"
        report = tmp_path / f"report_{tag}.json"
        code = main([
            "curve", "--data", str(data), "--task", "binary",
            "--target-column", "label", "--start", "40", "--stop", "240",
            "--step", "40", "--seed", "3",
            "--series", str(series), "--report", str(report),
        ])
        assert code == 0
        outputs.append((series.read_bytes(), report.read_bytes()))
    identical = outputs[0] == outputs[1]

    replayed = tmp_path / "replayed.json"
    code = main([
        "report", "--series", str(tmp_path / "series_a.csv"),
        "--d", "4", "--report", str(replayed),
    ])
    assert code == 0
    original = json.loads(outputs[0][1])
    recomputed = json.loads(replayed.read_bytes())
    drift = max(
        abs(original[block][key] - recomputed[block][key])
        for block in ("initial", "adjusted")
        for key in original[block]
    )
    ok = identical and original["threshold_n_star"] == recomputed["threshold_n_star"]
    ok = ok and drift < 1e-12
    assert _verdict(
        "end-to-end determinism",
        ok,
        f"reruns byte-identical: {identical}, replay drift {drift:.3g}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. Synthetic expansion contract


def test_expansion_preserves_rows_and_classes():
    ds = make_blobs(178, d=4, n_classes=3, seed=7)
    grown = synthetic_expand(ds, 1000, k_neighbors=5, seed=11)

    prefix_ok = (
        np.array_equal(grown.features[:178], ds.features)
        and np.array_equal(grown.target[:178], ds.target)
    )

    # Every synthetic row must be a convex blend of two rows from one class.
    convex_ok = True
    by_class = {c: ds.features[ds.target == c] for c in np.unique(ds.target)}
    for row, label in zip(grown.features[178:], grown.target[178:]):
        parents = by_class.get(int(label))
        if parents is None:
            convex_ok = False
            break
        i, j = np.triu_indices(len(parents), k=1)
        a, b = parents[i], parents[j]
        span = b - a
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = (row - a) / span
        lam = np.where(span == 0, np.nan, lam)
        anchored = np.abs(row - a) < 1e-9  # coordinates the pair cannot move
        lo = np.nanmin(np.where(np.isnan(lam), np.inf, lam), axis=1)
        hi = np.nanmax(np.where(np.isnan(lam), -np.inf, lam), axis=1)
        consistent = (
            (hi - lo < 1e-9)
            & (lo > -1e-9)
            & (hi < 1 + 1e-9)
            & (np.isnan(lam) <= anchored).all(axis=1)
        )
        if not consistent.any():
            convex_ok = False
            break

    ok = grown.n == 1000 and prefix_ok and convex_ok
    assert _verdict(
        "expansion contract",
        ok,
        f"prefix bitwise: {prefix_ok}, all blends two-parent same-class: {convex_ok}",
    )
    assert ok
