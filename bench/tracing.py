"""Per-layer tracing for the benchmark's traced runs.

Each public function of `normetric` is wrapped where its caller looks it up
(for example `normetric.harness.fit_logistic` and `normetric.cli.load_csv`),
so every call records a span in the round's Tracer.  The layers are the
package's modules; a span's layer is the part of its name before the first
dot, and the benchmark's own operation spans ("op.*") form the layer
"bench".  Self times of all spans add up to the operations' wall time, so the
layers account for all of it.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
from collections import defaultdict

import numpy as np

from timing import ROOT, Tracer, self_times

# (object holding the name, name, span).  A site missing from the program
# is skipped and its time stays in the caller's self time.
PATCH_SITES = (
    ("cli", "main", "cli.main"),
    ("cli", "load_csv", "data.load_csv"),
    ("cli", "save_csv", "data.save_csv"),
    ("cli", "schedule", "data.schedule"),
    ("cli", "synthetic_expand", "data.synthetic_expand"),
    ("cli", "run_curve", "harness.run_curve"),
    ("cli", "stability_report", "harness.stability_report"),
    ("cli", "format_series_csv", "harness.format_series_csv"),
    ("cli", "format_report_json", "harness.format_report_json"),
    ("cli", "parse_series_csv", "harness.parse_series_csv"),
    ("cli", "evaluate", "factors.evaluate"),
    ("cli", "accuracy", "metrics.accuracy"),
    ("cli", "mape_score", "metrics.mape_score"),
    ("cli", "nmi", "metrics.nmi"),
    ("harness", "split", "data.split"),
    ("harness", "fit_logistic", "learners.fit_logistic"),
    ("harness", "fit_kmeans", "learners.fit_kmeans"),
    ("harness", "fit_linear", "learners.fit_linear"),
    ("harness", "evaluate", "factors.evaluate"),
    ("harness", "accuracy", "metrics.accuracy"),
    ("harness", "mape_score", "metrics.mape_score"),
    ("harness", "nmi", "metrics.nmi"),
    # names the benchmark calls directly
    ("harness", "run_curve", "harness.run_curve"),
    ("harness", "stability_report", "harness.stability_report"),
    ("data", "load_csv", "data.load_csv"),
    ("data", "save_csv", "data.save_csv"),
    # model methods the harness calls on fitted models
    ("learners.LogisticModel", "predict_proba", "learners.predict"),
    ("learners.LinearModel", "predict", "learners.predict"),
    ("learners.KMeansModel", "predict", "learners.predict"),
)


def _logistic_flops(arguments, model) -> dict:
    # computed, not counted: each epoch's forward product X W^T and gradient
    # product R^T X cost 2*n*d*C flops each, with C = 1 for the sigmoid model
    n, d = arguments["X"].shape
    c = 1 if arguments["n_classes"] == 2 else arguments["n_classes"]
    return {"flops": 4.0 * n * d * c * arguments["epochs"]}


def _loaded_rows(arguments, ds) -> dict:
    return {"read": ds.n + ds.n_dropped, "kept": ds.n}


def _saved_rows(arguments, _) -> dict:
    return {"rows": arguments["ds"].n}


def _distance_evals(arguments, _) -> dict:
    # sum over classes of m_c (m_c - 1): each row against its class's others
    ds = arguments["ds"]
    if ds.task.has_class_targets:
        sizes = [int(m) for m in np.bincount(ds.target.astype(int))]
    else:
        sizes = [ds.n]
    return {"distance_evals": float(sum(m * (m - 1) for m in sizes))}


MEASURES = {
    "learners.fit_logistic": _logistic_flops,
    "data.load_csv": _loaded_rows,
    "data.save_csv": _saved_rows,
    "data.synthetic_expand": _distance_evals,
}


def _measure_with(fn, measure):
    signature = inspect.signature(fn)

    def counters(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return measure(bound.arguments, result)

    return counters


def install(tracer: Tracer, nm):
    """Wrap every patch site present in nm; returns (undo, missing sites)."""
    undo, missing = [], []
    for holder_path, name, span in PATCH_SITES:
        module_name, _, class_name = holder_path.partition(".")
        try:
            holder = importlib.import_module(f"{nm.__name__}.{module_name}")
            if class_name:
                holder = getattr(holder, class_name)
            original = holder.__dict__[name]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{holder_path}.{name}")
            continue
        measure = MEASURES.get(span)
        wrapped = tracer.wrap(span, original, measure and _measure_with(original, measure))
        setattr(holder, name, wrapped)
        undo.append((holder, name, original))

    def restore():
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)

    return restore, missing


# Every metric the traced run reports: name -> unit.  Busy, self and wall
# times, calls and counts are means per round, so the layers' self times add
# up to trace.wall_s.  Times are in reference-speed seconds, like the
# end-to-end metrics.
PER_LAYER = {
    "learners.fit_logistic.calls": "count",
    "learners.fit_logistic.busy_s": "s",
    "learners.fit_logistic.gflop_per_s": "GFLOP/s",
    "learners.fit_logistic.share": "ratio",
    "learners.fit_kmeans.busy_s": "s",
    "learners.fit_linear.busy_s": "s",
    "learners.predict.busy_s": "s",
    "data.load_csv.us_per_row": "us",
    "data.load_csv.kept_ratio": "ratio",
    "data.save_csv.us_per_row": "us",
    "data.synthetic_expand.busy_s": "s",
    "data.synthetic_expand.distance_evals": "count",
    "data.split.busy_s": "s",
    "harness.run_curve.self_s": "s",
    "harness.format_series_csv.busy_s": "s",
    "harness.parse_series_csv.busy_s": "s",
    "harness.stability_report.busy_s": "s",
    "factors.evaluate.calls": "count",
    "factors.evaluate.us_per_call_p50": "us",
    "factors.evaluate.us_per_call_tail": "us",
    "factors.evaluate.tail_percentile": "%",
    "metrics.base.busy_s": "s",
    "cli.main.self_s": "s",
    "layer.cli.self_s": "s",
    "layer.data.self_s": "s",
    "layer.harness.self_s": "s",
    "layer.learners.self_s": "s",
    "layer.factors.self_s": "s",
    "layer.metrics.self_s": "s",
    "layer.bench.self_s": "s",
    "synthetic.setup_busy_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_share": "ratio",
}
LAYERS = ("cli", "data", "harness", "learners", "factors", "metrics", "bench")


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles with at least ten samples above it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def percentile(values: list, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def layer_metrics(traced: list, untraced_walls: list[float], setup: tuple) -> dict:
    """Per-layer metrics of the traced rounds, each per round.

    traced holds (tracer, speed) per round and setup one such pair, where
    speed converts the round's wall-clock seconds to reference-speed seconds
    (timing.at_reference_speed); untraced_walls are already converted.
    """
    rounds = len(traced)
    durations = defaultdict(list)
    self_by_name = defaultdict(float)
    counters = defaultdict(float)
    walls = []
    for tracer, speed in traced:
        walls.append(speed * sum(s.duration for s in tracer.spans if s.parent == ROOT))
        for span, own in zip(tracer.spans, self_times(tracer.spans)):
            name = "bench" if span.name.startswith("op.") else span.name
            durations[name].append(speed * span.duration)
            self_by_name[name] += speed * own
            for key, value in span.counters.items():
                counters[f"{name}.{key}"] += value

    def busy(name: str) -> float:
        return sum(durations[name])

    def per_round(value: float) -> float:
        return value / rounds

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    layer_self = defaultdict(float)
    for name, own in self_by_name.items():
        layer_self[name.split(".")[0]] += own
    evaluate_us = [1e6 * t for t in durations["factors.evaluate"]]
    tail = tail_percentile(len(evaluate_us))
    wall, untraced = statistics.fmean(walls), statistics.fmean(untraced_walls)
    values = {
        "learners.fit_logistic.calls": per_round(len(durations["learners.fit_logistic"])),
        "learners.fit_logistic.busy_s": per_round(busy("learners.fit_logistic")),
        "learners.fit_logistic.gflop_per_s": ratio(
            counters["learners.fit_logistic.flops"], 1e9 * busy("learners.fit_logistic")),
        "learners.fit_logistic.share": ratio(busy("learners.fit_logistic"), sum(walls)),
        "learners.fit_kmeans.busy_s": per_round(busy("learners.fit_kmeans")),
        "learners.fit_linear.busy_s": per_round(busy("learners.fit_linear")),
        "learners.predict.busy_s": per_round(busy("learners.predict")),
        "data.load_csv.us_per_row": ratio(1e6 * busy("data.load_csv"), counters["data.load_csv.read"]),
        "data.load_csv.kept_ratio": ratio(counters["data.load_csv.kept"], counters["data.load_csv.read"]),
        "data.save_csv.us_per_row": ratio(1e6 * busy("data.save_csv"), counters["data.save_csv.rows"]),
        "data.synthetic_expand.busy_s": per_round(busy("data.synthetic_expand")),
        "data.synthetic_expand.distance_evals": per_round(counters["data.synthetic_expand.distance_evals"]),
        "data.split.busy_s": per_round(busy("data.split")),
        "harness.run_curve.self_s": per_round(self_by_name["harness.run_curve"]),
        "harness.format_series_csv.busy_s": per_round(busy("harness.format_series_csv")),
        "harness.parse_series_csv.busy_s": per_round(busy("harness.parse_series_csv")),
        "harness.stability_report.busy_s": per_round(busy("harness.stability_report")),
        "factors.evaluate.calls": per_round(len(evaluate_us)),
        "factors.evaluate.us_per_call_p50": percentile(evaluate_us, 50.0) if evaluate_us else 0.0,
        "factors.evaluate.us_per_call_tail": percentile(evaluate_us, tail) if evaluate_us else 0.0,
        "factors.evaluate.tail_percentile": tail,
        "metrics.base.busy_s": per_round(
            busy("metrics.accuracy") + busy("metrics.mape_score") + busy("metrics.nmi")),
        "cli.main.self_s": per_round(self_by_name["cli.main"]),
        **{f"layer.{layer}.self_s": per_round(layer_self[layer]) for layer in LAYERS},
        "synthetic.setup_busy_s": setup[1] * sum(
            (s.duration for s in setup[0].spans if s.name.startswith("synthetic.")), 0.0),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
        "trace.layer_share": ratio(sum(layer_self[l] for l in LAYERS if l != "bench"), sum(walls)),
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}
