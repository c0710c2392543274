"""
A binary learning curve, raw next to adjusted
=============================================

Sweep training sizes on a synthetic logistic problem, score each fit both
ways, and summarize how tightly each series hugs its settled value.
"""

from normetric import (
    LearnerConfig,
    TaskKind,
    format_report_json,
    make_binary_classification,
    run_curve,
    schedule,
    smooth,
    stability_report,
)

# 13 correlated features, logistic ground truth, 10% label noise.
ds = make_binary_classification(1400, d=13, seed=3)
sizes = schedule(80, 1000, 20)
config = LearnerConfig(learning_rate=1.0)

points = run_curve(ds, sizes, TaskKind.BINARY_CLASSIFICATION, config, seed=3)
# display-only moving averages of the two metric series
base = smooth([p.base_metric for p in points], 5)
adjusted = smooth([p.adjusted_metric for p in points], 5)

print("size   accuracy  adjusted     f      g      h")
for i in range(0, len(points), 6):
    b = points[i].breakdown
    print("%5d   %.4f    %.4f   %.3f  %.3f  %.3f"
          % (points[i].train_size, base[i], adjusted[i],
             b.dim_factor_f, b.snr_factor_g, b.imbalance_factor_h))
print()

# The report compares both series against the mean accuracy past n* = 260.
report = stability_report(points, d=13)
print(format_report_json(report))
