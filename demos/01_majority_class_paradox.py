"""
The majority-class paradox, scored honestly
===========================================

A classifier that always answers "class 0" gets 75% accuracy on a 150/50
dataset while learning nothing.  This script walks the adjusted score
through each factor to show where that 0.75 gets taken back.
"""

import numpy as np

from normetric import TaskKind, evaluate

# A do-nothing predictor on an imbalanced test set: 150 of class 0, 50 of
# class 1, every prediction "0" with a flat 75% confidence.
y_true = np.array([0] * 150 + [1] * 50)
y_pred = np.zeros(200, dtype=int)
y_prob = np.full(200, 0.75)

# evaluate picks the base metric from the task: accuracy for classification.
score = evaluate(
    TaskKind.BINARY_CLASSIFICATION,
    y_true,
    y_pred,
    d=10,                 # the model saw 10 features
    n_train=200,          # and 200 training rows -> 20 per feature
    y_prob=y_prob,
    class_sizes=[150, 50],
)

print("raw accuracy          :", score.base)
print("dimensionality factor :", score.dim_factor_f, "(20 rows per feature, no boost)")
print("signal-to-noise       : %.4f dB -> g = %.4f" % (score.snr_db, score.snr_factor_g))
print("imbalance ratio 3:1   : h = %.10f" % score.imbalance_factor_h)
print("adjusted score        : %.10f" % score.normalized)
print()

# The g factor rewards the (modest) confidence, but h divides by 1 + log10(3)
# and wins: the adjusted score lands well under the raw 0.75.
penalty = score.base - score.normalized
print("net penalty vs raw accuracy: %.4f" % penalty)
assert score.normalized < score.base
