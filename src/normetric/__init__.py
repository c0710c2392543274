"""Dataset-adaptive normalized metrics for model assessment.

The core idea: a base metric (accuracy, 1 - MAPE, NMI) is rescaled by three
dataset-aware factors — a dimensionality boost f for models trained on too
few samples per feature, a signal-to-noise boost g for confident correct
predictions, and an imbalance penalty h — and capped at 1:

    normalized = min(1, base * f * g / h)

`evaluate` produces the full per-factor breakdown; the harness sweeps
training-set sizes to study how the adjusted metric stabilizes where the
raw one still climbs.
"""

from . import data, exceptions, factors, harness, learners, metrics, synthetic
from .data import *
from .exceptions import *
from .factors import *
from .harness import *
from .learners import *
from .metrics import *
from .synthetic import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
_MODULES = (exceptions, metrics, factors, data, learners, synthetic, harness)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
