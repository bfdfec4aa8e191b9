"""Machine-learning substrate for the NEVERMIND reproduction.

Everything here is implemented from scratch on top of numpy:

* :mod:`repro.ml.stumps` -- confidence-rated one-level decision stumps
  (continuous and categorical features, abstention on missing values).
* :mod:`repro.ml.boostexter` -- ``BStump``: AdaBoost with decision stumps,
  the Boostexter-style learner the paper uses for both the ticket predictor
  and the trouble locator.
* :mod:`repro.ml.calibration` -- Platt (logistic) calibration of boosting
  margins into posterior probabilities.
* :mod:`repro.ml.logistic` -- logistic regression with Newton-Raphson
  fitting and Wald p-values (used for the combined locator model, Eq. 2,
  and the Table-5 outage correlation analysis).
* :mod:`repro.ml.pca` -- principal component analysis for the PCA
  feature-selection baseline (Table 4).
* :mod:`repro.ml.metrics` -- ranking metrics: precision@r, top-N average
  precision AP(N), ROC/AUC, accuracy@N, entropy and gain ratio.
* :mod:`repro.ml.ensemble_scoring` -- ``CompiledEnsemble``: fitted stump
  ensembles compiled into per-feature slot tables so that scoring costs
  one slot pass and one table gather per used feature instead of one
  matrix pass per boosting round.
"""

from repro.ml.boostexter import BStump, BStumpConfig, WeakLearner
from repro.ml.calibration import PlattCalibrator
from repro.ml.ensemble_scoring import (
    CompiledEnsemble,
    compile_stumps,
    naive_grouped_margin,
)
from repro.ml.logistic import LogisticRegressionResult, fit_logistic_regression
from repro.ml.metrics import (
    accuracy_at_n,
    auc,
    average_precision,
    gain_ratio,
    precision_at,
    roc_curve,
    top_n_average_precision,
)
from repro.ml.pca import PCA
from repro.ml.serialize import (
    bstump_from_dict,
    bstump_to_dict,
    load_bstump,
    save_bstump,
)
from repro.ml.stumps import Stump, StumpSearch, fit_stump

__all__ = [
    "BStump",
    "BStumpConfig",
    "WeakLearner",
    "CompiledEnsemble",
    "compile_stumps",
    "naive_grouped_margin",
    "PlattCalibrator",
    "LogisticRegressionResult",
    "fit_logistic_regression",
    "accuracy_at_n",
    "auc",
    "average_precision",
    "gain_ratio",
    "precision_at",
    "roc_curve",
    "top_n_average_precision",
    "PCA",
    "bstump_from_dict",
    "bstump_to_dict",
    "load_bstump",
    "save_bstump",
    "Stump",
    "StumpSearch",
    "fit_stump",
]
