"""BStump: confidence-rated AdaBoost with decision stumps.

This is a from-scratch reimplementation of the learner the paper calls
*BStump* -- "the Adaboost algorithm with decision stumps (i.e. one-level
decision trees)", using Boostexter [Schapire & Singer 2000] semantics:

* weak learners are real-valued decision stumps (:mod:`repro.ml.stumps`);
* each round picks the stump minimising the weighted normaliser Z;
* sample weights are updated multiplicatively,
  ``D_{t+1}(i) ~ D_t(i) * exp(-y_i * h_t(x_i))``;
* the final score is the additive margin ``f(x) = sum_t h_t(x)``, which is
  converted to a posterior probability with logistic (Platt) calibration
  (:class:`repro.ml.calibration.PlattCalibrator`), exactly as in Section
  4.4 of the paper.

The resulting model is linear in the space of stump indicator functions,
which the paper argues is robust against the label noise inherent in
tickets (unreported problems are mislabelled negatives).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.ml.binning import BinnedDataset
from repro.ml.calibration import PlattCalibrator
from repro.ml.ensemble_scoring import CompiledEnsemble, compile_stumps
from repro.ml.stumps import HistStumpSearch, Stump, StumpSearch
from repro.obs.metrics import get_registry
from repro.obs.profile import stage
from repro.obs.tracing import tracing_enabled

__all__ = ["BStumpConfig", "WeakLearner", "BStump", "TRAIN_BACKENDS"]

#: Supported training backends: "exact" is the sorted-domain search,
#: "hist" the histogram-binned one (see :mod:`repro.ml.binning`).
TRAIN_BACKENDS = ("exact", "hist")

#: Per-round stump-search times: microseconds on test fixtures up to
#: seconds on benchmark-scale matrices.
_ROUND_TIME_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Z-loss of selected stumps; Z near 1.0 means the learner is almost
#: abstaining (the early-stop region), low Z means strong rounds.
_ROUND_Z_BUCKETS = (0.2, 0.4, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99, 1.0)


def _train_metrics():
    registry = get_registry()
    return (
        registry.counter(
            "repro_train_rounds_total", "Boosting rounds trained"
        ),
        registry.histogram(
            "repro_train_round_seconds",
            "Stump search + weight update wall time per boosting round",
            buckets=_ROUND_TIME_BUCKETS,
        ),
        registry.histogram(
            "repro_train_round_z",
            "Z-loss of the stump selected each boosting round",
            buckets=_ROUND_Z_BUCKETS,
        ),
        registry.gauge(
            "repro_train_margin_mean_abs",
            "Mean |margin| after the latest boosting round (traced runs)",
        ),
    )


@dataclass(frozen=True)
class BStumpConfig:
    """Training configuration for :class:`BStump`.

    Attributes:
        n_rounds: number of boosting iterations T.  The paper uses 800 for
            the ticket predictor and 200 for the trouble locator, chosen by
            cross-validation; our simulated datasets are smaller so the
            defaults here are lower and everything is overridable.
        early_stop_z: stop early when the best achievable Z of a round
            exceeds this value (a Z of ~1.0 means the weak learner is no
            better than abstaining, so further rounds only overfit noise).
        calibrate: fit a Platt calibrator on the training margins so that
            :meth:`BStump.predict_proba` is available.
        missing_policy: how stumps treat NaN values -- "score" (default)
            gives missing values their own confidence-rated block,
            "abstain" outputs 0 (see :mod:`repro.ml.stumps`).
        max_split_points: per-feature candidate-threshold cap per round
            for the exact backend (quantile-strided above the cap; exact
            below).
        backend: "exact" runs the sorted-domain
            :class:`~repro.ml.stumps.StumpSearch` every round; "hist"
            pre-bins each feature once and searches per-bin histograms
            (:class:`~repro.ml.stumps.HistStumpSearch`) -- several times
            faster per round, identical stumps whenever every feature has
            at most ``n_bins`` distinct values, and otherwise aligned
            with the exact backend's own quantile candidate grid.
        n_bins: bin budget per feature for the hist backend (missing
            values get one extra dedicated bin).  Keep it equal to
            ``max_split_points`` so both backends scan comparable
            candidate sets.
    """

    n_rounds: int = 200
    early_stop_z: float = 0.999999
    calibrate: bool = True
    missing_policy: str = "score"
    max_split_points: int = 256
    backend: str = "exact"
    n_bins: int = 256

    def __post_init__(self) -> None:
        if self.backend not in TRAIN_BACKENDS:
            raise ValueError(
                f"backend must be one of {TRAIN_BACKENDS}, got {self.backend!r}"
            )
        if self.n_bins < 2:
            raise ValueError(f"n_bins must be at least 2, got {self.n_bins}")


@dataclass(frozen=True)
class WeakLearner:
    """One boosting round: a stump and the Z it achieved when selected."""

    stump: Stump
    round_index: int
    z: float


@dataclass
class BStump:
    """AdaBoost over decision stumps with Platt-calibrated outputs.

    Typical use::

        model = BStump(BStumpConfig(n_rounds=400))
        model.fit(X_train, y_train, categorical=mask)
        scores = model.decision_function(X_test)   # additive margin f(x)
        probs = model.predict_proba(X_test)        # P(y=+1 | x)

    ``X`` is a dense float matrix with NaN for missing values; ``y`` holds
    labels in {-1, +1} (0/1 labels are converted automatically).
    """

    config: BStumpConfig = field(default_factory=BStumpConfig)
    learners: list[WeakLearner] = field(default_factory=list)
    calibrator: PlattCalibrator | None = None
    n_features_: int | None = None
    train_z_: list[float] = field(default_factory=list)
    _compiled: CompiledEnsemble | None = field(
        default=None, repr=False, compare=False
    )
    _compiled_n_learners: int = field(default=-1, repr=False, compare=False)

    @staticmethod
    def _canonical_labels(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        uniq = set(np.unique(y).tolist())
        if uniq <= {0.0, 1.0}:
            return np.where(y > 0, 1.0, -1.0)
        if uniq <= {-1.0, 1.0}:
            return y
        raise ValueError(f"labels must be in {{0,1}} or {{-1,+1}}, got {sorted(uniq)}")

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        categorical: np.ndarray | None = None,
        sample_weight: np.ndarray | None = None,
        binned: BinnedDataset | None = None,
    ) -> "BStump":
        """Train the boosted model.

        Args:
            X: (n_samples, n_features) float matrix, NaN = missing.
            y: labels, {0, 1} or {-1, +1}.
            categorical: optional boolean mask marking categorical columns.
            sample_weight: optional finite, non-negative initial example
                weights with a positive total.
            binned: pre-binned form of ``X`` for the hist backend.  Pass
                one (e.g. the binning the selection sweep already built)
                to skip re-binning; ignored by the exact backend.

        Returns:
            self, for chaining.
        """
        X = np.asarray(X, dtype=float)
        y = self._canonical_labels(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError("y must have one label per row of X")
        if len(np.unique(y)) < 2:
            raise ValueError("training data must contain both classes")

        n = X.shape[0]
        if sample_weight is None:
            weights = np.full(n, 1.0 / n)
        else:
            weights = np.asarray(sample_weight, dtype=float)
            if weights.shape != (n,):
                raise ValueError("sample_weight must have one entry per row")
            if not np.all(np.isfinite(weights)):
                raise ValueError("sample_weight must be finite")
            if np.any(weights < 0):
                raise ValueError("sample_weight must be non-negative")
            with np.errstate(over="ignore"):
                total = np.sum(weights)
            if not np.isfinite(total) or total <= 0:
                raise ValueError("sample_weight must have a positive finite total")
            weights = weights / total

        rounds_total, round_seconds, round_z, margin_gauge = _train_metrics()
        with stage(
            "train.fit", rows=int(n), features=int(X.shape[1]),
            rounds=int(self.config.n_rounds),
        ) as fit_stage:
            hist = self.config.backend == "hist"
            with stage("train.search_setup", backend=self.config.backend):
                if hist:
                    if binned is None:
                        binned = BinnedDataset.from_matrix(
                            X, categorical, max_bins=self.config.n_bins
                        )
                    elif not binned.matches(X):
                        raise ValueError(
                            "binned dataset does not match X: expected "
                            f"{X.shape}, got ({binned.n_rows}, "
                            f"{binned.n_features})"
                        )
                    search: StumpSearch | HistStumpSearch = HistStumpSearch(
                        binned, y, missing_policy=self.config.missing_policy
                    )
                else:
                    search = StumpSearch(
                        X,
                        y,
                        categorical,
                        missing_policy=self.config.missing_policy,
                        max_split_points=self.config.max_split_points,
                    )
            self.learners = []
            self.train_z_ = []
            self.n_features_ = X.shape[1]
            self._compiled = None
            self._compiled_n_learners = -1

            traced_run = tracing_enabled()
            margin = np.zeros(n)
            # Per-round metric values are flushed once per fit: one
            # labelled lock pass per metric instead of three per round.
            round_times: list[float] = []
            with stage("train.boost_rounds"):
                try:
                    for t in range(self.config.n_rounds):
                        round_start = perf_counter()
                        stump = search.best_stump(weights)
                        if stump.z >= self.config.early_stop_z and t > 0:
                            break
                        self.learners.append(
                            WeakLearner(stump=stump, round_index=t, z=stump.z)
                        )
                        self.train_z_.append(stump.z)
                        # The hist search reads outputs straight off the
                        # bin codes (one table gather); the exact path
                        # keeps the row-comparison predict unchanged.
                        h = (
                            search.round_outputs(stump) if hist
                            else stump.predict(X)
                        )
                        margin += h
                        weights = weights * np.exp(-y * h)
                        total = np.sum(weights)
                        round_times.append(perf_counter() - round_start)
                        if traced_run:
                            # The extra O(n) reduction only runs on
                            # traced fits.
                            margin_gauge.set(float(np.mean(np.abs(margin))))
                        if not np.isfinite(total) or total <= 0:
                            break
                        weights /= total
                finally:
                    if round_times:
                        round_seconds.observe_many(round_times)
                        round_z.observe_many(self.train_z_[: len(round_times)])
                        rounds_total.inc(len(round_times))

            if not self.learners:
                raise RuntimeError("boosting selected no weak learners")
            fit_stage.set_tag("rounds_trained", len(self.learners))

            if self.config.calibrate:
                with stage("train.calibrate"):
                    self.calibrator = PlattCalibrator().fit(margin, y)
        return self

    def compiled(self) -> CompiledEnsemble:
        """The per-feature compiled form of the fitted ensemble (cached).

        The cache is invalidated by :meth:`fit` and rebuilt automatically
        if the learner list changes length (e.g. a model reconstructed by
        :mod:`repro.ml.serialize`); callers that mutate ``learners`` in
        place without changing its length must clear ``_compiled``
        themselves.
        """
        if not self.learners:
            raise RuntimeError("model is not fitted")
        if self._compiled is None or self._compiled_n_learners != len(self.learners):
            self._compiled = compile_stumps(
                [learner.stump for learner in self.learners], self.n_features_
            )
            self._compiled_n_learners = len(self.learners)
        return self._compiled

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Additive margin ``f(x) = sum_t h_t(x)`` for each row of ``X``.

        Routed through the :class:`CompiledEnsemble` scorer: cost scales
        with the number of distinct features the ensemble uses, not the
        number of boosting rounds.  The margin matches the round-by-round
        sum (:meth:`decision_function_naive`) to within float-addition
        reordering -- a few ULPs -- and is bit-identical to summing the
        stump outputs grouped by feature.
        """
        if not self.learners:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"X must be 2-D with {self.n_features_} columns, got {X.shape}"
            )
        return self.compiled().decision_function(X)

    def decision_function_naive(self, X: np.ndarray) -> np.ndarray:
        """Reference margin: one ``Stump.predict`` pass per boosting round.

        Kept as the plain-reading implementation the compiled scorer is
        validated against; O(rounds) row passes, so not for hot paths.
        """
        if not self.learners:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"X must be 2-D with {self.n_features_} columns, got {X.shape}"
            )
        # X is already float64 here, so feed each stump its column
        # directly: one cast for the whole call instead of one per round.
        margin = np.zeros(X.shape[0])
        for learner in self.learners:
            margin += learner.stump.predict_column(X[:, learner.stump.feature])
        return margin

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Calibrated posterior probability ``P(y = +1 | x)`` per row."""
        if self.calibrator is None:
            raise RuntimeError("model was fitted without calibration")
        return self.calibrator.transform(self.decision_function(X))

    def predict(self, X: np.ndarray, threshold: float = 0.0) -> np.ndarray:
        """Hard labels in {-1, +1} by thresholding the margin."""
        return np.where(self.decision_function(X) >= threshold, 1.0, -1.0)

    def explain(self, x: np.ndarray, top_k: int = 10) -> list[tuple[int, float]]:
        """Per-feature score contributions for a single example.

        Returns up to ``top_k`` (feature_index, contribution) pairs sorted
        by absolute contribution, mirroring the schematic in Fig. 9 where
        bottom-node feature ranges feed signed scores upward.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.n_features_:
            raise ValueError(f"x must be 1-D with {self.n_features_} entries")
        contributions: dict[int, float] = {}
        for learner in self.learners:
            f = learner.stump.feature
            value = float(learner.stump.predict_column(x[f : f + 1])[0])
            contributions[learner.stump.feature] = (
                contributions.get(learner.stump.feature, 0.0) + value
            )
        ranked = sorted(contributions.items(), key=lambda kv: -abs(kv[1]))
        return ranked[:top_k]
