"""The trouble locator (Section 6).

Given a dispatch, rank all 52 candidate dispositions so the technician
tests likely locations first.  Three models:

* :class:`ExperienceModel` -- Section 6.1's baseline: rank dispositions by
  their historical frequency, ignoring the line's measurements ("the best
  ranked list is based on the prior probability that problems occur at a
  given location in the past").
* :class:`FlatLocator` -- Section 6.2's flat model: one-vs-other BStump per
  disposition, logistic-calibrated into ``P_ij(C_ij | x)``.
* :class:`CombinedLocator` -- the combined model of Eq. 2: for each
  disposition, a logistic regression blends the disposition classifier's
  score with the score of its parent *major location* classifier,

  .. math::

      P^{adj}_{ij}(C_{ij}|x) = \\frac{1}{1 + \\exp(-\\gamma^1_{ij}
      f_{C_{ij}}(x) - \\gamma^2_{ij} f_{C_{i\\cdot}}(x) - \\gamma^0_{ij})}

  which lets rare dispositions borrow strength from their location's
  (much better-trained) classifier.

Evaluation helpers implement the paper's rank metrics: the rank of the
true disposition in each model's list, the tests-to-locate quantile
(Section 6.3's "maximum of 9 tests basic vs 4 with the models"), and the
binned average rank improvement of Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.joins import LocatorDataset
from repro.ml.binning import BinnedDataset
from repro.ml.boostexter import TRAIN_BACKENDS, BStump, BStumpConfig
from repro.ml.calibration import PlattCalibrator
from repro.ml.ensemble_scoring import MultiHeadEnsemble, compile_multihead
from repro.ml.logistic import fit_logistic_regression
from repro.netsim.components import DISPOSITIONS, disposition_arrays
from repro.parallel import parallel_map

__all__ = [
    "LocatorConfig",
    "MIN_ROWS_PER_BIN",
    "locator_bin_budget",
    "ExperienceModel",
    "FlatLocator",
    "CombinedLocator",
    "ranks_of_truth",
    "tests_to_locate",
    "rank_improvement_by_bin",
]

N_DISPOSITIONS = len(DISPOSITIONS)
N_LOCATIONS = 4

#: Fewest training rows per bin, on average, in the locator's shared
#: binning.  A bin holding one or two rows gives a boosted stump a split
#: it cannot estimate (LightGBM's ``min_data_in_bin`` default is 3 for
#: the same reason), and every extra bin costs each of the
#: ``(cv_folds + 1) x (52 + 4)`` head fits a scan cell per round.
MIN_ROWS_PER_BIN = 3


@dataclass(frozen=True)
class LocatorConfig:
    """Locator training knobs.

    Attributes:
        n_rounds: BStump rounds per one-vs-rest model (paper: 200).
        min_positive: dispositions with fewer positives in training fall
            back to prior-only scores (the paper avoids this by keeping
            only dispositions with > 20 occurrences; tiny simulations may
            still starve a class).
        prior_smoothing: additive smoothing of the experience prior.
        cv_folds: cross-validation folds used to produce unbiased margins
            for both the flat model's Platt calibration and the Eq.-2
            logistic blend.  Training margins are overconfident (the
            one-vs-rest models have memorised their training rows); ranking
            52 classes against each other requires honest confidences.
        cv_seed: fold-assignment seed.
        backend: stump-search backend for every one-vs-rest head.
            "hist" (default) quantises the training matrix into one
            shared :class:`~repro.ml.binning.BinnedDataset` that all 52
            disposition heads, all 4 location heads, and every CV-fold
            refit reuse; "exact" runs the per-head sorted-domain search
            (the historical path, and what pre-existing payloads load
            as).
        n_bins: cap on the per-feature bin budget of the shared binning
            (hist backend only); the budget itself follows the row count
            (:func:`locator_bin_budget`).
        max_split_points: per-feature candidate-threshold cap per round
            for the exact backend, forwarded to each head.
    """

    n_rounds: int = 150
    min_positive: int = 4
    prior_smoothing: float = 1.0
    cv_folds: int = 3
    cv_seed: int = 17
    backend: str = "hist"
    n_bins: int = 256
    max_split_points: int = 256

    def __post_init__(self) -> None:
        if self.backend not in TRAIN_BACKENDS:
            raise ValueError(
                f"backend must be one of {TRAIN_BACKENDS}, got {self.backend!r}"
            )
        if self.n_bins < 2:
            raise ValueError("n_bins must be at least 2")


class ExperienceModel:
    """Rank dispositions by historical frequency only."""

    def __init__(self, config: LocatorConfig | None = None):
        self.config = config or LocatorConfig()
        self.prior_: np.ndarray | None = None

    def fit(self, train: LocatorDataset) -> "ExperienceModel":
        counts = np.bincount(train.disposition, minlength=N_DISPOSITIONS).astype(float)
        counts += self.config.prior_smoothing
        self.prior_ = counts / counts.sum()
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """(n, 52) matrix of identical per-row priors."""
        if self.prior_ is None:
            raise RuntimeError("experience model is not fitted")
        X = np.atleast_2d(X)
        return np.tile(self.prior_, (X.shape[0], 1))


def locator_bin_budget(n_rows: int, n_bins: int) -> int:
    """Bin budget of the locator's shared binning over ``n_rows`` rows.

    ``n_bins`` caps it; below ``MIN_ROWS_PER_BIN * n_bins`` rows it is
    one bin per ``MIN_ROWS_PER_BIN`` rows, and never fewer than 2.
    """
    return max(2, min(n_bins, n_rows // MIN_ROWS_PER_BIN))


def _fold_assignment(n: int, folds: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.permutation(n) % folds


def _fit_one_vs_rest(
    X: np.ndarray,
    positives: np.ndarray,
    categorical: np.ndarray,
    cfg: LocatorConfig,
    binned: BinnedDataset | None = None,
) -> BStump | None:
    """A single uncalibrated one-vs-rest model, or None if class-starved.

    ``binned`` is the shared pre-quantised form of ``X`` (hist backend);
    passing it lets all heads trained on the same rows skip re-binning.
    """
    n_pos = float(positives.sum())
    if n_pos < cfg.min_positive or n_pos > len(positives) - cfg.min_positive:
        return None
    head_cfg = BStumpConfig(
        n_rounds=cfg.n_rounds,
        calibrate=False,
        max_split_points=cfg.max_split_points,
        backend=cfg.backend,
        n_bins=cfg.n_bins,
    )
    return BStump(head_cfg).fit(
        X, positives.astype(float), categorical=categorical, binned=binned
    )


def _fill_oof_margins(
    out: np.ndarray,
    train: LocatorDataset,
    classes: np.ndarray,
    heads,
    assignment: np.ndarray,
    folds: int,
    cfg: LocatorConfig,
    binned: BinnedDataset | None,
) -> None:
    """Write out-of-fold one-vs-rest margins into ``out[:, head]``.

    For every (fold, head) pair a head is refit on the other folds' rows
    (positives: ``classes == head``) and its margins land on the fold's
    held-out rows; a class-starved refit leaves its entries as they
    were.  A fold's training rows, held-out rows and row subset of the
    shared binning are gathered once and shared by all of its refits,
    which fan out over :func:`repro.parallel.parallel_map` in fold-major
    order.
    """
    X = train.features.matrix
    rests = [assignment != fold for fold in range(folds)]
    fold_rows = [
        (X[rest], X[~rest], binned.rows(rest) if binned is not None else None)
        for rest in rests
    ]
    tasks = [(fold, head) for fold in range(folds) for head in heads]

    def refit(task: tuple[int, int]) -> np.ndarray | None:
        fold, head = task
        X_rest, X_hold, binned_rest = fold_rows[fold]
        model = _fit_one_vs_rest(
            X_rest, classes[rests[fold]] == head, train.features.categorical,
            cfg, binned=binned_rest,
        )
        if model is None:
            return None
        return model.decision_function(X_hold)

    for (fold, head), margins in zip(tasks, parallel_map(refit, tasks)):
        if margins is not None:
            out[~rests[fold], head] = margins


class FlatLocator:
    """One-vs-rest BStump per disposition with Platt calibration.

    The per-class models are trained on all data; their Platt calibrators
    are fitted on *out-of-fold* margins so that cross-class comparisons
    (which is what a ranked disposition list is) reflect honest test-time
    confidence rather than memorised training margins.
    """

    def __init__(self, config: LocatorConfig | None = None):
        self.config = config or LocatorConfig()
        self.models_: dict[int, BStump] = {}
        self.calibrators_: dict[int, PlattCalibrator] = {}
        self.prior_: np.ndarray | None = None
        self.oof_decision_: np.ndarray | None = None
        self.fold_assignment_: np.ndarray | None = None
        self.binned_: BinnedDataset | None = None
        self._categorical: np.ndarray | None = None
        self._multihead: MultiHeadEnsemble | None = None

    def fit(self, train: LocatorDataset) -> "FlatLocator":
        cfg = self.config
        X = train.features.matrix
        n = train.n_examples
        self._categorical = train.features.categorical
        counts = np.bincount(train.disposition, minlength=N_DISPOSITIONS).astype(float)
        self.prior_ = (counts + cfg.prior_smoothing) / (
            counts.sum() + cfg.prior_smoothing * N_DISPOSITIONS
        )

        # The shared binning fabric: quantise the training matrix once,
        # at a budget sized by the row count; every head (and, via
        # ``binned_``, the combined model's location heads and every fold
        # refit) searches the same pre-binned codes.
        binned = None
        if cfg.backend == "hist":
            binned = BinnedDataset.from_matrix(
                np.asarray(X, dtype=float),
                self._categorical,
                max_bins=locator_bin_budget(n, cfg.n_bins),
            )
        self.binned_ = binned

        # The 52 one-vs-rest fits are independent over shared read-only
        # arrays -- the natural unit for the parallel fabric.
        fitted = parallel_map(
            lambda code: _fit_one_vs_rest(
                X, train.disposition == code, self._categorical, cfg,
                binned=binned,
            ),
            range(N_DISPOSITIONS),
        )
        self.models_ = {
            code: model for code, model in enumerate(fitted) if model is not None
        }
        self._multihead = None

        # Out-of-fold margins for calibration (and for the combined model).
        folds = max(2, cfg.cv_folds)
        prior_logit = np.log(self.prior_ / (1.0 - self.prior_))
        oof = np.tile(prior_logit, (n, 1))
        self.fold_assignment_ = None
        if n >= folds * 4:
            assignment = _fold_assignment(n, folds, cfg.cv_seed)
            self.fold_assignment_ = assignment
            _fill_oof_margins(
                oof, train, train.disposition, list(self.models_),
                assignment, folds, cfg, binned,
            )
        else:
            oof = self.decision_matrix(X)
        self.oof_decision_ = oof

        self.calibrators_ = {}
        for code in self.models_:
            y = (train.disposition == code).astype(float)
            self.calibrators_[code] = PlattCalibrator().fit(oof[:, code], y)
        return self

    def _stacked(self) -> MultiHeadEnsemble | None:
        """The 52-way compiled scorer, built lazily and cached."""
        if self._multihead is None and self.models_:
            heads = {code: model.compiled() for code, model in self.models_.items()}
            n_features = next(iter(heads.values())).n_features
            self._multihead = compile_multihead(
                heads, n_heads=N_DISPOSITIONS, n_features=n_features
            )
        return self._multihead

    def decision_matrix(self, X: np.ndarray) -> np.ndarray:
        """(n, 52) raw margins; prior log-odds for untrained classes.

        One stacked multi-head pass over the feature columns
        (:class:`~repro.ml.ensemble_scoring.MultiHeadEnsemble`), each
        margin column bit-identical to that head's own
        ``decision_function``.
        """
        if self.prior_ is None:
            raise RuntimeError("locator is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.tile(np.log(self.prior_ / (1.0 - self.prior_)), (X.shape[0], 1))
        stacked = self._stacked()
        if stacked is not None:
            stacked.decision_matrix(X, out=out)
        return out

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """(n, 52) calibrated one-vs-rest probabilities ``P_ij(C_ij|x)``."""
        if self.prior_ is None:
            raise RuntimeError("locator is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.tile(self.prior_, (X.shape[0], 1))
        stacked = self._stacked()
        if stacked is None:
            return out
        margins = stacked.decision_matrix(X)
        codes = stacked.head_columns
        # Vectorised Platt transform: the same clip/exp elementwise ops
        # as PlattCalibrator.transform, applied to all columns at once.
        a = np.array([self.calibrators_[int(c)].a for c in codes])
        b = np.array([self.calibrators_[int(c)].b for c in codes])
        z = np.clip(a * margins[:, codes] + b, -500, 500)
        out[:, codes] = 1.0 / (1.0 + np.exp(z))
        return out


class CombinedLocator:
    """The Eq.-2 combined model: disposition + parent-location blending."""

    def __init__(self, config: LocatorConfig | None = None):
        self.config = config or LocatorConfig()
        self.flat = FlatLocator(self.config)
        self.location_models_: dict[int, BStump] = {}
        self.blend_: dict[int, tuple[float, float, float]] = {}
        self._location_of = disposition_arrays().location
        self._loc_multihead: MultiHeadEnsemble | None = None

    def fit(self, train: LocatorDataset) -> "CombinedLocator":
        cfg = self.config
        X = train.features.matrix
        self.flat.fit(train)

        # Major-location one-vs-rest models (4 of them, far better fed),
        # trained over the flat model's shared binning.
        fitted = parallel_map(
            lambda loc: _fit_one_vs_rest(
                X, train.location == loc, train.features.categorical, cfg,
                binned=self.flat.binned_,
            ),
            range(N_LOCATIONS),
        )
        self.location_models_ = {
            loc: model for loc, model in enumerate(fitted) if model is not None
        }
        self._loc_multihead = None

        # Per-disposition logistic blend of the two margins (Eq. 2),
        # fitted on out-of-fold margins so the blend sees honestly
        # calibrated disposition scores.  The disposition margins are
        # reused from the flat model's calibration pass.
        f_disp = self.flat.oof_decision_
        f_loc = self._oof_location_margins(train)
        self.blend_ = {}
        for code in range(N_DISPOSITIONS):
            if code not in self.flat.models_:
                continue
            y = (train.disposition == code).astype(float)
            design = np.column_stack(
                [f_disp[:, code], f_loc[:, self._location_of[code]]]
            )
            fit = fit_logistic_regression(design, y, ridge=1e-3)
            self.blend_[code] = (
                float(fit.coefficients[0]),
                float(fit.coefficients[1]),
                float(fit.intercept),
            )
        return self

    def _oof_location_margins(self, train: LocatorDataset) -> np.ndarray:
        """Cross-validated major-location margins over the training rows.

        Reuses the flat model's stored fold assignment
        (``flat.fold_assignment_``) so disposition and location margins
        are fold-consistent per row, and reuses row subsets of the flat
        model's shared binning for the fold refits.
        """
        cfg = self.config
        n = train.n_examples
        folds = max(2, cfg.cv_folds)
        X = train.features.matrix
        if n < folds * 4:
            return self._location_margins(X)
        assignment = self.flat.fold_assignment_
        if assignment is None or assignment.shape != (n,):
            assignment = _fold_assignment(n, folds, cfg.cv_seed)
        binned = self.flat.binned_
        if binned is not None and binned.n_rows != n:
            binned = None
        f_loc = np.zeros((n, N_LOCATIONS))
        _fill_oof_margins(
            f_loc, train, train.location, range(N_LOCATIONS), assignment,
            folds, cfg, binned,
        )
        return f_loc

    def _stacked_locations(self) -> MultiHeadEnsemble | None:
        """The 4-way compiled location scorer, built lazily and cached."""
        if self._loc_multihead is None and self.location_models_:
            heads = {
                loc: model.compiled()
                for loc, model in self.location_models_.items()
            }
            n_features = next(iter(heads.values())).n_features
            self._loc_multihead = compile_multihead(
                heads, n_heads=N_LOCATIONS, n_features=n_features
            )
        return self._loc_multihead

    def _location_margins(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros((X.shape[0], N_LOCATIONS))
        stacked = self._stacked_locations()
        if stacked is not None:
            stacked.decision_matrix(X, out=out)
        return out

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """(n, 52) adjusted posteriors ``P_adj(C_ij | x)`` per Eq. 2.

        Both margin matrices come from stacked multi-head passes, and
        the Eq.-2 blend is applied to all trained columns at once; the
        elementwise operations match the historical per-code loop, so
        posteriors are bit-identical to it.
        """
        if self.flat.prior_ is None:
            raise RuntimeError("locator is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        f_disp = self.flat.decision_matrix(X)
        f_loc = self._location_margins(X)
        out = np.tile(self.flat.prior_, (X.shape[0], 1))
        if self.blend_:
            codes = np.array(sorted(self.blend_), dtype=np.intp)
            gammas = np.array([self.blend_[int(c)] for c in codes])
            locs = self._location_of[codes]
            z = (
                gammas[:, 0] * f_disp[:, codes]
                + gammas[:, 1] * f_loc[:, locs]
                + gammas[:, 2]
            )
            out[:, codes] = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        return out

    def explain(self, x: np.ndarray, code: int, top_k: int = 6) -> dict:
        """A Fig-9-style breakdown of one combined inference.

        Fig. 9 of the paper draws the combined model for "inside wiring at
        HN" as a three-layer graph: line-feature ranges at the bottom feed
        signed stump scores into the disposition classifier ``f_IW`` and
        the location classifier ``f_HN``, whose outputs blend into
        ``P(IW_adj | x)``.  This returns the same decomposition as data:
        the top feature contributions to each intermediate score, the two
        margins, the blend coefficients (gammas), and the final posterior.

        Args:
            x: one feature row.
            code: disposition index to explain.
            top_k: how many bottom-layer contributions to list per
                intermediate classifier.
        """
        if code not in self.blend_:
            raise KeyError(f"disposition {code} has no trained combined model")
        x = np.asarray(x, dtype=float)
        location = int(self._location_of[code])
        disp_model = self.flat.models_[code]
        loc_model = self.location_models_.get(location)
        f_disp = float(disp_model.decision_function(x[None, :])[0])
        f_loc = (
            float(loc_model.decision_function(x[None, :])[0])
            if loc_model is not None
            else 0.0
        )
        g1, g2, g0 = self.blend_[code]
        z = g1 * f_disp + g2 * f_loc + g0
        posterior = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        return {
            "code": code,
            "location": location,
            "disposition_margin": f_disp,
            "location_margin": f_loc,
            "gammas": (g1, g2, g0),
            "posterior": float(posterior),
            "disposition_contributions": disp_model.explain(x, top_k),
            "location_contributions": (
                loc_model.explain(x, top_k) if loc_model is not None else []
            ),
        }


# ----- evaluation ---------------------------------------------------------


def ranks_of_truth(prob_matrix: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """1-based rank of the true disposition in each row's ordering.

    A rank of r means the technician following the list tests r candidate
    dispositions before finding the real problem.
    """
    prob_matrix = np.atleast_2d(np.asarray(prob_matrix, dtype=float))
    truth = np.asarray(truth, dtype=int)
    if truth.shape != (prob_matrix.shape[0],):
        raise ValueError("one truth label per row is required")
    n, n_codes = prob_matrix.shape
    if n == 0:
        return np.empty(0, dtype=int)
    if truth.min() < 0 or truth.max() >= n_codes:
        raise IndexError("truth label out of range")
    # Rank under a stable descending sort = 1 + (entries strictly larger)
    # + (tied entries at a lower column index) -- the exact position
    # ``np.argsort(-row, kind="stable")`` would assign, without the
    # per-row Python loop.
    truth_p = prob_matrix[np.arange(n), truth][:, None]
    beaten = np.count_nonzero(prob_matrix > truth_p, axis=1)
    tied_before = np.count_nonzero(
        (prob_matrix == truth_p)
        & (np.arange(n_codes)[None, :] < truth[:, None]),
        axis=1,
    )
    return (beaten + tied_before + 1).astype(int)


def tests_to_locate(ranks: np.ndarray, quantile: float = 0.5) -> int:
    """Tests needed to locate the given fraction of problems.

    Section 6.3: basic ranks need a maximum of 9 tests to cover 50 % of
    problems; the learned models need 4.
    """
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise ValueError("no ranks supplied")
    if not 0 < quantile <= 1:
        raise ValueError("quantile must be in (0, 1]")
    return int(np.quantile(ranks, quantile, method="inverted_cdf"))


def rank_improvement_by_bin(
    basic_ranks: np.ndarray,
    model_ranks: np.ndarray,
    bin_width: int = 5,
    max_rank: int = N_DISPOSITIONS,
) -> list[dict[str, float]]:
    """Fig. 10: average rank change binned by the basic rank.

    Positive change means the model ranked the true disposition closer to
    the top than the experience baseline did.
    """
    basic_ranks = np.asarray(basic_ranks)
    model_ranks = np.asarray(model_ranks)
    if basic_ranks.shape != model_ranks.shape:
        raise ValueError("rank arrays must align")
    rows: list[dict[str, float]] = []
    for low in range(1, max_rank + 1, bin_width):
        high = min(low + bin_width - 1, max_rank)
        mask = (basic_ranks >= low) & (basic_ranks <= high)
        if not np.any(mask):
            continue
        change = basic_ranks[mask] - model_ranks[mask]
        rows.append(
            {
                "bin_low": float(low),
                "bin_high": float(high),
                "count": float(np.sum(mask)),
                "mean_rank_change": float(np.mean(change)),
            }
        )
    return rows
