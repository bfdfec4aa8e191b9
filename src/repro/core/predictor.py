"""The ticket predictor (Section 4).

Pipeline, mirroring the paper end to end:

1. encode every line's measurement history into the Table-3 base features
   (basic / delta / time-series / profile / ticket / modem);
2. score every candidate with a single-feature BStump and the top-N
   average precision on a held-out selection window, keeping the
   candidates above the per-family thresholds (Section 4.3);
3. grow derived candidates -- quadratics of every base feature and
   products over a pool of the strongest base features -- and score/select
   them the same way (the paper's Fig-4 histograms with thresholds 0.2 and
   0.3);
4. train the final BStump on the selected columns (800 rounds in the
   paper, configurable here) and Platt-calibrate the margin into
   ``P(Tkt(u) | x)`` (Section 4.4);
5. at run time, rank all lines by that posterior and hand the top
   ``capacity`` to ATDS.

The derived-feature *recipes* (which base column to square, which pairs to
multiply) are stored so that prediction weeks are encoded base-only and
derived columns are reconstructed cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.joins import LabeledDataset, build_ticket_dataset
from repro.data.splits import TemporalSplit
from repro.features.encoding import EncoderConfig, FeatureSet, LineFeatureEncoder
from repro.features.selection import single_feature_ap
from repro.ml.binning import BinnedDataset
from repro.ml.boostexter import BStump, BStumpConfig, TRAIN_BACKENDS
from repro.netsim.simulator import SimulationResult
from repro.obs.profile import stage

__all__ = ["PredictorConfig", "TicketPredictor"]


@dataclass(frozen=True)
class PredictorConfig:
    """Ticket-predictor knobs.

    Attributes:
        capacity: the N of top-N -- how many predictions ATDS can absorb
            weekly (20K in the paper; scale to the simulated population).
        horizon_weeks: label horizon T (4 weeks in the paper).
        selection_rounds: boosting rounds of the single-feature selectors.
        train_rounds: boosting rounds of the final model (paper: 800).
        base_threshold: AP(N) threshold for history/customer features.
            None (default) adapts to the observed score distribution --
            the paper's absolute 0.2/0.3 cuts come from eyeballing the
            bimodal Fig-4 histograms at AT&T scale, which does not
            transfer across population sizes; the adaptive rule keeps
            features whose AP clears ``adaptive_fraction`` of the best
            observed AP, which lands in the same histogram gap.
        quadratic_threshold: AP(N) threshold for squared features
            (None = adaptive).
        product_threshold: AP(N) threshold for product features (higher,
            per Section 4.3: a product should beat both factors;
            None = adaptive with a stricter fraction).
        adaptive_fraction: fraction of the best base AP used by the
            adaptive thresholds.
        product_pool: how many of the strongest base features feed the
            product-candidate pairs.
        include_derived: disable to reproduce the Fig-7 dotted curve
            (history + customer features only).
        min_selected: floor on the number of base features kept, in case a
            threshold filters everything on small simulations.
        backend: training backend for the selection sweep and the final
            model -- "exact" (sorted-domain search) or "hist"
            (histogram-binned; see :mod:`repro.ml.binning`).  Under
            "hist" each candidate matrix is binned exactly once and the
            binning is shared between its selection sweep and the final
            model fit.
        n_bins: per-feature bin budget of the hist backend.
    """

    capacity: int = 400
    horizon_weeks: int = 4
    selection_rounds: int = 4
    train_rounds: int = 250
    base_threshold: float | None = None
    quadratic_threshold: float | None = None
    product_threshold: float | None = None
    adaptive_fraction: float = 0.35
    product_pool: int = 16
    include_derived: bool = True
    min_selected: int = 10
    backend: str = "exact"
    n_bins: int = 256

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if self.backend not in TRAIN_BACKENDS:
            raise ValueError(
                f"backend must be one of {TRAIN_BACKENDS}, got {self.backend!r}"
            )


@dataclass
class _DerivedRecipes:
    """Column recipes mapping base features to the final model input."""

    base_indices: list[int] = field(default_factory=list)
    quad_indices: list[int] = field(default_factory=list)
    product_pairs: list[tuple[int, int]] = field(default_factory=list)

    @property
    def n_columns(self) -> int:
        return len(self.base_indices) + len(self.quad_indices) + len(self.product_pairs)

    def columns(self, base_rows: np.ndarray) -> "_AssembledColumns":
        """Provider of the model-input columns over ``base_rows``."""
        return _AssembledColumns(base_rows, self)


class _AssembledColumns:
    """The model-input columns of some base-feature rows.

    The one spelling of the derived-column recipe.  Column ``j`` is, in
    recipe order: a selected base column, a selected base column
    squared, or a product of two base columns.  The recipe is held as
    operand arrays: column ``j`` is ``base[left[j]]`` for the selected
    base columns and ``base[left[j]] * base[right[j]]`` after them (a
    square has ``left == right``; ``x * x`` is ``x ** 2`` bit for bit).
    The serving shards read columns one at a time through ``__call__``,
    so unused columns cost nothing and each base column is copied out
    of the row-major matrix once; training, batch scoring
    (``TicketPredictor._assemble``) and the explanation path take whole
    rows through :meth:`rows`.  Both read the one operand list, so the
    served fold, the batch scores and the explained row see the same
    doubles.
    """

    def __init__(self, base_rows: np.ndarray, recipes: _DerivedRecipes):
        self._rows = base_rows
        self._n_base = len(recipes.base_indices)
        pairs = [(i, i) for i in recipes.quad_indices] + list(recipes.product_pairs)
        self._left = np.array(
            list(recipes.base_indices) + [i for i, _ in pairs], dtype=np.intp
        )
        self._right = np.array([k for _, k in pairs], dtype=np.intp)
        self._base: dict[int, np.ndarray] = {}

    def _column(self, i: int) -> np.ndarray:
        col = self._base.get(i)
        if col is None:
            col = self._base[i] = np.ascontiguousarray(self._rows[:, i])
        return col

    def __call__(self, j: int) -> np.ndarray:
        left = self._column(self._left[j])
        if j < self._n_base:
            return left
        return left * self._column(self._right[j - self._n_base])

    def rows(self) -> np.ndarray:
        """Every model column at once, as an (n_rows, n_columns) matrix."""
        out = self._rows[:, self._left]
        out[:, self._n_base:] *= self._rows[:, self._right]
        return out


class TicketPredictor:
    """Learns to rank DSL lines by P(edge ticket within T weeks)."""

    def __init__(self, config: PredictorConfig | None = None,
                 encoder: LineFeatureEncoder | None = None):
        self.config = config or PredictorConfig()
        self.encoder = encoder or LineFeatureEncoder(EncoderConfig())
        self.model: BStump | None = None
        self.recipes = _DerivedRecipes()
        self.feature_names: list[str] = []
        self.selection_scores_: dict[str, np.ndarray] = {}
        self._base_categorical: np.ndarray | None = None
        self._thresholds: dict[str, float] = {}

    # ----- training -----------------------------------------------------

    def fit(self, result: SimulationResult, split: TemporalSplit) -> "TicketPredictor":
        """Train on a simulation result using the given temporal split."""
        cfg = self.config
        train = build_ticket_dataset(
            result, split.train_weeks, self.encoder, cfg.horizon_weeks
        )
        selection = build_ticket_dataset(
            result, split.selection_weeks, self.encoder, cfg.horizon_weeks
        )
        return self.fit_datasets(train, selection)

    def fit_datasets(
        self, train: LabeledDataset, selection: LabeledDataset
    ) -> "TicketPredictor":
        """Train from pre-built base-feature datasets (advanced interface)."""
        cfg = self.config
        if train.features.n_features != selection.features.n_features:
            raise ValueError("train/selection feature sets must align")
        if len(np.unique(train.y)) < 2:
            raise ValueError("training window contains a single class")
        self._base_categorical = train.features.categorical.copy()

        with stage(
            "predict.fit",
            rows=train.features.matrix.shape[0],
            base_features=train.features.n_features,
        ):
            return self._fit_datasets_inner(train, selection)

    def _fit_datasets_inner(
        self, train: LabeledDataset, selection: LabeledDataset
    ) -> "TicketPredictor":
        cfg = self.config
        hist = cfg.backend == "hist"
        # Under the hist backend every candidate matrix is quantised once
        # and the binning is shared: the selection sweep scans its edges,
        # and the final fit reuses the selected columns' codes -- a full
        # select-then-train run bins each matrix exactly once.
        base_binned = (
            BinnedDataset.from_matrix(
                train.features.matrix,
                train.features.categorical,
                max_bins=cfg.n_bins,
            )
            if hist
            else None
        )
        with stage("predict.select_base", backend=cfg.backend):
            base_scores = single_feature_ap(
                train.features, train.y, selection.features, selection.y,
                cfg.capacity, n_rounds=cfg.selection_rounds,
                backend=cfg.backend, binned=base_binned,
            )
        self.selection_scores_["base"] = base_scores
        best = float(np.max(base_scores)) if base_scores.size else 0.0
        base_threshold = (
            cfg.base_threshold
            if cfg.base_threshold is not None
            else cfg.adaptive_fraction * best
        )
        self._thresholds = {
            "base": base_threshold,
            "quadratic": (
                cfg.quadratic_threshold
                if cfg.quadratic_threshold is not None
                else cfg.adaptive_fraction * best
            ),
            "product": (
                cfg.product_threshold
                if cfg.product_threshold is not None
                else 1.5 * cfg.adaptive_fraction * best
            ),
        }
        order = np.argsort(-base_scores, kind="stable")
        keep = order[base_scores[order] > base_threshold]
        if keep.size < cfg.min_selected:
            keep = order[:cfg.min_selected]
        self.recipes = _DerivedRecipes(base_indices=[int(i) for i in keep])

        quad_binned = prod_binned = None
        prod_rows: np.ndarray | None = None
        if cfg.include_derived:
            with stage("predict.select_derived"):
                quad_binned, prod_binned, prod_rows = self._select_derived(
                    train, selection, base_scores, base_binned
                )

        with stage("predict.final_train", rounds=cfg.train_rounds,
                   backend=cfg.backend):
            X_train = self._assemble(train.features)
            names = self._column_names(train.features)
            self.feature_names = names
            categorical = self._column_categorical(train.features)
            binned_final = None
            if hist:
                # Reassemble the final training columns from the
                # selection-time binnings instead of re-binning: the
                # assembled matrix's columns are (by construction) the
                # same value columns the candidate binnings quantised.
                parts = [base_binned.select(self.recipes.base_indices)]
                if self.recipes.quad_indices and quad_binned is not None:
                    parts.append(quad_binned.select(self.recipes.quad_indices))
                if self.recipes.product_pairs and prod_binned is not None:
                    parts.append(prod_binned.select(prod_rows))
                binned_final = BinnedDataset.hstack(parts)
            self.model = BStump(
                BStumpConfig(
                    n_rounds=cfg.train_rounds,
                    backend=cfg.backend,
                    n_bins=cfg.n_bins,
                )
            ).fit(X_train, train.y, categorical=categorical, binned=binned_final)
        return self

    def _select_derived(
        self,
        train: LabeledDataset,
        selection: LabeledDataset,
        base_scores: np.ndarray,
        base_binned: BinnedDataset | None = None,
    ) -> tuple[BinnedDataset | None, BinnedDataset | None, np.ndarray | None]:
        """Score and select quadratic and product candidates (Fig 4 b/c).

        Returns the candidate binnings (hist backend only, else None) so
        the final fit can reuse them: the quadratic candidates' binning,
        the product candidates' binning, and the selected product rows
        within it.
        """
        cfg = self.config
        hist = base_binned is not None
        base_train = train.features
        base_sel = selection.features
        n_base = base_train.n_features

        # Quadratics of every base feature.
        quad_train = FeatureSet(
            matrix=base_train.matrix**2,
            names=[f"quad:{n}" for n in base_train.names],
            groups=["quadratic"] * n_base,
            categorical=np.zeros(n_base, dtype=bool),
        )
        quad_sel = FeatureSet(
            matrix=base_sel.matrix**2,
            names=quad_train.names,
            groups=quad_train.groups,
            categorical=quad_train.categorical,
        )
        quad_binned = (
            BinnedDataset.from_matrix(
                quad_train.matrix, quad_train.categorical, max_bins=cfg.n_bins
            )
            if hist
            else None
        )
        quad_scores = single_feature_ap(
            quad_train, train.y, quad_sel, selection.y,
            cfg.capacity, n_rounds=cfg.selection_rounds,
            backend=cfg.backend, binned=quad_binned,
        )
        self.selection_scores_["quadratic"] = quad_scores
        self.recipes.quad_indices = [
            int(i)
            for i in np.flatnonzero(quad_scores > self._thresholds["quadratic"])
        ]
        # Scored: free the quadratic matrices before the product ones are
        # built (the hist path keeps only their binning for the final fit).
        del quad_train, quad_sel

        # Products over the pool of strongest base features.
        pool = np.argsort(-base_scores, kind="stable")[:cfg.product_pool]
        pairs = [
            (int(pool[a]), int(pool[b]))
            for a in range(len(pool))
            for b in range(a + 1, len(pool))
        ]
        if not pairs:
            self.selection_scores_["product"] = np.empty(0)
            return quad_binned, None, None
        prod_train_matrix = np.column_stack(
            [base_train.matrix[:, i] * base_train.matrix[:, j] for i, j in pairs]
        )
        prod_sel_matrix = np.column_stack(
            [base_sel.matrix[:, i] * base_sel.matrix[:, j] for i, j in pairs]
        )
        prod_names = [
            f"prod:{base_train.names[i]}*{base_train.names[j]}" for i, j in pairs
        ]
        prod_train = FeatureSet(
            matrix=prod_train_matrix, names=prod_names,
            groups=["product"] * len(pairs),
            categorical=np.zeros(len(pairs), dtype=bool),
        )
        prod_sel = FeatureSet(
            matrix=prod_sel_matrix, names=prod_names,
            groups=prod_train.groups, categorical=prod_train.categorical,
        )
        prod_binned = (
            BinnedDataset.from_matrix(
                prod_train.matrix, prod_train.categorical, max_bins=cfg.n_bins
            )
            if hist
            else None
        )
        prod_scores = single_feature_ap(
            prod_train, train.y, prod_sel, selection.y,
            cfg.capacity, n_rounds=cfg.selection_rounds,
            backend=cfg.backend, binned=prod_binned,
        )
        self.selection_scores_["product"] = prod_scores
        prod_rows = np.flatnonzero(prod_scores > self._thresholds["product"])
        self.recipes.product_pairs = [pairs[i] for i in prod_rows]
        return quad_binned, prod_binned, prod_rows

    # ----- column assembly ------------------------------------------------

    def _assemble(self, base: FeatureSet) -> np.ndarray:
        return self.recipes.columns(base.matrix).rows()

    def _column_names(self, base: FeatureSet) -> list[str]:
        r = self.recipes
        names = [base.names[i] for i in r.base_indices]
        names += [f"quad:{base.names[i]}" for i in r.quad_indices]
        names += [
            f"prod:{base.names[i]}*{base.names[j]}" for i, j in r.product_pairs
        ]
        return names

    def _column_categorical(self, base: FeatureSet) -> np.ndarray:
        r = self.recipes
        parts = [base.categorical[r.base_indices]]
        parts.append(np.zeros(len(r.quad_indices), dtype=bool))
        parts.append(np.zeros(len(r.product_pairs), dtype=bool))
        return np.concatenate(parts)

    # ----- inference -------------------------------------------------------

    def score_features(self, base: FeatureSet) -> np.ndarray:
        """Calibrated P(ticket within T) from a base feature set."""
        if self.model is None:
            raise RuntimeError("predictor is not fitted")
        return self.model.predict_proba(self._assemble(base))

    def score_week(self, result: SimulationResult, week: int) -> np.ndarray:
        """Calibrated scores for every line at prediction week ``week``."""
        with stage("predict.encode", week=week):
            base = self.encoder.encode(
                result.measurements, week, result.population, result.ticket_log
            )
        with stage("predict.score", week=week):
            return self.score_features(base)

    def rank_week(self, result: SimulationResult, week: int) -> np.ndarray:
        """All line ids ranked by decreasing ticket probability."""
        scores = self.score_week(result, week)
        return np.argsort(-scores, kind="stable")

    def predict_top(self, result: SimulationResult, week: int) -> np.ndarray:
        """The top-``capacity`` line ids submitted to ATDS (Section 3.2)."""
        return self.rank_week(result, week)[: self.config.capacity]

    # ----- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialise the fitted predictor (recipes + model) to plain data.

        The encoder configuration is included so a deployment host encodes
        prediction weeks identically to the training host.
        """
        from dataclasses import asdict

        from repro.ml.serialize import bstump_to_dict

        if self.model is None:
            raise RuntimeError("predictor is not fitted")
        return {
            "format_version": 1,
            "config": asdict(self.config),
            "encoder": asdict(self.encoder.config),
            "recipes": {
                "base_indices": list(self.recipes.base_indices),
                "quad_indices": list(self.recipes.quad_indices),
                "product_pairs": [list(p) for p in self.recipes.product_pairs],
            },
            "feature_names": list(self.feature_names),
            "model": bstump_to_dict(self.model),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TicketPredictor":
        """Rebuild a fitted predictor from :meth:`to_dict` output."""
        from repro.ml.serialize import bstump_from_dict

        if payload.get("format_version") != 1:
            raise ValueError("unsupported predictor format version")
        predictor = cls(
            PredictorConfig(**payload["config"]),
            LineFeatureEncoder(EncoderConfig(**payload["encoder"])),
        )
        predictor.recipes = _DerivedRecipes(
            base_indices=[int(i) for i in payload["recipes"]["base_indices"]],
            quad_indices=[int(i) for i in payload["recipes"]["quad_indices"]],
            product_pairs=[
                (int(i), int(j)) for i, j in payload["recipes"]["product_pairs"]
            ],
        )
        predictor.feature_names = list(payload["feature_names"])
        predictor.model = bstump_from_dict(payload["model"])
        return predictor
