"""Feature selection: the paper's top-N AP method and Table-4 baselines.

Section 4.3: with only ~20K of weekly ATDS capacity, what matters is not a
feature's *global* discriminative power but how much it helps the *top of
the ranking*.  The proposed method scores each candidate feature by
training a single-feature ticket predictor on a training window, ranking a
held-out window, and computing the top-N average precision AP(N).
Features are kept when their AP(N) clears a per-family threshold chosen
from the strongly bimodal score histograms (0.2 for history/customer and
quadratic features, 0.3 for products -- Fig. 4).

The comparison baselines (Table 4) rank features by:

* maximum AUC of the raw feature value;
* classic average precision of the raw feature value;
* PCA loading mass on the leading principal components;
* gain ratio (normalised information gain).

Performance: the selection sweep trains one tiny boosted model per
candidate column, which the paper runs over hundreds of candidates.
Rather than building a fresh :class:`~repro.ml.stumps.StumpSearch`
(argsort included) per candidate, the default path hands whole column
chunks to :func:`~repro.features.sweep.sweep_chunk_margins` (or its
binned twin under ``backend="hist"``), which runs the boosting
recurrence for every column at once and scores each column's stumps
with the compiled ensemble scorer; the sweep shares its split grid,
missing-block terms and Z criterion with the stump searches.  Column
chunks are independent, so the sweep also fans out over
:func:`repro.parallel.parallel_map` (``REPRO_WORKERS``).  The final
tie-break + AP(N) scoring stage is likewise vectorised, over blocks of
candidate columns.  Pass ``batched=False`` for the original
per-column ``BStump().fit`` loop, kept as the exact reference: its
margins agree with the sweep to floating-point round-off and both paths
select identical feature sets (see ``tests/test_selection_batched.py``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from repro.features.encoding import FeatureSet
from repro.features.sweep import hist_sweep_chunk_margins, sweep_chunk_margins
from repro.ml.binning import BinnedDataset
from repro.ml.boostexter import BStump, BStumpConfig, TRAIN_BACKENDS
from repro.ml.metrics import auc, average_precision, entropy, top_n_average_precision
from repro.ml.pca import PCA
from repro.ml.stumps import COLUMN_BLOCK
from repro.obs.metrics import get_registry
from repro.obs.profile import stage
from repro.parallel import parallel_map

__all__ = [
    "SelectionResult",
    "single_feature_ap",
    "select_features_top_n_ap",
    "select_features_auc",
    "select_features_average_precision",
    "select_features_pca",
    "select_features_gain_ratio",
]

#: Continuous candidate columns are batched through the vectorised
#: single-feature booster in chunks of this many columns.  The chunk is
#: the parallel work unit and bounds the per-task scratch memory (the
#: sweep's sorted value and weight buffers are O(rows x chunk)).
_BATCH_CHUNK_COLUMNS = 32


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one feature-selection method.

    Attributes:
        method: selector name ("top_n_ap", "auc", "average_precision",
            "pca", "gain_ratio").
        scores: per-candidate score, aligned with the input feature set.
        selected: indices of the chosen features, best first.
    """

    method: str
    scores: np.ndarray
    selected: np.ndarray


def _impute_median(column: np.ndarray) -> np.ndarray:
    present = ~np.isnan(column)
    if not np.any(present):
        return np.zeros_like(column)
    filled = column.copy()
    filled[~present] = np.median(column[present])
    return filled


def _impute_median_columns(matrix: np.ndarray) -> np.ndarray:
    """Median-impute every column in one pass (fully-NaN columns -> 0).

    The batched form of :func:`_impute_median`: one ``nanmedian`` call
    computes all column medians, and a single ``where`` fills the gaps.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        medians = np.nanmedian(matrix, axis=0)
    medians = np.where(np.isnan(medians), 0.0, medians)
    return np.where(np.isnan(matrix), medians[None, :], matrix)


def _eligible_columns(matrix: np.ndarray) -> np.ndarray:
    """Columns a single-feature stump can be grown on.

    A column is ineligible when it has no present value or when all its
    present values are equal (no split exists) -- such candidates score 0,
    mirroring the per-column guards of the original selection loop.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        lo = np.nanmin(matrix, axis=0)
        hi = np.nanmax(matrix, axis=0)
    with np.errstate(invalid="ignore"):
        return hi > lo  # False for constant and for all-NaN (NaN compares False)


def _fit_single_column_margin(
    train: FeatureSet,
    y_train: np.ndarray,
    test: FeatureSet,
    j: int,
    config: BStumpConfig,
) -> np.ndarray:
    """Margin of a per-column BStump on the test window (loop path)."""
    model = BStump(config).fit(
        train.matrix[:, [j]], y_train, categorical=train.categorical[[j]]
    )
    return model.decision_function(test.matrix[:, [j]])


def single_feature_ap(
    train: FeatureSet,
    y_train: np.ndarray,
    test: FeatureSet,
    y_test: np.ndarray,
    n: int,
    n_rounds: int = 4,
    batched: bool = True,
    workers: int | None = None,
    backend: str = "exact",
    binned: BinnedDataset | None = None,
) -> np.ndarray:
    """AP(N) of a single-feature BStump predictor, per candidate feature.

    This is the scoring core of the paper's selection method: *"we first
    construct a ticket predictor given each individual feature on a
    training dataset, and test the predictor on a separate test set.  We
    then compute AP(N) for each individual feature."*

    A one-feature stump ensemble is piecewise constant, so thousands of
    lines tie at the top margin and AP(N) would be decided by row order.
    Ties are therefore broken by the raw feature value, oriented to agree
    with the model (the within-tie ordering the stump family itself would
    choose with more thresholds).

    Args:
        train, y_train: selection training window.
        test, y_test: held-out window the AP(N) is computed on.
        n: the capacity N of AP(N).
        n_rounds: boosting rounds of each single-feature predictor.
        batched: vectorise the boosting rounds across continuous columns
            (default); ``False`` runs the original one-``BStump``-per-column
            loop, kept as the reference implementation.
        workers: parallel fan-out of the sweep; ``None`` reads
            ``REPRO_WORKERS`` (default serial).
        backend: "exact" runs the sorted-domain sweep, "hist" the
            histogram-binned one (see
            :class:`~repro.features.sweep.HistColumnSweep`), which scans
            the shared binning's edges instead of re-sorting every chunk.
            Batched continuous columns only; the categorical and loop
            paths are exact either way.
        binned: pre-binned ``train`` matrix for the hist backend.  Pass
            the binning the final training fit will reuse so a full
            select-then-train run quantises the matrix exactly once;
            ``None`` bins here on demand.

    Raises:
        ValueError: if ``n < 1``, as
            :func:`~repro.ml.metrics.top_n_average_precision` does.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if train.n_features != test.n_features:
        raise ValueError("train and test feature sets must align")
    if backend not in TRAIN_BACKENDS:
        raise ValueError(
            f"backend must be one of {TRAIN_BACKENDS}, got {backend!r}"
        )
    y_train = np.asarray(y_train)
    y_test = np.asarray(y_test)
    n_features = train.n_features
    scores = np.zeros(n_features)
    if n_features == 0 or len(np.unique(y_train)) < 2:
        return scores
    eligible = _eligible_columns(train.matrix)
    config = BStumpConfig(n_rounds=n_rounds, calibrate=False)

    get_registry().counter(
        "repro_selection_candidates_total",
        "Candidate columns scored by the AP(N) selection sweep",
    ).inc(int(np.count_nonzero(eligible)))

    margins: dict[int, np.ndarray] = {}
    with stage(
        "select.single_feature_ap",
        candidates=int(np.count_nonzero(eligible)),
        batched=batched,
    ):
        if batched:
            y_signed = BStump._canonical_labels(y_train)
            cont_cols = np.flatnonzero(eligible & ~train.categorical)
            chunks = [
                cont_cols[i : i + _BATCH_CHUNK_COLUMNS]
                for i in range(0, cont_cols.size, _BATCH_CHUNK_COLUMNS)
            ]
            if backend == "hist":
                if binned is None:
                    binned = BinnedDataset.from_matrix(
                        train.matrix, train.categorical
                    )
                chunk_fn = lambda cols: hist_sweep_chunk_margins(  # noqa: E731
                    binned.select(cols),
                    y_signed,
                    test.matrix.T[cols],
                    config.n_rounds,
                    config.missing_policy,
                )
            else:
                chunk_fn = lambda cols: sweep_chunk_margins(  # noqa: E731
                    train.matrix.T[cols],
                    y_signed,
                    test.matrix.T[cols],
                    config.n_rounds,
                    config.missing_policy,
                    config.max_split_points,
                )
            chunk_margins = parallel_map(
                chunk_fn,
                chunks,
                workers=workers,
                task_label="select.chunk",
            )
            for cols, chunk in zip(chunks, chunk_margins):
                for slot, j in enumerate(cols):
                    margins[int(j)] = chunk[slot]
            # Categorical candidates are few (binary basics); the per-column
            # loop is exact and cheap, fanned out over the fabric.
            cat_cols = [
                int(j) for j in np.flatnonzero(eligible & train.categorical)
            ]
            cat_margins = parallel_map(
                lambda j: _fit_single_column_margin(train, y_train, test, j, config),
                cat_cols,
                workers=workers,
                task_label="select.column",
            )
            margins.update(zip(cat_cols, cat_margins))
        else:
            loop_cols = [int(j) for j in np.flatnonzero(eligible)]
            loop_margins = parallel_map(
                lambda j: _fit_single_column_margin(train, y_train, test, j, config),
                loop_cols,
                workers=workers,
                task_label="select.column",
            )
            margins.update(zip(loop_cols, loop_margins))

        with stage("select.ap_scoring"):
            return _scores_from_margins(
                margins, train, test, y_test, n, n_features
            )


def _scores_from_margins(
    margins: dict[int, np.ndarray],
    train: FeatureSet,
    test: FeatureSet,
    y_test: np.ndarray,
    n: int,
    n_features: int,
) -> np.ndarray:
    """Tie-break and AP(N)-score all candidate margins, block by block.

    Row-vectorised equivalent of calling :func:`_break_ties_by_value` and
    :func:`~repro.ml.metrics.top_n_average_precision` per column: each
    row's stable sort, cumulative sum and reduction visit the same values
    in the same order as the one-column calls, so scores match the scalar
    reference bit for bit.  (The tie-break orientation is computed with a
    different summation order than ``np.corrcoef``, but only its *sign*
    is used, which agrees except exactly at zero correlation.)  Rows are
    independent, so candidates are scored ``COLUMN_BLOCK`` at a time: the
    (candidates x test rows) temporaries follow one block, not the sweep.
    """
    scores = np.zeros(n_features)
    cols = sorted(margins)
    for start in range(0, len(cols), COLUMN_BLOCK):
        block = cols[start:start + COLUMN_BLOCK]
        stacked = np.stack([margins[j] for j in block])  # (block, n_test)
        cont_rows = np.flatnonzero([not train.categorical[j] for j in block])
        if cont_rows.size:
            values = test.matrix.T[[block[i] for i in cont_rows]]
            stacked[cont_rows] = _break_ties_by_value_rows(
                stacked[cont_rows], values
            )
        scores[block] = _top_n_ap_rows(y_test, n, stacked)
    return scores


def _break_ties_by_value_rows(margins: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row-vectorised :func:`_break_ties_by_value`.

    Args:
        margins: (n_cands, n_test) piecewise-constant margins.
        values: (n_cands, n_test) raw feature values, NaN for missing;
            +/-inf tie with the finite extreme on their side.
    """
    present = ~np.isnan(values)
    finite = np.isfinite(values)
    counts = finite.sum(axis=1)
    finite_values = np.where(finite, values, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        vmin = np.nanmin(finite_values, axis=1)
        vmax = np.nanmax(finite_values, axis=1)
    spread = vmax - vmin
    with np.errstate(invalid="ignore"):
        apply = (counts > 0) & (spread > 0)
    if not np.any(apply):
        return margins
    safe_vmin = np.where(apply, vmin, 0.0)
    safe_spread = np.where(apply, spread, 1.0)
    z = values - safe_vmin[:, None]
    z /= safe_spread[:, None]
    np.clip(z, 0.0, 1.0, out=z)
    z[~present] = 0.0

    # Smallest gap between distinct margin levels: the positive diffs of
    # a sorted row are exactly the diffs of its unique values.
    diffs = np.diff(np.sort(margins, axis=1), axis=1)
    diffs[diffs <= 0] = np.inf
    finite_min = diffs.min(axis=1)
    gap = np.where(np.isfinite(finite_min), finite_min, 1.0)

    # Orientation: the sign of the margin/value correlation over finite
    # rows (Pearson r as in the scalar reference; scaling cannot change
    # the sign).  Degenerate correlations fall back to +1.
    mask = finite.astype(np.float64)
    filled = np.where(finite, values, 0.0)
    safe_counts = np.maximum(counts, 1)
    m_mean = np.einsum("ij,ij->i", margins, mask) / safe_counts
    v_mean = filled.sum(axis=1) / safe_counts
    dm = margins - m_mean[:, None]
    dm *= mask
    dv = filled - v_mean[:, None]
    dv *= mask
    cov = np.einsum("ij,ij->i", dm, dv)
    var_m = np.einsum("ij,ij->i", dm, dm)
    var_v = np.einsum("ij,ij->i", dv, dv)
    with np.errstate(divide="ignore", invalid="ignore"):
        direction = cov / np.sqrt(var_m * var_v)
    direction = np.where(
        np.isfinite(direction) & (direction != 0), direction, 1.0
    )

    # Perturb in place: z becomes sign * z * (0.49 * gap).  The sign is
    # exactly +/-1, so folding it into the row scalar first flips bits
    # identically to the scalar reference's sign * z * (0.49 * gap).
    z *= (np.sign(direction) * (0.49 * gap))[:, None]
    z += margins
    return np.where(apply[:, None], z, margins)


def _top_n_ap_rows(y_test: np.ndarray, n: int, margins: np.ndarray) -> np.ndarray:
    """Row-vectorised :func:`~repro.ml.metrics.top_n_average_precision`.

    Only the top ``n`` of each ranking matter, so instead of a full
    stable argsort per row, a partition finds each row's rank-``n``
    boundary score and only the (boundary-tie-inclusive) candidate set is
    stably sorted.  Candidate indices are enumerated in ascending order,
    so the stable sub-sort breaks score ties by original index exactly
    like the full stable argsort would.
    """
    y_test = np.asarray(y_test)
    n_rows, width = margins.shape
    neg = -margins
    if n >= width:
        order = np.argsort(neg, axis=1, kind="stable")
        top = y_test[order]
    else:
        boundary = np.partition(neg, n - 1, axis=1)[:, n - 1]
        top = np.empty((n_rows, n), dtype=y_test.dtype)
        for k in range(n_rows):
            cand = np.flatnonzero(neg[k] <= boundary[k])
            sub = cand[np.argsort(neg[k, cand], kind="stable")][:n]
            top[k] = y_test[sub]
    hits = np.cumsum(top, axis=1)
    precisions = hits / np.arange(1, top.shape[1] + 1)
    return np.sum(precisions * top, axis=1) / n


def _break_ties_by_value(margin: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Perturb a piecewise-constant margin by an orientation-aware epsilon.

    The perturbation is small enough never to reorder distinct margin
    levels; within a level, rows are ordered by the feature value in the
    direction positively correlated with the margin.  The value scale and
    the orientation come from the finite values; an infinite value ties
    with the finite extreme on its side.
    """
    present = ~np.isnan(values)
    finite = np.isfinite(values)
    if not np.any(finite):
        return margin
    spread = float(np.ptp(values[finite]))
    if spread <= 0:
        return margin
    z = np.zeros_like(values)
    z[present] = np.clip(
        (values[present] - np.min(values[finite])) / spread, 0.0, 1.0
    )  # [0, 1]; -inf and +inf sit at the ends
    distinct = np.unique(margin)
    gap = np.min(np.diff(distinct)) if distinct.size > 1 else 1.0
    with np.errstate(invalid="ignore"):
        direction = np.corrcoef(margin[finite], values[finite])[0, 1]
    if not np.isfinite(direction) or direction == 0:
        direction = 1.0
    return margin + np.sign(direction) * z * (0.49 * gap)


def select_features_top_n_ap(
    train: FeatureSet,
    y_train: np.ndarray,
    test: FeatureSet,
    y_test: np.ndarray,
    n: int,
    thresholds: dict[str, float] | None = None,
    top_k: int | None = None,
    n_rounds: int = 12,
    batched: bool = True,
    workers: int | None = None,
    backend: str = "exact",
    binned: BinnedDataset | None = None,
) -> SelectionResult:
    """The paper's top-N average-precision feature selection.

    Args:
        train, y_train: selection training window.
        test, y_test: held-out window the AP(N) is computed on.
        n: the capacity N (20K in the paper, scaled to the population).
        thresholds: per-family AP threshold; defaults to the paper's
            {history/customer family: 0.2, quadratic: 0.2, product: 0.3}.
        top_k: alternatively keep the best k features regardless of
            family thresholds (used for the Fig-6 comparison at 50).
        n_rounds: boosting rounds of the single-feature predictors.
        batched, workers, backend, binned: see :func:`single_feature_ap`.
    """
    scores = single_feature_ap(
        train, y_train, test, y_test, n, n_rounds, batched=batched,
        workers=workers, backend=backend, binned=binned,
    )
    order = np.argsort(-scores, kind="stable")
    if top_k is not None:
        selected = order[:top_k]
    else:
        if thresholds is None:
            thresholds = {"quadratic": 0.2, "product": 0.3}
        default = thresholds.get("default", 0.2)
        keep = np.array(
            [
                scores[j] > thresholds.get(train.groups[j], default)
                for j in range(train.n_features)
            ]
        )
        selected = order[keep[order]]
    return SelectionResult(method="top_n_ap", scores=scores, selected=selected)


def _rank_by(method: str, scores: np.ndarray, top_k: int) -> SelectionResult:
    order = np.argsort(-scores, kind="stable")
    return SelectionResult(method=method, scores=scores, selected=order[:top_k])


def select_features_auc(
    features: FeatureSet, y: np.ndarray, top_k: int = 50,
    workers: int | None = None,
) -> SelectionResult:
    """Table-4 baseline: rank features by max AUC of the raw value."""
    y = np.asarray(y)
    filled = _impute_median_columns(features.matrix)

    def score(j: int) -> float:
        a = auc(y, filled[:, j])
        return max(a, 1.0 - a)

    scores = np.array(parallel_map(score, range(features.n_features), workers))
    return _rank_by("auc", scores, top_k)


def select_features_average_precision(
    features: FeatureSet, y: np.ndarray, top_k: int = 50,
    workers: int | None = None,
) -> SelectionResult:
    """Table-4 baseline: rank by average precision over all samples."""
    y = np.asarray(y)
    filled = _impute_median_columns(features.matrix)

    def score(j: int) -> float:
        col = filled[:, j]
        return max(average_precision(y, col), average_precision(y, -col))

    scores = np.array(parallel_map(score, range(features.n_features), workers))
    return _rank_by("average_precision", scores, top_k)


def select_features_pca(
    features: FeatureSet, y: np.ndarray, top_k: int = 50, n_components: int = 10
) -> SelectionResult:
    """Table-4 baseline: rank by loading mass on top principal components.

    ``y`` is accepted for interface symmetry but unused -- PCA selection is
    unsupervised, which is precisely why it underperforms in Fig. 6.
    """
    del y
    pca = PCA(n_components=n_components).fit(features.matrix)
    return _rank_by("pca", pca.feature_scores(), top_k)


def _gain_ratio_from_bins(
    bins: np.ndarray, label_idx: np.ndarray, n_labels: int, base_entropy: float
) -> float:
    """Gain ratio given precomputed per-row bin assignments.

    Reproduces :func:`repro.ml.metrics.gain_ratio` arithmetic from a
    bin/label contingency table instead of per-bin boolean masks: bins are
    visited in ascending order and the per-bin label distributions come
    from one joint ``bincount``.
    """
    n = bins.size
    shifted = bins + 1  # missing bin -1 -> row 0
    table = np.bincount(
        shifted * n_labels + label_idx,
        minlength=(int(shifted.max()) + 1) * n_labels,
    ).reshape(-1, n_labels)
    totals = table.sum(axis=1)
    conditional = 0.0
    split_entropy = 0.0
    for row in np.flatnonzero(totals):
        weight = totals[row] / n
        probs = table[row][table[row] > 0] / totals[row]
        conditional += weight * float(-np.sum(probs * np.log2(probs)))
        split_entropy -= weight * math.log2(weight)
    gain = base_entropy - conditional
    if split_entropy <= 0:
        return 0.0
    return float(gain / split_entropy)


def select_features_gain_ratio(
    features: FeatureSet, y: np.ndarray, top_k: int = 50, n_bins: int = 10,
    workers: int | None = None,
) -> SelectionResult:
    """Table-4 baseline: rank by gain ratio against the ticket label.

    Vectorised: the equal-frequency bin edges of *all* columns come from
    one batched ``nanquantile`` call and each column's conditional entropy
    from one contingency ``bincount``, instead of per-column quantile and
    per-bin mask passes.
    """
    y = np.asarray(y)
    matrix = features.matrix
    n, n_features = matrix.shape
    if n == 0 or n_features == 0:
        return _rank_by("gain_ratio", np.zeros(n_features), top_k)

    missing = np.isnan(matrix)
    quantile_points = np.linspace(0, 1, n_bins + 1)[1:-1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        edges = np.nanquantile(matrix, quantile_points, axis=0)  # (n_bins-1, F)
    base = entropy(y)
    labels_unique, label_idx = np.unique(y, return_inverse=True)

    def score(j: int) -> float:
        present = ~missing[:, j]
        bins = np.full(n, -1, dtype=int)
        if np.any(present):
            bins[present] = np.searchsorted(
                edges[:, j], matrix[present, j], side="right"
            )
        return _gain_ratio_from_bins(bins, label_idx, labels_unique.size, base)

    scores = np.array(parallel_map(score, range(n_features), workers))
    return _rank_by("gain_ratio", scores, top_k)
