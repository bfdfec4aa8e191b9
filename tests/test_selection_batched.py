"""Batched single-feature trainer vs the per-column BStump reference.

The acceptance bar of the batched sweep is *unchanged selected feature
sets* -- the per-column scores must agree closely enough that no ranking
or threshold decision flips.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.features import selection
from repro.features.encoding import FeatureSet
from repro.ml.metrics import gain_ratio, top_n_average_precision
from repro.ml.stumps import COLUMN_BLOCK


def _world(rng, n=700, n_features=24):
    M = rng.normal(size=(n, n_features))
    M[rng.random((n, n_features)) < 0.3] = np.nan
    # Mix in integer-ish and heavy-tailed columns like the Table-3 encoding.
    M[:, 1] = np.round(M[:, 1] * 3)
    M[:, 2] = np.exp(2 * rng.normal(size=n))
    M[:, 5] = rng.integers(0, 4, size=n).astype(float)  # categorical
    M[:, 8] = 0.25  # constant -> ineligible
    M[:, 13] = np.nan  # empty -> ineligible
    cat = np.zeros(n_features, dtype=bool)
    cat[5] = True
    names = [f"f{i}" for i in range(n_features)]
    groups = ["default"] * (n_features // 2) + ["quadratic"] * (
        n_features - n_features // 2
    )
    signal = np.nansum(M[:, :6], axis=1) + rng.normal(scale=2.0, size=n)
    y = (signal > np.quantile(signal, 0.8)).astype(float)
    half = n // 2
    return (
        FeatureSet(M[:half], names, groups, cat),
        y[:half],
        FeatureSet(M[half:], names, groups, cat),
        y[half:],
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_scores_match_per_column_loop(seed):
    rng = np.random.default_rng(seed)
    train, y_train, test, y_test = _world(rng)
    batched = selection.single_feature_ap(
        train, y_train, test, y_test, n=60, n_rounds=4, batched=True
    )
    loop = selection.single_feature_ap(
        train, y_train, test, y_test, n=60, n_rounds=4, batched=False
    )
    # The batched booster replicates the per-column arithmetic exactly
    # (per-column 1-D reductions, shared z/score code), so the scores are
    # bit-identical, not merely close.
    assert np.array_equal(batched, loop)


def test_batched_chunking_is_exercised(monkeypatch):
    # Force multiple chunks so the chunk boundary path is covered.
    monkeypatch.setattr(selection, "_BATCH_CHUNK_COLUMNS", 5)
    rng = np.random.default_rng(3)
    train, y_train, test, y_test = _world(rng)
    batched = selection.single_feature_ap(
        train, y_train, test, y_test, n=60, n_rounds=4, batched=True
    )
    loop = selection.single_feature_ap(
        train, y_train, test, y_test, n=60, n_rounds=4, batched=False
    )
    assert np.array_equal(batched, loop)


def test_selected_sets_identical_between_paths():
    rng = np.random.default_rng(4)
    train, y_train, test, y_test = _world(rng)
    kwargs = dict(n=60, n_rounds=4)
    batched = selection.select_features_top_n_ap(
        train, y_train, test, y_test, batched=True, **kwargs
    )
    loop = selection.select_features_top_n_ap(
        train, y_train, test, y_test, batched=False, **kwargs
    )
    assert set(batched.selected.tolist()) == set(loop.selected.tolist())
    top = selection.select_features_top_n_ap(
        train, y_train, test, y_test, top_k=10, **kwargs
    )
    assert top.selected.size == 10


def test_degenerate_inputs_score_zero():
    rng = np.random.default_rng(5)
    train, y_train, test, y_test = _world(rng)
    # Constant and all-NaN columns are ineligible in both paths.
    for batched in (True, False):
        scores = selection.single_feature_ap(
            train, y_train, test, y_test, n=60, n_rounds=3, batched=batched
        )
        assert scores[8] == 0.0
        assert scores[13] == 0.0
    # Single-class labels: everything scores zero without training.
    ones = np.ones_like(y_train)
    scores = selection.single_feature_ap(train, ones, test, y_test, n=60)
    assert np.array_equal(scores, np.zeros(train.n_features))


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("batched", [True, False])
def test_non_positive_capacity_is_rejected(batched, n):
    rng = np.random.default_rng(5)
    train, y_train, test, y_test = _world(rng)
    with pytest.raises(ValueError, match="n must be positive"):
        selection.single_feature_ap(
            train, y_train, test, y_test, n=n, n_rounds=3, batched=batched
        )


def _infinite_test_window(rng, n_test=400):
    """``_world``'s windows with 5% +inf and 5% -inf in test column 3."""
    train, y_train, test, _ = _world(rng, n=2 * n_test)
    matrix = test.matrix.copy()
    draw = rng.random(n_test)
    matrix[draw < 0.05, 3] = np.inf
    matrix[draw > 0.95, 3] = -np.inf
    y_test = (rng.random(n_test) < 0.2).astype(float)
    test = FeatureSet(matrix, test.names, test.groups, test.categorical)
    return train, y_train, test, y_test


def test_infinite_test_values_score_on_both_paths():
    rng = np.random.default_rng(8)
    train, y_train, test, y_test = _infinite_test_window(rng)
    assert np.isposinf(test.matrix[:, 3]).any()
    assert np.isneginf(test.matrix[:, 3]).any()
    batched, loop = (
        selection.single_feature_ap(
            train, y_train, test, y_test, n=20, n_rounds=4, batched=b
        )
        for b in (True, False)
    )
    assert np.all(np.isfinite(batched)) and batched[3] > 0
    assert np.array_equal(batched, loop)


def test_infinite_tie_break_matches_per_column_reference():
    rng = np.random.default_rng(9)
    margins, train, test, y_test = _scoring_inputs(rng, COLUMN_BLOCK + 1)
    values = test.matrix.copy()
    draw = rng.random(values.shape[0])
    for j in (0, 1, 3):  # continuous candidates
        values[draw < 0.05, j] = np.inf
        values[draw > 0.95, j] = -np.inf
    values[:, 7] = np.where(draw < 0.5, np.inf, -np.inf)  # no finite value
    test = FeatureSet(values, test.names, test.groups, test.categorical)
    scores = selection._scores_from_margins(
        margins, test, test, y_test, 20, test.n_features
    )
    reference = np.zeros(test.n_features)
    for j, margin in margins.items():
        if not test.categorical[j]:
            margin = selection._break_ties_by_value(margin, values[:, j])
            assert np.all(np.isfinite(margin))
        reference[j] = top_n_average_precision(y_test, 20, margin)
    assert np.array_equal(scores, reference)


def test_gain_ratio_selector_matches_metric_reference():
    rng = np.random.default_rng(6)
    train, y_train, _, _ = _world(rng)
    result = selection.select_features_gain_ratio(train, y_train, top_k=5)
    reference = np.array(
        [gain_ratio(train.matrix[:, j], y_train) for j in range(train.n_features)]
    )
    assert np.array_equal(result.scores, reference)


def test_batched_median_imputation_matches_per_column():
    rng = np.random.default_rng(7)
    train, _, _, _ = _world(rng)
    batched = selection._impute_median_columns(train.matrix)
    loop = np.column_stack(
        [
            selection._impute_median(train.matrix[:, j])
            for j in range(train.n_features)
        ]
    )
    assert np.array_equal(batched, loop)
    assert not np.any(np.isnan(batched))


def _scoring_inputs(rng, n_cands, n_test=400):
    """Piecewise-constant candidate margins over a test window.

    Returns ``(margins, train, test, y_test)`` as ``_scores_from_margins``
    takes them.  The raw values have ties, NaNs, a constant column, an
    all-missing column and categorical columns; one candidate is left
    out of ``margins`` as an ineligible column would be.
    """
    values = rng.normal(size=(n_test, n_cands))
    values[:, ::3] = np.round(values[:, ::3] * 2)
    values[rng.random(values.shape) < 0.2] = np.nan
    categorical = np.zeros(n_cands, dtype=bool)
    categorical[2::7] = True
    values[:, categorical] = rng.integers(0, 3, size=(n_test, categorical.sum()))
    if n_cands > 5:
        values[:, 4] = 1.5
        values[:, 5] = np.nan
    margins = {}
    for j in range(n_cands):
        if n_cands > 6 and j == 6:
            continue
        levels = rng.normal(size=4)
        margin = levels[np.digitize(np.nan_to_num(values[:, j]), [-0.5, 0.5])]
        margin[np.isnan(values[:, j])] = levels[3]
        margins[j] = margin
    names = [f"c{j}" for j in range(n_cands)]
    features = FeatureSet(values, names, ["default"] * n_cands, categorical)
    y_test = (rng.random(n_test) < 0.2).astype(float)
    return margins, features, features, y_test


@pytest.mark.parametrize(
    "n_cands",
    [1, COLUMN_BLOCK - 1, COLUMN_BLOCK, COLUMN_BLOCK + 1, 2 * COLUMN_BLOCK + 1],
)
@pytest.mark.parametrize("n", [30, 10_000])  # partition path, full-sort path
def test_blocked_scoring_matches_per_column_reference(n_cands, n):
    rng = np.random.default_rng(n_cands)
    margins, train, test, y_test = _scoring_inputs(rng, n_cands)
    scores = selection._scores_from_margins(
        margins, train, test, y_test, n, n_cands
    )
    reference = np.zeros(n_cands)
    for j, margin in margins.items():
        if not train.categorical[j]:
            margin = selection._break_ties_by_value(margin, test.matrix[:, j])
        reference[j] = top_n_average_precision(y_test, n, margin)
    assert np.array_equal(scores, reference)


def test_scoring_peak_grows_by_at_most_one_block():
    """AP(N) scoring memory follows a candidate block, not the sweep."""
    n_test = 2_000

    def peak(n_cands):
        margins, train, test, y_test = _scoring_inputs(
            np.random.default_rng(0), n_cands, n_test
        )
        tracemalloc.start()
        try:
            selection._scores_from_margins(
                margins, train, test, y_test, 100, n_cands
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(COLUMN_BLOCK)  # warm lazy state off the books
    growth = peak(8 * COLUMN_BLOCK) - peak(COLUMN_BLOCK)
    one_block = COLUMN_BLOCK * n_test * 8  # one (block x test rows) float64
    assert growth <= one_block, (growth, one_block)
