"""Unit tests for decision stumps (repro.ml.stumps)."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.ml import stumps
from repro.ml.boostexter import BStump, BStumpConfig
from repro.ml.stumps import COLUMN_BLOCK, Stump, StumpSearch, fit_stump


def uniform_weights(n):
    return np.full(n, 1.0 / n)


class TestStumpPredict:
    def test_threshold_routing(self):
        stump = Stump(feature=0, threshold=0.5, s_lo=-1.0, s_hi=2.0)
        X = np.array([[0.0], [1.0], [0.5]])
        out = stump.predict(X)
        assert list(out) == [-1.0, 2.0, 2.0]  # >= threshold goes high

    def test_missing_abstains(self):
        stump = Stump(feature=0, threshold=0.5, s_lo=-1.0, s_hi=2.0)
        out = stump.predict(np.array([[np.nan]]))
        assert out[0] == 0.0

    def test_categorical_equality(self):
        stump = Stump(feature=0, threshold=2.0, s_lo=-1.0, s_hi=3.0,
                      categorical=True)
        out = stump.predict(np.array([[1.0], [2.0], [3.0]]))
        assert list(out) == [-1.0, 3.0, -1.0]


class TestFitStump:
    def test_separable_threshold_found(self):
        column = np.array([0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0])
        y = np.array([-1, -1, -1, -1, 1, 1, 1, 1], dtype=float)
        stump = fit_stump(column, y, uniform_weights(8))
        assert 3.0 < stump.threshold < 10.0
        assert stump.s_hi > 0 > stump.s_lo
        assert stump.z < 0.5

    def test_sign_orientation_flips(self):
        column = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([1, 1, -1, -1], dtype=float)
        stump = fit_stump(column, y, uniform_weights(4))
        assert stump.s_lo > 0 > stump.s_hi

    def test_useless_feature_has_high_z(self, rng):
        column = rng.normal(size=400)
        y = np.where(rng.random(400) < 0.5, 1.0, -1.0)
        stump = fit_stump(column, y, uniform_weights(400))
        assert stump.z > 0.9

    def test_missing_contributes_to_z(self):
        column = np.array([0.0, 1.0, np.nan, np.nan])
        y = np.array([-1, 1, 1, -1], dtype=float)
        stump = fit_stump(column, y, uniform_weights(4))
        # Perfect split on present values; the mixed missing block costs
        # 2*sqrt(0.25 * 0.25) = 0.5 under either missing policy here.
        assert stump.z == pytest.approx(0.5)

    def test_missing_block_scored_when_informative(self):
        # All missing records are positive: the "score" policy should
        # emit a positive missing score and a lower Z than "abstain".
        column = np.array([0.0, 1.0, 2.0, np.nan, np.nan, np.nan])
        y = np.array([-1, -1, -1, 1, 1, 1], dtype=float)
        scored = fit_stump(column, y, uniform_weights(6), missing_policy="score")
        abstained = fit_stump(column, y, uniform_weights(6), missing_policy="abstain")
        assert scored.s_miss > 0
        assert abstained.s_miss == 0.0
        assert scored.z < abstained.z

    def test_all_missing_column_abstain(self):
        column = np.full(4, np.nan)
        y = np.array([1, -1, 1, -1], dtype=float)
        stump = fit_stump(column, y, uniform_weights(4), missing_policy="abstain")
        assert stump.s_lo == 0.0 and stump.s_hi == 0.0 and stump.s_miss == 0.0
        assert stump.z == pytest.approx(1.0)

    def test_all_missing_column_scored(self):
        column = np.full(4, np.nan)
        y = np.array([1, 1, 1, -1], dtype=float)
        stump = fit_stump(column, y, uniform_weights(4))
        assert stump.s_miss > 0  # 3:1 positive missing block

    def test_invalid_missing_policy(self):
        with pytest.raises(ValueError):
            fit_stump(np.ones(2), np.array([1.0, -1.0]), np.ones(2),
                      missing_policy="drop")

    def test_categorical_picks_best_value(self):
        column = np.array([0, 0, 1, 1, 2, 2], dtype=float)
        y = np.array([-1, -1, 1, 1, -1, -1], dtype=float)
        stump = fit_stump(column, y, uniform_weights(6), categorical=True)
        assert stump.threshold == 1.0
        assert stump.categorical
        assert stump.s_hi > 0

    def test_never_splits_between_equal_values(self):
        column = np.array([1.0, 1.0, 1.0, 2.0])
        y = np.array([1, -1, 1, -1], dtype=float)
        stump = fit_stump(column, y, uniform_weights(4))
        assert stump.threshold not in (1.0,)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            fit_stump(np.ones(3), np.ones(4), np.ones(3))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            fit_stump(np.array([]), np.array([]), np.array([]))

    def test_weighted_fit_respects_weights(self):
        column = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([1, -1, -1, 1], dtype=float)
        # Crushing weight on the last example makes "high is positive" win.
        weights = np.array([0.01, 0.01, 0.01, 10.0])
        stump = fit_stump(column, y, weights)
        assert stump.s_hi > 0


class TestStumpSearch:
    def test_matches_single_column_fit(self, rng):
        X = rng.normal(size=(300, 6))
        y = np.where(X[:, 3] > 0.2, 1.0, -1.0)
        w = uniform_weights(300)
        search = StumpSearch(X, y)
        best = search.best_stump(w)
        assert best.feature == 3
        reference = fit_stump(X[:, 3], y, w, feature=3)
        assert best.z == pytest.approx(reference.z, rel=1e-9)
        assert best.threshold == pytest.approx(reference.threshold)

    def test_prefers_cleanest_feature(self, rng):
        X = rng.normal(size=(500, 3))
        y = np.where(X[:, 1] > 0, 1.0, -1.0)
        X[:, 0] = np.where(y > 0, 1.0, -1.0) + rng.normal(0, 2.0, 500)  # noisy copy
        search = StumpSearch(X, y)
        assert search.best_stump(uniform_weights(500)).feature == 1

    def test_categorical_column_supported(self, rng):
        X = np.column_stack([
            rng.normal(size=400),
            rng.integers(0, 3, size=400).astype(float),
        ])
        y = np.where(X[:, 1] == 2, 1.0, -1.0)
        search = StumpSearch(X, y, categorical=np.array([False, True]))
        best = search.best_stump(uniform_weights(400))
        assert best.feature == 1
        assert best.categorical
        assert best.threshold == 2.0

    def test_missing_values_tolerated(self, rng):
        X = rng.normal(size=(200, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        X[rng.random((200, 2)) < 0.3] = np.nan
        search = StumpSearch(X, y)
        best = search.best_stump(uniform_weights(200))
        assert best.feature == 0
        assert np.isfinite(best.z)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            StumpSearch(np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            StumpSearch(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            StumpSearch(np.empty((0, 2)), np.empty(0))

    def test_weight_shape_checked(self, rng):
        X = rng.normal(size=(10, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        search = StumpSearch(X, y)
        with pytest.raises(ValueError):
            search.best_stump(np.ones(5))


def _edge_case_matrix(rng, n, n_continuous):
    """``n_continuous`` continuous columns (the blocked ones) with ties,
    NaNs and an all-missing column, plus two categorical columns mixed in
    when there is more than one continuous column."""
    n_features = n_continuous + (2 if n_continuous > 1 else 0)
    categorical = np.zeros(n_features, dtype=bool)
    if n_features > n_continuous:
        categorical[[1, n_features - 1]] = True
    X = rng.integers(0, 6, size=(n, n_features)).astype(float)  # ties
    X[:, ::2] += rng.normal(size=(n, (n_features + 1) // 2))
    X[rng.random((n, n_features)) < 0.2] = np.nan
    X[:, categorical] = np.round(np.abs(X[:, categorical]))
    if n_continuous > 1:
        X[:, n_features - 2] = np.nan  # an all-missing continuous column
    y = np.where(rng.random(n) < 0.35, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    return X, y, categorical


def _weight_vectors(rng, n):
    sparse = rng.random(n)
    sparse[rng.random(n) < 0.3] = 0.0
    skewed = rng.exponential(size=n) ** 3
    return [uniform_weights(n), rng.random(n), sparse, skewed / skewed.sum()]


def _stump_bits(stump):
    return tuple(
        np.float64(v).tobytes() if isinstance(v, float) else v
        for v in (stump.feature, stump.threshold, stump.s_lo, stump.s_hi,
                  stump.s_miss, stump.categorical, stump.z)
    )


class TestColumnBlockEdges:
    """The blocked construction is bit-identical at every block edge."""

    @pytest.mark.parametrize(
        "n_continuous",
        [1, COLUMN_BLOCK - 1, COLUMN_BLOCK, COLUMN_BLOCK + 1, 2 * COLUMN_BLOCK + 1],
    )
    @pytest.mark.parametrize("max_split_points", [16, 1000])
    @pytest.mark.parametrize("missing_policy", ["score", "abstain"])
    def test_matches_one_block_and_one_column_construction(
        self, rng, monkeypatch, n_continuous, max_split_points, missing_policy
    ):
        n = 300  # max_split_points 16 < n (quantile grid), 1000 > n (exact)
        X, y, categorical = _edge_case_matrix(rng, n, n_continuous)

        def best_stumps(block):
            monkeypatch.setattr(stumps, "COLUMN_BLOCK", block)
            search = StumpSearch(
                X, y, categorical, missing_policy=missing_policy,
                max_split_points=max_split_points,
            )
            return [
                _stump_bits(search.best_stump(w))
                for w in _weight_vectors(np.random.default_rng(9), n)
            ]

        blocked = best_stumps(COLUMN_BLOCK)
        assert blocked == best_stumps(n_continuous)  # one block
        assert blocked == best_stumps(1)  # one column per block

    @pytest.mark.parametrize(
        "n_continuous", [COLUMN_BLOCK - 1, COLUMN_BLOCK + 1, 2 * COLUMN_BLOCK + 1]
    )
    def test_exact_search_matches_fit_stump_oracle(self, rng, n_continuous):
        n = 120
        X, y, categorical = _edge_case_matrix(rng, n, n_continuous)
        n_features = X.shape[1]
        search = StumpSearch(X, y, categorical, max_split_points=n + 1)
        for w in _weight_vectors(rng, n):
            best = search.best_stump(w)
            oracle = [
                fit_stump(X[:, j], y, w, feature=j, categorical=categorical[j])
                for j in range(n_features)
            ]
            assert best.z == pytest.approx(min(s.z for s in oracle), rel=1e-7)
            reference = oracle[best.feature]
            assert best.z == pytest.approx(reference.z, rel=1e-7)
            assert best.threshold == reference.threshold
            assert best.s_miss == pytest.approx(reference.s_miss, rel=1e-7)


class TestMemoryBound:
    """The exact fit's transient memory follows a column block."""

    #: Bytes per (row x column) cell of an exact fit's tracemalloc peak.
    #: The retained per-round state is 25 B/cell (segment keys 8, present
    #: mask 1, two weight buffers 16); whole-matrix sort temporaries put
    #: the peak near 69 B/cell.
    MAX_BYTES_PER_CELL = 40

    def test_exact_fit_peak_per_cell(self, rng):
        n, n_features = 4_000, 128
        X = rng.normal(size=(n, n_features))
        X[rng.random(X.shape) < 0.2] = np.nan
        y = np.where(np.nan_to_num(X[:, 0]) + rng.normal(size=n) > 0, 1.0, -1.0)
        model = BStump(BStumpConfig(n_rounds=3, calibrate=False))
        tracemalloc.start()
        try:
            model.fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_cell = peak / X.size
        assert per_cell < self.MAX_BYTES_PER_CELL, per_cell
