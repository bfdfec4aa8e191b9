"""The histogram-binned training backend vs the exact search.

The tentpole guarantee under test: when a feature has at most
``max_bins`` distinct values, :class:`HistStumpSearch` scans the
*identical* candidate-threshold set as the uncapped exact search and
recovers the same stump every round -- the two backends then differ only
in float-summation grouping (histogram partial sums vs sorted prefix
sums), so scores agree to ~1e-8 rather than bit-for-bit.  Above the bin
budget both backends share the same quantile-rank grid, so on
distinct-valued data they still pick the same thresholds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.features import selection
from repro.features.encoding import FeatureSet
from repro.ml.binning import DEFAULT_MAX_BINS, BinnedDataset
from repro.ml.boostexter import TRAIN_BACKENDS, BStump, BStumpConfig
from repro.ml.serialize import bstump_from_dict, bstump_to_dict, payload_checksum
from repro.ml.stumps import (
    EARLY_STOP_Z,
    MISSING_POLICIES,
    HistStumpSearch,
    StumpSearch,
)

#: Float-summation tolerance between backends (see module docstring).
SCORE_TOL = 1e-8


def _edge_case_matrix(rng, n=600):
    """Columns covering every regime the binning has to get right."""
    X = np.column_stack([
        rng.normal(size=n),                            # continuous, distinct
        np.round(rng.normal(size=n) * 2),              # heavy integer ties
        np.full(n, 3.25),                              # constant
        np.where(rng.random(n) < 0.7, np.nan,
                 rng.normal(size=n)),                  # NaN-heavy
        rng.integers(0, 5, size=n).astype(float),      # categorical
        np.full(n, np.nan),                            # all missing
    ])
    categorical = np.array([False, False, False, False, True, False])
    y = (np.where(np.isnan(X[:, 0]), 0.0, X[:, 0]) + 0.5 * X[:, 1]
         + rng.normal(size=n) > 0)
    return X, categorical, y.astype(float)


class TestBinnedDataset:
    def test_distinct_values_get_exact_edges(self, rng):
        x = rng.permutation(np.arange(50.0))
        binned = BinnedDataset.from_matrix(x[:, None])
        assert binned.exact[0]
        assert binned.n_value_bins[0] == 50
        # Bin edges sit strictly between consecutive distinct values.
        assert np.all(binned.edges[0] > np.arange(49))
        assert np.all(binned.edges[0] < np.arange(1, 50))

    def test_nan_gets_the_trailing_bin(self, rng):
        x = rng.normal(size=100)
        x[::3] = np.nan
        binned = BinnedDataset.from_matrix(x[:, None])
        nan_code = binned.n_value_bins[0]
        assert np.array_equal(binned.codes[0] == nan_code, np.isnan(x))

    def test_capped_column_is_marked_inexact(self, rng):
        x = rng.normal(size=2000)
        binned = BinnedDataset.from_matrix(x[:, None], max_bins=16)
        assert not binned.exact[0]
        assert binned.n_value_bins[0] <= 16

    def test_codes_dtype_follows_bin_budget(self, rng):
        x = rng.normal(size=300)
        assert BinnedDataset.from_matrix(
            x[:, None], max_bins=64).codes.dtype == np.uint8
        assert BinnedDataset.from_matrix(
            np.arange(400.0)[:, None], max_bins=400).codes.dtype == np.uint16

    def test_select_and_hstack_round_trip(self, rng):
        X, categorical, _ = _edge_case_matrix(rng)
        binned = BinnedDataset.from_matrix(X, categorical)
        parts = [binned.select([0, 1]), binned.select([2, 3, 4, 5])]
        joined = BinnedDataset.hstack(parts)
        assert np.array_equal(joined.codes, binned.codes)
        assert np.array_equal(joined.categorical, binned.categorical)
        assert joined.matches(X)

    def test_validation_errors(self, rng):
        with pytest.raises(ValueError):
            BinnedDataset.from_matrix(np.empty((0, 2)))
        with pytest.raises(ValueError):
            BinnedDataset.from_matrix(rng.normal(size=(5, 1)), max_bins=1)
        a = BinnedDataset.from_matrix(rng.normal(size=(10, 1)))
        b = BinnedDataset.from_matrix(rng.normal(size=(11, 1)))
        with pytest.raises(ValueError):
            BinnedDataset.hstack([a, b])


class TestHistVsExactSearch:
    """Round-for-round agreement on the edge-case matrix."""

    @pytest.mark.parametrize("missing_policy", MISSING_POLICIES)
    def test_boosted_rounds_pick_identical_stumps(self, rng, missing_policy):
        X, categorical, y = _edge_case_matrix(rng)
        y_signed = np.where(y > 0, 1.0, -1.0)
        n = len(y)
        exact = StumpSearch(
            X, y_signed, categorical=categorical,
            missing_policy=missing_policy, max_split_points=n + 1,
        )
        binned = BinnedDataset.from_matrix(X, categorical, max_bins=n + 1)
        hist = HistStumpSearch(binned, y_signed, missing_policy=missing_policy)
        weights = np.full(n, 1.0 / n)
        for _ in range(25):
            se = exact.best_stump(weights)
            sh = hist.best_stump(weights)
            assert (sh.feature, sh.categorical) == (se.feature, se.categorical)
            assert sh.threshold == se.threshold
            for field in ("s_lo", "s_hi", "s_miss", "z"):
                assert getattr(sh, field) == pytest.approx(
                    getattr(se, field), abs=SCORE_TOL)
            # The binned score table replays Stump.predict bit-for-bit.
            h = sh.predict(X)
            np.testing.assert_array_equal(hist.round_outputs(sh), h)
            weights = weights * np.exp(-y_signed * h)
            weights /= weights.sum()

    @pytest.mark.parametrize("missing_policy", MISSING_POLICIES)
    def test_near_zero_weights_stay_in_agreement(self, rng, missing_policy):
        # Perfectly separable column: boosting drives most weights to the
        # round-off floor, the regime where histogram partial sums and
        # sorted prefix sums diverge most.
        n = 400
        x = np.arange(float(n))
        X = np.column_stack([x, rng.normal(size=n)])
        y_signed = np.where(x >= n // 2, 1.0, -1.0)
        exact = StumpSearch(X, y_signed, max_split_points=n + 1)
        binned = BinnedDataset.from_matrix(X, max_bins=n + 1)
        hist = HistStumpSearch(binned, y_signed, missing_policy=missing_policy)
        weights = np.full(n, 1.0 / n)
        for _ in range(12):
            se = exact.best_stump(weights)
            sh = hist.best_stump(weights)
            assert (sh.feature, sh.threshold) == (se.feature, se.threshold)
            assert sh.z == pytest.approx(se.z, abs=SCORE_TOL)
            h = sh.predict(X)
            weights = weights * np.exp(-y_signed * h)
            weights /= weights.sum()
            assert weights.min() >= 0.0

    def test_all_missing_column_matches_exact(self, rng):
        X = np.column_stack([np.full(50, np.nan), rng.normal(size=50)])
        y_signed = np.where(rng.random(50) > 0.5, 1.0, -1.0)
        weights = np.full(50, 0.02)
        se = StumpSearch(X, y_signed).best_stump(weights)
        sh = HistStumpSearch(
            BinnedDataset.from_matrix(X), y_signed).best_stump(weights)
        assert (sh.feature, sh.threshold) == (se.feature, se.threshold)


class TestHistBStump:
    @pytest.mark.parametrize("missing_policy", MISSING_POLICIES)
    def test_fitted_models_structurally_identical(self, rng, missing_policy):
        X, categorical, y = _edge_case_matrix(rng)
        kwargs = dict(n_rounds=20, calibrate=False,
                      missing_policy=missing_policy,
                      max_split_points=len(y) + 1)
        exact = BStump(BStumpConfig(**kwargs)).fit(X, y, categorical=categorical)
        hist = BStump(BStumpConfig(backend="hist", **kwargs)).fit(
            X, y, categorical=categorical)
        assert len(exact.learners) == len(hist.learners)
        for a, b in zip(exact.learners, hist.learners):
            assert (b.stump.feature, b.stump.threshold, b.stump.categorical) \
                == (a.stump.feature, a.stump.threshold, a.stump.categorical)
        np.testing.assert_allclose(
            hist.decision_function(X), exact.decision_function(X),
            atol=1e-7,
        )

    def test_prebinned_dataset_is_accepted_and_validated(self, rng):
        X, categorical, y = _edge_case_matrix(rng)
        binned = BinnedDataset.from_matrix(X, categorical)
        config = BStumpConfig(n_rounds=5, calibrate=False, backend="hist")
        direct = BStump(config).fit(X, y, categorical=categorical)
        shared = BStump(config).fit(X, y, categorical=categorical, binned=binned)
        for a, b in zip(direct.learners, shared.learners):
            assert a.stump == b.stump
        with pytest.raises(ValueError):
            BStump(config).fit(X[:-1], y[:-1], binned=binned)

    def test_exact_backend_ignores_binned_and_rejects_bad_backend(self, rng):
        assert TRAIN_BACKENDS == ("exact", "hist")
        with pytest.raises(ValueError):
            BStumpConfig(backend="lightgbm")
        with pytest.raises(ValueError, match="max_split_points"):
            BStumpConfig(backend="hist", max_split_points=1)

    def test_hist_bins_at_the_split_budget(self, rng):
        X, categorical, y = _edge_case_matrix(rng)
        config = BStumpConfig(n_rounds=5, calibrate=False, backend="hist",
                              max_split_points=16)
        direct = BStump(config).fit(X, y, categorical=categorical)
        binned = BinnedDataset.from_matrix(X, categorical, max_bins=16)
        shared = BStump(config).fit(X, y, categorical=categorical,
                                    binned=binned)
        assert [a.stump for a in direct.learners] \
            == [b.stump for b in shared.learners]


class TestSerializeBackend:
    def test_round_trip_preserves_backend_fields(self, rng):
        X, categorical, y = _edge_case_matrix(rng)
        model = BStump(BStumpConfig(
            n_rounds=6, calibrate=False, backend="hist", max_split_points=128,
        )).fit(X, y, categorical=categorical)
        payload = bstump_to_dict(model)
        assert payload["config"]["backend"] == "hist"
        # Format v1 still writes the retired keys: the bin budget as
        # n_bins, equal to the one split budget, and the early-stop Z.
        assert payload["config"]["max_split_points"] == 128
        assert payload["config"]["n_bins"] == 128
        assert payload["config"]["early_stop_z"] == EARLY_STOP_Z
        assert list(payload["config"]) == [
            "n_rounds", "early_stop_z", "calibrate", "missing_policy",
            "max_split_points", "backend", "n_bins",
        ]
        loaded = bstump_from_dict(payload)
        assert loaded.config == model.config
        np.testing.assert_array_equal(
            loaded.decision_function(X), model.decision_function(X))

    def test_pre_backend_payloads_load_as_exact(self, rng):
        X, _, y = _edge_case_matrix(rng)
        model = BStump(BStumpConfig(n_rounds=4, calibrate=False)).fit(X, y)
        payload = bstump_to_dict(model)
        del payload["config"]["backend"], payload["config"]["n_bins"]
        del payload["checksum"]  # pre-backend payloads hash without them
        loaded = bstump_from_dict(payload)
        assert loaded.config.backend == "exact"
        assert loaded.config.max_split_points == DEFAULT_MAX_BINS

    @pytest.mark.parametrize("key, value", [
        ("early_stop_z", 0.99), ("n_bins", 128),
    ])
    def test_retired_key_at_another_value_is_refused(self, rng, key, value):
        X, _, y = _edge_case_matrix(rng)
        model = BStump(BStumpConfig(n_rounds=4, calibrate=False)).fit(X, y)
        payload = bstump_to_dict(model)
        payload["config"][key] = value
        payload["checksum"] = payload_checksum(payload)
        with pytest.raises(ValueError, match=key):
            bstump_from_dict(payload)


class TestHistSelection:
    def _world(self, rng, n=400, n_features=18, nan_frac=0.3):
        M = rng.normal(size=(n, n_features))
        M[rng.random((n, n_features)) < nan_frac] = np.nan
        M[:, 2] = np.round(M[:, 2] * 3)
        M[:, 5] = 0.25       # constant -> ineligible
        M[:, 7] = np.nan     # empty -> ineligible
        names = [f"f{i}" for i in range(n_features)]
        groups = ["default"] * n_features
        cat = np.zeros(n_features, dtype=bool)
        signal = np.nansum(M[:, :6], axis=1) + rng.normal(scale=2.0, size=n)
        y = (signal > np.quantile(signal, 0.8)).astype(float)
        half = n // 2
        return (FeatureSet(M[:half], names, groups, cat), y[:half],
                FeatureSet(M[half:], names, groups, cat), y[half:])

    def test_hist_sweep_matches_exact_scores_and_sets(self, rng):
        # 200 training rows <= the 256-candidate cap, so the exact sweep
        # runs uncapped and the hist sweep's per-distinct-value bins scan
        # the identical candidate thresholds.
        train, y_train, test, y_test = self._world(rng)
        kwargs = dict(n=60, n_rounds=4, batched=True)
        exact_scores = selection.single_feature_ap(
            train, y_train, test, y_test, **kwargs)
        hist_scores = selection.single_feature_ap(
            train, y_train, test, y_test, backend="hist", **kwargs)
        np.testing.assert_allclose(hist_scores, exact_scores, atol=1e-6)
        top = lambda s: set(np.argsort(-s, kind="stable")[:8].tolist())  # noqa: E731
        assert top(hist_scores) == top(exact_scores)

    def test_capped_regime_stays_within_ap_tolerance(self, rng):
        # 450 training rows of distinct-valued data: both backends fall
        # back to the shared quantile-rank grid, so even above the bin
        # budget the scanned thresholds -- and therefore the AP(N)
        # scores -- still agree.
        train, y_train, test, y_test = self._world(rng, n=900, n_features=10)
        kwargs = dict(n=80, n_rounds=3, batched=True)
        exact_scores = selection.single_feature_ap(
            train, y_train, test, y_test, **kwargs)
        hist_scores = selection.single_feature_ap(
            train, y_train, test, y_test, backend="hist", **kwargs)
        # Column 2 is integer-rounded: in the capped regime the hist
        # backend bins it exactly while the grid-capped exact sweep can
        # only split where the grid happens to land on a value boundary,
        # so the hist search is strictly finer there (see DESIGN.md
        # section 7) and equality is only claimed for the distinct-valued
        # columns.
        distinct_valued = np.ones(train.n_features, dtype=bool)
        distinct_valued[2] = False
        np.testing.assert_allclose(
            hist_scores[distinct_valued], exact_scores[distinct_valued],
            atol=1e-6,
        )

    def test_shared_binning_changes_nothing(self, rng):
        train, y_train, test, y_test = self._world(rng)
        binned = BinnedDataset.from_matrix(train.matrix, train.categorical)
        kwargs = dict(n=60, n_rounds=4, batched=True, backend="hist")
        fresh = selection.single_feature_ap(
            train, y_train, test, y_test, **kwargs)
        shared = selection.single_feature_ap(
            train, y_train, test, y_test, binned=binned, **kwargs)
        assert np.array_equal(fresh, shared)

    def test_unknown_backend_rejected(self, rng):
        train, y_train, test, y_test = self._world(rng, n=100)
        with pytest.raises(ValueError):
            selection.single_feature_ap(
                train, y_train, test, y_test, n=20, backend="xgboost")


class TestPredictorAndLifecycle:
    def test_predictor_hist_end_to_end(self, small_result, small_split):
        from repro.core.predictor import PredictorConfig, TicketPredictor

        kwargs = dict(capacity=60, train_rounds=20, selection_rounds=2)
        exact = TicketPredictor(PredictorConfig(**kwargs)).fit(
            small_result, small_split)
        hist = TicketPredictor(PredictorConfig(backend="hist", **kwargs)).fit(
            small_result, small_split)
        assert hist.config.backend == "hist"
        assert hist.model is not None
        # Shared pre-binning: selection and the final train agree with the
        # exact pipeline on which features matter.
        overlap = set(hist.feature_names) & set(exact.feature_names)
        assert len(overlap) >= len(exact.feature_names) * 0.6
        # Round-trip keeps the backend provenance.
        restored = TicketPredictor.from_dict(hist.to_dict())
        assert restored.config == hist.config
        assert restored.model.config == hist.model.config

    def test_train_challenger_backend_override(self, small_result):
        from repro.core.pipeline import NevermindPipeline, PipelineConfig
        from repro.core.predictor import PredictorConfig

        pipeline = NevermindPipeline(
            small_result.config,
            PipelineConfig(
                warmup_weeks=13,
                predictor=PredictorConfig(
                    capacity=40, horizon_weeks=3, train_rounds=10,
                    selection_rounds=2, include_derived=False,
                ),
            ),
        )
        pipeline.simulator.run(16)
        challenger = pipeline.train_challenger(15, backend="hist")
        assert challenger.config.backend == "hist"
        assert challenger.model.config.backend == "hist"
        # The pipeline's own config is untouched.
        assert pipeline.config.predictor.backend == "exact"

    def test_lifecycle_config_backend_knobs(self):
        from repro.lifecycle.config import CHALLENGER_BACKEND, LifecycleConfig

        # Challengers train on one backend, a constant, not a setting.
        assert CHALLENGER_BACKEND == "hist"
        assert not any("challenger" in key for key in LifecycleConfig().to_dict())
        with pytest.raises(TypeError):
            LifecycleConfig(challenger_backend="exact")
