"""Unit tests for the BStump booster (repro.ml.boostexter)."""

import numpy as np
import pytest

from repro.ml.boostexter import BStump, BStumpConfig
from repro.ml.metrics import auc
from repro.obs.metrics import MetricsRegistry, set_registry


def make_problem(rng, n=1500, n_features=6, noise=0.3):
    X = rng.normal(size=(n, n_features))
    y = (X[:, 0] + 0.8 * X[:, 1] + noise * rng.normal(size=n) > 0).astype(int)
    return X, y


class TestFit:
    def test_learns_linear_boundary(self, rng):
        X, y = make_problem(rng)
        model = BStump(BStumpConfig(n_rounds=80)).fit(X, y)
        assert auc(y, model.decision_function(X)) > 0.9

    def test_accepts_plus_minus_labels(self, rng):
        X, y = make_problem(rng)
        model = BStump(BStumpConfig(n_rounds=20)).fit(X, np.where(y > 0, 1.0, -1.0))
        assert auc(y, model.decision_function(X)) > 0.8

    @pytest.mark.parametrize("backend", ["exact", "hist"])
    def test_round_metrics_count_the_rounds_trained(self, rng, backend):
        X, y = make_problem(rng, n=300)
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            config = BStumpConfig(n_rounds=15, backend=backend)
            first = BStump(config).fit(X, y)
            second = BStump(config).fit(X[:200], y[:200])
        finally:
            set_registry(previous)
        rounds = len(first.learners) + len(second.learners)
        snapshot = registry.snapshot()
        [total] = snapshot["repro_train_rounds_total"]["samples"]
        assert total["value"] == rounds
        [seconds] = snapshot["repro_train_round_seconds"]["samples"]
        assert seconds["count"] == rounds
        [z] = snapshot["repro_train_round_z"]["samples"]
        assert z["count"] == rounds
        expected_sum = 0.0
        for value in first.train_z_ + second.train_z_:
            expected_sum += value
        assert z["sum"] == expected_sum

    def test_rejects_weird_labels(self, rng):
        X, _ = make_problem(rng, n=50)
        with pytest.raises(ValueError):
            BStump().fit(X, np.full(50, 2.0))

    def test_rejects_single_class(self, rng):
        X, _ = make_problem(rng, n=50)
        with pytest.raises(ValueError):
            BStump().fit(X, np.zeros(50))

    def test_rejects_shape_mismatch(self, rng):
        X, y = make_problem(rng, n=50)
        with pytest.raises(ValueError):
            BStump().fit(X, y[:-1])

    def test_training_z_decreasing_early(self, rng):
        X, y = make_problem(rng)
        model = BStump(BStumpConfig(n_rounds=30)).fit(X, y)
        # The first round grabs the strongest stump; later ones are weaker.
        assert model.train_z_[0] <= min(model.train_z_[1:]) + 0.2

    def test_handles_missing_values(self, rng):
        X, y = make_problem(rng)
        X[rng.random(X.shape) < 0.2] = np.nan
        model = BStump(BStumpConfig(n_rounds=60)).fit(X, y)
        assert auc(y, model.decision_function(X)) > 0.8

    def test_sample_weight_shifts_model(self, rng):
        X, y = make_problem(rng, n=400)
        heavy = np.where(y > 0, 10.0, 0.1)
        model = BStump(BStumpConfig(n_rounds=10)).fit(X, y, sample_weight=heavy)
        # Up-weighting positives pushes the average margin up.
        base = BStump(BStumpConfig(n_rounds=10)).fit(X, y)
        assert model.decision_function(X).mean() > base.decision_function(X).mean()

    def test_rejects_negative_sample_weight(self, rng):
        X, y = make_problem(rng, n=60)
        with pytest.raises(ValueError):
            BStump().fit(X, y, sample_weight=np.full(60, -1.0))

    @pytest.mark.parametrize(
        "fill, match",
        [
            (0.0, "positive finite total"),
            (np.nan, "finite"),
            (np.inf, "finite"),
            (-np.inf, "finite"),
        ],
        ids=["all-zero", "all-nan", "all-inf", "all-minus-inf"],
    )
    @pytest.mark.parametrize("backend", ["exact", "hist"])
    def test_rejects_degenerate_sample_weight(self, rng, fill, match, backend):
        # Each once returned a one-learner model with z = nan and NaN
        # margins instead of failing.
        X, y = make_problem(rng, n=60)
        with pytest.raises(ValueError, match=match):
            BStump(BStumpConfig(backend=backend)).fit(
                X, y, sample_weight=np.full(60, fill)
            )

    def test_rejects_one_non_finite_sample_weight(self, rng):
        X, y = make_problem(rng, n=60)
        weights = np.ones(60)
        weights[7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            BStump().fit(X, y, sample_weight=weights)

    def test_rejects_overflowing_sample_weight_total(self, rng):
        X, y = make_problem(rng, n=60)
        with pytest.raises(ValueError, match="positive finite total"):
            BStump().fit(X, y, sample_weight=np.full(60, 1e308))

    def test_early_stop_on_constant_features(self, rng):
        # A constant feature admits no informative split: Z stays ~1 and
        # boosting stops instead of spinning for all requested rounds.
        X = np.ones((400, 2))
        y = rng.integers(0, 2, size=400)
        model = BStump(BStumpConfig(n_rounds=500)).fit(X, y)
        assert len(model.learners) < 10


class TestPredict:
    def test_margin_and_proba_agree_in_ranking(self, rng):
        X, y = make_problem(rng)
        model = BStump(BStumpConfig(n_rounds=40)).fit(X, y)
        margin = model.decision_function(X)
        proba = model.predict_proba(X)
        assert np.all(np.argsort(margin) == np.argsort(proba))

    def test_proba_in_unit_interval(self, rng):
        X, y = make_problem(rng)
        model = BStump(BStumpConfig(n_rounds=40)).fit(X, y)
        p = model.predict_proba(X)
        assert np.all((p >= 0) & (p <= 1))

    def test_mean_proba_tracks_base_rate(self, rng):
        X, y = make_problem(rng)
        model = BStump(BStumpConfig(n_rounds=40)).fit(X, y)
        assert abs(model.predict_proba(X).mean() - y.mean()) < 0.05

    def test_hard_predict_labels(self, rng):
        X, y = make_problem(rng)
        model = BStump(BStumpConfig(n_rounds=60)).fit(X, y)
        labels = model.predict(X)
        assert set(np.unique(labels)) <= {-1.0, 1.0}
        agreement = np.mean((labels > 0) == (y > 0))
        assert agreement > 0.85

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            BStump().decision_function(np.zeros((1, 2)))

    def test_wrong_width_raises(self, rng):
        X, y = make_problem(rng, n=200)
        model = BStump(BStumpConfig(n_rounds=5)).fit(X, y)
        with pytest.raises(ValueError):
            model.decision_function(X[:, :3])

    def test_no_calibration_mode(self, rng):
        X, y = make_problem(rng, n=200)
        model = BStump(BStumpConfig(n_rounds=5, calibrate=False)).fit(X, y)
        with pytest.raises(RuntimeError):
            model.predict_proba(X)


class TestIntrospection:
    def test_explain_sums_to_margin(self, rng):
        X, y = make_problem(rng, n=300)
        model = BStump(BStumpConfig(n_rounds=25)).fit(X, y)
        contributions = model.explain(X[0], top_k=X.shape[1])
        total = sum(v for _, v in contributions)
        assert total == pytest.approx(float(model.decision_function(X[:1])[0]))

    def test_explain_validates_shape(self, rng):
        X, y = make_problem(rng, n=100)
        model = BStump(BStumpConfig(n_rounds=5)).fit(X, y)
        with pytest.raises(ValueError):
            model.explain(X[0][:3])


class TestLabelNoiseRobustness:
    def test_still_learns_under_flip_noise(self, rng):
        """The paper's argument for a linear model: mislabeled negatives
        (unreported problems) should not destroy the ranking."""
        X, y = make_problem(rng, n=3000, noise=0.1)
        flipped = y.copy()
        flip = (rng.random(3000) < 0.3) & (y == 1)  # hide 30% of positives
        flipped[flip] = 0
        model = BStump(BStumpConfig(n_rounds=60)).fit(X, flipped)
        assert auc(y, model.decision_function(X)) > 0.85
