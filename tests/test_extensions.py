"""Tests for the extension modules: churn, serialization."""

import json

import numpy as np
import pytest

from repro.ml.boostexter import BStump, BStumpConfig
from repro.ml.serialize import (
    bstump_from_dict,
    bstump_to_dict,
    load_bstump,
    save_bstump,
)
from repro.tickets.churn import ChurnConfig, estimate_churn


class TestChurn:
    def test_report_structure(self, small_result):
        report = estimate_churn(small_result)
        assert report.dissatisfaction.shape == (small_result.n_lines,)
        assert 0.0 <= report.churn_rate <= 1.0
        assert report.expected_churners >= 0

    def test_problem_days_track_fault_events(self, small_result):
        report = estimate_churn(small_result)
        lines_with_faults = {e.line_id for e in small_result.fault_events}
        with_faults = report.problem_days[list(lines_with_faults)]
        assert np.all(with_faults >= 0)
        assert with_faults.sum() > 0
        untouched = np.setdiff1d(
            np.arange(small_result.n_lines), list(lines_with_faults)
        )
        assert np.all(report.problem_days[untouched] == 0)

    def test_churn_increases_with_dissatisfaction_weight(self, small_result):
        low = estimate_churn(small_result, ChurnConfig(problem_day_weight=0.001))
        high = estimate_churn(small_result, ChurnConfig(problem_day_weight=0.1))
        assert high.expected_churners > low.expected_churners

    def test_baseline_churn_positive(self, small_result):
        config = ChurnConfig(problem_day_weight=0.0, repeat_ticket_weight=0.0)
        report = estimate_churn(small_result, config)
        expected_baseline = small_result.n_lines * (
            1 - (1 - config.base_weekly_hazard) ** small_result.config.n_weeks
        )
        assert report.expected_churners == pytest.approx(expected_baseline, rel=1e-6)


class TestSerialization:
    @pytest.fixture()
    def model(self, rng):
        X = rng.normal(size=(600, 5))
        X[rng.random(X.shape) < 0.1] = np.nan
        y = (np.nan_to_num(X[:, 0]) > 0.3).astype(float)
        return BStump(BStumpConfig(n_rounds=25)).fit(X, y), X

    def test_roundtrip_preserves_predictions(self, model):
        fitted, X = model
        clone = bstump_from_dict(bstump_to_dict(fitted))
        assert np.allclose(
            clone.decision_function(X), fitted.decision_function(X)
        )
        assert np.allclose(clone.predict_proba(X), fitted.predict_proba(X))

    def test_json_file_roundtrip(self, model, tmp_path):
        fitted, X = model
        path = tmp_path / "model.json"
        save_bstump(fitted, path)
        clone = load_bstump(path)
        assert np.allclose(
            clone.decision_function(X), fitted.decision_function(X)
        )

    def test_payload_is_plain_json(self, model):
        fitted, _ = model
        payload = bstump_to_dict(fitted)
        json.dumps(payload)  # must not raise
        assert payload["format_version"] == 1
        assert len(payload["learners"]) == len(fitted.learners)

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            bstump_to_dict(BStump())

    def test_bad_version_rejected(self, model):
        fitted, _ = model
        payload = bstump_to_dict(fitted)
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            bstump_from_dict(payload)

    def test_uncalibrated_roundtrip(self, rng):
        X = rng.normal(size=(200, 3))
        y = (X[:, 1] > 0).astype(float)
        fitted = BStump(BStumpConfig(n_rounds=5, calibrate=False)).fit(X, y)
        clone = bstump_from_dict(bstump_to_dict(fitted))
        assert clone.calibrator is None
        assert np.allclose(
            clone.decision_function(X), fitted.decision_function(X)
        )
