"""Tests for TicketPredictor serialization (deploy-host round trips)."""

import json

import numpy as np
import pytest

from repro.core.predictor import (
    ADAPTIVE_FRACTION,
    MIN_SELECTED,
    PredictorConfig,
    TicketPredictor,
)
from repro.ml.binning import DEFAULT_MAX_BINS


@pytest.fixture(scope="module")
def fitted_predictor(request):
    result = request.getfixturevalue("small_result")
    split = request.getfixturevalue("small_split")
    config = PredictorConfig(
        capacity=50, horizon_weeks=3, train_rounds=30, selection_rounds=3,
        product_pool=6,
    )
    return result, TicketPredictor(config).fit(result, split)


class TestPredictorPersistence:
    def test_roundtrip_scores_identical(self, fitted_predictor):
        result, predictor = fitted_predictor
        payload = predictor.to_dict()
        json.dumps(payload)  # plain JSON
        clone = TicketPredictor.from_dict(payload)
        week = int(result.measurements.filled_weeks[-1])
        assert np.allclose(
            clone.score_week(result, week), predictor.score_week(result, week)
        )

    def test_recipes_preserved(self, fitted_predictor):
        _, predictor = fitted_predictor
        clone = TicketPredictor.from_dict(predictor.to_dict())
        assert clone.recipes.base_indices == predictor.recipes.base_indices
        assert clone.recipes.quad_indices == predictor.recipes.quad_indices
        assert clone.recipes.product_pairs == predictor.recipes.product_pairs
        assert clone.feature_names == predictor.feature_names

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            TicketPredictor().to_dict()

    def test_bad_version_rejected(self, fitted_predictor):
        _, predictor = fitted_predictor
        payload = predictor.to_dict()
        payload["format_version"] = 9
        with pytest.raises(ValueError):
            TicketPredictor.from_dict(payload)

    def test_writes_every_v1_config_key(self, fitted_predictor):
        _, predictor = fitted_predictor
        config = predictor.to_dict()["config"]
        assert config == {
            "capacity": 50, "horizon_weeks": 3, "selection_rounds": 3,
            "train_rounds": 30, "base_threshold": None,
            "quadratic_threshold": None, "product_threshold": None,
            "adaptive_fraction": ADAPTIVE_FRACTION, "product_pool": 6,
            "include_derived": True, "min_selected": MIN_SELECTED,
            "backend": "exact", "n_bins": DEFAULT_MAX_BINS,
        }
        assert list(config)[4:8] == [
            "base_threshold", "quadratic_threshold", "product_threshold",
            "adaptive_fraction",
        ]
        assert TicketPredictor.from_dict(predictor.to_dict()).config \
            == predictor.config

    @pytest.mark.parametrize("key, value", [
        ("base_threshold", 0.2), ("quadratic_threshold", 0.2),
        ("product_threshold", 0.3), ("adaptive_fraction", 0.5),
        ("min_selected", 3), ("n_bins", 64),
    ])
    def test_retired_key_at_another_value_is_refused(
        self, fitted_predictor, key, value
    ):
        _, predictor = fitted_predictor
        payload = predictor.to_dict()
        payload["config"][key] = value
        with pytest.raises(ValueError, match=key):
            TicketPredictor.from_dict(payload)
