"""Tests for the ticket predictor (repro.core.predictor)."""

import numpy as np
import pytest

from repro.core.analysis import evaluate_predictions
from repro.core.predictor import PredictorConfig, TicketPredictor


@pytest.fixture(scope="module")
def fitted(request):
    result = request.getfixturevalue("small_result")
    split = request.getfixturevalue("small_split")
    config = PredictorConfig(
        capacity=60, horizon_weeks=3, train_rounds=60, selection_rounds=3,
        product_pool=8,
    )
    predictor = TicketPredictor(config).fit(result, split)
    return result, split, predictor


class TestFit:
    def test_selects_features(self, fitted):
        _, _, predictor = fitted
        assert len(predictor.recipes.base_indices) >= predictor.config.min_selected
        assert len(predictor.feature_names) == predictor.recipes.n_columns
        assert predictor.model is not None

    def test_selection_scores_recorded(self, fitted):
        _, _, predictor = fitted
        assert "base" in predictor.selection_scores_
        assert "quadratic" in predictor.selection_scores_
        assert "product" in predictor.selection_scores_
        assert len(predictor.selection_scores_["base"]) == 83

    def test_unfitted_predictor_raises(self, small_result):
        predictor = TicketPredictor()
        with pytest.raises(RuntimeError):
            predictor.score_week(small_result, 10)


class TestRanking:
    def test_scores_are_probabilities(self, fitted):
        result, split, predictor = fitted
        scores = predictor.score_week(result, split.test_weeks[0])
        assert scores.shape == (result.n_lines,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_rank_is_permutation(self, fitted):
        result, split, predictor = fitted
        ranked = predictor.rank_week(result, split.test_weeks[0])
        assert sorted(ranked) == list(range(result.n_lines))

    def test_predict_top_respects_capacity(self, fitted):
        result, split, predictor = fitted
        top = predictor.predict_top(result, split.test_weeks[0])
        assert len(top) == predictor.config.capacity

    def test_beats_random_baseline(self, fitted):
        """The core claim: ranked predictions concentrate future tickets."""
        result, split, predictor = fitted
        week = split.test_weeks[0]
        outcome = evaluate_predictions(result, predictor.rank_week(result, week),
                                       week, horizon_weeks=3)
        base_rate = float(np.mean(outcome.hits))
        top_accuracy = outcome.accuracy_at(predictor.config.capacity)
        # At this deliberately tiny scale (2.5k lines, 60 rounds) we ask
        # for a 2x concentration; the benchmark world asserts more.
        assert top_accuracy > 2 * base_rate

    def test_top_ranks_concentrate_active_faults(self, fitted):
        result, split, predictor = fitted
        week = split.test_weeks[0]
        top = predictor.predict_top(result, week)
        day = int(result.measurements.saturday_day[week])
        active = result.fault_active_on(day)
        assert np.mean(active[top]) > 3 * np.mean(active)


class TestDerivedToggle:
    def test_without_derived_features(self, small_result, small_split):
        config = PredictorConfig(
            capacity=60, horizon_weeks=3, train_rounds=30, selection_rounds=3,
            include_derived=False,
        )
        predictor = TicketPredictor(config).fit(small_result, small_split)
        assert predictor.recipes.quad_indices == []
        assert predictor.recipes.product_pairs == []
        scores = predictor.score_week(small_result, small_split.test_weeks[0])
        assert np.all(np.isfinite(scores))


class TestDatasetInterface:
    def test_fit_datasets_direct(self, small_result, small_split):
        from repro.data.joins import build_ticket_dataset
        train = build_ticket_dataset(small_result, small_split.train_weeks,
                                     horizon_weeks=3)
        sel = build_ticket_dataset(small_result, small_split.selection_weeks,
                                   horizon_weeks=3)
        config = PredictorConfig(capacity=60, train_rounds=20,
                                 selection_rounds=3, include_derived=False)
        predictor = TicketPredictor(config).fit_datasets(train, sel)
        assert predictor.model is not None

    def test_misaligned_datasets_rejected(self, small_result, small_split):
        from repro.data.joins import build_ticket_dataset
        train = build_ticket_dataset(small_result, small_split.train_weeks,
                                     horizon_weeks=3)
        sel = build_ticket_dataset(small_result, small_split.selection_weeks,
                                   horizon_weeks=3)
        sel.features = sel.features.subset(list(range(10)))
        with pytest.raises(ValueError):
            TicketPredictor(PredictorConfig(capacity=60)).fit_datasets(train, sel)


@pytest.mark.parametrize("capacity", [0, -3])
def test_non_positive_capacity_is_rejected(capacity):
    with pytest.raises(ValueError, match="capacity must be positive"):
        PredictorConfig(capacity=capacity)
