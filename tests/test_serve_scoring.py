"""Sharded scoring engine: parity with the batch predictor, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import split_shards
from repro.serve import ModelBundle, ScoringEngine, StoredWorld


@pytest.fixture(scope="module")
def engine(small_predictor, small_store):
    return ScoringEngine(
        ModelBundle(predictor=small_predictor),
        StoredWorld(small_store),
        shard_size=257,  # deliberately odd: shards must not matter
        model_version="v0001",
    )


class TestSplitShards:
    def test_covers_the_range_contiguously(self):
        shards = split_shards(10, 3)
        assert shards == [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 10)]

    def test_empty_and_oversized(self):
        assert split_shards(0, 4) == []
        assert split_shards(3, 100) == [slice(0, 3)]

    def test_validation(self):
        with pytest.raises(ValueError):
            split_shards(5, 0)
        with pytest.raises(ValueError):
            split_shards(-1, 4)


class TestParity:
    def test_scores_bit_identical_to_batch_predictor(
        self, engine, small_predictor, small_result, small_store
    ):
        for week in (small_store.latest_week, small_store.latest_week - 3):
            served = engine.score_week(week).scores
            batch = small_predictor.score_week(small_result, week)
            assert np.array_equal(served, batch)

    def test_dispatch_matches_predict_top(
        self, engine, small_predictor, small_result, small_store
    ):
        week = small_store.latest_week
        dispatch = engine.dispatch(week)
        expected = small_predictor.predict_top(small_result, week)
        assert np.array_equal(dispatch.line_ids, expected)
        assert len(dispatch) == small_predictor.config.capacity
        assert dispatch.model_version == "v0001"
        # ranked best-first
        assert np.all(np.diff(dispatch.scores) <= 0)

    def test_dispatch_capacity_override(self, engine, small_store):
        week = small_store.latest_week
        full = engine.dispatch(week)
        top5 = engine.dispatch(week, capacity=5)
        assert np.array_equal(top5.line_ids, full.line_ids[:5])

    def test_locate_matches_locator_posteriors(
        self, small_predictor, small_store, small_locator
    ):
        locator = small_locator
        engine = ScoringEngine(
            ModelBundle(predictor=small_predictor, locator=locator),
            StoredWorld(small_store),
        )
        week = small_store.latest_week
        ranking = engine.locate(week, line_id=3, top_k=5)
        base = engine.base_features(week)
        probs = locator.predict_proba(base.matrix[3][None, :])[0]
        order = np.argsort(-probs, kind="stable")[:5]
        assert [r["disposition"] for r in ranking] == [int(c) for c in order]
        assert ranking[0]["posterior"] == pytest.approx(float(probs[order[0]]))
        assert all(r["name"] for r in ranking)


class TestDeterminism:
    def test_any_shard_size_gives_identical_scores(
        self, small_predictor, small_store
    ):
        week = small_store.latest_week
        world = StoredWorld(small_store)
        bundle = ModelBundle(predictor=small_predictor)
        reference = ScoringEngine(bundle, world, shard_size=10_000)
        baseline = reference.score_week(week).scores
        for shard_size in (1_000, 333, 97):
            engine = ScoringEngine(bundle, world, shard_size=shard_size)
            assert np.array_equal(engine.score_week(week).scores, baseline)

    def test_worker_count_does_not_change_scores(
        self, small_predictor, small_store, monkeypatch
    ):
        week = small_store.latest_week
        bundle = ModelBundle(predictor=small_predictor)
        for out_of_core in (False, True):
            world = StoredWorld(small_store, out_of_core=out_of_core)
            results = []
            for workers in ("1", "4"):
                monkeypatch.setenv("REPRO_WORKERS", workers)
                engine = ScoringEngine(bundle, world, shard_size=199)
                results.append(engine.score_week(week).scores)
            assert np.array_equal(results[0], results[1]), (
                f"out_of_core={out_of_core}"
            )

    def test_errors_on_unfitted_bundle(self, small_store, small_predictor):
        from repro import PredictorConfig, TicketPredictor

        empty = TicketPredictor(PredictorConfig())
        engine = ScoringEngine(
            ModelBundle(predictor=empty), StoredWorld(small_store)
        )
        with pytest.raises(RuntimeError):
            engine.score_week(small_store.latest_week)
        plain = ScoringEngine(
            ModelBundle(predictor=small_predictor), StoredWorld(small_store)
        )
        with pytest.raises(RuntimeError, match="locator"):
            plain.locate(small_store.latest_week, 0)
