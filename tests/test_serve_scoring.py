"""Sharded scoring engine: parity with the batch predictor, determinism."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.measurement.records import N_FEATURES
from repro.netsim.population import PopulationConfig
from repro.parallel import split_shards
from repro.serve import (
    LineWeekStore,
    ModelBundle,
    ModelRegistry,
    ScoringEngine,
    ScoringService,
    StoredWorld,
)
from repro.serve.store import _StoredTicketView


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
        base = engine.world.encode_week(week, small_predictor.encoder)
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
        world = StoredWorld(small_store)
        results = []
        for workers in ("1", "4"):
            monkeypatch.setenv("REPRO_WORKERS", workers)
            engine = ScoringEngine(bundle, world, shard_size=199)
            results.append(engine.score_week(week).scores)
        assert np.array_equal(results[0], results[1])

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


class TestRowPath:
    """``locate``, ``explain`` and the dispatch payloads encode only their
    lines; each answer equals the same computation on rows of the
    whole-week encoding: one pass over a dense cube the test assembles
    from the stored week matrices, or the world's chunked out-of-core
    ``encode_week``."""

    ID_SETS = (
        [1717, 4, 980],      # unsorted
        [5, 3, 5],           # duplicates, answered in request order
        [0, 2499],           # the first and the last line
        [40, 41, 42, 1300, 1301],  # two contiguous runs
    )

    @pytest.fixture(scope="class", params=["dense", "ooc"])
    def setup(self, request, small_store, small_predictor, small_locator,
              dense_measurements):
        world = StoredWorld(small_store)
        engine = ScoringEngine(
            ModelBundle(predictor=small_predictor, locator=small_locator),
            world, shard_size=700, model_version="vrow",
        )
        week = small_store.latest_week
        if request.param == "dense":
            base = small_predictor.encoder.encode(
                dense_measurements(small_store), week, world.population(),
                _StoredTicketView(
                    small_store.last_ticket_day(week), small_store.day_of(week)
                ),
            )
        else:
            base = world.encode_week(week, small_predictor.encoder)
        return engine, week, base.matrix

    @staticmethod
    def _rankings(locator, rows, top_k):
        from repro.tickets.dispatch import Dispatcher

        out = []
        for probs in locator.predict_proba(rows):
            order = np.argsort(-probs, kind="stable")[:top_k]
            out.append([
                {"rank": r + 1, "disposition": int(c),
                 "name": Dispatcher.disposition_name(int(c)),
                 "posterior": float(probs[c])}
                for r, c in enumerate(order)
            ])
        return out

    def test_locate_equals_whole_week_rows(self, setup, small_locator):
        engine, week, matrix = setup
        assert engine.world.n_lines == 2500
        for ids in self.ID_SETS:
            expected = self._rankings(small_locator, matrix[ids], 6)
            assert engine.locate_batch(week, ids, top_k=6) == expected
            for line, ranking in zip(ids, expected):
                assert engine.locate(week, line, top_k=6) == ranking

    def test_explain_equals_whole_week_rows(
        self, setup, small_predictor, small_locator
    ):
        from repro.explain.report import build_report

        engine, week, matrix = setup
        scored = engine.score_week(week)
        for line in sorted({i for ids in self.ID_SETS for i in ids}):
            report = engine.explain(week, line, top_k=4)
            expected = build_report(
                line=line, week=week, day=scored.day,
                model_version="vrow", predictor=small_predictor,
                base_row=matrix[line], p_ticket=float(scored.scores[line]),
                topology=engine.world.population().topology,
                ranking=self._rankings(small_locator, matrix[[line]], 3)[0],
                top_k=4,
            )
            assert report.margin == expected.margin
            assert report.attributions == expected.attributions
            assert report.ranking == expected.ranking
            assert report.to_dict() == expected.to_dict()

    def test_payloads_equal_whole_week_rows(self, setup, small_predictor):
        from repro.explain.attribution import (
            assemble_model_row,
            attribute_ensemble,
        )

        engine, week, matrix = setup
        compiled = small_predictor.model.compiled()
        scores = engine.score_week(week).scores
        for ids in self.ID_SETS:
            payloads = engine.attribution_payloads(week, ids, top_k=3)
            assert [p["line"] for p in payloads] == ids
            for line, payload in zip(ids, payloads):
                attribution = attribute_ensemble(
                    compiled,
                    assemble_model_row(matrix[line], small_predictor.recipes),
                    names=small_predictor.feature_names,
                )
                assert payload == {
                    "line": line,
                    "p_ticket": float(scores[line]),
                    "margin": attribution.margin,
                    "contributions": [
                        c.to_dict() for c in attribution.top(3)
                    ],
                }
        assert engine.attribution_payloads(week, []) == []

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_locate_needs_a_positive_top(self, setup, top_k):
        engine, week, _ = setup
        with pytest.raises(ValueError, match="top_k"):
            engine.locate(week, 3, top_k=top_k)
        with pytest.raises(ValueError, match="top_k"):
            engine.locate_batch(week, [3, 4], top_k=top_k)

    @pytest.mark.parametrize("line", [-1, 2500])
    def test_out_of_range_lines_raise(self, setup, line):
        engine, week, _ = setup
        with pytest.raises(IndexError):
            engine.locate_batch(week, [3, line])
        with pytest.raises(IndexError):
            engine.explain(week, line)
        with pytest.raises(IndexError):
            engine.attribution_payloads(week, [3, line])


class TestMemoryBound:
    """Scoring memory follows the shard, not the plant, for a default
    ``StoredWorld`` and for a cold ``/explain`` on a fresh service."""

    SHARD = 256
    WEEKS = 12

    def _world(self, root, n_lines, rng):
        store = LineWeekStore.create(
            root / f"store-{n_lines}", n_lines,
            PopulationConfig(n_lines=n_lines, seed=1),
        )
        for week in range(self.WEEKS):
            day = week * 7 + 5
            features = rng.normal(10.0, 3.0, size=(n_lines, N_FEATURES))
            store.append_week(
                week, day, features, rng.integers(-1, day, size=n_lines)
            )
        world = StoredWorld(store)
        world.population()  # the plant rebuild is cached, not per run
        return world

    @staticmethod
    def _peak_bytes(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _assert_per_line_growth_small(self, peak, tmp_path):
        """``peak(world)`` grows far slower per line than the history."""
        rng = np.random.default_rng(0)
        small = self._world(tmp_path, 4 * self.SHARD, rng)
        large = self._world(tmp_path, 16 * self.SHARD, rng)
        peak(small)  # warm lazy state off the books
        growth = peak(large) - peak(small)
        per_line = growth / (large.n_lines - small.n_lines)
        history_per_line = self.WEEKS * N_FEATURES * 4
        # Only per-line vectors (margins, scores) scale with the plant;
        # a whole-plant cube would add all of ``history_per_line``.
        assert per_line < 0.1 * history_per_line, (per_line, history_per_line)

    def test_peak_grows_far_slower_than_stored_history(
        self, small_predictor, tmp_path
    ):
        bundle = ModelBundle(predictor=small_predictor)

        def peak(world):
            engine = ScoringEngine(
                bundle, world, shard_size=self.SHARD, workers=1
            )
            return self._peak_bytes(lambda: engine.score_week(self.WEEKS - 1))

        self._assert_per_line_growth_small(peak, tmp_path)

    def test_cold_explain_peak_grows_far_slower_than_stored_history(
        self, small_predictor, tmp_path
    ):
        registry_root = tmp_path / "registry"
        ModelRegistry(registry_root).publish(
            ModelBundle(predictor=small_predictor), activate=True
        )
        query = f"/explain?line=0&week={self.WEEKS - 1}"

        def peak(world):
            service = ScoringService(
                world.store.root, registry_root, shard_size=self.SHARD,
                workers=1,
            )
            service.world.population()

            def explain():
                status, _ = service.dispatch_request("GET", query)
                assert status == 200

            return self._peak_bytes(explain)

        self._assert_per_line_growth_small(peak, tmp_path)
