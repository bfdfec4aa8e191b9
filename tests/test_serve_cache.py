"""The serve-side score cache and the explanation routes.

Covers the ScoreCache unit behaviour (version keying, LRU bound,
invalidation semantics), the ``/explain`` route and the enriched
``/dispatch?explain=1`` form, cache survival across reloads, listener-
driven invalidation on registry activate/rollback, and the bit-identity
of cached answers against a fresh uncached engine.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve import (
    ModelBundle,
    ModelRegistry,
    ScoreCache,
    ScoringEngine,
    ScoringService,
    StoredWorld,
)


@pytest.fixture(scope="module")
def service(small_store, small_predictor, small_locator, tmp_path_factory):
    registry_root = tmp_path_factory.mktemp("servecache") / "registry"
    registry = ModelRegistry(registry_root)
    registry.publish(
        ModelBundle(predictor=small_predictor, locator=small_locator,
                    meta={"gen": 1}),
        activate=True,
    )
    registry.publish(
        ModelBundle(predictor=small_predictor, locator=small_locator,
                    meta={"gen": 2}),
        activate=True,
    )
    return ScoringService(small_store.root, registry_root, shard_size=500)


class TestScoreCacheUnit:
    def test_version_keying(self):
        cache = ScoreCache(max_entries=4)
        cache.put("scores", 3, "v1", "entry-v1")
        assert cache.get("scores", 3, "v1") == "entry-v1"
        assert cache.get("scores", 3, "v2") is None
        assert cache.get("triage", 3, "v1") is None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2
        assert stats["hit_rate"] == pytest.approx(1 / 3)

    def test_lru_eviction_bound(self):
        cache = ScoreCache(max_entries=2)
        cache.put("scores", 0, "v", "a")
        cache.put("scores", 1, "v", "b")
        cache.get("scores", 0, "v")  # week 0 becomes most-recent
        cache.put("scores", 2, "v", "c")
        assert len(cache) == 2
        assert cache.peek("scores", 0, "v")
        assert not cache.peek("scores", 1, "v")
        assert cache.peek("scores", 2, "v")

    def test_peek_does_not_count_or_touch(self):
        cache = ScoreCache(max_entries=2)
        cache.put("scores", 0, "v", "a")
        cache.put("scores", 1, "v", "b")
        cache.peek("scores", 0, "v")  # must NOT refresh week 0
        cache.put("scores", 2, "v", "c")
        assert not cache.peek("scores", 0, "v")
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_invalidate_keeps_surviving_version(self):
        cache = ScoreCache()
        cache.put("scores", 0, "v1", "a")
        cache.put("triage", 0, "v1", "b")
        cache.put("scores", 0, "v2", "c")
        dropped = cache.invalidate(reason="test", keep_version="v2")
        assert dropped == 2
        assert cache.peek("scores", 0, "v2")
        assert not cache.peek("scores", 0, "v1")
        assert cache.invalidate(reason="test") == 1
        assert len(cache) == 0
        assert cache.stats()["invalidated"] == 3

    def test_unknown_kind_and_none_entry_rejected(self):
        cache = ScoreCache()
        with pytest.raises(ValueError):
            cache.put("margins", 0, "v", "x")
        with pytest.raises(ValueError):
            cache.put("scores", 0, "v", None)
        with pytest.raises(ValueError):
            ScoreCache(max_entries=0)


class TestExplainRoute:
    def test_two_stage_payload(self, service, small_store):
        week = small_store.latest_week
        status, dispatch = service.dispatch_request(
            "GET", f"/dispatch?week={week}")
        assert status == 200
        line = dispatch["line_ids"][0]
        status, payload = service.dispatch_request(
            "GET", f"/explain?line={line}&week={week}&top=4")
        assert status == 200
        assert payload["line"] == line and payload["week"] == week
        assert payload["model_version"] == "v0002"
        assert payload["attribution_exact"] is True
        assert len(payload["attributions"]) == 4
        assert payload["attributions"][0]["rank"] == 1
        assert payload["disposition"] is not None
        assert payload["ranking"] and payload["next_steps"]
        assert payload["p_ticket"] == dispatch["scores"][0]
        assert 0.0 <= payload["p_ticket"] <= 1.0
        rendered = payload["rendered"]
        assert "=== diagnostic summary ===" in rendered
        assert "=== technician next steps ===" in rendered
        # The served margin must calibrate back to the served score.
        calibrator = service.engine.bundle.predictor.model.calibrator
        calibrated = float(
            calibrator.transform(np.array([payload["margin"]]))[0]
        )
        assert calibrated == payload["p_ticket"]

    def test_error_statuses(self, service):
        cases = {
            "/explain": 400,                    # missing line param
            "/explain?line=abc": 400,           # non-integer
            "/explain?line=999999": 404,        # out of range
            "/explain?line=0&top=0": 400,       # top floor
            "/explain?line=0&week=9999": 404,   # unknown week
            "/locate?line=0&top=0": 400,        # top floor
            "/locate?lines=0,1&top=-1": 400,    # top floor, batched
        }
        for path, expected in cases.items():
            status, payload = service.dispatch_request("GET", path)
            assert status == expected, path
            assert "error" in payload

    def test_request_metrics_counted(self, service):
        service.dispatch_request("GET", "/explain?line=1")
        status, metrics = service.dispatch_request("GET", "/metrics")
        assert status == 200
        assert metrics["requests"]["/explain"] >= 1

    def test_dispatch_explain_flag(self, service, small_store):
        week = small_store.latest_week
        status, plain = service.dispatch_request(
            "GET", f"/dispatch?week={week}")
        assert "attributions" not in plain
        status, enriched = service.dispatch_request(
            "GET", f"/dispatch?week={week}&explain=1&top=2")
        assert status == 200
        assert enriched["line_ids"] == plain["line_ids"]
        attributions = enriched["attributions"]
        assert len(attributions) == len(enriched["line_ids"])
        for line_id, score, att in zip(
            enriched["line_ids"], enriched["scores"], attributions
        ):
            assert att["line"] == line_id
            assert att["p_ticket"] == score
            assert len(att["contributions"]) == 2
            assert att["contributions"][0]["rank"] == 1
        status, _ = service.dispatch_request(
            "GET", f"/dispatch?week={week}&explain=1&top=0")
        assert status == 400


class TestCacheBehaviour:
    def test_repeat_read_hits_shared_cache(self, service, small_store):
        week = small_store.latest_week
        service.dispatch_request("GET", f"/score?line=0&week={week}")
        assert service.cache.peek("scores", week, service.model_version)
        # Drop the engine-local dict: the repeat must come from the
        # shared cache (the path that survives reloads).
        service.engine._score_cache.clear()
        before = service.cache.stats()["hits"]
        status, _ = service.dispatch_request(
            "GET", f"/score?line=0&week={week}")
        assert status == 200
        assert service.cache.stats()["hits"] > before

    def test_reload_keeps_active_version_warm(self, service, small_store):
        week = small_store.latest_week
        service.dispatch_request("GET", f"/score?line=0&week={week}")
        version = service.model_version
        service.reload()
        assert service.model_version == version
        assert service.cache.peek("scores", week, version)
        assert service.engine.is_cached(week)
        before = service.cache.stats()["hits"]
        status, _ = service.dispatch_request(
            "GET", f"/score?line=0&week={week}")
        assert status == 200
        assert service.cache.stats()["hits"] > before

    def test_cached_dispatch_and_locate_bit_identical(
        self, service, small_store
    ):
        # Answers served through the warm cache must equal a fresh,
        # cache-less engine's answers bit-for-bit.
        week = small_store.latest_week
        service.dispatch_request("GET", f"/dispatch?week={week}")
        _, served_dispatch = service.dispatch_request(
            "GET", f"/dispatch?week={week}")
        _, served_locate = service.dispatch_request(
            "GET", f"/locate?line=5&week={week}")
        fresh = ScoringEngine(
            service.engine.bundle,
            StoredWorld(small_store),
            shard_size=500,
            model_version=service.model_version,
        )
        assert fresh.cache is None
        dispatch = fresh.dispatch(week)
        assert served_dispatch["line_ids"] == [int(i) for i in dispatch.line_ids]
        assert served_dispatch["scores"] == [float(s) for s in dispatch.scores]
        ranking = fresh.locate(week, 5)
        assert (
            json.dumps(served_locate["ranking"], sort_keys=True)
            == json.dumps(ranking, sort_keys=True)
        )

    def test_rollback_and_activate_invalidate(self, service, small_store):
        week = small_store.latest_week
        service.dispatch_request("GET", f"/dispatch?week={week}")
        assert service.cache.peek("scores", week, "v0002")

        # Rollback fires the registry listener: v0002 entries go, and
        # after the reload the first v0001 read is a fresh scoring run.
        assert service.registry.rollback() == "v0001"
        assert not service.cache.peek("scores", week, "v0002")
        service.reload()
        assert service.model_version == "v0001"
        assert not service.engine.is_cached(week)
        service.dispatch_request("GET", f"/score?line=0&week={week}")
        assert service.cache.peek("scores", week, "v0001")

        # Re-activating v0002 invalidates v0001's entries in turn.
        service.registry.activate("v0002")
        assert not service.cache.peek("scores", week, "v0001")
        service.reload()
        assert service.model_version == "v0002"
