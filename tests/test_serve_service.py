"""The HTTP scoring service: routing, endpoints, reload semantics."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import ModelBundle, ModelRegistry, ScoringService, make_server


@pytest.fixture(scope="module")
def service(small_store, small_predictor, tmp_path_factory):
    registry_root = tmp_path_factory.mktemp("serve") / "registry"
    registry = ModelRegistry(registry_root)
    registry.publish(
        ModelBundle(predictor=small_predictor, meta={"gen": 1}), activate=True
    )
    registry.publish(
        ModelBundle(predictor=small_predictor, meta={"gen": 2}), activate=True
    )
    return ScoringService(small_store.root, registry_root, shard_size=500)


class TestRouting:
    """Drive the service directly (no sockets) through dispatch_request."""

    def test_healthz(self, service, small_store):
        status, payload = service.dispatch_request("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model_version"] == "v0002"
        assert payload["latest_week"] == small_store.latest_week

    def test_dispatch_defaults_to_latest_week(
        self, service, small_predictor, small_result, small_store
    ):
        status, payload = service.dispatch_request("GET", "/dispatch")
        assert status == 200
        assert payload["week"] == small_store.latest_week
        expected = small_predictor.predict_top(
            small_result, small_store.latest_week
        )
        assert payload["line_ids"] == [int(i) for i in expected]
        assert payload["model_version"] == "v0002"

    def test_score_single_line(self, service, small_store):
        week = small_store.latest_week
        status, dispatch = service.dispatch_request("GET", "/dispatch")
        best = dispatch["line_ids"][0]
        status, payload = service.dispatch_request(
            "GET", f"/score?line={best}&week={week}"
        )
        assert status == 200
        assert payload["p_ticket"] == pytest.approx(dispatch["scores"][0])

    def test_metrics_track_requests_and_throughput(self, service):
        service.dispatch_request("GET", "/dispatch")
        status, payload = service.dispatch_request("GET", "/metrics")
        assert status == 200
        assert payload["requests"]["/dispatch"] >= 1
        assert payload["lines_scored"] > 0
        assert payload["mean_lines_per_sec"] > 0
        assert payload["model_version"] == "v0002"

    def test_error_statuses(self, service):
        cases = {
            "/score": 400,                      # missing line param
            "/score?line=abc": 400,             # non-integer
            "/score?line=10&week=9999": 404,    # unknown week
            "/score?line=-1": 404,              # out of range
            "/dispatch?capacity=-2": 400,
            "/locate?line=5": 409,              # bundle has no locator
            "/unknown": 404,
        }
        for path, expected in cases.items():
            status, payload = service.dispatch_request("GET", path)
            assert status == expected, path
            assert "error" in payload

    def test_lifecycle_status_route(self, service):
        status, payload = service.dispatch_request("GET", "/lifecycle")
        assert status == 200
        assert payload["active_version"] == service.model_version
        assert payload["versions"] == ["v0001", "v0002"]
        # No controller has run against this registry: the decision log
        # is empty (and trivially valid), but the registry's own event
        # trail already shows the publishes and activations.
        assert payload["decisions"] == []
        assert payload["chain_valid"] is True
        events = [e["action"] for e in payload["registry_events"]]
        assert "publish" in events and "activate" in events

    def test_health_reports_slo_status(self, service, small_store):
        service.dispatch_request("GET", "/dispatch")
        status, payload = service.dispatch_request("GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model_version"] == service.model_version
        assert payload["latest_week"] == small_store.latest_week
        names = {o["name"] for o in payload["objectives"]}
        assert names == {"score_latency", "dispatch_latency", "availability"}

    def test_unknown_routes_do_not_burn_error_budget(self, service):
        before = service.slo_monitor._pending_observations
        status, _ = service.dispatch_request("GET", "/favicon.ico")
        assert status == 404
        assert service.slo_monitor._pending_observations == before

    def test_known_routes_feed_the_slo_monitor(self, service):
        before = service.slo_monitor._pending_observations
        service.dispatch_request("GET", "/healthz")
        assert service.slo_monitor._pending_observations == before + 1

    def test_reload_follows_rollback(self, service):
        assert service.model_version == "v0002"
        service.registry.rollback()
        status, payload = service.dispatch_request("POST", "/reload")
        assert status == 200
        assert payload["model_version"] == "v0001"
        assert service.model_version == "v0001"
        # restore for other tests in this module
        service.registry.activate("v0002")
        service.reload()

    def test_reload_serves_another_handles_activation(
        self, small_store, small_predictor, tmp_path
    ):
        root = tmp_path / "registry"
        writer = ModelRegistry(root)
        writer.publish(
            ModelBundle(predictor=small_predictor, meta={"gen": 1}),
            activate=True,
        )
        service = ScoringService(small_store.root, root, shard_size=500)
        writer.publish(
            ModelBundle(predictor=small_predictor, meta={"gen": 2}),
            activate=True,
        )
        assert service.model_version == "v0001"  # not yet reloaded
        service.reload()
        assert service.registry.active == "v0002"
        status, payload = service.dispatch_request("GET", "/score?line=0")
        assert status == 200
        assert payload["model_version"] == "v0002"
        writer.rollback()
        status, payload = service.dispatch_request("POST", "/reload")
        assert status == 200
        assert payload["model_version"] == "v0001"


class TestHttpServer:
    def test_endpoints_over_real_http(self, service):
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            with urllib.request.urlopen(base + "/healthz", timeout=30) as r:
                assert r.status == 200
                assert r.headers["Cache-Control"] == "no-store"
                assert r.headers["Content-Type"] == (
                    "application/json; charset=utf-8"
                )
                health = json.load(r)
            assert health["status"] == "ok"
            with urllib.request.urlopen(base + "/health", timeout=30) as r:
                assert r.status == 200
                assert r.headers["Cache-Control"] == "no-store"
                assert r.headers["Content-Type"] == (
                    "application/json; charset=utf-8"
                )
                slo_health = json.load(r)
            assert slo_health["status"] == "ok"
            prom = base + "/metrics?format=prometheus"
            with urllib.request.urlopen(prom, timeout=30) as r:
                assert r.headers["Cache-Control"] == "no-store"
                assert r.headers["Content-Type"] == (
                    "text/plain; version=0.0.4; charset=utf-8"
                )
                assert b"repro_http_requests_total" in r.read()
            trace = base + "/trace?format=text"
            with urllib.request.urlopen(trace, timeout=30) as r:
                assert r.headers["Cache-Control"] == "no-store"
                assert r.headers["Content-Type"] == (
                    "text/plain; charset=utf-8"
                )
            with urllib.request.urlopen(base + "/dispatch", timeout=30) as r:
                over_http = json.load(r)
            _, direct = service.dispatch_request("GET", "/dispatch")
            assert over_http["line_ids"] == direct["line_ids"]
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(base + "/score", timeout=30)
            assert err.value.code == 400
        finally:
            server.shutdown()
            server.server_close()

    def test_service_requires_an_active_version(self, small_store, tmp_path):
        ModelRegistry(tmp_path / "empty")  # initialised, nothing published
        with pytest.raises(RuntimeError, match="active"):
            ScoringService(small_store.root, tmp_path / "empty")
