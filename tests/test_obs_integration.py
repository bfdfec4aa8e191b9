"""End-to-end observability: pipeline telemetry, serving endpoints, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import (
    PipelineConfig,
    PopulationConfig,
    PredictorConfig,
    SimulationConfig,
)
from repro.core.pipeline import NevermindPipeline
from repro.obs import (
    MetricsRegistry,
    Tracer,
    check_prometheus_text,
    collect_telemetry,
    render_report,
    set_registry,
    set_tracer,
    set_tracing,
    stage,
)
from repro.serve import ModelBundle, ModelRegistry, ScoringService


@pytest.fixture()
def fresh_obs():
    """Isolated registry + tracer with tracing on; restores the globals."""
    registry = MetricsRegistry()
    tracer = Tracer()
    prev_registry = set_registry(registry)
    prev_tracer = set_tracer(tracer)
    set_tracing(True)
    try:
        yield registry, tracer
    finally:
        set_tracing(None)
        set_tracer(prev_tracer)
        set_registry(prev_registry)


@pytest.fixture(scope="module")
def traced_pipeline_telemetry():
    """One tiny instrumented proactive run, shared by the module's tests."""
    registry = MetricsRegistry()
    tracer = Tracer()
    prev_registry = set_registry(registry)
    prev_tracer = set_tracer(tracer)
    set_tracing(True)
    try:
        pipeline = NevermindPipeline(
            SimulationConfig(
                n_weeks=18,
                population=PopulationConfig(n_lines=500, seed=3),
                fault_rate_scale=5.0,
                seed=41,
            ),
            PipelineConfig(
                warmup_weeks=14,
                predictor=PredictorConfig(
                    capacity=25, train_rounds=12, selection_rounds=2
                ),
            ),
        )
        reports = pipeline.run()
        telemetry = collect_telemetry(
            registry, tracer, meta={"live_weeks": len(reports)}
        )
        return telemetry, pipeline
    finally:
        set_tracing(None)
        set_tracer(prev_tracer)
        set_registry(prev_registry)


class TestPipelineTelemetry:
    def test_quality_counters_match_the_reports(self, traced_pipeline_telemetry):
        telemetry, pipeline = traced_pipeline_telemetry
        metrics = telemetry["metrics"]

        def scalar(name):
            [sample] = metrics[name]["samples"]
            return sample["value"]

        assert scalar("repro_pipeline_weeks_total") == len(pipeline.reports)
        assert scalar("repro_pipeline_submitted_total") == sum(
            len(r.submitted) for r in pipeline.reports
        )
        assert scalar("repro_pipeline_real_problems_total") == sum(
            r.real_problems for r in pipeline.reports
        )
        assert scalar("repro_pipeline_precision") == pytest.approx(
            pipeline.reports[-1].precision
        )

    def test_stage_histogram_covers_the_weekly_stages(
        self, traced_pipeline_telemetry
    ):
        telemetry, pipeline = traced_pipeline_telemetry
        entry = telemetry["metrics"]["repro_stage_wall_seconds"]
        stages = {s["labels"]["stage"]: s["count"] for s in entry["samples"]}
        assert stages["pipeline.train"] >= 1
        assert stages["pipeline.score"] == len(pipeline.reports)
        assert stages["pipeline.dispatch"] == len(pipeline.reports)

    def test_calibration_drift_is_bounded(self, traced_pipeline_telemetry):
        telemetry, _ = traced_pipeline_telemetry
        [sample] = telemetry["metrics"]["repro_pipeline_calibration_drift"][
            "samples"
        ]
        # drift = mean predicted P of submitted lines - realized precision;
        # both terms live in [0, 1].
        assert -1.0 <= sample["value"] <= 1.0

    def test_span_tree_has_the_weekly_structure(self, traced_pipeline_telemetry):
        telemetry, pipeline = traced_pipeline_telemetry
        weeks = [s for s in telemetry["trace"] if s["name"] == "pipeline.week"]
        assert len(weeks) == 18  # every simulated week, warm-up included
        live = [w for w in weeks if w["children"]]
        child_names = {c["name"] for w in live for c in w["children"]}
        assert {"pipeline.score", "pipeline.dispatch"} <= child_names
        trained = [
            c for w in weeks for c in w["children"] if c["name"] == "pipeline.train"
        ]
        assert trained, "no training span recorded"
        deep = {g["name"] for c in trained for g in c["children"]}
        assert "predict.fit" in deep

    def test_train_round_metrics_recorded(self, traced_pipeline_telemetry):
        telemetry, _ = traced_pipeline_telemetry
        metrics = telemetry["metrics"]
        [rounds] = metrics["repro_train_rounds_total"]["samples"]
        assert rounds["value"] >= 1
        [z] = metrics["repro_train_round_z"]["samples"]
        assert z["count"] == rounds["value"]

    def test_render_report_shows_all_sections(self, traced_pipeline_telemetry):
        telemetry, _ = traced_pipeline_telemetry
        text = render_report(telemetry)
        assert "== span timing" in text
        assert "pipeline.week" in text
        assert "== stage timings / distributions ==" in text
        assert "repro_stage_wall_seconds{stage=pipeline.score}" in text
        assert "== counters and gauges ==" in text
        assert "repro_pipeline_precision" in text

    def test_prometheus_view_of_the_run_is_valid(self, traced_pipeline_telemetry):
        from repro.obs.metrics import exposition

        telemetry, _ = traced_pipeline_telemetry
        assert check_prometheus_text(exposition(telemetry["metrics"])) == []


class TestServiceObservability:
    @pytest.fixture()
    def service(self, fresh_obs, small_store, small_predictor, tmp_path):
        registry_root = tmp_path / "registry"
        ModelRegistry(registry_root).publish(
            ModelBundle(predictor=small_predictor), activate=True
        )
        return ScoringService(small_store.root, registry_root, shard_size=500)

    def test_prometheus_endpoint_is_valid_and_registry_backed(self, service):
        service.dispatch_request("GET", "/dispatch")
        status, text = service.dispatch_request(
            "GET", "/metrics?format=prometheus"
        )
        assert status == 200 and isinstance(text, str)
        assert check_prometheus_text(text) == []
        assert 'repro_http_requests_total{route="/dispatch"} 1' in text
        assert "repro_serve_lines_scored_total" in text
        assert "repro_http_request_seconds_bucket" in text

    def test_json_metrics_keep_the_legacy_keys(self, service):
        service.dispatch_request("GET", "/dispatch")
        status, payload = service.dispatch_request("GET", "/metrics")
        assert status == 200
        assert payload["requests"]["/dispatch"] == 1
        assert payload["lines_scored"] > 0
        assert payload["mean_lines_per_sec"] > 0
        stages = {
            sample["labels"]["stage"]
            for sample in payload["metrics"]["repro_stage_wall_seconds"][
                "samples"
            ]
        }
        assert "serve.score_week" in stages

    def test_trace_endpoint_exports_scoring_spans(self, service):
        service.dispatch_request("GET", "/dispatch")
        status, payload = service.dispatch_request("GET", "/trace")
        assert status == 200
        assert payload["tracing_enabled"] is True
        names = {s["name"] for s in payload["spans"]}
        assert "serve.score_week" in names
        status, text = service.dispatch_request("GET", "/trace?format=text")
        assert status == 200 and "serve.score_week" in text

    def test_shard_spans_nest_under_the_scoring_run(self, service):
        service.dispatch_request("GET", "/dispatch")
        _, payload = service.dispatch_request("GET", "/trace")
        [run] = [s for s in payload["spans"] if s["name"] == "serve.score_week"]
        [fabric] = [
            c for c in run["children"] if c["name"] == "fabric.serve.shard"
        ]
        shard_spans = [
            c for c in fabric["children"] if c["name"] == "serve.shard"
        ]
        assert len(shard_spans) == run["tags"]["shards"] >= 2

    def test_explain_seconds_are_the_explain_stage_readings(
        self, fresh_obs, service
    ):
        registry, tracer = fresh_obs
        assert service.dispatch_request("GET", "/explain?line=3")[0] == 200
        assert service.dispatch_request(
            "GET", "/dispatch?explain=1&top=2"
        )[0] == 200
        snapshot = registry.snapshot()
        [timed] = [
            s for s in snapshot["repro_stage_wall_seconds"]["samples"]
            if s["labels"] == {"stage": "serve.explain"}
        ]
        by_route = {
            s["labels"]["route"]: s["sum"]
            for s in snapshot["repro_serve_explain_seconds"]["samples"]
        }
        assert timed["count"] == 2
        assert timed["sum"] == by_route["/explain"] + by_route["/dispatch"]
        routes = [
            s["tags"]["route"] for s in tracer.export()
            if s["name"] == "serve.explain"
        ]
        assert routes == ["/explain", "/dispatch"]


class TestDegradedService:
    def test_registry_only_mount_degrades_to_503(
        self, fresh_obs, small_store, small_predictor, tmp_path
    ):
        registry_root = tmp_path / "empty-registry"
        ModelRegistry(registry_root)  # initialised, nothing published
        service = ScoringService(
            small_store.root, registry_root, require_model=False
        )
        status, payload = service.dispatch_request("GET", "/healthz")
        assert status == 200 and payload["status"] == "degraded"
        assert payload["model_version"] == "none"
        for path in ("/dispatch", "/score?line=1", "/locate?line=1"):
            status, payload = service.dispatch_request("GET", path)
            assert status == 503, path
            assert "no active model" in payload["error"]
        status, payload = service.dispatch_request("POST", "/reload")
        assert status == 503

        # Publishing + reloading brings it back without a restart.
        service.registry.publish(
            ModelBundle(predictor=small_predictor), activate=True
        )
        status, payload = service.dispatch_request("POST", "/reload")
        assert status == 200 and payload["model_version"] == "v0001"
        status, _ = service.dispatch_request("GET", "/dispatch")
        assert status == 200

    def test_default_construction_still_requires_a_model(
        self, fresh_obs, small_store, tmp_path
    ):
        ModelRegistry(tmp_path / "empty")
        with pytest.raises(RuntimeError, match="active"):
            ScoringService(small_store.root, tmp_path / "empty")


class TestCli:
    def test_obs_report_renders_saved_telemetry(
        self, fresh_obs, tmp_path, capsys
    ):
        from repro.cli import main

        registry, tracer = fresh_obs
        registry.counter("repro_pipeline_weeks_total").inc(4)
        with stage("pipeline.week", week=1):
            pass
        telemetry_path = tmp_path / "telemetry.json"
        telemetry_path.write_text(
            json.dumps(collect_telemetry(registry, tracer))
        )
        assert main(["obs", "report", "--input", str(telemetry_path)]) == 0
        out = capsys.readouterr().out
        assert "pipeline.week" in out
        assert "repro_pipeline_weeks_total" in out

    def test_verbose_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["obs", "report", "--verbose", "--input", "x.json"]
        )
        assert args.verbose is True and args.command == "obs"


class TestFlightRecorderAcrossSubsystems:
    """One HistoryStore carries pipeline, lifecycle, and serve series."""

    @pytest.fixture(scope="class")
    def shared_history(self, tmp_path_factory):
        from repro.lifecycle import LifecycleConfig, LifecycleController
        from repro.obs.history import HistoryStore
        from repro.serve import LineWeekStore

        root = tmp_path_factory.mktemp("flight")
        history = HistoryStore(root / "flight.jsonl")
        simulation = SimulationConfig(
            n_weeks=17,
            population=PopulationConfig(n_lines=400, seed=3),
            fault_rate_scale=5.0,
            seed=7,
        )
        pipeline = NevermindPipeline(
            simulation,
            PipelineConfig(
                warmup_weeks=13,
                retrain_every=0,  # the controller owns retrains
                predictor=PredictorConfig(
                    capacity=20, horizon_weeks=3, train_rounds=20,
                    selection_rounds=2, include_derived=False,
                ),
            ),
            store=LineWeekStore.create(
                root / "store", 400, simulation.population
            ),
            registry=ModelRegistry(root / "registry"),
            history=history,
        )
        controller = LifecycleController(
            pipeline,
            LifecycleConfig(
                cadence_weeks=2, shadow_weeks=2, bootstrap_samples=50,
                seed=4,
            ),
        )
        controller.run()

        service = ScoringService(
            root / "store", root / "registry", shard_size=200,
            history=history,
        )
        for _ in range(6):
            status, _ = service.dispatch_request("GET", "/score?line=7")
            assert status == 200
        status, _ = service.dispatch_request("GET", "/dispatch")
        assert status == 200
        assert service.slo_monitor.tick() is not None
        return history, service

    def test_one_store_holds_all_three_series(self, shared_history):
        history, _ = shared_history
        kinds = history.kinds()
        assert kinds.get("pipeline_week", 0) >= 3
        assert kinds.get("lifecycle_decision", 0) >= 1
        assert kinds.get("serve_tick", 0) >= 1

    def test_pipeline_records_carry_quality_and_resources(
        self, shared_history
    ):
        history, _ = shared_history
        weekly = history.records("pipeline_week")
        for record in weekly:
            assert record.week is not None
            assert "precision" in record.values
            assert "peak_rss_kb" in record.values
            assert "wall_seconds.score" in record.values

    def test_lifecycle_records_name_their_action(self, shared_history):
        history, _ = shared_history
        actions = [
            r["meta"]["action"]
            for r in history.records("lifecycle_decision")
        ]
        assert "bootstrap" in actions

    def test_serve_tick_carries_route_percentiles(self, shared_history):
        history, _ = shared_history
        [tick] = history.records("serve_tick")
        assert tick.values["requests./score"] == 6.0
        assert tick.values["latency_p99./score"] > 0
        assert tick.values["attainment.score_latency"] == 1.0

    def test_health_route_reads_the_same_monitor(self, shared_history):
        _, service = shared_history
        status, payload = service.dispatch_request("GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["has_data"] is True

    def test_dashboard_renders_from_the_shared_store(self, shared_history):
        from repro.obs.health import HealthDetector, render_dashboard

        history, _ = shared_history
        text = render_dashboard(history)
        assert "flight recorder dashboard" in text
        assert "score_stage_wall" in text
        assert "DEGRADATION" not in text  # a clean run stays quiet
        assert HealthDetector(history).summary()["status"] != "alert"

    def test_reopened_store_round_trips_every_series(self, shared_history):
        from repro.obs.history import HistoryStore

        history, _ = shared_history
        reopened = HistoryStore(history.path)
        assert len(reopened) == len(history)
        assert reopened.kinds() == history.kinds()
        precision = reopened.query("precision", kind="pipeline_week")
        assert len(precision) >= 3
        assert all(0.0 <= p <= 1.0 for p in precision)
