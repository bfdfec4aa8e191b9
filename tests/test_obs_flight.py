"""Flight-recorder observability: profiling, SLOs, health, sampling."""

from __future__ import annotations

import logging

import pytest

from repro.obs.health import (
    DEFAULT_CHECKS,
    HealthCheck,
    HealthDetector,
    evaluate_check,
    render_dashboard,
    sparkline,
)
from repro.obs.history import HistoryStore
from repro.obs.log import RateLimitedLogger
from repro.obs.metrics import MetricsRegistry, exposition, set_registry
from repro.obs.profile import (
    profile_snapshot,
    reset_profiles,
    stage,
)
from repro.obs.promcheck import check_prometheus_text
from repro.obs.slo import DEFAULT_SLOS, SLO, SLOMonitor


@pytest.fixture(autouse=True)
def _clean_profiles():
    reset_profiles()
    yield
    reset_profiles()


@pytest.fixture()
def registry():
    """A fresh registry installed as the global one for the test."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


# ---------------------------------------------------------------------------
# stage (resource side; exactness is pinned in test_obs_stage.py)
# ---------------------------------------------------------------------------

class TestStageProfile:
    def test_block_cost_lands_in_handle_and_snapshot(self, registry):
        with stage("unit.alpha") as sp:
            # nothing to read mid-block
            assert sp.seconds is None and sp.cpu_seconds is None
            assert sp.peak_rss_kb is None and sp.allocators is None
            sum(range(10_000))
        assert sp.name == "unit.alpha"
        assert sp.seconds > 0
        assert sp.cpu_seconds >= 0
        assert sp.peak_rss_kb > 0
        snapshot = profile_snapshot()
        assert snapshot["unit.alpha"]["calls"] == 1
        assert snapshot["unit.alpha"]["wall_seconds"] == pytest.approx(
            sp.seconds
        )

    def test_first_call_flushes_registry_metrics(self, registry):
        # promcheck and the dashboard must see stage metrics after a
        # single timed block -- every call emits.
        with stage("unit.first"):
            pass
        snapshot = registry.snapshot()
        [sample] = snapshot["repro_stage_wall_seconds"]["samples"]
        assert sample["labels"] == {"stage": "unit.first"}
        assert sample["count"] == 1 and sample["sum"] > 0
        text = exposition(snapshot)
        assert "repro_stage_wall_seconds" in text
        assert check_prometheus_text(text) == []

    def test_exceptions_propagate_and_still_record(self, registry):
        with pytest.raises(RuntimeError, match="boom"):
            with stage("unit.failing"):
                raise RuntimeError("boom")
        assert profile_snapshot()["unit.failing"]["calls"] == 1

    def test_calls_accumulate_across_blocks(self, registry):
        for _ in range(3):
            with stage("unit.repeat"):
                pass
        entry = profile_snapshot()["unit.repeat"]
        assert entry["calls"] == 3
        assert entry["wall_seconds"] > 0

    def test_mem_mode_captures_allocators(self, registry, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "mem")
        reset_profiles()  # the cached level re-reads the environment
        with stage("unit.mem") as sp:
            hoard = [bytearray(64_000) for _ in range(40)]
        assert len(hoard) == 40
        assert sp.allocators, "REPRO_PROFILE=mem must attribute allocations"
        top = sp.allocators[0]
        assert ":" in top["site"] and top["size_kb"] > 0
        assert profile_snapshot()["unit.mem"]["allocators"]

    def test_default_level_ignores_stale_env_until_reset(
        self, registry, monkeypatch
    ):
        with stage("unit.warm"):
            pass  # primes the cached level as "off"
        monkeypatch.setenv("REPRO_PROFILE", "mem")
        with stage("unit.warm") as sp:
            pass
        assert not sp.allocators  # env change not yet visible
        reset_profiles()
        with stage("unit.warm") as sp:
            data = [bytearray(64_000) for _ in range(40)]
        assert len(data) == 40
        assert sp.allocators


# ---------------------------------------------------------------------------
# SLOs and burn rates
# ---------------------------------------------------------------------------

def _monitor(history=None, **kw):
    slos = kw.pop("slos", (
        SLO(name="score_latency", route="/score", kind="latency",
            threshold_seconds=0.010, target=0.9),
        SLO(name="availability", route="*", kind="availability",
            target=0.9),
    ))
    kw.setdefault("fast_window", 2)
    kw.setdefault("slow_window", 4)
    kw.setdefault("burn_threshold", 2.0)
    kw.setdefault("tick_every", 10_000)  # explicit ticks only
    return SLOMonitor(slos=slos, history=history, **kw)


class TestSLOMonitor:
    def test_fresh_monitor_reports_ok_without_traffic(self):
        status = _monitor().status()
        assert status["status"] == "ok"
        assert status["has_data"] is False
        assert all(o["attainment"] is None for o in status["objectives"])

    def test_clean_traffic_stays_ok_with_attainment(self, tmp_path):
        history = HistoryStore(tmp_path)
        monitor = _monitor(history)
        for _ in range(20):
            monitor.observe("/score", 0.002, 200)
        values = monitor.tick()
        assert values["attainment.score_latency"] == 1.0
        status = monitor.status()
        assert status["status"] == "ok"
        [tick] = history.records("serve_tick")
        assert tick.values["requests./score"] == 20.0
        assert tick.values["latency_p50./score"] == pytest.approx(0.002)

    def test_slow_requests_burn_and_alert(self, tmp_path):
        history = HistoryStore(tmp_path)
        monitor = _monitor(history)
        # Every request blows the 10ms bound: error rate 1.0 against a
        # 0.1 budget = burn 10x in both windows -> alert on first tick.
        for _ in range(10):
            monitor.observe("/score", 0.500, 200)
        monitor.tick()
        status = monitor.status()
        assert status["status"] == "alerting"
        score = next(o for o in status["objectives"]
                     if o["name"] == "score_latency")
        assert score["alerting"] is True
        assert score["burn_fast"] == pytest.approx(10.0)
        [alert] = history.records("slo_alert")
        assert alert["meta"]["slo"] == "score_latency"
        assert alert.values["burn_fast"] == pytest.approx(10.0)

    def test_alert_fires_once_then_clears_on_recovery(self, tmp_path):
        history = HistoryStore(tmp_path)
        monitor = _monitor(history)
        for _ in range(2):  # two bad ticks: still one slo_alert record
            for _ in range(10):
                monitor.observe("/score", 0.500, 200)
            monitor.tick()
        assert len(history.records("slo_alert")) == 1
        # Recovery: enough clean ticks to flush both windows.
        for _ in range(4):
            for _ in range(10):
                monitor.observe("/score", 0.002, 200)
            monitor.tick()
        assert monitor.status()["status"] == "ok"

    def test_server_errors_burn_availability(self):
        monitor = _monitor()
        for _ in range(10):
            monitor.observe("/dispatch", 0.001, 500)
        monitor.tick()
        status = monitor.status()
        avail = next(o for o in status["objectives"]
                     if o["name"] == "availability")
        assert avail["alerting"] is True

    def test_blip_does_not_alert_when_slow_window_is_clean(self):
        monitor = _monitor(slow_window=8)
        # Six clean ticks, then one terrible tick: the fast window
        # burns, the slow window absorbs it -> no page.
        for _ in range(6):
            for _ in range(20):
                monitor.observe("/score", 0.002, 200)
            monitor.tick()
        for _ in range(2):
            monitor.observe("/score", 0.500, 200)
        monitor.tick()
        assert monitor.status()["status"] == "ok"

    def test_tick_without_observations_is_none(self):
        assert _monitor().tick() is None

    def test_auto_tick_every_n_observations(self, tmp_path):
        history = HistoryStore(tmp_path)
        monitor = _monitor(history, tick_every=5)
        for _ in range(12):
            monitor.observe("/score", 0.002, 200)
        assert len(history.records("serve_tick")) == 2  # at 5 and 10

    def test_default_slos_are_well_formed(self):
        assert {s.name for s in DEFAULT_SLOS} == {
            "score_latency", "dispatch_latency", "availability",
        }
        for slo in DEFAULT_SLOS:
            assert 0 < slo.target < 1
            if slo.kind == "latency":
                assert slo.threshold_seconds > 0

    def test_invalid_slo_configs_raise(self):
        with pytest.raises(ValueError, match="needs a threshold"):
            SLO(name="x", route="/score", kind="latency")
        with pytest.raises(ValueError, match="unknown SLO kind"):
            SLO(name="x", route="/score", kind="throughput")
        with pytest.raises(ValueError, match="duplicate SLO names"):
            SLOMonitor(slos=(
                SLO(name="dup", route="*", kind="availability"),
                SLO(name="dup", route="*", kind="availability"),
            ))


# ---------------------------------------------------------------------------
# Health detector
# ---------------------------------------------------------------------------

_LATENCY_CHECK = HealthCheck(
    name="wall", series="wall_seconds.score", kind="pipeline_week",
    direction="high_is_bad", rel_threshold=0.5, abs_floor=0.005,
)

# A stationary series with realistic measurement jitter.
_CLEAN = [0.0100, 0.0104, 0.0097, 0.0101, 0.0099, 0.0103, 0.0098,
          0.0102, 0.0100, 0.0096, 0.0104, 0.0099]


class TestHealthDetector:
    def test_quiet_on_a_clean_run(self):
        finding = evaluate_check(_LATENCY_CHECK, list(_CLEAN))
        assert finding.status == "ok"
        assert finding.deviation <= finding.threshold

    def test_flags_an_injected_regression(self):
        degraded = list(_CLEAN) + [0.030, 0.031, 0.032]  # 3x step
        finding = evaluate_check(_LATENCY_CHECK, degraded)
        assert finding.status == "alert"
        assert finding.recent_mean > 2 * finding.baseline

    def test_low_is_bad_direction(self):
        check = HealthCheck(
            name="precision", series="precision", kind="pipeline_week",
            direction="low_is_bad", rel_threshold=0.3, abs_floor=0.05,
        )
        stable = [0.45 + 0.005 * (i % 3) for i in range(12)]
        assert evaluate_check(check, stable).status == "ok"
        collapsed = stable + [0.10, 0.11, 0.09]
        assert evaluate_check(check, collapsed).status == "alert"

    def test_too_few_points_is_no_data(self):
        finding = evaluate_check(_LATENCY_CHECK, [0.01] * 3)
        assert finding.status == "no_data"
        assert finding.n_points == 3

    def test_detector_over_history_and_summary(self, tmp_path):
        history = HistoryStore(tmp_path)
        for week, wall in enumerate(_CLEAN + [0.030, 0.031, 0.032]):
            history.append(
                "pipeline_week",
                {"wall_seconds.score": wall, "precision": 0.45},
                week=week,
            )
        detector = HealthDetector(history, checks=(_LATENCY_CHECK,))
        summary = detector.summary()
        assert summary["status"] == "alert"
        assert summary["alerts"] == ["wall"]
        assert summary["history_records"] == 15

    def test_summary_no_data_on_empty_history(self, tmp_path):
        detector = HealthDetector(HistoryStore(tmp_path))
        assert detector.summary()["status"] == "no_data"

    def test_default_checks_cover_pipeline_and_serve(self):
        kinds = {c.kind for c in DEFAULT_CHECKS}
        assert kinds == {"pipeline_week", "serve_tick"}
        names = [c.name for c in DEFAULT_CHECKS]
        assert len(set(names)) == len(names)

    def test_direction_validation(self):
        with pytest.raises(ValueError, match="unknown direction"):
            HealthCheck(name="x", series="s", kind="k", direction="sideways")
        with pytest.raises(ValueError, match="min_points"):
            HealthCheck(name="x", series="s", kind="k",
                        recent=8, min_points=8)


class TestSparklineAndDashboard:
    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0, 1.0]) == "▄▄▄"
        ramp = sparkline([float(i) for i in range(8)])
        assert ramp[0] == "▁" and ramp[-1] == "█"
        assert len(sparkline([float(i) for i in range(100)], width=24)) == 24

    def test_dashboard_renders_trends_and_verdicts(self, tmp_path):
        history = HistoryStore(tmp_path)
        for week, wall in enumerate(_CLEAN):
            history.append(
                "pipeline_week",
                {"wall_seconds.score": wall, "precision": 0.45,
                 "calibration_drift": 0.02, "peak_rss_kb": 90_000.0},
                week=week,
            )
        text = render_dashboard(history)
        assert "flight recorder dashboard" in text
        assert "pipeline_week=12" in text
        assert "score_stage_wall" in text
        assert "no degradation detected" in text

    def test_dashboard_names_the_degraded_series(self, tmp_path):
        history = HistoryStore(tmp_path)
        for week, wall in enumerate(_CLEAN + [0.030, 0.031, 0.032]):
            history.append(
                "pipeline_week", {"wall_seconds.score": wall}, week=week,
            )
        text = render_dashboard(history)
        assert "DEGRADATION: score_stage_wall" in text


# ---------------------------------------------------------------------------
# Sampled logging
# ---------------------------------------------------------------------------

class TestRateLimitedLogger:
    def test_first_emit_then_sampling(self, caplog):
        logger = logging.getLogger("unit_rl.sampled")
        limited = RateLimitedLogger(logger, sample_every=10)
        with caplog.at_level(logging.DEBUG, logger="unit_rl.sampled"):
            for i in range(25):
                limited.debug("unit.shard", shard=i)
        assert len(caplog.records) == 3  # occurrences 0, 10, 20
        first, second, _ = [r.getMessage() for r in caplog.records]
        assert "event=unit.shard" in first
        assert "sampled_1_in=10 skipped=0" in first
        assert "skipped=9" in second  # the line stands for 9 silenced ones

    def test_counters_are_per_event(self, caplog):
        logger = logging.getLogger("unit_rl.sampled2")
        limited = RateLimitedLogger(logger, sample_every=50)
        with caplog.at_level(logging.DEBUG, logger="unit_rl.sampled2"):
            limited.debug("unit.a", i=1)
            limited.debug("unit.b", i=2)
        assert len(caplog.records) == 2  # each event's first always emits

    def test_disabled_level_skips_counting(self, caplog):
        logger = logging.getLogger("unit_rl.sampled3")
        limited = RateLimitedLogger(logger, sample_every=2)
        with caplog.at_level(logging.INFO, logger="unit_rl.sampled3"):
            limited.debug("unit.quiet", i=1)  # below level: not counted
        with caplog.at_level(logging.DEBUG, logger="unit_rl.sampled3"):
            limited.debug("unit.quiet", i=2)
        [record] = caplog.records
        assert "skipped=0" in record.getMessage()

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError, match="sample_every"):
            RateLimitedLogger(logging.getLogger("unit_rl.x"),
                              sample_every=0)


# ---------------------------------------------------------------------------
# Per-metric bucket boundaries (the histogram's ``buckets=``)
# ---------------------------------------------------------------------------

class TestConfigureBuckets:
    def test_late_configuration_raises(self, registry):
        registry.histogram("taken_seconds", "t")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("taken_seconds", "t", buckets=(0.5, 1.0))

    def test_noop_reconfiguration_is_fine(self, registry):
        first = registry.histogram("same_seconds", "t", buckets=(0.1, 1.0))
        again = registry.histogram("same_seconds", "t", buckets=(0.1, 1.0))
        assert again is first

    def test_invalid_bounds_rejected(self, registry):
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("bad_seconds", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            registry.histogram("bad_seconds", buckets=(1.0, float("inf")))
        with pytest.raises(ValueError, match="at least one"):
            registry.histogram("bad_seconds", buckets=())

    def test_overridden_histogram_exposition_is_valid(self, registry):
        # Boundaries finer than DEFAULT_BUCKETS still expose cleanly.
        registry.histogram(
            "tuned2_seconds", "t", buckets=(0.0001, 0.001)
        ).observe(0.0005)
        text = exposition(registry.snapshot())
        assert check_prometheus_text(text) == []
        assert 'le="0.0001"' in text
