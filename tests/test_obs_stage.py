"""``stage()``: one clock reading per block feeds every timing sink exactly."""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

from repro import PipelineConfig, PopulationConfig, PredictorConfig, SimulationConfig
from repro.core.pipeline import NevermindPipeline
from repro.obs.history import HistoryStore
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs import profile as profile_module
from repro.obs.profile import (
    profile_snapshot,
    reset_profiles,
    resource_section,
    stage,
)
from repro.obs.tracing import Tracer, set_tracer, set_tracing

ROOT = Path(__file__).resolve().parent.parent


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


@pytest.fixture()
def tracer():
    fresh = Tracer()
    previous = set_tracer(fresh)
    set_tracing(True)
    try:
        yield fresh
    finally:
        set_tracing(None)
        set_tracer(previous)


def _wall_sample(registry, name):
    samples = registry.snapshot()["repro_stage_wall_seconds"]["samples"]
    [sample] = [s for s in samples if s["labels"] == {"stage": name}]
    return sample


class TestOneReadingEverySink:
    def test_handle_histogram_and_snapshot_agree_exactly(self, registry):
        with stage("unit.exact") as st:
            assert st.seconds is None  # nothing to read mid-block
            sum(range(10_000))
        assert st.seconds > 0
        assert _wall_sample(registry, "unit.exact")["sum"] == st.seconds
        assert profile_snapshot()["unit.exact"]["wall_seconds"] == st.seconds

    def test_span_duration_is_the_same_reading(self, registry, tracer):
        with stage("unit.traced", week=3) as st:
            st.set_tag("rows", 7)
        [root] = tracer.export()
        assert root["name"] == "unit.traced"
        assert root["tags"] == {"week": 3, "rows": 7}
        assert root["duration_seconds"] == st.seconds

    def test_every_call_is_observed(self, registry):
        seconds = []
        for _ in range(32):
            with stage("unit.many") as st:
                pass
            seconds.append(st.seconds)
        sample = _wall_sample(registry, "unit.many")
        entry = profile_snapshot()["unit.many"]
        assert sample["count"] == entry["calls"] == 32
        assert sample["sum"] == entry["wall_seconds"] == sum(seconds)

    def test_exception_marks_the_span_and_still_records(
        self, registry, tracer
    ):
        with pytest.raises(RuntimeError, match="boom"):
            with stage("unit.failing") as st:
                raise RuntimeError("boom")
        [root] = tracer.export()
        assert root["status"] == "error"
        assert "RuntimeError: boom" in root["error"]
        assert _wall_sample(registry, "unit.failing")["count"] == 1
        assert profile_snapshot()["unit.failing"]["calls"] == 1
        assert st.seconds == root["duration_seconds"]

    def test_tags_are_ignored_while_tracing_is_off(self, registry):
        set_tracing(False)
        try:
            with stage("unit.quiet", week=1) as st:
                st.set_tag("ignored", True)  # must not raise
        finally:
            set_tracing(None)
        assert _wall_sample(registry, "unit.quiet")["count"] == 1

    def test_concurrent_blocks_lose_no_update(self, registry):
        # Each exit updates the four stage series under one lock
        # acquisition: a lost update breaks the counts, and the peak
        # gauge must keep the largest reading even when an exit that
        # read getrusage earlier takes the lock later.
        n_threads, per_thread = 8, 300
        peaks = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work():
                for _ in range(per_thread):
                    with stage("unit.concurrent") as st:
                        pass
                    peaks.append(st.peak_rss_kb)

            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        sample = _wall_sample(registry, "unit.concurrent")
        entry = profile_snapshot()["unit.concurrent"]
        total = n_threads * per_thread
        assert sample["count"] == sum(sample["counts"]) == entry["calls"] == total
        assert sample["sum"] == entry["wall_seconds"]
        assert entry["peak_rss_kb"] == max(peaks)

    def test_registry_reset_is_seen_by_the_next_block(self, registry):
        with stage("unit.reset"):
            pass
        registry.reset()
        with stage("unit.reset") as st:
            pass
        sample = _wall_sample(registry, "unit.reset")
        assert sample["count"] == 1
        assert sample["sum"] == st.seconds

    def test_reset_profiles_is_seen_by_the_next_block(self, registry):
        with stage("unit.table"):
            pass
        reset_profiles()
        assert "unit.table" not in profile_snapshot()
        with stage("unit.table") as st:
            pass
        entry = profile_snapshot()["unit.table"]
        assert entry["calls"] == 1
        assert entry["wall_seconds"] == st.seconds


class _Usage:
    """A scripted ``getrusage`` reading."""

    def __init__(self, cpu, maxrss_kb):
        self.ru_utime, self.ru_stime = cpu, 0.0
        self.ru_maxrss = maxrss_kb * profile_module._MAXRSS_PER_KB


class TestSnapshotIsTheRegistryLedger:
    """``profile_snapshot()`` is read back from the four stage series."""

    def test_snapshot_equals_the_handles_readings(self, registry):
        handles = []
        for n in range(12):
            with stage("unit.ledger") as st:
                sum(range(1_000 * (n + 1)))
            handles.append(st)
        entry = profile_snapshot()["unit.ledger"]
        assert entry["stage"] == "unit.ledger"
        assert entry["calls"] == len(handles)
        wall = cpu = 0.0
        for st in handles:
            wall += st.seconds
            cpu += st.cpu_seconds
        assert entry["wall_seconds"] == wall  # in-order sum, bit for bit
        assert entry["cpu_seconds"] == cpu
        assert entry["peak_rss_kb"] == max(st.peak_rss_kb for st in handles)
        assert "allocators" not in entry

    def test_rss_delta_is_summed_and_peak_is_the_maximum(
        self, registry, monkeypatch
    ):
        # Scripted (enter, exit) readings: deltas 50, 20, 0 and exit
        # peaks 150, 170, 160 -- the last exit's peak is not the largest,
        # as when a block that read getrusage earlier exits later.
        readings = [
            (0.0, 100), (0.25, 150),
            (0.25, 150), (0.5, 170),
            (0.5, 160), (1.0, 160),
        ]
        script = iter(_Usage(cpu, rss) for cpu, rss in readings)
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        reset_profiles()
        monkeypatch.setattr(
            profile_module, "_getrusage", lambda who: next(script)
        )
        handles = []
        for _ in range(3):
            with stage("unit.rss") as st:
                pass
            handles.append(st)
        assert [st.peak_rss_kb for st in handles] == [150, 170, 160]
        assert [st.cpu_seconds for st in handles] == [0.25, 0.25, 0.5]
        entry = profile_snapshot()["unit.rss"]
        assert entry["calls"] == 3
        assert entry["rss_delta_kb"] == 50 + 20 + 0
        assert entry["peak_rss_kb"] == 170
        assert entry["cpu_seconds"] == 1.0

    def test_resource_section_stages_are_the_snapshot(self, registry):
        for name in ("unit.one", "unit.two", "unit.one"):
            with stage(name):
                pass
        section = resource_section()
        assert section["stages"] == profile_snapshot()
        assert sorted(section["stages"]) == ["unit.one", "unit.two"]
        assert section["stages"]["unit.one"]["calls"] == 2

    def test_reset_profiles_keeps_every_other_metric(self, registry):
        other = registry.counter("unit_requests_total", "not a stage series")
        other.inc(3)
        with stage("unit.cleared"):
            pass
        assert profile_snapshot()["unit.cleared"]["calls"] == 1
        reset_profiles()
        assert profile_snapshot() == {}
        assert other.value() == 3
        assert registry.snapshot()["unit_requests_total"]["samples"] == [
            {"labels": {}, "value": 3.0}
        ]


def test_pipeline_history_and_histogram_share_the_readings(tmp_path):
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        history = HistoryStore(tmp_path / "flight.jsonl")
        pipeline = NevermindPipeline(
            SimulationConfig(
                n_weeks=16,
                population=PopulationConfig(n_lines=300, seed=3),
                fault_rate_scale=5.0,
                seed=41,
            ),
            PipelineConfig(
                warmup_weeks=13,
                predictor=PredictorConfig(
                    capacity=15, train_rounds=8, selection_rounds=2,
                    include_derived=False,
                ),
            ),
            history=history,
        )
        pipeline.run()
    finally:
        set_registry(previous)
    assert pipeline.reports
    records = history.records("pipeline_week")
    assert len(records) == len(pipeline.reports)
    recorded = sum(r.values["wall_seconds.score"] for r in records)
    sample = _wall_sample(registry, "pipeline.score")
    assert sample["sum"] == pytest.approx(recorded, rel=1e-12)
    assert sample["count"] == len(pipeline.reports)


# ---------------------------------------------------------------------------
# Guard: one timer per block
# ---------------------------------------------------------------------------

_TIMING_CALLS = {"span", "stage", "time"}


def _is_timing_item(item: ast.withitem) -> bool:
    call = item.context_expr
    if not isinstance(call, ast.Call):
        return False
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in {"span", "stage"}
    return isinstance(func, ast.Attribute) and func.attr in _TIMING_CALLS


def _sources() -> list[Path]:
    return sorted((ROOT / "src" / "repro").rglob("*.py")) + sorted(
        (ROOT / "benchmarks").glob("*.py")
    )


def test_no_with_statement_stacks_timers():
    stacked = []
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                if sum(_is_timing_item(item) for item in node.items) >= 2:
                    stacked.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not stacked, f"time these blocks with one stage(): {stacked}"


@pytest.mark.parametrize("module", [
    "core/pipeline.py",
    "serve/scoring.py",
    "lifecycle/shadow.py",
    "features/selection.py",
    "core/predictor.py",
    "cli.py",
    "obs/metrics.py",
])
def test_stage_timed_modules_read_no_clock_of_their_own(module):
    path = ROOT / "src" / "repro" / module
    tree = ast.parse(path.read_text(), filename=str(path))
    clocks = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "perf_counter")
        or (isinstance(node, ast.Attribute) and node.attr == "perf_counter")
    ]
    assert not clocks, f"{module} calls perf_counter at lines {clocks}"
