"""Span tracing as the stage's trace sink: nesting, errors, propagation."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.profile import stage
from repro.obs.tracing import (
    Tracer,
    flame_report,
    set_tracer,
    set_tracing,
    tracing_enabled,
)
from repro.parallel import parallel_map


@pytest.fixture()
def tracer():
    """A fresh global tracer with tracing forced on; restores both after."""
    fresh = Tracer()
    previous = set_tracer(fresh)
    set_tracing(True)
    try:
        yield fresh
    finally:
        set_tracing(None)
        set_tracer(previous)


@pytest.fixture()
def disabled():
    set_tracing(False)
    try:
        yield
    finally:
        set_tracing(None)


def test_environment_is_read_only_by_set_tracing(monkeypatch):
    try:
        monkeypatch.setenv("REPRO_TRACE", "1")
        set_tracing(None)
        assert tracing_enabled()
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert tracing_enabled()  # cached until the next set_tracing
        set_tracing(None)
        assert not tracing_enabled()
        set_tracing(True)
        assert tracing_enabled()
    finally:
        monkeypatch.undo()
        set_tracing(None)


class TestDisabledMode:
    def test_nothing_is_recorded(self, disabled):
        fresh = Tracer()
        previous = set_tracer(fresh)
        try:
            with stage("a") as st:
                with stage("b"):
                    pass
                st.set_tag("ignored", 1)  # must not raise
            assert fresh.export() == []
        finally:
            set_tracer(previous)


class TestRecording:
    def test_nesting_builds_a_tree_with_tags(self, tracer):
        with stage("parent", week=7) as p:
            with stage("child.a"):
                pass
            with stage("child.b"):
                pass
            p.set_tag("extra", "yes")
        [root] = tracer.export()
        assert root["name"] == "parent"
        assert root["tags"] == {"week": 7, "extra": "yes"}
        assert [c["name"] for c in root["children"]] == ["child.a", "child.b"]
        assert root["duration_seconds"] >= 0
        assert root["status"] == "ok"

    def test_exceptions_mark_the_span_and_propagate(self, tracer):
        with pytest.raises(RuntimeError, match="boom"):
            with stage("failing"):
                raise RuntimeError("boom")
        [root] = tracer.export()
        assert root["status"] == "error"
        assert "RuntimeError: boom" in root["error"]

    def test_flame_report_aggregates_siblings(self, tracer):
        with stage("round"):
            pass
        with stage("round"):
            pass
        text = flame_report(tracer.export())
        assert "round" in text and "x2" in text

    def test_flame_report_empty_mentions_the_toggle(self):
        assert "REPRO_TRACE" in flame_report([])


class TestPropagation:
    def test_worker_thread_spans_attach_to_the_submitting_span(self, tracer):
        with stage("fanout"):
            parallel_map(
                lambda x: x + 1, range(6), workers=3, task_label="unit.task"
            )
        [root] = tracer.export()
        [fabric] = root["children"]
        assert fabric["name"] == "fabric.unit.task"
        tasks = [c for c in fabric["children"] if c["name"] == "unit.task"]
        assert len(tasks) == 6
        assert sorted(c["tags"]["index"] for c in tasks) == list(range(6))

    def test_task_span_shares_the_task_seconds_reading(self, tracer):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            parallel_map(lambda x: x, range(4), workers=1, task_label="unit.one")
        finally:
            set_registry(previous)
        [fabric] = tracer.export()
        spans = [c["duration_seconds"] for c in fabric["children"]]
        snapshot = registry.snapshot()
        [timed] = snapshot["repro_parallel_task_seconds"]["samples"]
        [busy] = snapshot["repro_parallel_worker_busy_seconds_total"]["samples"]
        assert timed["count"] == len(spans) == 4
        assert timed["sum"] == busy["value"] == sum(spans)

    def test_failing_task_marks_its_span(self, tracer):
        def fail(x):
            raise RuntimeError(f"task {x}")

        with pytest.raises(RuntimeError, match="task 0"):
            parallel_map(fail, range(2), workers=1, task_label="unit.fail")
        [fabric] = tracer.export()
        [task] = fabric["children"]
        assert fabric["status"] == task["status"] == "error"
        assert "RuntimeError: task 0" in task["error"]

    def test_adopt_without_context_is_a_noop(self, tracer):
        with tracer.adopt(None):
            with stage("lonely"):
                pass
        [root] = tracer.export()
        assert root["name"] == "lonely"
        assert root["parent_id"] is None
