"""Span tracing: nesting, exception safety, propagation, idle cost."""

from __future__ import annotations

import time

import pytest

from repro.obs.tracing import (
    Tracer,
    _NOOP_SPAN,
    flame_report,
    set_tracer,
    set_tracing,
    span,
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
    def test_span_returns_the_shared_noop(self, disabled):
        assert not tracing_enabled()
        assert span("anything", week=3) is _NOOP_SPAN
        with span("anything") as s:
            s.set_tag("ignored", 1)  # must not raise

    def test_nothing_is_recorded(self, disabled):
        fresh = Tracer()
        previous = set_tracer(fresh)
        try:
            with span("a"):
                with span("b"):
                    pass
            assert fresh.export() == []
        finally:
            set_tracer(previous)

    def test_disabled_calls_are_cheap(self, disabled):
        # Loose sanity bound, not a benchmark: 50k no-op spans must be
        # far under a second (the bench guard enforces the real budget).
        start = time.perf_counter()
        for _ in range(50_000):
            with span("hot", index=1):
                pass
        assert time.perf_counter() - start < 1.0


class TestRecording:
    def test_nesting_builds_a_tree_with_tags(self, tracer):
        with span("parent", week=7) as p:
            with span("child.a"):
                pass
            with span("child.b"):
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
            with span("failing"):
                raise RuntimeError("boom")
        [root] = tracer.export()
        assert root["status"] == "error"
        assert "RuntimeError: boom" in root["error"]

    def test_flame_report_aggregates_siblings(self, tracer):
        with span("round"):
            pass
        with span("round"):
            pass
        text = flame_report(tracer.export())
        assert "round" in text and "x2" in text

    def test_flame_report_empty_mentions_the_toggle(self):
        assert "REPRO_TRACE" in flame_report([])


class TestPropagation:
    def test_worker_thread_spans_attach_to_the_submitting_span(self, tracer):
        with span("fanout"):
            parallel_map(
                lambda x: x + 1, range(6), workers=3, task_label="unit.task"
            )
        [root] = tracer.export()
        [fabric] = root["children"]
        assert fabric["name"] == "fabric.unit.task"
        tasks = [c for c in fabric["children"] if c["name"] == "unit.task"]
        assert len(tasks) == 6
        assert sorted(c["tags"]["index"] for c in tasks) == list(range(6))

    def test_adopt_without_context_is_a_noop(self, tracer):
        with tracer.adopt(None):
            with span("lonely"):
                pass
        [root] = tracer.export()
        assert root["name"] == "lonely"
        assert root["parent_id"] is None
