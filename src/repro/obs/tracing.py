"""Span tracing: hierarchical wall-time trees, the stage's trace sink.

Every timed block is a :func:`repro.obs.profile.stage`; while tracing is
on, the stage also records a span through :meth:`Tracer.start_span` /
:meth:`Tracer.end_span` on its own clock readings, so the span and the
stage ledger hold the same wall time.  Spans nest per thread, carry the
stage's tags and error status, and export as JSON trees or a
flame-style text report.  Tracing is **off by default**: the
``REPRO_TRACE`` environment variable (read at import) or
:func:`set_tracing` turns it on, and when it is off no span is built.

Thread fan-out: a worker thread cannot see the submitting thread's span
stack, so the fabric captures a :class:`SpanContext` (just the parent
span id) before fan-out and each task adopts it (:meth:`Tracer.adopt`);
the child span attaches to the still-open parent through the tracer's
id index.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, NamedTuple

__all__ = [
    "TRACE_ENV_VAR",
    "Span",
    "SpanContext",
    "Tracer",
    "tracing_enabled",
    "set_tracing",
    "get_tracer",
    "set_tracer",
    "current_context",
    "flame_report",
]

TRACE_ENV_VAR = "REPRO_TRACE"

_FALSY = {"", "0", "false", "no", "off"}


def _env_enabled() -> bool:
    return os.environ.get(TRACE_ENV_VAR, "").strip().lower() not in _FALSY


# Read once here and again on every set_tracing(): every stage() entry
# asks, and an environment lookup per timed block shows on the hot path.
_enabled = _env_enabled()


def tracing_enabled() -> bool:
    """Whether spans record.

    The programmatic override from :func:`set_tracing`, else
    ``REPRO_TRACE`` as read at import (or at the last
    ``set_tracing(None)``).
    """
    return _enabled


def set_tracing(enabled: bool | None) -> None:
    """Force tracing on/off; ``None`` re-reads ``REPRO_TRACE``."""
    global _enabled
    _enabled = _env_enabled() if enabled is None else bool(enabled)


class Span:
    """One timed operation: name, tags, children, error status."""

    __slots__ = (
        "span_id", "parent_id", "name", "tags",
        "start", "end", "status", "error", "children",
    )

    def __init__(self, span_id: str, name: str, tags: dict[str, Any]):
        self.span_id = span_id
        self.parent_id: str | None = None
        self.name = name
        self.tags = tags
        self.start = 0.0
        self.end: float | None = None
        self.status = "ok"
        self.error: str | None = None
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else perf_counter()) - self.start

    def set_tag(self, key: str, value: Any) -> None:
        self.tags[key] = value

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "tags": dict(self.tags),
            "duration_seconds": self.duration,
            "status": self.status,
            "error": self.error,
            "children": [child.to_dict() for child in self.children],
        }


class SpanContext(NamedTuple):
    """A reference to a span that another thread can adopt as its parent."""

    span_id: str | None


class Tracer:
    """Per-process span recorder with per-thread nesting stacks."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._index: dict[str, Span] = {}
        self._roots: list[Span] = []

    # ----- internals ------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> str:
        return f"{os.getpid():x}-{next(self._ids):x}"

    # ----- recording ------------------------------------------------------

    def start_span(
        self, name: str, tags: dict[str, Any], start: float
    ) -> Span:
        """Start a span at ``start``; nests under the thread's innermost
        open span (or an adopted remote parent).  Pair with :meth:`end_span`."""
        stack = self._stack()
        s = Span(self._new_id(), name, tags)
        if stack:
            s.parent_id = stack[-1].span_id
        else:
            s.parent_id = getattr(self._local, "remote_parent", None)
        with self._lock:
            self._index[s.span_id] = s
        stack.append(s)
        s.start = start
        return s

    def end_span(
        self, s: Span, end: float, exc: BaseException | None
    ) -> None:
        """Finish a span from :meth:`start_span` at ``end``; ``exc`` marks
        it as failed."""
        if exc is not None:
            s.status = "error"
            s.error = f"{type(exc).__name__}: {exc}"
        s.end = end
        stack = self._stack()
        if stack and stack[-1] is s:  # a reset() mid-span drops the stack
            stack.pop()
        with self._lock:
            owner = (
                self._index.get(s.parent_id) if s.parent_id is not None
                else None
            )
            if owner is not None:
                owner.children.append(s)
            else:
                if s.parent_id is not None:
                    s.tags.setdefault("remote_parent", s.parent_id)
                self._roots.append(s)

    # ----- propagation ----------------------------------------------------

    def current_context(self) -> SpanContext:
        """A handle to the calling thread's innermost span."""
        stack = self._stack()
        if stack:
            return SpanContext(stack[-1].span_id)
        return SpanContext(getattr(self._local, "remote_parent", None))

    @contextmanager
    def adopt(self, context: SpanContext | None):
        """Parent this thread's new root spans under ``context``."""
        if context is None or context.span_id is None:
            yield
            return
        previous = getattr(self._local, "remote_parent", None)
        self._local.remote_parent = context.span_id
        try:
            yield
        finally:
            self._local.remote_parent = previous

    # ----- reading --------------------------------------------------------

    def export(self) -> list[dict[str, Any]]:
        """JSON-ready trees of every finished top-level span."""
        with self._lock:
            return [s.to_dict() for s in self._roots]

    def report(self) -> str:
        """A flame-style indented text rendering of the recorded trees."""
        return flame_report(self.export())

    def reset(self) -> None:
        """Drop all recorded spans and per-thread nesting state."""
        with self._lock:
            self._roots.clear()
            self._index.clear()
            self._local = threading.local()


def flame_report(spans: list[dict[str, Any]], max_depth: int = 12) -> str:
    """Aggregate span trees by (depth, name) into an indented timing table.

    Sibling spans with the same name fold into one line with a call count
    and total/mean wall time; each line shows its share of the parent's
    total, flame-graph style.
    """
    lines: list[str] = []

    def walk(level: list[dict[str, Any]], depth: int, parent_total: float) -> None:
        if depth >= max_depth or not level:
            return
        groups: dict[str, list[dict[str, Any]]] = {}
        for s in level:
            groups.setdefault(s["name"], []).append(s)
        ordered = sorted(
            groups.items(),
            key=lambda kv: -sum(s["duration_seconds"] for s in kv[1]),
        )
        for name, group in ordered:
            total = sum(s["duration_seconds"] for s in group)
            count = len(group)
            errors = sum(1 for s in group if s["status"] != "ok")
            share = 100.0 * total / parent_total if parent_total > 0 else 100.0
            label = "  " * depth + name
            suffix = f"  [{errors} error(s)]" if errors else ""
            lines.append(
                f"{label:<44} x{count:<5} {total:>9.3f}s "
                f"{total / count:>9.4f}s/call {share:>5.1f}%{suffix}"
            )
            walk(
                [c for s in group for c in s["children"]],
                depth + 1,
                total,
            )

    grand_total = sum(s["duration_seconds"] for s in spans)
    walk(spans, 0, grand_total)
    if not lines:
        return "(no spans recorded -- set REPRO_TRACE=1 to enable tracing)"
    header = f"{'span':<44} {'count':<6} {'total':>9}  {'per call':>10} {'share':>6}"
    return "\n".join([header, "-" * len(header), *lines])


# ----- the process-global tracer -------------------------------------------

_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer (tests); returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def current_context() -> SpanContext:
    """Context of the calling thread's innermost span (fan-out capture)."""
    return _TRACER.current_context()
