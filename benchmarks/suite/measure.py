"""Measurement primitives shared by every workload of the suite.

* percentiles with the "at least ten samples beyond" rule for tails;
* quartile summaries and run-to-run spread (``--repeat``);
* :func:`end_to_end`, the four end-to-end metrics of a measured phase;
* :class:`Checks`, the counter behind ``attempted`` / ``failed``;
* :class:`SpanLog`, benchmark-side spans around each public call into a
  layer, which also harvests the spans the program itself records when
  ``REPRO_TRACE`` is on;
* self time and the per-op remainder arithmetic of the layer tables.

Spans carry ``time.perf_counter`` readings.  On Linux that clock is
``CLOCK_MONOTONIC``, shared by every process on the host, so spans
recorded in the server process line up with the client's.
"""

from __future__ import annotations

import itertools
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter

#: Tail percentiles tried from the highest down; one is reported only
#: when at least ``TAIL_MIN_BEYOND`` samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0-100) of ``samples``, linearly interpolated."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(samples) -> tuple[float, float] | None:
    """``(q, value)`` of the highest tail percentile with enough support.

    A percentile is supported when at least ``TAIL_MIN_BEYOND`` samples
    lie beyond it, i.e. ``n * (1 - q/100) >= TAIL_MIN_BEYOND``; returns
    None when even p90 is unsupported (fewer than 100 samples).
    """
    n = len(samples)
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            return q, percentile(samples, q)
    return None


def summary(values) -> dict:
    """Median, quartiles and quartile spread (as a share of the median)."""
    values = list(values)
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else float("inf"),
    }


def end_to_end(setups, peak_rss_kb, latencies, work, seconds,
               typical=statistics.median) -> dict:
    """The end-to-end metrics of one measured phase.

    ``latencies`` are the phase's operation times in seconds, reduced to
    ``latency_ms`` by ``typical``; ``work`` units were completed in
    ``seconds`` of it.
    """
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "latency_ms": typical(latencies) * 1e3,
        "throughput_per_s": work / seconds,
    }


class Checks:
    """Counts attempted and failed operations; keeps failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, what: str) -> bool:
        """Count one operation or output check; returns ``ok``."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(what)
        return ok


class SpanLog:
    """Benchmark-side spans: name, start, end, parent and a shared id.

    Disabled logs hand out a no-op context, so untraced runs pay one
    function call per span.  With ``program=True`` the log also turns on
    the program's own tracer and, at every span boundary, moves the
    spans the program recorded since the last boundary under the
    innermost open benchmark span.  Program spans export durations only,
    so they are kept as a breakdown of their parent, not as layers.
    """

    def __init__(self, enabled: bool, program: bool = False):
        self.enabled = enabled
        self.program = enabled and program
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        if self.program:
            from repro.obs.tracing import set_tracing

            set_tracing(True)

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _harvest(self, parent: dict | None) -> None:
        """Attach program spans recorded so far under ``parent``."""
        from repro.obs.tracing import get_tracer

        tracer = get_tracer()
        exported = tracer.export()
        tracer.reset()
        if parent is not None:
            self.add_program_spans(exported, parent["id"])

    def add_program_spans(self, exported: list[dict], parent_id) -> None:
        """Add exported program span trees as duration-only records."""
        for tree in exported:
            record = {
                "id": self.new_id(),
                "name": tree["name"],
                "parent": parent_id,
                "duration": float(tree["duration_seconds"]),
                "source": "program",
            }
            self.spans.append(record)
            self.add_program_spans(tree.get("children", []), record["id"])

    def new_id(self) -> str:
        with self._lock:
            return f"b{next(self._ids)}"

    @contextmanager
    def span(self, name: str, trace_id=None, **tags):
        """Record one span nested under the thread's innermost open span."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if self.program:
            self._harvest(parent)
        record = {
            "id": self.new_id(),
            "name": name,
            "trace_id": trace_id if trace_id is not None else (
                parent["trace_id"] if parent else None
            ),
            "parent": parent["id"] if parent else None,
            "start": perf_counter(),
            "end": None,
            **tags,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            if self.program:
                self._harvest(record)
            stack.pop()
            self.spans.append(record)

    def close(self) -> None:
        """Turn the program tracer back off and drop what it still holds."""
        if self.program:
            from repro.obs.tracing import get_tracer, set_tracing

            get_tracer().reset()
            set_tracing(None)


def _duration(span: dict) -> float:
    if "duration" in span:
        return span["duration"]
    return span["end"] - span["start"]


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_time(span: dict, children: list[dict]) -> float:
    """The span's duration minus the part its timed children cover.

    Program spans carry no start time, so only benchmark-side children
    (which do) are subtracted.
    """
    timed = [(c["start"], c["end"]) for c in children if "start" in c]
    return _duration(span) - _covered(span["start"], span["end"], timed)


def attribute(spans: list[dict], op_name: str) -> dict:
    """Split the time of every ``op_name`` span over the layers below it.

    Every benchmark-side span nested (at any depth) under an op span is a
    layer and contributes its self time; the ``unattributed`` remainder
    is the op time no layer span covers.  By construction
    ``sum(layers) + unattributed == total``.  Program spans under a
    layer are summed per name into ``program`` as that layer's
    breakdown.

    Returns ``{"ops", "total", "layers", "unattributed", "program"}``,
    times in seconds summed over all ops.
    """
    by_parent: dict = {}
    for s in spans:
        by_parent.setdefault(s.get("parent"), []).append(s)
    ops = [s for s in spans if s["name"] == op_name and "start" in s]
    total = 0.0
    layers: dict[str, float] = {}
    program: dict[str, dict[str, float]] = {}
    unattributed = 0.0

    def walk(layer: dict) -> None:
        kids = by_parent.get(layer["id"], [])
        layers[layer["name"]] = (
            layers.get(layer["name"], 0.0) + self_time(layer, kids)
        )
        for kid in kids:
            if "start" in kid:
                walk(kid)
            else:
                add_program(layer["name"], kid)

    def add_program(owner: str, span: dict) -> None:
        bucket = program.setdefault(owner, {})
        bucket[span["name"]] = bucket.get(span["name"], 0.0) + span["duration"]
        for kid in by_parent.get(span["id"], []):
            add_program(owner, kid)

    for op in ops:
        kids = [k for k in by_parent.get(op["id"], []) if "start" in k]
        total += _duration(op)
        unattributed += self_time(op, kids)
        for kid in kids:
            walk(kid)
    return {
        "ops": len(ops),
        "total": total,
        "layers": layers,
        "unattributed": unattributed,
        "program": program,
    }


def format_attribution(table: dict, remainder_name: str) -> str:
    """The per-layer self-time table of :func:`attribute`, as text."""
    total = table["total"] or 1e-12
    ops = max(table["ops"], 1)
    rows = sorted(table["layers"].items(), key=lambda kv: -kv[1])
    rows.append((remainder_name, table["unattributed"]))
    lines = [
        f"{'layer':<34} {'self s/op':>10} {'share':>7}",
        "-" * 53,
    ]
    for name, seconds in rows:
        lines.append(
            f"{name:<34} {seconds / ops:>10.4f} {100 * seconds / total:>6.1f}%"
        )
        for sub, sub_s in sorted(
            table["program"].get(name, {}).items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {sub:<32} {sub_s / ops:>10.4f}   (program span)")
    attributed = total - table["unattributed"]
    lines.append("-" * 53)
    lines.append(
        f"{'op total':<34} {total / ops:>10.4f} "
        f"({table['ops']} ops, {100 * attributed / total:.1f}% attributed)"
    )
    return "\n".join(lines)
