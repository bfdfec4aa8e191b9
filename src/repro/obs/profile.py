"""``stage()``: the one way a block is timed -- span, metrics, profile.

``with stage("pipeline.score", week=w) as st:`` takes one
``perf_counter`` pair and one ``getrusage`` pair around the block and
feeds every sink from those same readings:

* the span tracer -- a span named ``name`` with the given tags, only
  while tracing is on (:mod:`repro.obs.tracing`); an exception marks it
  ``error`` and still records the block;
* the metrics registry, one exact observation per call --
  ``repro_stage_wall_seconds{stage=...}`` (histogram),
  ``repro_stage_cpu_seconds_total{stage=...}`` (counter),
  ``repro_stage_rss_delta_kb`` / ``repro_stage_peak_rss_kb`` (gauges);
* a process-local accumulation table (:func:`profile_snapshot`) that
  the benchmarks fold into their JSON reports via
  :func:`resource_section`;
* the handle itself: ``st.seconds`` (the wall time every sink saw),
  ``st.profile`` (a :class:`StageProfile`) and ``st.set_tag``.

CPU seconds are process-wide (``resource.getrusage``), so thread-pool
fan-out shows up as cpu > wall.  At the default level RSS figures are
the high-water mark (``ru_maxrss``), which is what capacity planning
reads and costs no extra syscall.  ``REPRO_PROFILE=mem`` turns on
``tracemalloc`` around each block, reads true current RSS from
``/proc/self/status``, and records the top-N allocation sites; it is
off by default because those probes cost real time.
"""

from __future__ import annotations

import os
import resource
import sys
from dataclasses import dataclass, field
from time import perf_counter

from repro.obs.metrics import _LOCK, _label_key, get_registry
from repro.obs.tracing import get_tracer, tracing_enabled

__all__ = [
    "PROFILE_ENV_VAR",
    "StageProfile",
    "stage",
    "profile_snapshot",
    "reset_profiles",
    "resource_section",
    "current_rss_kb",
    "peak_rss_kb",
    "cpu_seconds",
    "mem_profiling_enabled",
]

#: ``REPRO_PROFILE=mem`` turns on tracemalloc top-allocator capture.
PROFILE_ENV_VAR = "REPRO_PROFILE"

#: Stage wall times: sub-ms fabric fan-outs up to minutes-long trainings.
_STAGE_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

_TOP_ALLOCATORS = 5


def mem_profiling_enabled() -> bool:
    """True when ``REPRO_PROFILE=mem`` asks for allocation attribution."""
    return os.environ.get(PROFILE_ENV_VAR, "").strip().lower() == "mem"


# The profiling level is sampled once and cached: an environment read on
# every profiled block is measurable on the hot path.  Changing
# ``REPRO_PROFILE`` mid-process takes effect after
# :func:`reset_profiles` (which tests and benchmark sections call).
_MEM_MODE: bool | None = None


def _mem_mode() -> bool:
    global _MEM_MODE
    if _MEM_MODE is None:
        _MEM_MODE = mem_profiling_enabled()
    return _MEM_MODE


# ----- raw process readings -----------------------------------------------

_getrusage = resource.getrusage
_RUSAGE_SELF = resource.RUSAGE_SELF
#: ``ru_maxrss`` units per kB: Linux reports kB, macOS bytes.
_MAXRSS_PER_KB = 1024.0 if sys.platform == "darwin" else 1.0


def _maxrss_kb() -> float:
    """``ru_maxrss`` normalised to kB."""
    return _getrusage(_RUSAGE_SELF).ru_maxrss / _MAXRSS_PER_KB


# /proc/self/status is re-read with pread on one cached descriptor:
# pread does not move the offset, so concurrent profiled blocks share it
# safely, and the hot path pays one syscall instead of open/read/close.
_PROC_STATUS_FD: int | None = None
try:
    _PROC_STATUS_FD = os.open("/proc/self/status", os.O_RDONLY)
except OSError:
    _PROC_STATUS_FD = None


def _proc_status_kb(field_name: bytes) -> float | None:
    """A ``VmRSS``/``VmHWM`` line from /proc/self/status, in kB."""
    if _PROC_STATUS_FD is None:
        return None
    try:
        raw = os.pread(_PROC_STATUS_FD, 8192, 0)
    except OSError:
        return None
    start = raw.find(field_name)
    if start < 0:
        return None
    end = raw.find(b"\n", start)
    return float(raw[start:end].split()[1])


def current_rss_kb() -> float:
    """Resident set size right now, in kB (falls back to the peak when
    the platform cannot report a current value)."""
    rss = _proc_status_kb(b"VmRSS:")
    return rss if rss is not None else _maxrss_kb()


def peak_rss_kb() -> float:
    """Peak resident set size of this process so far, in kB.

    ``ru_maxrss`` *is* the high-water mark on Linux and macOS -- one
    cheap syscall, no /proc parsing on the hot path.
    """
    return _maxrss_kb()


def cpu_seconds() -> float:
    """User + system CPU seconds consumed by this process so far."""
    usage = _getrusage(_RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# ----- the profile record --------------------------------------------------

@dataclass(slots=True)
class StageProfile:
    """What one profiled block cost."""

    stage: str
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    rss_before_kb: float = 0.0
    rss_after_kb: float = 0.0
    rss_delta_kb: float = 0.0
    peak_rss_kb: float = 0.0
    calls: int = 1
    allocators: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "stage": self.stage,
            "calls": self.calls,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "rss_delta_kb": self.rss_delta_kb,
            "peak_rss_kb": self.peak_rss_kb,
        }
        if self.allocators:
            out["allocators"] = self.allocators
        return out


# Process-local accumulation, keyed by stage name.  Fabric workers
# profile concurrently, so it is guarded by the metrics lock: a stage's
# exit updates its row and its registry series in one acquisition.
# :func:`reset_profiles` bumps the generation, which detaches the rows
# stage sinks resolved before it.
_TABLE: dict[str, StageProfile] = {}
_TABLE_GENERATION = 0
# Bound once for the stage exit, which takes the lock on every block.
_acquire, _release = _LOCK.acquire, _LOCK.release


def profile_snapshot() -> dict[str, dict]:
    """Accumulated per-stage totals since the last :func:`reset_profiles`."""
    with _LOCK:
        return {
            name: p.to_dict() for name, p in sorted(_TABLE.items()) if p.calls
        }


def reset_profiles() -> None:
    """Clear the accumulation table (tests, benchmark section boundaries)."""
    global _MEM_MODE, _TABLE_GENERATION
    with _LOCK:
        _TABLE.clear()
        _TABLE_GENERATION += 1
    _MEM_MODE = None  # re-read REPRO_PROFILE on the next timed block


def resource_section() -> dict:
    """Process + per-stage resource summary for a ``BENCH_*.json`` report."""
    return {
        "peak_rss_kb": peak_rss_kb(),
        "current_rss_kb": current_rss_kb(),
        "cpu_seconds": cpu_seconds(),
        "mem_profiling": mem_profiling_enabled(),
        "stages": profile_snapshot(),
    }


# ----- the context manager -------------------------------------------------

def _stage_metrics(registry) -> tuple:
    """The four stage metrics of ``registry`` (get-or-create)."""
    return (
        registry.histogram(
            "repro_stage_wall_seconds",
            "Wall time per timed stage",
            buckets=_STAGE_BUCKETS,
        ),
        registry.counter(
            "repro_stage_cpu_seconds_total",
            "CPU (user+system) seconds per timed stage",
        ),
        registry.gauge(
            "repro_stage_rss_delta_kb",
            "RSS change across the last run of each timed stage",
        ),
        registry.gauge(
            "repro_stage_peak_rss_kb",
            "Process peak RSS at the end of each timed stage",
        ),
    )


class _StageSink:
    """Everything one stage name's exit updates, resolved once.

    The name's profile-table row and its four registry series cells, so
    an exit updates them with no label validation and no lookups.  A
    sink is current until its registry is reset or
    :func:`reset_profiles` clears the table (a generation moves on).
    """

    __slots__ = (
        "registry", "generation", "table_generation", "row",
        "wall", "cpu", "rss_delta", "rss_peak",
    )

    def __init__(self, registry, name: str):
        key = _label_key({"stage": name})
        metrics = _stage_metrics(registry)
        with _LOCK:
            self.registry = registry
            self.generation = registry.generation
            self.table_generation = _TABLE_GENERATION
            row = _TABLE.get(name)
            if row is None:
                row = _TABLE[name] = StageProfile(stage=name, calls=0)
            self.row = row
            self.wall, self.cpu, self.rss_delta, self.rss_peak = (
                metric._cell(key) for metric in metrics
            )


# The benign race (two threads resolving the same name) is harmless.
_SINKS: dict[str, _StageSink] = {}


def _resolve_sink(registry, name: str) -> _StageSink:
    """A fresh sink for ``name`` -- the stage exit's slow path."""
    sink = _SINKS[name] = _StageSink(registry, name)
    return sink


class stage:
    """Time one block: ``with stage("serve.score_week", week=w) as st:``.

    Args:
        name: the stage name -- the span name, the ``stage`` label of
            the registry metrics, and the :func:`profile_snapshot` key.
        registry: metrics registry to emit to (default: the global one).
        **tags: span tags (recorded only while tracing is on).

    On exit ``st.seconds`` is the block's wall time -- the same float the
    span, the histogram and the table received -- and ``st.profile``
    materialises the full :class:`StageProfile` on first access, so hot
    loops that never inspect it skip the construction.  CPU time is
    process-wide (getrusage), so concurrent blocks each see the shared
    total -- fine for the pipeline's serialized stages and the fabric's
    one-fan-out-at-a-time usage, and documented rather than papered over.

    The default-level path is kept to its two ``perf_counter`` and two
    ``getrusage`` readings, one lock acquisition and plain float
    updates: the serving path wraps every shard's ensemble fold in a
    stage, and ``bench_perf.py`` holds the wrap under 3% of that fold.
    """

    __slots__ = (
        "name", "_registry", "_tags", "_span", "_tracer", "_mem",
        "_owns_tracemalloc", "_allocators", "_cpu_before", "_rss_before",
        "_wall_before", "_wall", "_cpu", "_rss_after", "_peak", "_profile",
    )

    def __init__(self, name: str, registry=None, **tags):
        self.name = name
        self._registry = registry
        self._tags = tags
        self._span = None
        self._allocators: list[dict] = _NO_ALLOCATORS
        self._wall: float | None = None
        self._profile: StageProfile | None = None

    @property
    def seconds(self) -> float | None:
        """Wall time of the block (None until the block exits)."""
        return self._wall

    @property
    def profile(self) -> StageProfile | None:
        """The measured block cost (None until the block exits)."""
        if self._wall is None:
            return None
        if self._profile is None:
            self._profile = StageProfile(
                stage=self.name,
                wall_seconds=self._wall,
                cpu_seconds=self._cpu,
                rss_before_kb=self._rss_before,
                rss_after_kb=self._rss_after,
                rss_delta_kb=self._rss_after - self._rss_before,
                peak_rss_kb=self._peak,
                allocators=list(self._allocators),
            )
        return self._profile

    def set_tag(self, key: str, value) -> None:
        """Tag the block's span (a no-op while tracing is off)."""
        if self._span is not None:
            self._span.set_tag(key, value)

    def __enter__(self) -> "stage":
        mem = self._mem = _mem_mode()
        if mem:
            self._owns_tracemalloc = _start_tracemalloc()
        # Default level: one getrusage syscall -- RSS-before is the
        # high-water mark, so rss_delta measures peak *growth*.  Mem
        # mode pays the /proc read for a true current-RSS delta.
        usage = _getrusage(_RUSAGE_SELF)
        self._cpu_before = usage.ru_utime + usage.ru_stime
        self._rss_before = (
            current_rss_kb() if mem else usage.ru_maxrss / _MAXRSS_PER_KB
        )
        start = self._wall_before = perf_counter()
        if tracing_enabled():
            tracer = self._tracer = get_tracer()
            self._span = tracer.start_span(self.name, self._tags, start)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = perf_counter()
        wall = self._wall = end - self._wall_before
        if self._span is not None:
            self._tracer.end_span(self._span, end, exc)
        usage = _getrusage(_RUSAGE_SELF)
        cpu = self._cpu = usage.ru_utime + usage.ru_stime - self._cpu_before
        peak = self._peak = usage.ru_maxrss / _MAXRSS_PER_KB
        if self._mem:
            rss_after = current_rss_kb()
            if self._owns_tracemalloc:
                self._allocators = _stop_tracemalloc()
        else:
            rss_after = peak
        self._rss_after = rss_after
        delta = rss_after - self._rss_before
        registry = self._registry
        if registry is None:
            registry = get_registry()
        sink = _SINKS.get(self.name)
        if (
            sink is None
            or sink.registry is not registry
            or sink.generation != registry.generation
            or sink.table_generation != _TABLE_GENERATION
        ):
            sink = _resolve_sink(registry, self.name)
        row = sink.row
        # acquire/release rather than ``with``: the context-manager
        # protocol costs more than the dozen float updates it guards.
        _acquire()
        try:
            row.calls += 1
            row.wall_seconds += wall
            row.cpu_seconds += cpu
            row.rss_after_kb = rss_after
            row.rss_delta_kb += delta
            if peak > row.peak_rss_kb:
                row.peak_rss_kb = peak
            if self._allocators:
                row.allocators = self._allocators
            sink.wall.observe(wall)
            if cpu > 0.0:
                sink.cpu.value += cpu
            sink.rss_delta.value = delta
            sink.rss_peak.value = peak
        finally:
            _release()
        return False


# ----- REPRO_PROFILE=mem -----------------------------------------------------

#: Shared by every block that captured no allocation sites; never mutated.
_NO_ALLOCATORS: list[dict] = []


def _start_tracemalloc() -> bool:
    """Start tracemalloc for one block; False if someone else owns it."""
    import tracemalloc

    if tracemalloc.is_tracing():
        return False
    tracemalloc.start()
    return True


def _stop_tracemalloc() -> list[dict]:
    """Stop tracemalloc and return the block's top allocation sites."""
    import tracemalloc

    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    allocators = []
    for stat in snapshot.statistics("lineno")[:_TOP_ALLOCATORS]:
        frame = stat.traceback[0]
        allocators.append({
            "site": f"{frame.filename}:{frame.lineno}",
            "size_kb": stat.size / 1024.0,
            "count": stat.count,
        })
    return allocators
