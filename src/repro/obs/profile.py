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
import threading
from dataclasses import dataclass, field
from time import perf_counter

from repro.obs.metrics import get_registry
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

def _maxrss_kb() -> float:
    """``ru_maxrss`` normalised to kB (Linux reports kB, macOS bytes)."""
    value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return value / 1024.0
    return float(value)


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
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _rusage_readings() -> tuple[float, float]:
    """(cpu seconds, peak RSS kB) from a single ``getrusage`` syscall."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    maxrss = usage.ru_maxrss
    if sys.platform == "darwin":
        maxrss /= 1024.0
    return usage.ru_utime + usage.ru_stime, float(maxrss)


# ----- the profile record --------------------------------------------------

@dataclass
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


# Process-local accumulation, keyed by stage name.  Guarded by its own
# lock (not the metrics registry's): fabric workers profile concurrently.
_TABLE_LOCK = threading.Lock()
_TABLE: dict[str, StageProfile] = {}


def _accumulate(
    stage: str,
    wall: float,
    cpu: float,
    rss_before: float,
    rss_after: float,
    peak: float,
    allocators: list[dict] | None = None,
) -> None:
    """Fold one block's raw readings into the table.

    Takes plain floats (not a :class:`StageProfile`) so the hot path
    never pays a dataclass construction for a block nobody inspects.
    """
    with _TABLE_LOCK:
        total = _TABLE.get(stage)
        if total is None:
            _TABLE[stage] = StageProfile(
                stage=stage,
                wall_seconds=wall,
                cpu_seconds=cpu,
                rss_before_kb=rss_before,
                rss_after_kb=rss_after,
                rss_delta_kb=rss_after - rss_before,
                peak_rss_kb=peak,
                allocators=list(allocators) if allocators else [],
            )
            return
        total.calls += 1
        total.wall_seconds += wall
        total.cpu_seconds += cpu
        total.rss_after_kb = rss_after
        total.rss_delta_kb += rss_after - rss_before
        total.peak_rss_kb = max(total.peak_rss_kb, peak)
        if allocators:
            total.allocators = allocators


def profile_snapshot() -> dict[str, dict]:
    """Accumulated per-stage totals since the last :func:`reset_profiles`."""
    with _TABLE_LOCK:
        return {name: p.to_dict() for name, p in sorted(_TABLE.items())}


def reset_profiles() -> None:
    """Clear the accumulation table (tests, benchmark section boundaries)."""
    global _MEM_MODE
    with _TABLE_LOCK:
        _TABLE.clear()
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

# Metric handles are cached per registry object so a timed block in a
# hot loop pays dict-lookup-and-compare once, not four get-or-creates.
# The benign race (two threads computing the same tuple) is harmless.
_METRIC_CACHE: tuple | None = None


def _stage_metrics(registry):
    global _METRIC_CACHE
    cached = _METRIC_CACHE
    if cached is not None and cached[0] is registry:
        return cached[1:]
    handles = (
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
    _METRIC_CACHE = (registry, *handles)
    return handles

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
    """

    def __init__(self, name: str, registry=None, **tags):
        self.name = name
        self._registry = registry
        self._tags = tags
        self._span = None
        self._profile: StageProfile | None = None
        self._done = False
        self._tracemalloc = None
        self._allocators: list[dict] = []

    @property
    def seconds(self) -> float | None:
        """Wall time of the block (None until the block exits)."""
        return self._wall if self._done else None

    @property
    def profile(self) -> StageProfile | None:
        """The measured block cost (None until the block exits)."""
        if not self._done:
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
                allocators=self._allocators,
            )
        return self._profile

    def set_tag(self, key: str, value) -> None:
        """Tag the block's span (a no-op while tracing is off)."""
        if self._span is not None:
            self._span.set_tag(key, value)

    def __enter__(self) -> "stage":
        self._mem = _mem_mode()
        if self._mem:
            import tracemalloc

            self._tracemalloc = tracemalloc
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            else:
                self._tracemalloc = None  # someone else owns the tracer
        # Default level: one getrusage syscall -- RSS-before is the
        # high-water mark, so rss_delta measures peak *growth*.  Mem
        # mode pays the /proc read for a true current-RSS delta.
        self._cpu_before, maxrss = _rusage_readings()
        self._rss_before = current_rss_kb() if self._mem else maxrss
        self._wall_before = perf_counter()
        if tracing_enabled():
            self._tracer = get_tracer()
            self._span = self._tracer.start_span(
                self.name, self._tags, self._wall_before
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = perf_counter()
        wall = end - self._wall_before
        if self._span is not None:
            self._tracer.end_span(self._span, end, exc)
        cpu_after, peak = _rusage_readings()
        cpu = cpu_after - self._cpu_before
        rss_after = current_rss_kb() if self._mem else peak
        if self._tracemalloc is not None:
            snapshot = self._tracemalloc.take_snapshot()
            self._tracemalloc.stop()
            for stat in snapshot.statistics("lineno")[:_TOP_ALLOCATORS]:
                frame = stat.traceback[0]
                self._allocators.append({
                    "site": f"{frame.filename}:{frame.lineno}",
                    "size_kb": stat.size / 1024.0,
                    "count": stat.count,
                })
        self._wall = wall
        self._cpu = cpu
        self._rss_after = rss_after
        self._peak = peak
        self._done = True
        _accumulate(
            self.name, wall, cpu, self._rss_before, rss_after, peak,
            self._allocators or None,
        )
        registry = (
            self._registry if self._registry is not None else get_registry()
        )
        wall_hist, cpu_total, rss_delta, rss_peak = _stage_metrics(registry)
        wall_hist.observe(wall, stage=self.name)
        cpu_total.inc(max(cpu, 0.0), stage=self.name)
        rss_delta.set(rss_after - self._rss_before, stage=self.name)
        rss_peak.set(peak, stage=self.name)
        return False
