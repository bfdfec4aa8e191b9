"""``stage()``: the one way a block is timed -- span, metrics, handle.

``with stage("pipeline.score", week=w) as st:`` takes one
``perf_counter`` pair and one ``getrusage`` pair around the block and
feeds every sink from those same readings:

* the span tracer -- a span named ``name`` with the given tags, only
  while tracing is on (:mod:`repro.obs.tracing`); an exception marks it
  ``error`` and still records the block;
* the global metrics registry, one exact observation per call and the
  only ledger of stage costs --
  ``repro_stage_wall_seconds{stage=...}`` (histogram: calls and wall
  seconds), ``repro_stage_cpu_seconds_total{stage=...}`` (counter),
  ``repro_stage_rss_delta_kb`` (gauge: the summed RSS growth) and
  ``repro_stage_peak_rss_kb`` (gauge: the largest peak RSS seen at an
  exit).  :func:`profile_snapshot` reads these four series back as
  per-stage totals, which the benchmarks fold into their JSON reports
  via :func:`resource_section`;
* the handle itself: ``st.seconds`` (the wall time every sink saw),
  ``st.cpu_seconds``, ``st.peak_rss_kb``, ``st.allocators`` and
  ``st.set_tag``.

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
from time import perf_counter

from repro.obs.metrics import _LOCK, _label_key, get_registry
from repro.obs.tracing import get_tracer, tracing_enabled

__all__ = [
    "PROFILE_ENV_VAR",
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
# :func:`reset_profiles` (which tests call at their boundaries).
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


# ----- the ledger: the registry's four stage series -----------------------

#: Wall (histogram), CPU (counter), summed RSS delta and max peak (gauges).
_STAGE_SERIES = (
    "repro_stage_wall_seconds",
    "repro_stage_cpu_seconds_total",
    "repro_stage_rss_delta_kb",
    "repro_stage_peak_rss_kb",
)

# The last allocation sites per stage name -- a list, which no registry
# series can hold.  Written only under ``REPRO_PROFILE=mem``.
_ALLOCATORS: dict[str, list[dict]] = {}
# Bound once for the stage exit, which takes the lock on every block.
_acquire, _release = _LOCK.acquire, _LOCK.release


def profile_snapshot() -> dict[str, dict]:
    """Per-stage totals since the last :func:`reset_profiles`, read from
    the global registry's stage series."""
    metrics = get_registry()._metrics
    with _LOCK:
        if any(name not in metrics for name in _STAGE_SERIES):
            return {}
        wall, cpu, rss_delta, rss_peak = (
            metrics[name] for name in _STAGE_SERIES
        )
        out = {}
        for key, timed in sorted(wall._series.items()):
            if not timed.count:
                continue
            name = dict(key)["stage"]
            out[name] = {
                "stage": name,
                "calls": timed.count,
                "wall_seconds": timed.sum,
                "cpu_seconds": cpu._values[key].value,
                "rss_delta_kb": rss_delta._values[key].value,
                "peak_rss_kb": rss_peak._values[key].value,
            }
            if name in _ALLOCATORS:
                out[name]["allocators"] = _ALLOCATORS[name]
        return out


def reset_profiles() -> None:
    """Clear the global registry's stage series and allocation sites
    (a section boundary); every other metric keeps its value."""
    global _MEM_MODE
    registry = get_registry()
    with _LOCK:
        for name in _STAGE_SERIES:
            metric = registry._metrics.get(name)
            if metric is not None:
                metric._clear()
        registry.generation += 1  # detaches the cells sinks resolved
        _ALLOCATORS.clear()
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
    wall, cpu, rss_delta, rss_peak = _STAGE_SERIES
    return (
        registry.histogram(
            wall, "Wall time per timed stage", buckets=_STAGE_BUCKETS,
        ),
        registry.counter(cpu, "CPU (user+system) seconds per timed stage"),
        registry.gauge(
            rss_delta, "RSS change summed over the runs of each timed stage",
        ),
        registry.gauge(
            rss_peak, "Largest process peak RSS at an exit of each timed stage",
        ),
    )


class _StageSink:
    """One stage name's four registry series cells, resolved once.

    An exit updates them with no label validation and no lookups.  A
    sink is current until its registry is reset or :func:`reset_profiles`
    clears the stage series (either moves the registry generation on).
    """

    __slots__ = ("registry", "generation", "wall", "cpu", "rss_delta", "rss_peak")

    def __init__(self, registry, name: str):
        key = _label_key({"stage": name})
        metrics = _stage_metrics(registry)
        with _LOCK:
            self.registry = registry
            self.generation = registry.generation
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
        **tags: span tags (recorded only while tracing is on).

    On exit the handle holds the block's own readings, each None until
    then: ``st.seconds`` (the wall time -- the same float the span and
    the histogram received), ``st.cpu_seconds``, ``st.peak_rss_kb`` and
    ``st.allocators`` (empty unless ``REPRO_PROFILE=mem``).  CPU time is
    process-wide (getrusage), so concurrent blocks each see the shared
    total -- fine for the pipeline's serialized stages and the fabric's
    one-fan-out-at-a-time usage, and documented rather than papered over.

    The default-level path is kept to its two ``perf_counter`` and two
    ``getrusage`` readings, one lock acquisition and plain float
    updates: the serving path wraps every shard's ensemble fold in a
    stage, and ``bench_perf.py`` holds the wrap under 3% of that fold.
    """

    __slots__ = (
        "name", "_tags", "_span", "_tracer", "_mem", "_owns_tracemalloc",
        "_cpu_before", "_rss_before", "_wall_before",
        "seconds", "cpu_seconds", "peak_rss_kb", "allocators",
    )

    def __init__(self, name: str, **tags):
        self.name = name
        self._tags = tags
        self._span = None
        self.seconds = self.cpu_seconds = self.peak_rss_kb = None
        self.allocators: list[dict] | None = None

    def set_tag(self, key: str, value) -> None:
        """Tag the block's span (a no-op while tracing is off)."""
        if self._span is not None:
            self._span.set_tag(key, value)

    def __enter__(self) -> "stage":
        mem = self._mem = _mem_mode()
        if mem:
            self._owns_tracemalloc = _start_tracemalloc()
        # Default level: one getrusage syscall -- RSS-before is the
        # high-water mark, so the RSS delta measures peak *growth*.  Mem
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
        wall = self.seconds = end - self._wall_before
        if self._span is not None:
            self._tracer.end_span(self._span, end, exc)
        usage = _getrusage(_RUSAGE_SELF)
        cpu = self.cpu_seconds = (
            usage.ru_utime + usage.ru_stime - self._cpu_before
        )
        peak = self.peak_rss_kb = usage.ru_maxrss / _MAXRSS_PER_KB
        if self._mem:
            delta = current_rss_kb() - self._rss_before
            allocators = self.allocators = (
                _stop_tracemalloc() if self._owns_tracemalloc else []
            )
            if allocators:
                _ALLOCATORS[self.name] = allocators
        else:
            delta = peak - self._rss_before
            self.allocators = []
        registry = get_registry()
        sink = _SINKS.get(self.name)
        if (
            sink is None
            or sink.registry is not registry
            or sink.generation != registry.generation
        ):
            sink = _resolve_sink(registry, self.name)
        # acquire/release rather than ``with``: the context-manager
        # protocol costs more than the few float updates it guards.
        _acquire()
        try:
            sink.wall.observe(wall)
            if cpu > 0.0:
                sink.cpu.value += cpu
            sink.rss_delta.value += delta
            rss_peak = sink.rss_peak
            if peak > rss_peak.value:
                rss_peak.value = peak
        finally:
            _release()
        return False


# ----- REPRO_PROFILE=mem -----------------------------------------------------

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
