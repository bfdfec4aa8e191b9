"""The metrics registry: counters, gauges, and fixed-bucket histograms.

One process-global :class:`MetricsRegistry` (see :func:`get_registry`)
holds every metric the subsystems emit -- training round timings, the
pipeline's weekly quality gauges, the serving layer's request counters.
Design constraints, in order:

* **dependency-free** -- stdlib only, per the repo's no-new-deps rule;
* **thread-safe** -- the serving layer observes from handler threads and
  the parallel fabric from pool workers; one process-wide lock guards
  every mutation of every registry (observations are a dict lookup plus
  a float add, so the critical section is nanoseconds and never formats
  anything).  :func:`repro.obs.profile.stage` updates its four stage
  series under that same lock, taken once;
* **cheap when idle** -- a metric that is never observed costs one dict
  entry; reading (:meth:`MetricsRegistry.snapshot`) copies plain data
  under the lock so formatting happens outside it;
* **two serializations** -- :meth:`MetricsRegistry.to_json` for the
  report tooling and :meth:`MetricsRegistry.to_prometheus` emitting the
  text exposition format (``# HELP``/``# TYPE`` + escaped label pairs +
  cumulative ``le`` buckets) that a scraper ingests directly.

Metrics are get-or-create: ``registry.counter("x")`` returns the same
object every call and raises if ``x`` is already registered as another
kind.  Labels are passed per observation (``c.inc(1, route="/score")``)
and become one sample per distinct label set, Prometheus-style.
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left
from typing import Any

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]


def _validate_buckets(buckets) -> tuple[float, ...]:
    bounds = tuple(float(b) for b in buckets)
    if not bounds:
        raise ValueError("histogram needs at least one bucket boundary")
    if any(not math.isfinite(b) for b in bounds):
        raise ValueError("bucket boundaries must be finite (+Inf is implicit)")
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError("bucket boundaries must be strictly increasing")
    return bounds

#: Default latency buckets in seconds: sub-millisecond shard scores up to
#: multi-second training runs, with an implicit +Inf overflow bucket.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

_LabelKey = tuple[tuple[str, str], ...]

#: The one lock behind every registry's mutations and reads.
_LOCK = threading.Lock()


def _label_key(labels: dict[str, Any]) -> _LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Metric:
    """Shared shape of every metric: name, help text, the registry lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._lock = lock

    def _clear(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class _Value:
    """One counter or gauge series: a mutable float."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0


class Counter(_Metric):
    """A monotonically increasing sum, one series per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        super().__init__(name, help, lock)
        self._values: dict[_LabelKey, _Value] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(labels)
        with self._lock:
            self._cell(key).value += amount

    def _cell(self, key: _LabelKey) -> _Value:
        """One series, created on first use; the caller holds the lock."""
        cell = self._values.get(key)
        if cell is None:
            cell = self._values[key] = _Value()
        return cell

    def value(self, **labels) -> float:
        with self._lock:
            cell = self._values.get(_label_key(labels))
            return cell.value if cell is not None else 0.0

    def _samples(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(key), "value": cell.value}
            for key, cell in sorted(self._values.items())
        ]

    def _clear(self) -> None:
        self._values.clear()


class Gauge(Counter):
    """A value that can go up and down (e.g. queue depth, last precision)."""

    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._cell(key).value += amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def set(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._cell(key).value = float(value)


class _HistogramSeries:
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]):
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last slot = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one value; the caller holds the lock."""
        self.counts[bisect_left(self.buckets, value)] += 1  # inclusive bounds
        self.sum += value
        self.count += 1


class Histogram(_Metric):
    """Fixed-boundary histogram with an overflow (+Inf) bucket.

    Bucket semantics follow Prometheus: a boundary is an *inclusive*
    upper bound, so a value equal to a boundary lands in that boundary's
    bucket; anything above the last boundary lands in +Inf.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, lock)
        self.buckets = _validate_buckets(buckets)
        self._series: dict[_LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._cell(key).observe(float(value))

    def observe_many(self, values, **labels) -> None:
        """Record ``values`` in order into one series, under one lock pass.

        Counts and the running sum end up exactly as after one
        :meth:`observe` per value.
        """
        key = _label_key(labels)
        with self._lock:
            series = self._cell(key)
            for value in values:
                series.observe(float(value))

    def _cell(self, key: _LabelKey) -> _HistogramSeries:
        """One series, created on first use; the caller holds the lock."""
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(self.buckets)
        return series

    def series(self, **labels) -> tuple[list[int], float, int]:
        """(per-bucket counts incl. overflow, sum, count) for one label set."""
        with self._lock:
            s = self._series.get(_label_key(labels))
            if s is None:
                return [0] * (len(self.buckets) + 1), 0.0, 0
            return list(s.counts), s.sum, s.count

    def _samples(self) -> list[dict[str, Any]]:
        return [
            {
                "labels": dict(key),
                "counts": list(s.counts),
                "sum": s.sum,
                "count": s.count,
            }
            for key, s in sorted(self._series.items())
        ]

    def _clear(self) -> None:
        self._series.clear()


class MetricsRegistry:
    """A named collection of metrics with JSON and Prometheus output."""

    def __init__(self):
        self._lock = _LOCK
        self._metrics: dict[str, _Metric] = {}
        #: Bumped by :meth:`reset`; series cells resolved before a reset
        #: (see ``_cell``) are detached from the registry after it.
        self.generation = 0

    # ----- registration ---------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not type(existing) is cls:
                    raise ValueError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {cls.kind}"
                    )
                return existing
            metric = cls(name, help, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        """Get or create a histogram.

        Buckets are the caller's explicit ``buckets=``, else
        :data:`DEFAULT_BUCKETS`.  A get with boundaries different from
        the registered ones raises -- two call sites silently observing
        into differently-binned series is the bug this guards against.
        """
        resolved = (
            _validate_buckets(buckets) if buckets is not None
            else DEFAULT_BUCKETS
        )
        metric = self._get_or_create(Histogram, name, help, buckets=resolved)
        if metric.buckets != resolved:
            raise ValueError(
                f"histogram {name!r} is already registered with different "
                "bucket boundaries"
            )
        return metric

    # ----- reading --------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A plain-data copy of every metric, taken under the lock.

        Callers format/serialize the snapshot *outside* the lock, so a
        slow scrape never blocks observation paths.
        """
        with self._lock:
            out: dict[str, Any] = {}
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                entry: dict[str, Any] = {
                    "kind": metric.kind,
                    "help": metric.help,
                    "samples": metric._samples(),
                }
                if isinstance(metric, Histogram):
                    entry["buckets"] = list(metric.buckets)
                out[name] = entry
            return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def to_prometheus(self) -> str:
        """The text exposition format (version 0.0.4) of all metrics."""
        return exposition(self.snapshot())

    def reset(self) -> None:
        """Clear every metric's samples (definitions stay registered)."""
        with self._lock:
            for metric in self._metrics.values():
                metric._clear()
            self.generation += 1


# ----- Prometheus text exposition ----------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _fmt_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value)) if value != int(value) else str(int(value))


def _fmt_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def exposition(snapshot: dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as exposition text."""
    lines: list[str] = []
    for name, entry in snapshot.items():
        lines.append(f"# HELP {name} {_escape_help(entry.get('help') or name)}")
        lines.append(f"# TYPE {name} {entry['kind']}")
        if entry["kind"] == "histogram":
            bounds = entry["buckets"]
            for sample in entry["samples"]:
                labels = sample["labels"]
                cumulative = 0
                for bound, count in zip(bounds, sample["counts"]):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_fmt_labels(labels, {'le': _fmt_value(bound)})} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{name}_bucket{_fmt_labels(labels, {'le': '+Inf'})} "
                    f"{sample['count']}"
                )
                lines.append(
                    f"{name}_sum{_fmt_labels(labels)} "
                    f"{_fmt_value(sample['sum'])}"
                )
                lines.append(f"{name}_count{_fmt_labels(labels)} {sample['count']}")
        else:
            for sample in entry["samples"]:
                lines.append(
                    f"{name}{_fmt_labels(sample['labels'])} "
                    f"{_fmt_value(sample['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# ----- the process-global registry ----------------------------------------

_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry every subsystem emits into."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests); returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous

