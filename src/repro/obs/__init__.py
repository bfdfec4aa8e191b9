"""Unified observability: metrics registry, span tracing, structured logs.

Three pillars, all stdlib-only:

* :mod:`repro.obs.metrics` -- a process-global, thread-safe registry of
  counters, gauges and fixed-bucket histograms, serializable as JSON and
  as Prometheus text exposition format;
* :mod:`repro.obs.tracing` -- ``with span("train.round", round=t):``
  hierarchical wall-time trees, toggled by ``REPRO_TRACE`` and free when
  disabled, with span contexts that worker threads adopt on fan-out;
* :mod:`repro.obs.log` -- stdlib logging with a key=value formatter,
  levelled by ``REPRO_LOG_LEVEL`` / ``--verbose``.

:mod:`repro.obs.report` renders a run's telemetry (``repro obs report``)
and :mod:`repro.obs.promcheck` validates exposition text in CI.

The *flight recorder* layer persists telemetry across runs:

* :mod:`repro.obs.history` -- append-only JSONL snapshot store with
  schema versioning, retention, and a ``query(name, window)`` API;
* :mod:`repro.obs.profile` -- ``with stage("serve.score_week") as st:``,
  the one way a block is timed: one clock reading per block feeds its
  span, an exact per-call ``repro_stage_wall_seconds{stage=...}``
  observation plus CPU/RSS series -- the one ledger that
  ``profile_snapshot()`` reads back per stage -- and the handle's
  ``st.seconds`` / ``st.cpu_seconds``; ``REPRO_PROFILE=mem`` adds
  allocation sites;
* :mod:`repro.obs.slo` -- declared serve objectives with multi-window
  burn-rate alerting feeding the history store and ``GET /health``;
* :mod:`repro.obs.health` -- EWMA trending over history series, the
  ``repro obs dashboard`` sparkline view.
"""

from repro.obs.health import (
    DEFAULT_CHECKS,
    HealthCheck,
    HealthDetector,
    HealthFinding,
    render_dashboard,
    sparkline,
)
from repro.obs.history import HistoryRecord, HistoryStore
from repro.obs.log import (
    LOG_LEVEL_ENV_VAR,
    RateLimitedLogger,
    configure_logging,
    get_logger,
    kv,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.profile import (
    PROFILE_ENV_VAR,
    profile_snapshot,
    reset_profiles,
    resource_section,
    stage,
)
from repro.obs.slo import DEFAULT_SLOS, SLO, SLOMonitor
from repro.obs.promcheck import check_prometheus_text, parse_samples
from repro.obs.report import collect_telemetry, render_report
from repro.obs.tracing import (
    TRACE_ENV_VAR,
    Span,
    SpanContext,
    Tracer,
    current_context,
    flame_report,
    get_tracer,
    set_tracer,
    set_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_CHECKS",
    "HealthCheck",
    "HealthDetector",
    "HealthFinding",
    "render_dashboard",
    "sparkline",
    "HistoryRecord",
    "HistoryStore",
    "LOG_LEVEL_ENV_VAR",
    "RateLimitedLogger",
    "configure_logging",
    "get_logger",
    "kv",
    "PROFILE_ENV_VAR",
    "profile_snapshot",
    "reset_profiles",
    "resource_section",
    "stage",
    "DEFAULT_SLOS",
    "SLO",
    "SLOMonitor",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "check_prometheus_text",
    "parse_samples",
    "collect_telemetry",
    "render_report",
    "TRACE_ENV_VAR",
    "Span",
    "SpanContext",
    "Tracer",
    "current_context",
    "flame_report",
    "get_tracer",
    "set_tracer",
    "set_tracing",
    "span",
    "tracing_enabled",
]
