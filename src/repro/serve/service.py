"""The scoring service: a stdlib HTTP front end over store + registry.

Endpoints (JSON unless noted):

=======================  ===================================================
``GET /healthz``         liveness + active model version + stored weeks
``GET /health``          SLO posture: per-objective attainment and
                         burn rates from the in-process monitor
``GET /metrics``         full metrics registry; ``?format=prometheus``
                         returns text exposition for a scraper
``GET /trace``           recorded span trees; ``?format=text`` renders the
                         flame-style report (requires ``REPRO_TRACE``)
``GET /score``           per-line P(ticket): ``?line=ID[&week=W]``
``GET /dispatch``        top-N dispatch list: ``?[week=W][&capacity=N]``
``GET /triage``          plant-level triage of a week's scores:
                         ``?[week=W][&capacity=N]`` -- upstream clusters
                         and the suppressed + backfilled dispatch plan
``GET /explain``         two-stage explanation report for one line:
                         ``?line=ID[&week=W][&top=K]`` -- exact
                         per-feature attributions with measured evidence,
                         plant context, predicted disposition and
                         templated technician next steps
``GET /locate``          disposition ranking: ``?line=ID[&week=W][&top=K]``
``GET /lifecycle``       continuous-training status: registry versions and
                         events, the signed decision log, chain validity
``POST /reload``         re-read the registry's active bundle and the store
=======================  ===================================================

``week`` defaults to the latest stored week.  The server is a
``ThreadingHTTPServer`` (stdlib only, per the no-new-deps rule); scored
weeks are cached per model version, so the common steady state -- many
reads of one Saturday's scores -- costs one sharded scoring run.
``/locate``, ``/explain`` and ``/dispatch?explain=1`` encode only the
lines they name, through the scoring shards' read+encode path.
:class:`ScoringService` keeps all routing logic in plain methods
returning ``(status, payload)`` pairs, so tests and ``repro explain``
can drive it without sockets.

All service telemetry lives on the :mod:`repro.obs` registry
(``repro_http_requests_total``, ``repro_http_request_seconds``, the
scoring totals); ``/metrics`` takes one snapshot under the registry lock
and formats it outside, so a slow scrape never blocks handler threads.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.fleet import find_clusters, plan_dispatches
from repro.obs.metrics import get_registry
from repro.obs.profile import stage
from repro.obs.slo import DEFAULT_SLOS, SLOMonitor
from repro.obs.tracing import flame_report, get_tracer, tracing_enabled
from repro.serve.cache import ScoreCache
from repro.serve.registry import ModelRegistry
from repro.serve.scoring import DEFAULT_SHARD_SIZE, ScoringEngine
from repro.serve.store import LineWeekStore, StoredWorld

__all__ = ["ScoringService", "make_server"]

#: Request latencies: cached reads are sub-millisecond (often tens of
#: microseconds), a cold scoring run can take seconds.
_REQUEST_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _ServiceError(Exception):
    """An error with an HTTP status, raised by route handlers."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ScoringService:
    """Serving state: one store, one registry, one active engine."""

    def __init__(
        self,
        store_root,
        registry_root,
        shard_size: int = DEFAULT_SHARD_SIZE,
        workers: int | None = None,
        require_model: bool = True,
        history=None,
        slos=None,
    ):
        """Args:
            store_root: line-week store directory.
            registry_root: model registry directory.
            shard_size: lines per scoring shard.
            workers: parallel-fabric worker override.
            require_model: raise at construction when the registry has no
                active version (the default).  ``False`` starts the
                service anyway -- scoring routes answer 503 until a
                bundle is activated and ``POST /reload`` succeeds, so a
                registry-only mount degrades instead of crashing.
            history: optional :class:`~repro.obs.history.HistoryStore`;
                SLO ticks and alerts are persisted there when given.
            slos: objective overrides for the SLO monitor (defaults to
                :data:`~repro.obs.slo.DEFAULT_SLOS`).
        """
        self.registry = ModelRegistry(registry_root)
        self.world = StoredWorld(LineWeekStore.open(store_root))
        self.shard_size = shard_size
        self.workers = workers
        self.engine: ScoringEngine | None = None
        # The (line, week, model_version) read cache outlives engine
        # reloads; registry activations invalidate it the moment the
        # active version moves (keeping the new version's entries warm).
        self.cache = ScoreCache()
        self.registry.add_listener(self._on_registry_event)
        self._started = time.time()
        self.slo_monitor = SLOMonitor(
            slos=slos if slos is not None else DEFAULT_SLOS,
            history=history,
        )

        metrics = get_registry()
        self._requests_total = metrics.counter(
            "repro_http_requests_total", "HTTP requests handled, by route"
        )
        self._request_seconds = metrics.histogram(
            "repro_http_request_seconds",
            "HTTP request handling latency, by route",
            buckets=_REQUEST_BUCKETS,
        )
        self._lines_scored_total = metrics.counter(
            "repro_serve_lines_scored_total",
            "Lines scored by uncached scoring runs",
        )
        self._scoring_seconds_total = metrics.counter(
            "repro_serve_scoring_seconds_total",
            "Wall time spent in uncached scoring runs",
        )
        self._last_week = metrics.gauge(
            "repro_serve_last_scoring_week", "Week of the last scoring run"
        )
        self._last_seconds = metrics.gauge(
            "repro_serve_last_scoring_seconds",
            "Wall time of the last scoring run",
        )
        self._last_rate = metrics.gauge(
            "repro_serve_last_lines_per_sec",
            "Throughput of the last scoring run",
        )
        self._uptime = metrics.gauge(
            "repro_serve_uptime_seconds", "Seconds since service construction"
        )
        self._explains_total = metrics.counter(
            "repro_serve_explains_total",
            "Explanation payloads rendered, by source route",
        )
        self._explain_seconds = metrics.histogram(
            "repro_serve_explain_seconds",
            "Wall time building one explanation report",
            buckets=_REQUEST_BUCKETS,
        )

        try:
            self.reload()
        except RuntimeError:
            if require_model:
                raise

    # ----- lifecycle ------------------------------------------------------

    def _on_registry_event(self, action: str, version: str | None) -> None:
        """Invalidate cached reads when the active model moves.

        Entries are version-pinned and immutable, so the (now or soon)
        active version's entries stay warm -- a rollback to a version
        that served recently answers its first read from cache.
        """
        self.cache.invalidate(reason=action, keep_version=version)

    def reload(self) -> str:
        """(Re)load the active bundle; re-read both manifests first.

        Re-reading the registry manifest makes activations and rollbacks
        written by other processes (or other ``ModelRegistry`` handles on
        the same root) take effect here.
        """
        self.world.refresh()
        self.registry.refresh()
        version = self.registry.active
        if version is None:
            raise RuntimeError(
                "registry has no active model version -- publish and "
                "activate a bundle first"
            )
        # External registry writers (the lifecycle controller runs its
        # own ModelRegistry instance on the same root) never fire this
        # service's listeners, so a reload re-pins the cache itself.
        self.cache.invalidate(reason="reload", keep_version=version)
        bundle = self.registry.load(version)
        self.engine = ScoringEngine(
            bundle,
            self.world,
            shard_size=self.shard_size,
            workers=self.workers,
            model_version=version,
            cache=self.cache,
        )
        return version

    def _require_engine(self) -> ScoringEngine:
        """The active engine, or a 503 while no model is loaded.

        Scoring routes degrade to Service Unavailable (instead of an
        assertion crash) when the service was mounted over a registry
        with no active version yet.
        """
        if self.engine is None:
            raise _ServiceError(
                503, "no active model loaded -- activate a version and "
                "POST /reload"
            )
        return self.engine

    @property
    def model_version(self) -> str:
        if self.engine is None:
            return "none"
        return self.engine.model_version or "unknown"

    # ----- shared helpers -------------------------------------------------

    def _resolve_week(self, query: dict[str, list[str]]) -> int:
        if "week" in query:
            week = _int_param(query, "week")
        else:
            week = self.world.store.latest_week
            if week < 0:
                raise _ServiceError(409, "the store holds no weeks yet")
        if week not in self.world.store.weeks:
            raise _ServiceError(404, f"week {week} is not in the store")
        return week

    def _scored(self, week: int):
        engine = self._require_engine()
        fresh = not engine.is_cached(week)
        scored = engine.score_week(week)
        if fresh:
            seconds = scored.prepare_seconds + scored.score_seconds
            self._lines_scored_total.inc(len(scored.scores))
            self._scoring_seconds_total.inc(seconds)
            self._last_week.set(week)
            self._last_seconds.set(seconds)
            self._last_rate.set(scored.lines_per_sec)
        return scored

    # ----- routes ---------------------------------------------------------

    def handle_healthz(self, query) -> tuple[int, dict]:
        del query
        store = self.world.store
        return 200, {
            "status": "ok" if self.engine is not None else "degraded",
            "model_version": self.model_version,
            "n_lines": store.n_lines,
            "weeks": store.weeks,
            "latest_week": store.latest_week,
        }

    def handle_health(self, query) -> tuple[int, dict]:
        del query
        payload = self.slo_monitor.status()
        payload["model_version"] = self.model_version
        payload["latest_week"] = self.world.store.latest_week
        return 200, payload

    def handle_metrics(self, query) -> tuple[int, dict | str]:
        self._uptime.set(time.time() - self._started)
        registry = get_registry()
        if _format_param(query) == "prometheus":
            return 200, registry.to_prometheus()

        # JSON view: the full snapshot plus the legacy summary keys the
        # ops tooling reads, all derived from one snapshot taken under
        # the registry lock and formatted here, outside it.
        snapshot = registry.snapshot()
        requests = {
            sample["labels"].get("route", ""): int(sample["value"])
            for sample in snapshot.get("repro_http_requests_total", {}).get(
                "samples", []
            )
        }
        lines_scored = _scalar(snapshot, "repro_serve_lines_scored_total")
        score_seconds = _scalar(snapshot, "repro_serve_scoring_seconds_total")
        return 200, {
            "model_version": self.model_version,
            "uptime_seconds": time.time() - self._started,
            "requests": requests,
            "lines_scored": int(lines_scored),
            "scoring_seconds_total": score_seconds,
            "mean_lines_per_sec": (
                lines_scored / score_seconds if score_seconds > 0 else 0.0
            ),
            "last_scoring": {
                "week": _scalar(snapshot, "repro_serve_last_scoring_week"),
                "seconds": _scalar(snapshot, "repro_serve_last_scoring_seconds"),
                "lines_per_sec": _scalar(snapshot, "repro_serve_last_lines_per_sec"),
            },
            "metrics": snapshot,
        }

    def handle_trace(self, query) -> tuple[int, dict | str]:
        spans = get_tracer().export()
        if _format_param(query) == "text":
            return 200, flame_report(spans) + "\n"
        return 200, {
            "tracing_enabled": tracing_enabled(),
            "spans": spans,
        }

    def handle_score(self, query) -> tuple[int, dict]:
        week = self._resolve_week(query)
        line = _int_param(query, "line")
        if not 0 <= line < self.world.n_lines:
            raise _ServiceError(404, f"line {line} out of range")
        scored = self._scored(week)
        return 200, {
            "line": line,
            "week": week,
            "day": scored.day,
            "p_ticket": float(scored.scores[line]),
            "model_version": self.model_version,
        }

    def handle_dispatch(self, query) -> tuple[int, dict]:
        week = self._resolve_week(query)
        self._scored(week)  # populate cache + metrics
        engine = self._require_engine()
        capacity = (
            _int_param(query, "capacity") if "capacity" in query else None
        )
        if capacity is not None and capacity < 0:
            raise _ServiceError(400, "capacity must be >= 0")
        dispatch = engine.dispatch(week, capacity)
        if _flag_param(query, "explain"):
            # Enriched form: each dispatched line travels with its exact
            # top-K attribution payload, so the hand-off to ATDS already
            # carries the evidence a technician (or triage UI) needs.
            top = _int_param(query, "top") if "top" in query else 3
            if top < 1:
                raise _ServiceError(400, "top must be >= 1")
            with stage("serve.explain", route="/dispatch") as st:
                payloads = engine.attribution_payloads(
                    week, dispatch.line_ids, top_k=top
                )
            self._explain_seconds.observe(st.seconds, route="/dispatch")
            dispatch = dispatch.with_attributions(payloads)
            self._explains_total.inc(len(payloads), route="/dispatch")
        return 200, dispatch.to_dict()

    def _week_triage(self, week: int):
        """The week's triage result, computed once per (week, version)."""
        engine = self._require_engine()
        triage = self.cache.get("triage", week, engine.model_version)
        if triage is not None:
            return triage
        scored = self._scored(week)
        capacity = engine.bundle.predictor.config.capacity
        topology = self.world.population().topology
        triage = find_clusters(scored.scores, topology, capacity)
        self.cache.put("triage", week, engine.model_version, triage)
        return triage

    def handle_explain(self, query) -> tuple[int, dict]:
        week = self._resolve_week(query)
        line = _int_param(query, "line")
        if not 0 <= line < self.world.n_lines:
            raise _ServiceError(404, f"line {line} out of range")
        top = _int_param(query, "top") if "top" in query else 5
        if top < 1:
            raise _ServiceError(400, "top must be >= 1")
        engine = self._require_engine()
        self._scored(week)  # scoring-run metrics for cold weeks
        triage = self._week_triage(week)
        with stage("serve.explain", route="/explain") as st:
            report = engine.explain(week, line, top_k=top, triage=triage)
        self._explain_seconds.observe(st.seconds, route="/explain")
        self._explains_total.inc(route="/explain")
        payload = report.to_dict()
        payload["rendered"] = report.render_text()
        return 200, payload

    def handle_triage(self, query) -> tuple[int, dict]:
        week = self._resolve_week(query)
        scored = self._scored(week)
        engine = self._require_engine()
        default_capacity = engine.bundle.predictor.config.capacity
        capacity = (
            _int_param(query, "capacity")
            if "capacity" in query
            else default_capacity
        )
        if capacity <= 0:
            raise _ServiceError(400, "capacity must be positive")
        if capacity == default_capacity:
            triage = self._week_triage(week)
        else:
            topology = self.world.population().topology
            triage = find_clusters(scored.scores, topology, capacity)
        plan = plan_dispatches(scored.scores, capacity, triage, week=week)
        payload = triage.to_dict()
        payload.update({
            "week": week,
            "day": scored.day,
            "model_version": self.model_version,
            "plan": plan.to_dict(),
        })
        return 200, payload

    def handle_locate(self, query) -> tuple[int, dict]:
        week = self._resolve_week(query)
        top = _int_param(query, "top") if "top" in query else 10
        if top < 1:
            raise _ServiceError(400, "top must be >= 1")
        engine = self._require_engine()
        if engine.bundle.locator is None:
            raise _ServiceError(
                409, "the active bundle was published without a locator"
            )
        if "lines" in query:
            # Batched form: ?lines=a,b,c -- all lines ranked off one
            # stacked multi-head locator pass.
            lines = _int_list_param(query, "lines")
            try:
                rankings = engine.locate_batch(week, lines, top_k=top)
            except IndexError as exc:
                raise _ServiceError(404, str(exc)) from None
            return 200, {
                "lines": lines,
                "week": week,
                "model_version": self.model_version,
                "rankings": rankings,
            }
        line = _int_param(query, "line")
        try:
            ranking = engine.locate(week, line, top_k=top)
        except IndexError as exc:
            raise _ServiceError(404, str(exc)) from None
        return 200, {
            "line": line,
            "week": week,
            "model_version": self.model_version,
            "ranking": ranking,
        }

    def handle_lifecycle(self, query) -> tuple[int, dict]:
        del query
        # Imported lazily: repro.lifecycle builds on repro.serve, so a
        # module-level import here would be circular.
        from repro.lifecycle.controller import lifecycle_status

        return 200, lifecycle_status(self.registry.root)

    def handle_reload(self, query) -> tuple[int, dict]:
        del query
        try:
            version = self.reload()
        except RuntimeError as exc:
            raise _ServiceError(503, str(exc)) from None
        return 200, {"status": "reloaded", "model_version": version}

    _GET_ROUTES = {
        "/healthz": handle_healthz,
        "/health": handle_health,
        "/metrics": handle_metrics,
        "/trace": handle_trace,
        "/score": handle_score,
        "/dispatch": handle_dispatch,
        "/explain": handle_explain,
        "/triage": handle_triage,
        "/locate": handle_locate,
        "/lifecycle": handle_lifecycle,
    }
    _POST_ROUTES = {"/reload": handle_reload}

    def dispatch_request(self, method: str, target: str) -> tuple[int, dict | str]:
        """Route one request; returns (HTTP status, payload).

        The payload is a JSON-ready dict for most routes; the prometheus
        and flame-text formats return a plain string, which the HTTP
        layer sends as ``text/plain``.
        """
        parts = urlsplit(target)
        routes = self._GET_ROUTES if method == "GET" else self._POST_ROUTES
        handler = routes.get(parts.path)
        if handler is None:
            # Unknown routes never reach the SLO monitor: a scanner
            # probing /favicon.ico must not burn error budget.
            return 404, {"error": f"unknown route {method} {parts.path}"}
        self._requests_total.inc(route=parts.path)
        start = time.perf_counter()
        try:
            result = handler(self, parse_qs(parts.query))
        except _ServiceError as exc:
            result = exc.status, {"error": str(exc)}
        except (KeyError, ValueError) as exc:
            result = 400, {"error": str(exc)}
        elapsed = time.perf_counter() - start
        self._request_seconds.observe(elapsed, route=parts.path)
        self.slo_monitor.observe(parts.path, elapsed, result[0])
        return result


def _int_param(query: dict[str, list[str]], name: str) -> int:
    values = query.get(name)
    if not values:
        raise _ServiceError(400, f"missing query parameter {name!r}")
    try:
        return int(values[0])
    except ValueError:
        raise _ServiceError(
            400, f"query parameter {name!r} must be an integer"
        ) from None


def _int_list_param(query: dict[str, list[str]], name: str) -> list[int]:
    values = query.get(name)
    if not values:
        raise _ServiceError(400, f"missing query parameter {name!r}")
    parts = [p for p in values[0].split(",") if p.strip()]
    if not parts:
        raise _ServiceError(
            400, f"query parameter {name!r} must list at least one integer"
        )
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise _ServiceError(
            400,
            f"query parameter {name!r} must be comma-separated integers",
        ) from None


def _flag_param(query: dict[str, list[str]], name: str) -> bool:
    values = query.get(name)
    if not values:
        return False
    return values[0].strip().lower() in ("1", "true", "yes", "on", "")


def _format_param(query: dict[str, list[str]]) -> str:
    values = query.get("format", ["json"])
    return values[0].strip().lower()


def _scalar(snapshot: dict, name: str) -> float:
    """The unlabelled sample value of a counter/gauge in a snapshot."""
    for sample in snapshot.get(name, {}).get("samples", []):
        if not sample["labels"]:
            return float(sample["value"])
    return 0.0


class _Handler(BaseHTTPRequestHandler):
    """Thin adapter around :meth:`ScoringService.dispatch_request`."""

    service: ScoringService  # set by make_server

    # HTTP/1.1 so connections persist across requests: pollers hit
    # /metrics and /healthz every few seconds, and per-request TCP
    # handshakes would dominate those tiny responses.  Safe because
    # _respond always sends an exact Content-Length.
    protocol_version = "HTTP/1.1"

    def _respond(self, method: str) -> None:
        status, payload = self.service.dispatch_request(method, self.path)
        route = urlsplit(self.path).path
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            if route == "/metrics":
                # Prometheus exposition carries its format version.
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            else:
                content_type = "text/plain; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json; charset=utf-8"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        # Telemetry and scores are moment-in-time reads; a cached
        # /metrics or /health answer is worse than a slow one.
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._respond("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._respond("POST")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging is the operator's reverse proxy's job


def make_server(
    service: ScoringService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server for the service (port 0 = ephemeral).

    The caller owns the lifecycle: ``serve_forever()`` to run,
    ``shutdown()`` + ``server_close()`` to stop.
    """
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)
