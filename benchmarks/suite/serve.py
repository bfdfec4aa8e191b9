"""serve_read and serve_churn: technician and ops reads over HTTP.

The store (``plant_weeks`` stored weeks, dense mode) and a registry
holding the fixture bundle -- predictor plus a production-shaped locator
-- published twice are served by ``ScoringService`` + ``make_server``
with program defaults, in a child process.  The benchmark process runs
closed-loop keep-alive clients that replay a seeded request plan:

* ``serve_read`` -- two clients for ``--seconds`` after warm-up.  The
  score cache is warm, so HTTP, the service, explanation and the locator
  do the work; encode and training stay idle.
* ``serve_churn`` -- one client.  Every ``swap_every`` reads it asks the
  server, over a control pipe, to activate the other version through the
  service's own registry (``activate(v2)`` / ``rollback()``, alternating)
  and ``reload()``; the next read is an ``/explain``, which pays a cold
  ``score_week`` and a cold encode.  One reader only, because two race
  on cold misses and make throughput swing between runs.

Set-up (one ``setup_s`` sample, repeated ``setups`` times) is: create the
store and append every week, publish the bundle twice, start the server
and warm every route once.

The server wraps ``ScoringService.dispatch_request`` to time each
request by the ``rid`` query parameter the clients add (the service
ignores unknown parameters), which splits client latency into handler
time and HTTP overhead.  ``ScoringService.reload()`` does not re-read the
registry manifest, so activations from another process would never be
seen: the swap therefore goes through ``service.registry``.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import shutil
import subprocess
import threading
from time import perf_counter
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.obs.profile import peak_rss_kb
from repro.obs.tracing import get_tracer, set_tracing
from repro.parallel import worker_count
from repro.serve import (
    LineWeekStore,
    ModelRegistry,
    ScoringEngine,
    ScoringService,
    StoredWorld,
    make_server,
)

import child
from harness import load_bundle, load_week, plant_config, prepare, sub_seed
from measure import SpanLog, attribute, end_to_end, format_attribution, tail

SIZES = {
    "full": {
        "plant_lines": 20_000, "plant_weeks": 30, "setups": 3,
        "swap_every": 60, "fixture_lines": 4_000, "fixture_rounds": 250,
        "locator_rounds": 150,
    },
    "smoke": {
        "plant_lines": 4_096, "plant_weeks": 8, "setups": 1,
        "swap_every": 10, "fixture_lines": 2_000, "fixture_rounds": 30,
        "locator_rounds": 8,
    },
}

#: The request mix: route key and its share of reads.
MIX = (
    ("score", 0.40), ("explain", 0.25), ("locate", 0.15),
    ("locate_batch", 0.10), ("dispatch", 0.05), ("triage", 0.05),
)
ROUTES = tuple(name for name, _ in MIX)
PLAN_LENGTH = 50_000
BATCH_LINES = 10


def route_path(route: str, lines, week: int) -> str:
    """The request target of one planned read."""
    if route == "locate_batch":
        ids = ",".join(str(int(x)) for x in lines[:BATCH_LINES])
        return f"/locate?lines={ids}&week={week}"
    if route in ("dispatch", "triage"):
        return f"/{route}?week={week}"
    return f"/{route}?line={int(lines[0])}&week={week}"


def request_plan(seed: int, n_lines: int, week: int, n: int = PLAN_LENGTH):
    """The seeded ``[(route, target, line), ...]`` read plan."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(MIX), size=n, p=[share for _, share in MIX])
    lines = rng.integers(0, n_lines, size=(n, BATCH_LINES))
    return [
        (ROUTES[p], route_path(ROUTES[p], lines[i], week), int(lines[i][0]))
        for i, p in enumerate(picks)
    ]


# ----- server process -------------------------------------------------------


class TimedService(ScoringService):
    """Records ``(rid, route, start, end, status)`` per request while on."""

    recording = False

    def dispatch_request(self, method, target):
        start = perf_counter()
        status, payload = super().dispatch_request(method, target)
        end = perf_counter()
        if self.recording:
            parts = urlsplit(target)
            rid = parse_qs(parts.query).get("rid", [None])[0]
            self.handled.append((rid, parts.path, start, end, status))
        return status, payload


def _swap(service) -> dict:
    """Activate the other version through the service's own registry."""
    registry = service.registry
    first, second = registry.versions[:2]
    start = perf_counter()
    if registry.active == first:
        registry.activate(second)
    else:
        registry.rollback()
    activated = perf_counter()
    version = service.reload()
    return {
        "version": version,
        "activate_s": activated - start,
        "reload_s": perf_counter() - activated,
    }


def serve_main(conn, store_root: str, registry_root: str) -> None:
    """Child-process entry: serve until told to stop over ``conn``."""
    service = TimedService(store_root, registry_root)
    service.handled = []
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn.send(server.server_address[1])
    try:
        while True:
            command = conn.recv()
            if command == "swap":
                conn.send(_swap(service))
            elif command == "trace":
                set_tracing(True)
                service.recording = True
                conn.send(None)
            elif command == "stats":
                conn.send({
                    "handled": list(service.handled),
                    "program": get_tracer().export(),
                    "peak_rss_kb": peak_rss_kb(),
                })
            elif command == "stop":
                break
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
        conn.send("stopped")


class _Server:
    """Handle on the server child: start, command, stop and wait."""

    def __init__(self, store_root, registry_root):
        self.conn, child_conn = multiprocessing.Pipe()
        try:
            self.process = child.start(
                "serve", child_conn.fileno(), store_root, registry_root,
                pass_fds=(child_conn.fileno(),),
            )
        finally:
            child_conn.close()
        try:
            if not self.conn.poll(120):
                raise RuntimeError("server did not start")
            self.port = self.conn.recv()
        except BaseException:
            child.stop(self.process)
            self.conn.close()
            raise

    def command(self, name: str):
        self.conn.send(name)
        return self.conn.recv()

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.conn.send("stop")
                if self.conn.poll(60):
                    self.conn.recv()
                self.process.wait(30)
            except (BrokenPipeError, EOFError, OSError,
                    subprocess.TimeoutExpired):
                pass
        child.stop(self.process)
        self.conn.close()


# ----- client side ----------------------------------------------------------


class _Client:
    """One keep-alive connection replaying part of the plan."""

    def __init__(self, port: int, name: str):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.name = name
        self.count = 0

    def get(self, target: str):
        self.conn.request("GET", target)
        response = self.conn.getresponse()
        return response.status, response.read()

    def read(self, route, target, run, log: SpanLog):
        """One timed read with its output checks; returns the seconds."""
        rid = f"{self.name}.{self.count}"
        self.count += 1
        start = perf_counter()
        with log.span("request", trace_id=rid, route=route):
            status, body = self.get(f"{target}&rid={rid}")
        seconds = perf_counter() - start
        run.check(route, target, status, body)
        return seconds

    def close(self) -> None:
        self.conn.close()


class _Serve:
    def __init__(self, seed, size, work, checks, churn):
        self.seed = seed
        self.size = size
        self.work = work
        self.checks = checks
        self.churn = churn
        self.n_lines = size["plant_lines"]
        n_weeks = size["plant_weeks"]
        self.week = n_weeks - 1
        self.harness = prepare({
            "seed": seed, "plant_lines": self.n_lines, "plant_weeks": n_weeks,
            "fixture_lines": size["fixture_lines"],
            "fixture_rounds": size["fixture_rounds"],
            "capacity": max(1, self.n_lines // 100),
            "locator_rounds": size["locator_rounds"],
        }, work)
        self.population = plant_config(seed, self.n_lines, n_weeks).population
        self.plan = request_plan(
            sub_seed(seed, "requests"), self.n_lines, self.week
        )
        self.server: _Server | None = None
        self.reference = None
        self.version = "v0001"
        self.setups = 0

    # ----- set-up ---------------------------------------------------------

    def set_up(self) -> float:
        """Store, registry, server, warm-up; returns the timed seconds."""
        self.tear_down()
        root = self.work / f"serve-{self.setups}"
        self.setups += 1
        seconds = 0.0
        start = perf_counter()
        store = LineWeekStore.create(root / "store", self.n_lines,
                                     self.population)
        seconds += perf_counter() - start
        for week, day in enumerate(self.harness["days"]):
            block = load_week(self.work, week, day)  # harness read
            start = perf_counter()
            store.append_week(week, day, block.features, block.last_ticket_day)
            seconds += perf_counter() - start
        start = perf_counter()
        registry = ModelRegistry(root / "registry")
        bundle = load_bundle(self.work)
        registry.publish(bundle, activate=True)
        registry.publish(bundle)
        self.root = root
        self.server = _Server(store.root, registry.root)
        warm = _Client(self.server.port, "warm")
        for route in ROUTES:
            target = route_path(route, list(range(BATCH_LINES)), self.week)
            warm.read(route, target, self, SpanLog(False))
        warm.close()
        return seconds + perf_counter() - start

    def tear_down(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
            shutil.rmtree(self.root)

    def reference_scores(self):
        """In-process scores of the served week, for the ``/score`` check."""
        world = StoredWorld(LineWeekStore.open(self.root / "store"))
        engine = ScoringEngine(load_bundle(self.work), world)
        return engine.score_week(self.week).scores

    # ----- output checks --------------------------------------------------

    def check(self, route, target, status, body) -> None:
        record = self.checks.record
        if not record(status == 200, f"{target} answered {status}"):
            return
        try:
            payload = json.loads(body)
        except ValueError:
            record(False, f"{target} returned invalid JSON")
            return
        version = payload.get("model_version")
        record(version == self.version,
               f"{target} served {version}, expected {self.version}")
        if route == "score" and self.reference is not None:
            line = payload["line"]
            record(payload["p_ticket"] == float(self.reference[line]),
                   f"/score line {line} differs from the in-process score")

    # ----- load phases ----------------------------------------------------

    def read_phase(self, seconds: float, log: SpanLog, offset: int) -> dict:
        """Two closed-loop clients for ``seconds``."""
        stop_at = perf_counter() + seconds
        results: list[list] = [[], []]
        errors: list[BaseException] = []

        def loop(k: int) -> None:
            client = _Client(self.server.port, f"c{k}.{offset}")
            try:
                i = offset + k
                while perf_counter() < stop_at:
                    route, target, _ = self.plan[i % len(self.plan)]
                    results[k].append(
                        (route, client.read(route, target, self, log))
                    )
                    i += 2
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=loop, args=(k,)) for k in (0, 1)]
        start = perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = perf_counter() - start
        if errors:
            raise errors[0]
        return {"reads": results[0] + results[1], "wall": wall, "swaps": []}

    def churn_phase(self, seconds: float, log: SpanLog, offset: int) -> dict:
        """One closed-loop client in whole cycles of a swap + ``swap_every``
        reads, so throughput never depends on where ``seconds`` cut a cycle.
        """
        client = _Client(self.server.port, f"c0.{offset}")
        reads, swaps = [], []
        start = perf_counter()
        try:
            i = offset
            while perf_counter() - start < seconds:
                begin = perf_counter()
                reply = self.server.command("swap")
                self.version = reply["version"]
                for k in range(self.size["swap_every"]):
                    route, target, line = self.plan[i % len(self.plan)]
                    i += 1
                    if k == 0:  # the first read on the new version
                        route = "explain"
                        target = route_path(route, [line], self.week)
                    reads.append((route, client.read(route, target, self, log)))
                    if k == 0:
                        reply["swap_s"] = perf_counter() - begin
                swaps.append(reply)
        finally:
            client.close()
        return {"reads": reads, "wall": perf_counter() - start, "swaps": swaps}

    def phase(self, seconds, log, offset):
        if self.churn:
            return self.churn_phase(seconds, log, offset)
        return self.read_phase(seconds, log, offset)


def _metric_totals(payload: dict) -> dict:
    """The cache, scoring and explain counters of one ``/metrics`` read."""
    metrics = payload["metrics"]

    def total(name):
        return sum(s["value"] for s in metrics.get(name, {}).get("samples", []))

    explain = [
        s for s in metrics.get("repro_serve_explain_seconds", {})
        .get("samples", [])
        if s["labels"].get("route") == "/explain"
    ]
    return {
        "hits": total("repro_serve_cache_hits_total"),
        "misses": total("repro_serve_cache_misses_total"),
        "lines_scored": payload["lines_scored"],
        "scoring_s": payload["scoring_seconds_total"],
        "explain_sum": sum(s["sum"] for s in explain),
        "explain_count": sum(s["count"] for s in explain),
    }


def _metrics(serve: _Serve) -> dict:
    client = _Client(serve.server.port, "metrics")
    status, body = client.get("/metrics")
    client.close()
    serve.checks.record(status == 200, f"/metrics answered {status}")
    return _metric_totals(json.loads(body))


def _e2e(phase, setups, stats) -> dict:
    latencies = [s for _, s in phase["reads"]]
    return end_to_end(setups, stats["peak_rss_kb"], latencies,
                      len(latencies), phase["wall"])


def _layers(serve, phase, spans, before, after, stats) -> tuple[dict, str]:
    """Per-layer metrics and the self-time table of a traced phase."""
    by_rid = {s["trace_id"]: s for s in spans if s["name"] == "request"}
    handled_ms: dict[str, list[float]] = {r: [] for r in ROUTES}
    overhead_ms = []
    for index, (rid, _, start, end, _) in enumerate(stats["handled"]):
        client_span = by_rid.get(rid)
        if client_span is None:
            continue
        spans.append({
            "id": f"server{index}", "name": "service.handle",
            "trace_id": rid, "parent": client_span["id"],
            "start": start, "end": end,
        })
        handled_ms[client_span["route"]].append((end - start) * 1e3)
        overhead_ms.append(
            (client_span["end"] - client_span["start"] - (end - start)) * 1e3
        )
    client_ms: dict[str, list[float]] = {r: [] for r in ROUTES}
    for route, seconds in phase["reads"]:
        client_ms[route].append(seconds * 1e3)

    def p50(values):
        return float(np.median(values)) if values else 0.0

    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    explains = after["explain_count"] - before["explain_count"]
    swaps = phase["swaps"]
    all_ms = [s * 1e3 for _, s in phase["reads"]]
    layers = {}
    for route in ROUTES:
        layers[f"route.{route}.p50_ms"] = p50(client_ms[route])
        layers[f"service.handle_ms.{route}"] = p50(handled_ms[route])
    tail_point = tail(all_ms)
    layers.update({
        "http.overhead_ms": p50(overhead_ms),
        "request.tail_ms": tail_point[1] if tail_point else max(all_ms),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.misses": misses,
        "scoring.cold_runs": (after["lines_scored"] - before["lines_scored"])
        / serve.n_lines,
        "scoring.cold_s": after["scoring_s"] - before["scoring_s"],
        "explain.build_ms": (
            (after["explain_sum"] - before["explain_sum"]) / explains * 1e3
            if explains else 0.0
        ),
        "swap.p50_ms": p50([s["swap_s"] * 1e3 for s in swaps]),
        "registry.activate_ms": p50([s["activate_s"] * 1e3 for s in swaps]),
        "service.reload_ms": p50([s["reload_s"] * 1e3 for s in swaps]),
        "scoring.workers": worker_count(None),
    })

    table = attribute(spans, "request")
    program: dict[str, float] = {}

    def add(trees):
        for tree in trees:
            program[tree["name"]] = (
                program.get(tree["name"], 0.0) + tree["duration_seconds"]
            )
            add(tree.get("children", []))

    add(stats["program"])
    text = format_attribution(table, "http.overhead (client - handler)")
    if program:
        text += "\nserver program spans (totals over the phase):\n" + "\n".join(
            f"  {name:<32} {secs:>10.4f}s"
            for name, secs in sorted(program.items(), key=lambda kv: -kv[1])
        )
    if tail_point:
        text += (f"\nrequest p{tail_point[0]:g}: {tail_point[1]:.2f} ms over "
                 f"{len(all_ms)} reads")
    return layers, text


def run(seed, seconds, trace, smoke, work, checks, churn=False) -> dict:
    size = SIZES["smoke" if smoke else "full"]
    serve = _Serve(seed, size, work, checks, churn)
    try:
        setups = [serve.set_up() for _ in range(size["setups"])]
        serve.reference = serve.reference_scores()
        phase = serve.phase(seconds, SpanLog(False), offset=0)
        stats = serve.server.command("stats")
        out = {
            "e2e": _e2e(phase, setups, stats),
            "layers": {"netsim.generate_s": serve.harness["generate_s"]},
            "notes": [
                f"store {serve.n_lines} lines x {size['plant_weeks']} weeks "
                f"(dense), {2 - churn} client(s), {len(phase['reads'])} reads"
                f" in {phase['wall']:.1f}s, {len(phase['swaps'])} swaps",
                f"harness: generate {serve.harness['generate_s']:.2f}s, "
                f"fixture {serve.harness['fixture_s']:.2f}s",
            ],
        }
        tail_point = tail([s for _, s in phase["reads"]])
        if tail_point:
            out["notes"].append(
                f"request p{tail_point[0]:g} {tail_point[1] * 1e3:.2f} ms"
            )
        if not trace:
            return out

        serve.server.command("trace")
        before = _metrics(serve)
        log = SpanLog(True)
        traced = serve.phase(seconds, log, offset=len(phase["reads"]))
        after = _metrics(serve)
        stats = serve.server.command("stats")
        layers, text = _layers(serve, traced, log.spans, before, after, stats)
        out["layers"].update(layers)
        out["traced_e2e"] = _e2e(traced, setups, stats)
        out["spans"] = log.spans
        out["tables"] = [
            f"{'serve_churn' if churn else 'serve_read'}: per-request self "
            f"time (traced phase)\n" + text
        ]
        return out
    finally:
        serve.tear_down()
