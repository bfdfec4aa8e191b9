"""Performance harness for the serving subsystem.

Measures the store -> encode -> shard -> compiled-scorer -> dispatch
path at deployment-like scale and writes the numbers to
``BENCH_serve.json``:

* **snapshot** -- line-week store append throughput (line-weeks/sec);
* **cold_score** -- the first full Saturday scoring run from a freshly
  opened store: each shard's rows of every stored week read from disk
  + per-shard Table-3 encode + compiled scoring + calibration, fanned
  across ``repro.parallel`` workers;
* **score** -- the same full run repeated best-of-N (the repo's
  ``bench_perf`` timing idiom) with the score cache cleared each pass,
  so every pass re-reads the store, re-encodes, and re-scores; this
  steady-state number is the headline ``lines_per_sec``, matching the
  deployment loop where weekly appends keep the store pages resident;
* **dispatch** -- cutting the capacity-bounded top-N list.
* **locate** -- Section-6 ranked-disposition lookups through the stacked
  multi-head locator scorer: one-at-a-time ``locate`` calls vs a single
  ``locate_batch`` pass over the same lines, with rankings asserted
  identical.
* **routes** -- per-route request latency (p50/p95/p99) through the real
  :meth:`ScoringService.dispatch_request` routing layer (socket-free),
  plus the SLO monitor's burn-rate verdict over the driven traffic.
* **cache** -- repeat ``/score`` lookups through the shared
  version-keyed :class:`~repro.serve.cache.ScoreCache` vs the uncached
  full shard scan, with the cached-vs-uncached speedup asserted against
  the ``min_speedup`` floor by the CI guard.
* **concurrent** -- N client threads hammering ``/score`` and
  ``/explain`` simultaneously through the routing layer: aggregate
  request throughput plus per-route latency under contention.

The scored margins are asserted bit-identical to an unsharded in-memory
pass over the same assembled matrix, so the speed being measured is the
speed of the *correct* path.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full
    PYTHONPATH=src python benchmarks/bench_serve.py --quick    # CI smoke

The headline run defaults to a multi-worker configuration
(``min(4, cpu)``) so the sharded scoring path is actually exercised;
a second single-worker pass is recorded as the ``serve_single_worker``
comparison row.  ``--workers`` or ``REPRO_WORKERS`` override the
fan-out, and the harness records the worker count it ran with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.predictor import (
    PredictorConfig,
    TicketPredictor,
    _DerivedRecipes,
)
from repro.features.encoding import EncoderConfig, LineFeatureEncoder
from repro.measurement.records import N_FEATURES
from repro.ml.boostexter import BStump, BStumpConfig, WeakLearner
from repro.ml.calibration import PlattCalibrator
from repro.ml.stumps import Stump
from repro.netsim.population import PopulationConfig
from repro.obs.profile import resource_section
from repro.parallel import worker_count
from repro.serve import (
    DEFAULT_SHARD_SIZE,
    LineWeekStore,
    ModelBundle,
    ScoringEngine,
    ScoringService,
    StoredWorld,
)


def _synthetic_weeks(rng, n_lines: int, n_weeks: int):
    """Plausible Table-2 matrices + ticket vectors, without a simulation."""
    weeks = []
    for week in range(n_weeks):
        day = 6 + 7 * week
        matrix = rng.normal(loc=10.0, scale=4.0, size=(n_lines, N_FEATURES))
        matrix[rng.random((n_lines, N_FEATURES)) < 0.08] = np.nan
        matrix = matrix.astype(np.float32)
        last_ticket = np.where(
            rng.random(n_lines) < 0.1,
            rng.integers(0, max(day, 1), size=n_lines),
            -1,
        ).astype(np.int64)
        weeks.append((week, day, matrix, last_ticket))
    return weeks


def _synthetic_bundle(rng, encoder, n_rounds: int, capacity: int) -> ModelBundle:
    """A fitted-looking predictor without paying for an actual fit.

    The stumps cover base, quadratic, and product columns so the lazy
    columnar assembly in the scoring engine is fully exercised.
    """
    base_count = encoder.base_feature_count()
    base_indices = sorted(
        int(i) for i in rng.choice(base_count, size=24, replace=False)
    )
    quad_indices = base_indices[:8]
    product_pairs = [
        (base_indices[i], base_indices[i + 1]) for i in range(0, 12, 2)
    ]
    recipes = _DerivedRecipes(
        base_indices=base_indices,
        quad_indices=quad_indices,
        product_pairs=product_pairs,
    )
    n_columns = recipes.n_columns

    model = BStump(BStumpConfig(n_rounds=n_rounds))
    model.n_features_ = n_columns
    model.learners = [
        WeakLearner(
            stump=Stump(
                feature=int(rng.integers(n_columns)),
                threshold=float(rng.normal(loc=10.0, scale=4.0)),
                s_lo=float(rng.normal(scale=0.1)),
                s_hi=float(rng.normal(scale=0.1)),
                s_miss=float(rng.normal(scale=0.05)),
                categorical=False,
                z=1.0,
            ),
            round_index=r,
            z=1.0,
        )
        for r in range(n_rounds)
    ]
    model.train_z_ = [1.0] * n_rounds
    calibrator = PlattCalibrator()
    calibrator.a = -1.0
    calibrator.b = 0.0
    calibrator.fitted_ = True
    model.calibrator = calibrator

    predictor = TicketPredictor(
        PredictorConfig(capacity=capacity), encoder=encoder
    )
    predictor.model = model
    predictor.recipes = recipes
    return ModelBundle(predictor=predictor, meta={"synthetic": True})


def _synthetic_locator(rng, n_features: int, n_rounds: int):
    """A fitted-looking Section-6 combined locator, no fit paid.

    52 disposition heads + 4 location heads of random stumps over the
    encoded base columns, uniform Platt calibrators, and mild Eq.-2
    blends -- enough structure to exercise the real stacked multi-head
    scoring path end to end.
    """
    from repro.core.locator import (
        N_DISPOSITIONS,
        N_LOCATIONS,
        CombinedLocator,
        LocatorConfig,
    )

    def _head(rounds: int) -> BStump:
        model = BStump(BStumpConfig(n_rounds=rounds, calibrate=False))
        model.n_features_ = n_features
        model.learners = [
            WeakLearner(
                stump=Stump(
                    feature=int(rng.integers(n_features)),
                    threshold=float(rng.normal(loc=10.0, scale=4.0)),
                    s_lo=float(rng.normal(scale=0.1)),
                    s_hi=float(rng.normal(scale=0.1)),
                    s_miss=float(rng.normal(scale=0.05)),
                    categorical=False,
                    z=1.0,
                ),
                round_index=r,
                z=1.0,
            )
            for r in range(rounds)
        ]
        model.train_z_ = [1.0] * rounds
        return model

    locator = CombinedLocator(LocatorConfig(n_rounds=n_rounds))
    flat = locator.flat
    prior = rng.random(N_DISPOSITIONS) + 0.1
    flat.prior_ = prior / prior.sum()
    for code in range(N_DISPOSITIONS):
        flat.models_[code] = _head(n_rounds)
        calibrator = PlattCalibrator()
        calibrator.a = -1.0
        calibrator.b = 0.0
        calibrator.fitted_ = True
        flat.calibrators_[code] = calibrator
        locator.blend_[code] = (1.0, 0.5, float(rng.normal(scale=0.1)))
    for loc in range(N_LOCATIONS):
        locator.location_models_[loc] = _head(n_rounds)
    return locator


def bench_serve(n_lines: int, n_weeks: int, n_rounds: int, shard_size: int,
                workers: int | None):
    rng = np.random.default_rng(20100802)
    weeks = _synthetic_weeks(rng, n_lines, n_weeks)

    with tempfile.TemporaryDirectory() as tmp:
        store = LineWeekStore.create(
            Path(tmp) / "store",
            n_lines=n_lines,
            population=PopulationConfig(n_lines=n_lines, seed=11),
        )
        start = time.perf_counter()
        for week, day, matrix, last_ticket in weeks:
            store.append_week(week, day, matrix, last_ticket)
        snapshot_seconds = time.perf_counter() - start

        # A fresh handle, so cold-path timing includes manifest + shard reads.
        world = StoredWorld(LineWeekStore.open(store.root))
        bundle = _synthetic_bundle(
            rng, LineFeatureEncoder(EncoderConfig()), n_rounds,
            capacity=max(50, n_lines // 50),
        )
        bundle.predictor.model.compiled()  # compile outside the timed path
        engine = ScoringEngine(
            bundle, world, shard_size=shard_size, workers=workers
        )

        target = store.latest_week
        cold = engine.score_week(target)

        warm_seconds = float("inf")  # best-of-N, as in bench_perf
        for _ in range(3):
            engine._score_cache.clear()
            warm_start = time.perf_counter()
            engine.score_week(target)
            warm_seconds = min(warm_seconds, time.perf_counter() - warm_start)

        dispatch_start = time.perf_counter()
        dispatch = engine.dispatch(target)
        dispatch_seconds = time.perf_counter() - dispatch_start

        # Parity: unsharded in-memory pass over the same assembled matrix.
        base = world.encode_week(target, bundle.predictor.encoder)
        reference = bundle.predictor.score_features(base)
        parity = bool(np.array_equal(cold.scores, reference))

        # Locate throughput: N technician lookups one at a time vs one
        # batched multi-head pass over the same lines.  The first call
        # pays the multi-head compile off the clock; each timed call
        # encodes only its own lines.  Rankings must agree exactly.
        bundle.locator = _synthetic_locator(
            rng, bundle.predictor.encoder.base_feature_count(), n_rounds
        )
        locate_ids = [
            int(i) for i in rng.integers(0, n_lines, size=min(200, n_lines))
        ]
        engine.locate(target, locate_ids[0])  # warm: multi-head compile
        single_start = time.perf_counter()
        single_rankings = [
            engine.locate(target, line_id) for line_id in locate_ids
        ]
        locate_single_seconds = time.perf_counter() - single_start
        batch_start = time.perf_counter()
        batch_rankings = engine.locate_batch(target, locate_ids)
        locate_batch_seconds = time.perf_counter() - batch_start
        locate_parity = batch_rankings == single_rankings

    return {
        "n_lines": n_lines,
        "n_weeks": n_weeks,
        "n_rounds": n_rounds,
        "shard_size": shard_size,
        "n_shards": cold.n_shards,
        "workers": worker_count(workers),
        "snapshot_seconds": snapshot_seconds,
        "snapshot_line_weeks_per_sec": n_lines * n_weeks / snapshot_seconds,
        "prepare_seconds": cold.prepare_seconds,
        "score_seconds": cold.score_seconds,
        "cold_lines_per_sec": cold.lines_per_sec,
        "score_seconds_best": warm_seconds,
        "dispatch_seconds": dispatch_seconds,
        "dispatch_size": len(dispatch),
        "lines_per_sec": n_lines / warm_seconds,
        "parity_with_batch_scorer": parity,
        "locate_lines": len(locate_ids),
        "locate_single_seconds": locate_single_seconds,
        "locate_batch_seconds": locate_batch_seconds,
        "locate_single_lines_per_sec": len(locate_ids) / locate_single_seconds,
        "locate_batch_lines_per_sec": len(locate_ids) / locate_batch_seconds,
        "locate_batch_speedup": locate_single_seconds / locate_batch_seconds,
        "locate_parity": locate_parity,
    }


def _latency_ms(samples: list[float]) -> dict:
    """Exact p50/p95/p99 (ms) from raw per-request latencies."""
    ordered = sorted(samples)
    n = len(ordered)

    def pct(q: float) -> float:
        if n == 1:
            return ordered[0] * 1e3
        pos = q * (n - 1)
        lo = int(pos)
        frac = pos - lo
        hi = min(lo + 1, n - 1)
        return (ordered[lo] + (ordered[hi] - ordered[lo]) * frac) * 1e3

    return {
        "n_requests": n,
        "p50_ms": pct(0.50),
        "p95_ms": pct(0.95),
        "p99_ms": pct(0.99),
    }


def bench_routes(n_lines: int, n_weeks: int, n_rounds: int, shard_size: int,
                 workers: int | None):
    """Per-route latency through the real service routing layer.

    Drives :meth:`ScoringService.dispatch_request` directly (no sockets,
    so the numbers are the service's own cost, not the kernel's) over a
    store of synthetic weeks and an injected synthetic engine.  The
    service's SLO monitor watches the same traffic; its status -- burn
    rates, attainment, any alerts -- is the report's ``slo`` section.
    """
    rng = np.random.default_rng(20100803)
    weeks = _synthetic_weeks(rng, n_lines, n_weeks)

    with tempfile.TemporaryDirectory() as tmp:
        store = LineWeekStore.create(
            Path(tmp) / "store",
            n_lines=n_lines,
            population=PopulationConfig(n_lines=n_lines, seed=11),
        )
        for week, day, matrix, last_ticket in weeks:
            store.append_week(week, day, matrix, last_ticket)

        service = ScoringService(
            store.root, Path(tmp) / "registry", shard_size=shard_size,
            workers=workers, require_model=False,
        )
        bundle = _synthetic_bundle(
            rng, LineFeatureEncoder(EncoderConfig()), n_rounds,
            capacity=max(50, n_lines // 50),
        )
        bundle.predictor.model.compiled()
        service.engine = ScoringEngine(
            bundle, service.world, shard_size=shard_size, workers=workers,
            model_version="bench-synthetic",
        )

        target = store.latest_week
        status, _ = service.dispatch_request("GET", f"/dispatch?week={target}")
        assert status == 200, f"warm dispatch failed with {status}"

        plan = [
            ("/score", 400, lambda: "/score?line="
             f"{int(rng.integers(n_lines))}&week={target}"),
            ("/dispatch", 60, lambda: f"/dispatch?week={target}"),
            ("/healthz", 100, lambda: "/healthz"),
            ("/health", 100, lambda: "/health"),
        ]
        routes = {}
        for route, n_requests, make_target in plan:
            samples = []
            for _ in range(n_requests):
                t0 = time.perf_counter()
                status, _ = service.dispatch_request("GET", make_target())
                samples.append(time.perf_counter() - t0)
                assert status == 200, f"{route} answered {status}"
            routes[route] = _latency_ms(samples)
        service.slo_monitor.tick()

    return {
        "n_lines": n_lines,
        "n_rounds": n_rounds,
        "workers": worker_count(workers),
        "routes": routes,
        "slo": service.slo_monitor.status(),
    }


def _store_with_weeks(tmp: Path, rng, n_lines: int, n_weeks: int):
    """A populated line-week store under ``tmp`` (shared bench setup)."""
    store = LineWeekStore.create(
        tmp / "store",
        n_lines=n_lines,
        population=PopulationConfig(n_lines=n_lines, seed=11),
    )
    for week, day, matrix, last_ticket in _synthetic_weeks(rng, n_lines,
                                                           n_weeks):
        store.append_week(week, day, matrix, last_ticket)
    return store


def _cached_service(tmp: Path, rng, store, n_lines: int, n_rounds: int,
                    shard_size: int, workers: int | None) -> ScoringService:
    """A service whose injected engine shares the service ScoreCache."""
    service = ScoringService(
        store.root, tmp / "registry", shard_size=shard_size,
        workers=workers, require_model=False,
    )
    bundle = _synthetic_bundle(
        rng, LineFeatureEncoder(EncoderConfig()), n_rounds,
        capacity=max(50, n_lines // 50),
    )
    bundle.predictor.model.compiled()
    service.engine = ScoringEngine(
        bundle, service.world, shard_size=shard_size, workers=workers,
        model_version="bench-synthetic", cache=service.cache,
    )
    return service


def bench_cache(n_lines: int, n_weeks: int, n_rounds: int, shard_size: int,
                workers: int | None):
    """Cached vs uncached repeat ``/score`` lookups through the ScoreCache.

    Uncached: the shared cache is invalidated and the engine-local week
    dict cleared before each pass, so every request pays the full shard
    scan (best-of-3, the ``bench_perf`` idiom).  Cached: the week is
    warmed once, then repeat lookups are served from the shared cache --
    the engine-local dict is cleared between requests so the measured
    path is the one that survives engine reloads.  The ``speedup`` row
    is guarded in CI against ``min_speedup``.
    """
    rng = np.random.default_rng(20100804)

    with tempfile.TemporaryDirectory() as tmp:
        store = _store_with_weeks(Path(tmp), rng, n_lines, n_weeks)
        service = _cached_service(Path(tmp), rng, store, n_lines, n_rounds,
                                  shard_size, workers)
        engine = service.engine
        target = store.latest_week

        uncached_seconds = float("inf")
        for _ in range(3):
            service.cache.invalidate(reason="bench-reset")
            engine._score_cache.clear()
            t0 = time.perf_counter()
            status, _ = service.dispatch_request(
                "GET", f"/score?line={int(rng.integers(n_lines))}"
                       f"&week={target}")
            uncached_seconds = min(uncached_seconds,
                                   time.perf_counter() - t0)
            assert status == 200, f"uncached /score answered {status}"

        service.dispatch_request(
            "GET", f"/score?line=0&week={target}")  # warm the shared cache
        samples = []
        for _ in range(400):
            engine._score_cache.clear()
            t0 = time.perf_counter()
            status, _ = service.dispatch_request(
                "GET", f"/score?line={int(rng.integers(n_lines))}"
                       f"&week={target}")
            samples.append(time.perf_counter() - t0)
            assert status == 200, f"cached /score answered {status}"
        cached = _latency_ms(samples)
        stats = service.cache.stats()

    return {
        "n_lines": n_lines,
        "n_rounds": n_rounds,
        "workers": worker_count(workers),
        "uncached_ms": uncached_seconds * 1e3,
        "cached_ms_p50": cached["p50_ms"],
        "cached_ms_p95": cached["p95_ms"],
        "cached_requests": cached["n_requests"],
        "speedup": uncached_seconds * 1e3 / max(cached["p50_ms"], 1e-9),
        "min_speedup": 10.0,
        "hits": stats["hits"],
        "misses": stats["misses"],
        "hit_rate": stats["hit_rate"],
    }


def bench_concurrent(n_lines: int, n_weeks: int, n_rounds: int,
                     shard_size: int, workers: int | None,
                     n_threads: int = 8, requests_per_thread: int = 40):
    """N client threads hammering ``/score`` and ``/explain`` at once.

    Every thread drives the real routing layer (socket-free) against one
    warmed service; request targets are pre-generated so the threads
    share no RNG.  Reports aggregate throughput and per-route latency
    under contention, plus any non-200 answers (there must be none).
    """
    import threading

    rng = np.random.default_rng(20100805)

    with tempfile.TemporaryDirectory() as tmp:
        store = _store_with_weeks(Path(tmp), rng, n_lines, n_weeks)
        service = _cached_service(Path(tmp), rng, store, n_lines, n_rounds,
                                  shard_size, workers)
        engine = service.engine
        target = store.latest_week
        engine.bundle.locator = _synthetic_locator(
            rng, engine.bundle.predictor.encoder.base_feature_count(),
            n_rounds,
        )

        # Warm every shared structure (scores, triage, the multi-head
        # locator compile) so the threads measure steady-state request
        # cost, not a racing first shard scan.
        for path in (f"/dispatch?week={target}",
                     f"/explain?line=0&week={target}"):
            status, _ = service.dispatch_request("GET", path)
            assert status == 200, f"warm {path} answered {status}"

        plans = []
        for _ in range(n_threads):
            lines = rng.integers(0, n_lines, size=requests_per_thread)
            plans.append([
                (f"/score?line={int(line)}&week={target}", "/score")
                if i % 2 == 0 else
                (f"/explain?line={int(line)}&week={target}&top=3",
                 "/explain")
                for i, line in enumerate(lines)
            ])

        per_thread = [{"/score": [], "/explain": []} for _ in plans]
        errors = []

        def client(plan, samples):
            for path, route in plan:
                t0 = time.perf_counter()
                status, _ = service.dispatch_request("GET", path)
                samples[route].append(time.perf_counter() - t0)
                if status != 200:
                    errors.append((route, status))

        threads = [
            threading.Thread(target=client, args=(plan, samples))
            for plan, samples in zip(plans, per_thread)
        ]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_seconds = time.perf_counter() - wall_start

    routes = {
        route: _latency_ms(
            [s for samples in per_thread for s in samples[route]]
        )
        for route in ("/score", "/explain")
    }
    total = n_threads * requests_per_thread
    return {
        "n_lines": n_lines,
        "n_rounds": n_rounds,
        "workers": worker_count(workers),
        "threads": n_threads,
        "requests": total,
        "wall_seconds": wall_seconds,
        "requests_per_sec": total / wall_seconds,
        "errors": len(errors),
        "routes": routes,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lines", type=int, default=120_000,
                        help="synthetic population size")
    parser.add_argument("--weeks", type=int, default=8,
                        help="stored weeks")
    parser.add_argument("--rounds", type=int, default=200,
                        help="synthetic ensemble depth")
    parser.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE,
                        help="lines per scoring shard (default: the "
                             "program's DEFAULT_SHARD_SIZE)")
    parser.add_argument("--workers", type=int, default=None,
                        help="scoring fan-out (default: REPRO_WORKERS, or "
                             "min(4, cpu) when unset)")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for a CI smoke run")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_serve.json")
    args = parser.parse_args()

    if args.quick:
        n_lines, n_weeks, n_rounds, shard = 8_000, 3, 60, 2_048
    else:
        n_lines, n_weeks, n_rounds, shard = (
            args.lines, args.weeks, args.rounds, args.shard_size
        )

    # Fan-out resolution: explicit flag > REPRO_WORKERS > min(4, cpu).
    # The multi-worker default keeps the headline number on the sharded
    # scoring path instead of a degenerate one-worker run.
    workers = args.workers
    if workers is None and not os.environ.get("REPRO_WORKERS", "").strip():
        workers = min(4, os.cpu_count() or 1)

    from repro.serve.service import _Handler

    report = {
        "quick": args.quick,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "workers_env": os.environ.get("REPRO_WORKERS", ""),
        # The concurrency model the numbers were taken under: the HTTP
        # front (threaded server, keep-alive protocol) and the scoring
        # fan-out behind it.
        "server": {
            "model": "ThreadingHTTPServer",
            "protocol": _Handler.protocol_version,
            "scoring_workers": worker_count(workers),
        },
        "serve": bench_serve(n_lines, n_weeks, n_rounds, shard, workers),
    }
    if worker_count(workers) > 1:
        report["serve_single_worker"] = bench_serve(
            n_lines, n_weeks, n_rounds, shard, 1
        )
    report["serve_routes"] = bench_routes(
        n_lines, n_weeks, n_rounds, shard, workers
    )
    report["serve_cache"] = bench_cache(
        n_lines, n_weeks, n_rounds, shard, workers
    )
    report["serve_concurrent"] = bench_concurrent(
        n_lines, n_weeks, n_rounds, shard, workers,
        requests_per_thread=20 if args.quick else 40,
    )
    report["resources"] = resource_section()
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    serve = report["serve"]
    print(f"snapshot: {serve['snapshot_line_weeks_per_sec']:.0f} "
          f"line-weeks/s over {n_weeks} weeks x {n_lines} lines")
    print(f"cold:     {serve['cold_lines_per_sec']:.0f} lines/s "
          f"(prepare {serve['prepare_seconds']:.3f}s + "
          f"score {serve['score_seconds']:.3f}s, "
          f"{serve['n_shards']} shards, {serve['workers']} workers)")
    print(f"score:    {serve['lines_per_sec']:.0f} lines/s "
          f"(best of 3 full passes, {serve['score_seconds_best']:.3f}s)")
    print(f"dispatch: top-{serve['dispatch_size']} "
          f"in {serve['dispatch_seconds'] * 1e3:.1f} ms")
    print(f"locate:   {serve['locate_batch_lines_per_sec']:.0f} lines/s "
          f"batched vs {serve['locate_single_lines_per_sec']:.0f} lines/s "
          f"one-at-a-time ({serve['locate_batch_speedup']:.1f}x over "
          f"{serve['locate_lines']} lines), "
          f"rankings identical: {serve['locate_parity']}")
    print(f"parity with batch scorer: {serve['parity_with_batch_scorer']}")
    single = report.get("serve_single_worker")
    if single is not None:
        speedup = serve["lines_per_sec"] / max(single["lines_per_sec"], 1e-9)
        print(f"single-worker comparison: {single['lines_per_sec']:.0f} "
              f"lines/s ({serve['workers']} workers = {speedup:.2f}x)")
    route_report = report["serve_routes"]
    for route, stats in route_report["routes"].items():
        print(f"route {route}: p50 {stats['p50_ms']:.3f} ms, "
              f"p95 {stats['p95_ms']:.3f} ms, p99 {stats['p99_ms']:.3f} ms "
              f"over {stats['n_requests']} requests")
    print(f"slo:      {route_report['slo']['status']} "
          f"({len(route_report['slo'].get('objectives', []))} objectives)")
    cache = report["serve_cache"]
    print(f"cache:    uncached {cache['uncached_ms']:.1f} ms -> cached p50 "
          f"{cache['cached_ms_p50']:.3f} ms ({cache['speedup']:.0f}x, "
          f"floor {cache['min_speedup']:.0f}x; hit rate "
          f"{cache['hit_rate']:.0%})")
    conc = report["serve_concurrent"]
    print(f"load:     {conc['threads']} threads x "
          f"{conc['requests'] // conc['threads']} requests = "
          f"{conc['requests_per_sec']:.0f} req/s, {conc['errors']} errors; "
          f"/score p95 {conc['routes']['/score']['p95_ms']:.2f} ms, "
          f"/explain p95 {conc['routes']['/explain']['p95_ms']:.2f} ms")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
