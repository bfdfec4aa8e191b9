"""Command-line interface: ``python -m repro <command>``.

Three subcommands mirror how an operator would poke at the system:

* ``simulate`` -- run the plant simulator and print a world summary
  (tickets, outages, dispatch mix, weekly seasonality);
* ``predict`` -- train the ticket predictor on a simulated world and
  report accuracy at the ATDS capacity plus the urgency CDF;
* ``locate`` -- train the three trouble-locator models and report the
  Section-6.3 rank metrics;
* ``export`` -- write the simulated data sources as CSV extracts
  (measurements, tickets, dispatches, subscribers);
* ``snapshot`` -- simulate and persist the weekly campaigns into a
  line-week store (optionally training + publishing a model bundle);
* ``serve`` -- run the scoring service over a store and registry, or
  ``--smoke`` for an end-to-end in-process self-test;
* ``obs`` -- observability tooling: ``obs report`` runs an instrumented
  proactive loop (or reads a saved telemetry JSON) and renders the
  per-stage timing and quality breakdown;
* ``lifecycle`` -- continuous training: ``lifecycle run`` drives the
  proactive loop under the lifecycle controller (scheduled retrains,
  shadow champion--challenger gating, auto-rollback) and ``lifecycle
  status`` renders the signed decision log of a previous run;
  ``--smoke`` runs the CI loop with one forced promotion and one forced
  rollback;
* ``triage`` -- plant-level triage: cluster one week's anomalous lines
  by shared DSLAM/binder, classify upstream vs in-home, and compare
  precision-at-capacity with and without dispatch suppression;
  ``--smoke`` asserts the acceptance bar on a small correlated plant;
* ``explain`` -- serve one line-week's two-stage diagnosis report:
  exact per-feature attribution of the served margin, plant context,
  and the templated technician next steps; ``--smoke`` asserts report
  well-formedness, bit-identical attribution parity, full disposition-
  template coverage, and score-cache behaviour across a reload;
* ``scale`` -- the paper-scale streaming weekly cycle: chunked netsim
  generation appended incrementally into an out-of-core line-week
  store, then a streaming Table-3 encode -- peak memory stays bounded
  by the chunk size, never the full measurement cube; ``--smoke``
  asserts the streaming invariants (chunked == monolithic generation,
  chunk appends byte-identical to whole-week appends, out-of-core
  encode equal to dense, multi-worker scores equal to single-worker).

All commands are seeded, run at laptop scale by default, and accept
``--scenario`` to pick a plant preset (suburban/urban/rural/storm_season/
outage_prone); flags scale them up.  ``--verbose`` (or
``REPRO_LOG_LEVEL``) turns on the key=value structured logs and
``REPRO_TRACE=1`` enables span tracing everywhere.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NEVERMIND (CoNEXT 2010) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--lines", type=int, default=5000,
                        help="number of simulated DSL lines")
    common.add_argument("--weeks", type=int, default=22,
                        help="simulated horizon in weeks")
    common.add_argument("--seed", type=int, default=101, help="master seed")
    common.add_argument("--fault-scale", type=float, default=3.0,
                        help="multiplier on catalog fault onset rates "
                             "(ignored with --scenario)")
    common.add_argument("--scenario", default=None,
                        help="plant preset (see repro.netsim.scenarios)")
    common.add_argument("--verbose", action="store_true",
                        help="structured key=value logs at DEBUG level "
                             "(default level comes from REPRO_LOG_LEVEL)")

    sub.add_parser("simulate", parents=[common],
                   help="run the plant and print a world summary")

    predict = sub.add_parser("predict", parents=[common],
                             help="train and evaluate the ticket predictor")
    predict.add_argument("--capacity", type=int, default=None,
                         help="ATDS capacity N (default: 2%% of lines)")
    predict.add_argument("--rounds", type=int, default=200,
                         help="boosting rounds of the final model")

    locate = sub.add_parser("locate", parents=[common],
                            help="train and evaluate the trouble locator")
    locate.add_argument("--rounds", type=int, default=80,
                        help="boosting rounds per one-vs-rest model")

    export = sub.add_parser("export", parents=[common],
                            help="simulate and write CSV extracts")
    export.add_argument("--out", default="extracts",
                        help="output directory for the CSV files")

    snapshot = sub.add_parser(
        "snapshot", parents=[common],
        help="simulate and persist weekly campaigns into a line-week store")
    snapshot.add_argument("--store", default="store",
                          help="line-week store directory")
    snapshot.add_argument("--registry", default=None,
                          help="also train a model and publish it to this "
                               "registry directory")
    snapshot.add_argument("--capacity", type=int, default=None,
                          help="ATDS capacity N (default: 2%% of lines)")
    snapshot.add_argument("--rounds", type=int, default=200,
                          help="boosting rounds of the published predictor")
    snapshot.add_argument("--with-locator", action="store_true",
                          help="also train and bundle the combined trouble "
                               "locator")
    snapshot.add_argument("--locator-rounds", type=int, default=40,
                          help="boosting rounds per locator sub-model")

    serve = sub.add_parser(
        "serve", parents=[common],
        help="serve scores over HTTP from a store and a registry")
    serve.add_argument("--store", default="store",
                       help="line-week store directory")
    serve.add_argument("--registry", default="registry",
                       help="model registry directory")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 = ephemeral)")
    serve.add_argument("--shard-size", type=int, default=None,
                       help="lines per scoring shard")
    serve.add_argument("--smoke", action="store_true",
                       help="in-process end-to-end self-test: simulate, "
                            "snapshot, publish, serve on an ephemeral port, "
                            "and check the HTTP dispatch list against the "
                            "batch predictor")

    obs = sub.add_parser(
        "obs", parents=[common],
        help="observability tooling over the metrics registry and tracer")
    obs.add_argument("action", choices=["report", "dashboard"],
                     help="report: run an instrumented proactive loop "
                          "(or render --input) as a telemetry summary; "
                          "dashboard: render sparkline trends and the "
                          "health verdict from a flight-recorder history")
    obs.add_argument("--input", default=None,
                     help="render a previously saved telemetry JSON "
                          "instead of running the demo loop")
    obs.add_argument("--out", default=None,
                     help="also write the collected telemetry as JSON here")
    obs.add_argument("--rounds", type=int, default=60,
                     help="boosting rounds of the demo loop's predictor")
    obs.add_argument("--no-trace", action="store_true",
                     help="leave span tracing off for the demo loop "
                          "(metrics only)")
    obs.add_argument("--history", default=None,
                     help="flight-recorder JSONL path: report appends the "
                          "demo loop's weekly snapshots there, dashboard "
                          "reads trends from it")

    lifecycle = sub.add_parser(
        "lifecycle", parents=[common],
        help="continuous training: scheduled retrains, shadow gating, "
             "promotion and rollback")
    lifecycle.add_argument("action", choices=["run", "status"],
                           help="run: drive the loop under the lifecycle "
                                "controller; status: render a run's "
                                "decision log and registry state (exit 1 "
                                "if the decision chain is broken)")
    lifecycle.add_argument("--root", default="lifecycle",
                           help="working directory (gets store/ and "
                                "registry/ subdirectories on run; status "
                                "reads the same layout)")
    lifecycle.add_argument("--capacity", type=int, default=None,
                           help="ATDS capacity N (default: 2%% of lines)")
    lifecycle.add_argument("--rounds", type=int, default=80,
                           help="boosting rounds per (re)trained model")
    lifecycle.add_argument("--warmup", type=int, default=13,
                           help="reactive warm-up weeks before the first "
                                "champion trains")
    lifecycle.add_argument("--horizon", type=int, default=3,
                           help="label horizon T in weeks")
    lifecycle.add_argument("--cadence", type=int, default=4,
                           help="scheduled retrain cadence in weeks "
                                "(drift triggers can fire sooner)")
    lifecycle.add_argument("--smoke", action="store_true",
                           help="in-process end-to-end self-test in a temp "
                                "dir: run the loop with one forced "
                                "promotion and one sabotaged challenger, "
                                "and check that the watchdog rolls it back "
                                "with an intact decision chain")

    triage = sub.add_parser(
        "triage", parents=[common],
        help="plant-level triage: cluster anomalies by shared plant and "
             "plan suppressed + backfilled dispatches")
    triage.add_argument("--capacity", type=int, default=None,
                        help="ATDS capacity N (default: 2%% of lines)")
    triage.add_argument("--rounds", type=int, default=60,
                        help="boosting rounds of the scoring predictor")
    triage.add_argument("--week", type=int, default=None,
                        help="evaluation week (default: the late week with "
                             "the most shared-fault-affected lines)")
    triage.add_argument("--smoke", action="store_true",
                        help="small fixed-scale self-test on the "
                             "correlated_faults scenario: asserts >=90%% "
                             "upstream recall, one group dispatch per "
                             "cluster, and a strict precision-at-capacity "
                             "improvement")

    explain = sub.add_parser(
        "explain", parents=[common],
        help="serve one line-week's diagnosis: exact feature attribution, "
             "plant context, and technician next steps")
    explain.add_argument("--capacity", type=int, default=None,
                         help="ATDS capacity N (default: 2%% of lines)")
    explain.add_argument("--rounds", type=int, default=60,
                         help="boosting rounds of the scoring predictor")
    explain.add_argument("--locator-rounds", type=int, default=12,
                         help="boosting rounds per locator sub-model")
    explain.add_argument("--line", type=int, default=None,
                         help="line to explain (default: the week's top "
                              "dispatched line)")
    explain.add_argument("--week", type=int, default=None,
                         help="evaluation week (default: the latest stored "
                              "week)")
    explain.add_argument("--top", type=int, default=5,
                         help="feature attributions shown in the summary")
    explain.add_argument("--smoke", action="store_true",
                         help="small fixed-scale self-test: asserts the "
                              "report is well-formed, every disposition "
                              "template renders, attributions reproduce "
                              "the served score bit-identically, and "
                              "repeat reads hit the score cache")

    scale = sub.add_parser(
        "scale", parents=[common],
        help="run the streaming weekly cycle: chunked generation into an "
             "out-of-core line-week store, chunked encode, sharded scoring")
    scale.add_argument("--chunk-lines", type=int, default=None,
                       help="streaming chunk size in lines (rounds up to "
                            "whole RNG blocks; default: one block)")
    scale.add_argument("--store", default=None,
                       help="persist the store here (default: temp dir)")
    scale.add_argument("--smoke", action="store_true",
                       help="fixed-scale self-test of the streaming "
                            "invariants: chunked generation bit-identical "
                            "to monolithic, chunk appends byte-identical "
                            "to whole-week appends, out-of-core encode "
                            "equal to dense, and multi-worker scores "
                            "equal to single-worker")
    return parser


def _sim_config(args: argparse.Namespace):
    from repro import PopulationConfig, SimulationConfig

    if args.scenario:
        from repro.netsim.scenarios import scenario

        return scenario(args.scenario, n_lines=args.lines,
                        n_weeks=args.weeks, seed=args.seed)
    return SimulationConfig(
        n_weeks=args.weeks,
        population=PopulationConfig(n_lines=args.lines, seed=args.seed),
        fault_rate_scale=args.fault_scale,
        seed=args.seed,
    )


def _simulate(args: argparse.Namespace):
    from repro import DslSimulator

    return DslSimulator(_sim_config(args)).run()


def _cmd_simulate(args: argparse.Namespace) -> int:
    result = _simulate(args)
    edge = result.ticket_log.edge_tickets()
    hist = result.ticket_log.weekday_histogram()
    days = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
    print(f"simulated {args.lines} lines x {args.weeks} weeks "
          f"({result.population.topology.n_dslams} DSLAMs, "
          f"{result.population.topology.n_brases} BRAS)")
    print(f"  plant faults        : {len(result.fault_events)}")
    print(f"  customer-edge tickets: {len(edge)}")
    print(f"  IVR-absorbed calls  : {len(result.ticket_log.ivr_calls)}")
    print(f"  DSLAM outages       : {len(result.outages.events)}")
    print(f"  dispatch summary    : {result.dispatcher.summary()}")
    print("  tickets by weekday  : "
          + ", ".join(f"{d}={c}" for d, c in zip(days, hist)))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro import (
        PredictorConfig,
        TicketPredictor,
        evaluate_predictions,
        paper_style_split,
        urgency_cdf,
    )

    result = _simulate(args)
    capacity = args.capacity or max(20, args.lines // 50)
    history = max(2, args.weeks - 11)
    split = paper_style_split(args.weeks, history=history, train=3,
                              selection=2, test=2)
    predictor = TicketPredictor(
        PredictorConfig(capacity=capacity, train_rounds=args.rounds)
    ).fit(result, split)
    outcomes = [
        evaluate_predictions(result, predictor.rank_week(result, week), week)
        for week in split.test_weeks
    ]
    base_rate = float(np.mean([o.hits.mean() for o in outcomes]))
    accuracy = float(np.mean([o.accuracy_at(capacity) for o in outcomes]))
    cdf = urgency_cdf(outcomes, capacity, max_days=28)
    print(f"capacity N={capacity}: accuracy {accuracy:.3f} "
          f"(base rate {base_rate:.4f}, lift {accuracy / max(base_rate, 1e-9):.1f}x)")
    print(f"predicted tickets arriving within 14 days: {cdf[14]:.0%}")
    print(f"selected features: {len(predictor.feature_names)}")
    return 0


def _cmd_locate(args: argparse.Namespace) -> int:
    from repro import (
        CombinedLocator,
        ExperienceModel,
        FlatLocator,
        LocatorConfig,
        build_locator_dataset,
        ranks_of_truth,
        tests_to_locate,
    )

    result = _simulate(args)
    horizon = args.weeks * 7
    cut = int(horizon * 0.6)
    train = build_locator_dataset(result, 30, cut)
    test = build_locator_dataset(result, cut + 1, horizon)
    config = LocatorConfig(n_rounds=args.rounds)
    X = test.features.matrix
    print(f"{train.n_examples} training dispatches, {test.n_examples} test")
    for name, model in (
        ("basic", ExperienceModel(config)),
        ("flat", FlatLocator(config)),
        ("combined", CombinedLocator(config)),
    ):
        ranks = ranks_of_truth(model.fit(train).predict_proba(X),
                               test.disposition)
        print(f"  {name:>9}: median tests {tests_to_locate(ranks):>2}, "
              f"mean rank {ranks.mean():.1f}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.data.export import export_all

    result = _simulate(args)
    counts = export_all(result, args.out)
    print(f"wrote CSV extracts to {args.out}/:")
    for name, rows in counts.items():
        print(f"  {name}.csv: {rows} rows")
    return 0


def _trained_predictor(args: argparse.Namespace, result, rounds: int):
    from repro import PredictorConfig, TicketPredictor, paper_style_split

    capacity = getattr(args, "capacity", None) or max(20, args.lines // 50)
    history = max(2, args.weeks - 11)
    split = paper_style_split(args.weeks, history=history, train=3,
                              selection=2, test=0)
    return TicketPredictor(
        PredictorConfig(capacity=capacity, train_rounds=rounds)
    ).fit(result, split)


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.serve import ModelBundle, ModelRegistry, snapshot_result

    result = _simulate(args)
    store = snapshot_result(result, args.store)
    print(f"stored {len(store.weeks)} weeks x {store.n_lines} lines "
          f"in {args.store}/")
    if args.registry is None:
        return 0

    predictor = _trained_predictor(args, result, args.rounds)
    locator = None
    if args.with_locator:
        from repro import CombinedLocator, LocatorConfig, build_locator_dataset

        train = build_locator_dataset(result, 30, args.weeks * 7)
        locator = CombinedLocator(
            LocatorConfig(n_rounds=args.locator_rounds)
        ).fit(train)
    registry = ModelRegistry(args.registry)
    version = registry.publish(
        ModelBundle(
            predictor=predictor,
            locator=locator,
            meta={"lines": args.lines, "weeks": args.weeks, "seed": args.seed},
        ),
        activate=True,
    )
    extra = ", with locator" if locator is not None else ""
    print(f"published {version} (capacity N={predictor.config.capacity}"
          f"{extra}) to {args.registry}/")
    return 0


def _serve_smoke(args: argparse.Namespace) -> int:
    """End-to-end self-test: simulate -> snapshot -> publish -> serve -> check.

    Verifies over real HTTP that the served top-N dispatch list names
    exactly the lines the batch predictor would submit -- the serving
    subsystem's parity invariant.  Used by the CI smoke job.
    """
    import json
    import tempfile
    import threading
    import urllib.request
    from pathlib import Path

    from repro.serve import (
        ModelBundle,
        ModelRegistry,
        ScoringService,
        make_server,
        snapshot_result,
    )

    result = _simulate(args)
    predictor = _trained_predictor(args, result, rounds=60)

    with tempfile.TemporaryDirectory() as tmp:
        store_root = Path(tmp) / "store"
        registry_root = Path(tmp) / "registry"
        snapshot_result(result, store_root)
        ModelRegistry(registry_root).publish(
            ModelBundle(predictor=predictor), activate=True
        )
        service = ScoringService(store_root, registry_root)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"

        def get(path: str) -> dict:
            with urllib.request.urlopen(base + path, timeout=30) as response:
                return json.load(response)

        def get_text(path: str) -> str:
            with urllib.request.urlopen(base + path, timeout=30) as response:
                return response.read().decode()

        def get_with_headers(path: str) -> tuple[bytes, dict]:
            with urllib.request.urlopen(base + path, timeout=30) as response:
                headers = {k.lower(): v for k, v in response.headers.items()}
                return response.read(), headers

        try:
            health = get("/healthz")
            week = health["latest_week"]
            served = get(f"/dispatch?week={week}")
            metrics = get("/metrics")
            body, slo_headers = get_with_headers("/health")
            slo_health = json.loads(body)
            prom_bytes, prom_headers = get_with_headers(
                "/metrics?format=prometheus"
            )
            prometheus = prom_bytes.decode("utf-8")
            trace = get("/trace")
        finally:
            server.shutdown()
            server.server_close()

    if health.get("status") != "ok":
        print(f"smoke FAILED: /healthz returned {health}")
        return 1
    if slo_health.get("status") != "ok":
        print(f"smoke FAILED: /health returned {slo_health}")
        return 1
    for name, headers in (("/health", slo_headers),
                          ("/metrics?format=prometheus", prom_headers)):
        if headers.get("cache-control") != "no-store":
            print(f"smoke FAILED: {name} response is missing "
                  "Cache-Control: no-store")
            return 1
        if "charset=utf-8" not in headers.get("content-type", ""):
            print(f"smoke FAILED: {name} content type "
                  f"{headers.get('content-type')!r} declares no charset")
            return 1
    if not slo_headers.get("content-type", "").startswith("application/json"):
        print(f"smoke FAILED: /health content type is "
              f"{slo_headers.get('content-type')!r}, expected JSON")
        return 1
    expected = [int(i) for i in predictor.predict_top(result, week)]
    if served["line_ids"] != expected:
        print("smoke FAILED: served dispatch list differs from the batch "
              "predictor's predict_top")
        return 1

    from repro.obs import check_prometheus_text, tracing_enabled

    problems = check_prometheus_text(prometheus)
    if problems:
        print("smoke FAILED: /metrics?format=prometheus is not valid "
              "exposition text:")
        for problem in problems[:10]:
            print(f"  {problem}")
        return 1
    if "repro_http_requests_total" not in prometheus:
        print("smoke FAILED: exposition text is missing the request counter")
        return 1
    if tracing_enabled() and not trace.get("spans"):
        print("smoke FAILED: REPRO_TRACE is on but /trace exported no spans")
        return 1
    span_note = (
        f", {len(trace['spans'])} span tree(s)" if trace.get("spans") else ""
    )
    print(f"smoke ok: model {health['model_version']}, week {week}, "
          f"top-{len(served['line_ids'])} dispatch list matches the batch "
          f"predictor ({metrics['mean_lines_per_sec']:.0f} lines/sec, "
          f"prometheus text valid, /health {slo_health['status']}"
          f"{span_note})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.smoke:
        return _serve_smoke(args)

    from repro.serve import DEFAULT_SHARD_SIZE, ScoringService, make_server

    service = ScoringService(
        args.store,
        args.registry,
        shard_size=args.shard_size or DEFAULT_SHARD_SIZE,
    )
    server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(f"serving model {service.model_version} "
          f"on http://{host}:{port} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """``repro obs report|dashboard``: telemetry summary / trend view."""
    import json
    from pathlib import Path

    from repro.obs import (
        HealthDetector,
        HistoryStore,
        collect_telemetry,
        render_dashboard,
        render_report,
        set_tracing,
    )

    if args.action == "dashboard":
        path = args.history or "history.jsonl"
        history = HistoryStore(path)
        if len(history) == 0:
            print(f"no flight-recorder records at {history.path} -- run "
                  "`repro obs report --history <path>` (or a pipeline with "
                  "a history store attached) first")
            return 1
        print(render_dashboard(history))
        summary = HealthDetector(history).summary()
        return 1 if summary["status"] == "alert" else 0

    if args.input is not None:
        telemetry = json.loads(Path(args.input).read_text())
        print(render_report(telemetry))
        return 0

    # Demo loop: run the proactive pipeline with tracing on, so the
    # report shows the full per-stage breakdown out of the box.
    from repro import PipelineConfig, PredictorConfig
    from repro.core.pipeline import NevermindPipeline
    from repro.netsim.population import PopulationConfig
    from repro.netsim.simulator import SimulationConfig

    if not args.no_trace:
        set_tracing(True)
    try:
        capacity = max(20, args.lines // 50)
        pipeline = NevermindPipeline(
            SimulationConfig(
                n_weeks=args.weeks,
                population=PopulationConfig(n_lines=args.lines, seed=args.seed),
                fault_rate_scale=args.fault_scale,
                seed=args.seed,
            ),
            PipelineConfig(
                predictor=PredictorConfig(
                    capacity=capacity, train_rounds=args.rounds
                )
            ),
            history=(
                HistoryStore(args.history) if args.history is not None
                else None
            ),
        )
        pipeline.run()
        telemetry = collect_telemetry(meta={
            "command": "obs report",
            "lines": args.lines,
            "weeks": args.weeks,
            "seed": args.seed,
            "live_weeks": len(pipeline.reports),
            "summary": pipeline.summary(),
        })
    finally:
        if not args.no_trace:
            set_tracing(None)

    if args.out is not None:
        Path(args.out).write_text(json.dumps(telemetry, indent=1))
        print(f"wrote telemetry to {args.out}")
    print(render_report(telemetry))
    return 0


def _lifecycle_controller(args: argparse.Namespace, root, config=None):
    """Build a pipeline + lifecycle controller rooted at ``root``.

    Creates ``root/store`` and ``root/registry``; the decision log lands
    next to the registry manifest so ``lifecycle status`` and the
    service's ``/lifecycle`` route can read the whole story from disk.
    """
    from repro import PipelineConfig, PredictorConfig
    from repro.core.pipeline import NevermindPipeline
    from repro.lifecycle import LifecycleConfig, LifecycleController
    from repro.serve import ModelRegistry
    from repro.serve.store import LineWeekStore

    sim = _sim_config(args)
    store_root = root / "store"
    if (store_root / "manifest.json").exists():
        raise SystemExit(
            f"{store_root} already holds a line-week store; a lifecycle "
            "run simulates fresh weeks, so pick a new --root"
        )
    store = LineWeekStore.create(
        store_root, sim.population.n_lines, sim.population
    )
    capacity = args.capacity or max(20, args.lines // 50)
    pipeline = NevermindPipeline(
        sim,
        PipelineConfig(
            warmup_weeks=args.warmup,
            retrain_every=0,  # the lifecycle controller owns every retrain
            predictor=PredictorConfig(
                capacity=capacity,
                horizon_weeks=args.horizon,
                train_rounds=args.rounds,
            ),
        ),
        store=store,
        registry=ModelRegistry(root / "registry"),
    )
    return LifecycleController(
        pipeline, config or LifecycleConfig(cadence_weeks=args.cadence)
    )


def _inverted_challenger(pipeline, week: int):
    """Train a real challenger, then negate every stump score.

    The result ranks lines exactly backwards -- the worst live regression
    the smoke can hand the watchdog -- while remaining a perfectly
    ordinary, serialisable, fitted predictor to the registry and the
    shadow scorer.
    """
    from dataclasses import replace

    challenger = pipeline.train_challenger(week)
    model = challenger.model
    model.learners = [
        replace(learner, stump=replace(
            learner.stump,
            s_lo=-learner.stump.s_lo,
            s_hi=-learner.stump.s_hi,
            s_miss=-learner.stump.s_miss,
        ))
        for learner in model.learners
    ]
    model._compiled = None
    return challenger


def _lifecycle_smoke(args: argparse.Namespace) -> int:
    """End-to-end self-test of the continuous-training loop.

    Runs the full controller in a temp dir and forces both interesting
    paths: the first challenger is pushed through the gate (forced
    promotion), the second is an inverted saboteur that the gate is also
    forced to accept -- so the *watchdog* must catch it live and roll the
    registry back.  Exit 0 only if both legs happened and the decision
    chain verifies.  Used by the CI lifecycle-smoke job.
    """
    import tempfile
    from pathlib import Path

    from repro.lifecycle import LifecycleConfig, lifecycle_status

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        controller = _lifecycle_controller(args, root, config=LifecycleConfig(
            cadence_weeks=2,
            shadow_weeks=2,
            bootstrap_samples=100,
            watchdog_drop=0.6,
            watchdog_patience=2,
            seed=args.seed,
        ))
        pipeline = controller.pipeline
        controller.force_next_decision = "promote"
        sabotaged = False
        total = pipeline.simulator.config.n_weeks
        while pipeline.simulator.week < total:
            controller.step()
            counts = controller.status()["decision_counts"]
            if counts.get("promote", 0) >= 1 and not sabotaged:
                # Leg 2: the next challenger is deliberately inverted and
                # the gate is forced open, so only the watchdog stands
                # between it and the customers.
                controller.challenger_factory = (
                    lambda week: _inverted_challenger(pipeline, week)
                )
                controller.force_next_decision = "promote"
                sabotaged = True
            if counts.get("rollback", 0) >= 1:
                break
        status = controller.status()
        disk = lifecycle_status(root / "registry")

    counts = status["decision_counts"]
    if counts.get("promote", 0) < 2 or counts.get("rollback", 0) < 1:
        print(f"lifecycle smoke FAILED: expected >=2 promotions and >=1 "
              f"rollback, got decisions {counts} (is --weeks long enough "
              f"past --warmup?)")
        return 1
    if not disk["chain_valid"]:
        print("lifecycle smoke FAILED: decision chain did not verify:")
        for problem in disk["chain_problems"][:10]:
            print(f"  {problem}")
        return 1
    if disk["active_version"] != status["champion_version"]:
        print(f"lifecycle smoke FAILED: registry active "
              f"{disk['active_version']} != controller champion "
              f"{status['champion_version']}")
        return 1
    promotes = [r for r in disk["decisions"] if r["action"] == "promote"]
    rollbacks = [r for r in disk["decisions"] if r["action"] == "rollback"]
    restored = rollbacks[-1]["details"]["restored"]
    if restored != promotes[0]["details"]["version"]:
        print(f"lifecycle smoke FAILED: rollback restored {restored}, "
              f"expected the first promoted champion "
              f"{promotes[0]['details']['version']}")
        return 1
    registry_rollbacks = [
        e for e in disk["registry_events"] if e["action"] == "rollback"
    ]
    if not registry_rollbacks:
        print("lifecycle smoke FAILED: registry manifest records no "
              "rollback event")
        return 1
    print(f"lifecycle smoke ok: {counts.get('retrain', 0)} retrains, "
          f"{counts['promote']} promotions (1 forced good, 1 forced "
          f"saboteur), watchdog rolled back to {restored} at week "
          f"{rollbacks[-1]['week']}, decision chain of "
          f"{len(disk['decisions'])} records verified")
    return 0


def _lifecycle_print_status(root) -> int:
    from repro.lifecycle import lifecycle_status

    registry_root = root / "registry" if (root / "registry").is_dir() else root
    status = lifecycle_status(registry_root)
    versions = ", ".join(status["versions"]) or "none"
    print(f"registry {registry_root}: active {status['active_version']}, "
          f"versions {versions}")
    counts = status["decision_counts"]
    rendered = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"decisions: {rendered or 'none'}")
    print(f"decision chain intact: {status['chain_valid']}")
    for problem in status["chain_problems"]:
        print(f"  problem: {problem}")
    for record in status["decisions"][-8:]:
        details = record["details"]
        extra = (details.get("reason") or details.get("version")
                 or details.get("restored") or "")
        print(f"  week {record['week']:>3}  {record['action']:<9} {extra}")
    return 0 if status["chain_valid"] else 1


def _cmd_lifecycle(args: argparse.Namespace) -> int:
    from pathlib import Path

    if args.smoke:
        return _lifecycle_smoke(args)
    if args.action == "status":
        return _lifecycle_print_status(Path(args.root))

    controller = _lifecycle_controller(args, Path(args.root))
    controller.run()
    summary = controller.pipeline.summary()
    status = controller.status()
    counts = status["decision_counts"]
    print(f"lifecycle run: {int(summary['weeks'])} live weeks, "
          f"overall precision {summary['precision']:.3f}")
    print(f"  champion {status['active_version']} "
          f"(since week {status['champion_since_week']})")
    print("  decisions: "
          + (", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
             or "none"))
    print(f"  decision chain intact: {status['chain_valid']}")
    print(f"  decision log: {controller.log.path}")
    return 0


def _triage_eval_week(args: argparse.Namespace, result) -> int:
    """The evaluation week: --week, or the late week with the most
    shared-fault-affected lines (latest week when there are none)."""
    from repro.netsim.simulator import SATURDAY_OFFSET

    last = args.weeks - 1
    if args.week is not None:
        if not 0 <= args.week <= last:
            raise SystemExit(f"--week must be in [0, {last}]")
        return args.week
    if result.group_faults is None:
        return last
    candidates = range(max(0, args.weeks - 6), args.weeks)
    counts = {
        week: int(
            result.group_faults.affected_lines(week * 7 + SATURDAY_OFFSET).sum()
        )
        for week in candidates
    }
    return max(counts, key=lambda week: (counts[week], week))


def _cmd_triage(args: argparse.Namespace) -> int:
    """``repro triage``: cluster, classify, suppress, compare precision."""
    from repro.fleet import evaluate_plan, find_clusters, plan_dispatches
    from repro.netsim.simulator import SATURDAY_OFFSET

    if args.smoke:
        # Fixed small scale so CI asserts against one known plant.
        args.lines, args.weeks, args.rounds = 2500, 20, 40
        args.scenario = args.scenario or "correlated_faults"
        args.capacity = None
    if not args.scenario:
        args.scenario = "correlated_faults"

    result = _simulate(args)
    predictor = _trained_predictor(args, result, rounds=args.rounds)
    capacity = predictor.config.capacity
    topology = result.population.topology
    week = _triage_eval_week(args, result)
    day = week * 7 + SATURDAY_OFFSET

    scores = predictor.score_week(result, week)
    triage = find_clusters(scores, topology, capacity)
    plan = plan_dispatches(scores, capacity, triage, week=week)

    fault = result.fault_active_on(day)
    active_groups = set()
    if result.group_faults is not None:
        active_groups = {
            (e.level, e.group_id)
            for e in result.group_faults.schedule.active_on(day)
        }
    scored = evaluate_plan(plan, fault, active_groups)

    upstream = triage.upstream_clusters
    print(f"plant triage on {args.scenario!r} "
          f"({args.lines} lines x {args.weeks} weeks, week {week})")
    print(f"  anomaly pool: top {triage.pool_line_ids.size} of "
          f"{triage.n_lines} lines (base rate {triage.base_rate:.1%})")
    for cluster in triage.clusters:
        parent = (f" (dslam {topology.dslam_of_binder(cluster.group_id)})"
                  if cluster.level == "binder" else "")
        print(f"  {cluster.level} {cluster.group_id}{parent}: "
              f"{cluster.n_anomalous}/{cluster.n_lines} anomalous, "
              f"p={cluster.p_value:.2e} -> {cluster.classification}")
    print(f"  group dispatches: {len(upstream)} (one per upstream cluster), "
          f"suppressed {scored['suppressed']} per-line dispatches, "
          f"refilled {scored['backfilled']} slots")

    recall = None
    if result.group_faults is not None:
        affected = result.group_faults.affected_lines(day)
        pool = np.zeros(triage.n_lines, dtype=bool)
        pool[triage.pool_line_ids] = True
        truly = affected & pool
        clustered = triage.upstream_line_mask() & truly
        if truly.any():
            recall = clustered.sum() / truly.sum()
            print(f"  upstream recall: {recall:.0%} "
                  f"({int(clustered.sum())}/{int(truly.sum())} "
                  f"truly-upstream anomalous lines clustered)")
    print(f"  precision@N={capacity}: "
          f"baseline {scored['baseline_precision']:.3f} -> "
          f"triage {scored['triage_precision']:.3f}")

    if args.smoke:
        problems = []
        if len(upstream) < 1:
            problems.append("no upstream clusters found")
        if recall is None or recall < 0.9:
            rendered = "n/a" if recall is None else f"{recall:.0%}"
            problems.append(f"upstream recall {rendered} below 90%")
        if scored["triage_precision"] <= scored["baseline_precision"]:
            problems.append(
                "suppression did not improve precision-at-capacity"
            )
        if problems:
            for problem in problems:
                print(f"triage smoke FAILED: {problem}")
            return 1
        print(f"triage smoke ok: {len(upstream)} upstream cluster(s), "
              f"recall {recall:.0%}, precision "
              f"{scored['baseline_precision']:.3f} -> "
              f"{scored['triage_precision']:.3f} at N={capacity}")
    return 0


def _explain_smoke_checks(service, week: int, report: dict, line_ids) -> int:
    """Assertions behind ``repro explain --smoke`` (used by the CI job)."""
    from repro.explain import (
        assemble_model_row,
        attribute_ensemble,
        technician_steps,
    )
    from repro.netsim.components import DISPOSITIONS

    problems: list[str] = []

    rendered = report["rendered"]
    for header in ("=== diagnostic summary ===",
                   "=== technician next steps ==="):
        if header not in rendered:
            problems.append(f"rendered report is missing {header!r}")
    if not report["attributions"]:
        problems.append("report carries no feature attributions")
    if not report["next_steps"]:
        problems.append("report carries no technician steps")
    if not report["attribution_exact"]:
        problems.append("attribution fold does not reproduce the margin")
    if report["disposition"] is None:
        problems.append("no disposition despite a bundled locator")
    if not 0.0 <= report["p_ticket"] <= 1.0:
        problems.append(f"p_ticket {report['p_ticket']} outside [0, 1]")

    # Every catalog disposition (plus "no trouble found") must render.
    try:
        for code in [-1, *range(len(DISPOSITIONS))]:
            if not technician_steps(code):
                problems.append(f"disposition {code} rendered no steps")
                break
    except Exception as exc:  # a KeyError here means a broken template
        problems.append(f"disposition templates failed to render: {exc}")

    # Bit-identical parity on a sample of dispatched lines: the scalar
    # attribution fold must reproduce the served margin exactly, and its
    # calibrated value the served score.
    engine = service.engine
    predictor = engine.bundle.predictor
    compiled = predictor.model.compiled()
    scored = engine.score_week(week)
    base = engine.base_features(week)
    for line_id in line_ids:
        line_id = int(line_id)
        row = assemble_model_row(base.matrix[line_id], predictor.recipes)
        attribution = attribute_ensemble(compiled, row)
        if attribution.reconstructed() != attribution.margin:
            problems.append(
                f"line {line_id}: attribution fold diverges from its margin")
            break
        calibrated = float(predictor.model.calibrator.transform(
            np.array([attribution.margin]))[0])
        if calibrated != float(scored.scores[line_id]):
            problems.append(
                f"line {line_id}: calibrated attribution margin "
                f"{calibrated} != served score {float(scored.scores[line_id])}"
            )
            break

    # The shared score cache must survive an engine reload and serve the
    # repeat read without another shard scan.
    service.reload()
    if not service.engine.is_cached(week):
        problems.append("score cache did not survive the reload")
    before = service.cache.stats()["hits"]
    status, _ = service.dispatch_request(
        "GET", f"/score?week={week}&line={int(line_ids[0])}")
    if status != 200:
        problems.append(f"post-reload /score returned {status}")
    elif service.cache.stats()["hits"] <= before:
        problems.append("post-reload /score read was not a cache hit")

    if problems:
        for problem in problems:
            print(f"explain smoke FAILED: {problem}")
        return 1
    stats = service.cache.stats()
    print(f"explain smoke ok: line {report['line']} week {week} "
          f"({report['n_contributors']} contributors, "
          f"disposition {report['disposition']['code']}, "
          f"cache hit rate {stats['hit_rate']:.0%})")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: serve one line-week's two-stage diagnosis."""
    import tempfile
    from pathlib import Path

    from repro import CombinedLocator, LocatorConfig, build_locator_dataset
    from repro.serve import (
        ModelBundle,
        ModelRegistry,
        ScoringService,
        snapshot_result,
    )

    if args.smoke:
        # Fixed small scale so CI checks one known plant.
        args.lines, args.weeks, args.rounds = 2500, 20, 40
        args.locator_rounds = min(args.locator_rounds, 8)
        args.capacity = None

    result = _simulate(args)
    predictor = _trained_predictor(args, result, rounds=args.rounds)
    train = build_locator_dataset(result, 30, args.weeks * 7)
    locator = CombinedLocator(
        LocatorConfig(n_rounds=args.locator_rounds, cv_folds=2)
    ).fit(train)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        snapshot_result(result, root / "store")
        ModelRegistry(root / "registry").publish(
            ModelBundle(
                predictor=predictor,
                locator=locator,
                meta={"lines": args.lines, "weeks": args.weeks,
                      "seed": args.seed},
            ),
            activate=True,
        )
        service = ScoringService(root / "store", root / "registry",
                                 shard_size=512)
        _, health = service.dispatch_request("GET", "/healthz")
        week = args.week if args.week is not None else health["latest_week"]
        status, dispatch = service.dispatch_request(
            "GET", f"/dispatch?week={week}")
        if status != 200:
            print(f"explain FAILED: /dispatch returned {status}: {dispatch}")
            return 1
        line = args.line if args.line is not None else dispatch["line_ids"][0]
        status, report = service.dispatch_request(
            "GET", f"/explain?line={line}&week={week}&top={args.top}")
        if status != 200:
            print(f"explain FAILED: /explain returned {status}: {report}")
            return 1
        print(report["rendered"])
        if args.smoke:
            return _explain_smoke_checks(
                service, week, report, dispatch["line_ids"][:10])
    return 0


def _scale_toy_bundle(encoder):
    """A tiny deterministic stump ensemble over the encoded columns.

    The scale smoke's scoring-parity check needs *a* model, not a good
    one; hand-building 16 stumps keeps the smoke seconds-long where a
    real fit would dominate it.
    """
    from repro.core.predictor import (
        PredictorConfig,
        TicketPredictor,
        _DerivedRecipes,
    )
    from repro.ml.boostexter import BStump, BStumpConfig, WeakLearner
    from repro.ml.calibration import PlattCalibrator
    from repro.ml.stumps import Stump
    from repro.serve import ModelBundle

    rng = np.random.default_rng(7)
    base = sorted(
        int(i)
        for i in rng.choice(encoder.base_feature_count(), size=8,
                            replace=False)
    )
    recipes = _DerivedRecipes(
        base_indices=base, quad_indices=base[:2],
        product_pairs=[(base[0], base[1])],
    )
    model = BStump(BStumpConfig(n_rounds=16))
    model.n_features_ = recipes.n_columns
    model.learners = [
        WeakLearner(
            stump=Stump(
                feature=int(rng.integers(recipes.n_columns)),
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
        for r in range(16)
    ]
    model.train_z_ = [1.0] * 16
    calibrator = PlattCalibrator()
    calibrator.a = -1.0
    calibrator.b = 0.0
    calibrator.fitted_ = True
    model.calibrator = calibrator
    predictor = TicketPredictor(PredictorConfig(capacity=500),
                                encoder=encoder)
    predictor.model = model
    predictor.recipes = recipes
    return ModelBundle(predictor=predictor, meta={"smoke": True})


def _scale_smoke(args: argparse.Namespace) -> int:
    """Self-test of the streaming invariants at a fixed three-block scale.

    Everything the paper-scale cycle relies on, asserted end to end:
    chunked generation is bit-identical to the monolithic run, chunk
    appends produce byte-identical shards to whole-week appends, the
    out-of-core encode equals the dense one, and sharded multi-worker
    scoring equals single-worker.  Used by the CI scale-smoke job.
    """
    import tempfile
    from pathlib import Path

    from repro import PopulationConfig, SimulationConfig
    from repro.features.encoding import EncoderConfig, LineFeatureEncoder
    from repro.netsim import STREAM_BLOCK_LINES, stream_weeks
    from repro.netsim.groupfaults import GroupFaultConfig
    from repro.serve import LineWeekStore, ScoringEngine, StoredWorld

    n_lines = 2 * STREAM_BLOCK_LINES + 700  # straddles two block edges
    n_weeks = 3
    config = SimulationConfig(
        n_weeks=n_weeks,
        population=PopulationConfig(n_lines=n_lines, seed=11),
        fault_rate_scale=2.0,
        group_faults=GroupFaultConfig(
            n_dslam_events=2, n_binder_events=4, event_window=(0.0, 0.7),
            seed=23,
        ),
        seed=args.seed,
    )
    failures: list[str] = []

    def collect(chunk):
        feats = [[] for _ in range(n_weeks)]
        lasts = [[] for _ in range(n_weeks)]
        for blk in stream_weeks(config, chunk_lines=chunk):
            feats[blk.week].append(blk.features)
            lasts[blk.week].append(blk.last_ticket_day)
        return ([np.concatenate(f) for f in feats],
                [np.concatenate(t) for t in lasts])

    mono_f, mono_t = collect(None)
    chunk_f, chunk_t = collect(STREAM_BLOCK_LINES)
    if not all(
        np.array_equal(chunk_f[w], mono_f[w], equal_nan=True)
        and np.array_equal(chunk_t[w], mono_t[w])
        for w in range(n_weeks)
    ):
        failures.append("chunked generation diverged from the monolithic run")

    with tempfile.TemporaryDirectory() as tmp:
        whole = LineWeekStore.create(
            Path(tmp) / "whole", n_lines, config.population)
        for w in range(n_weeks):
            whole.append_week(w, w * 7 + 5, mono_f[w], mono_t[w])
        chunked = LineWeekStore.create(
            Path(tmp) / "chunked", n_lines, config.population)
        chunked.append_week_chunks(
            stream_weeks(config, chunk_lines=STREAM_BLOCK_LINES))
        chunked.verify()
        for w in range(n_weeks):
            for prefix in ("week", "tickets"):
                name = f"{prefix}_{w:05d}.npy"
                if (whole.root / name).read_bytes() != (
                        chunked.root / name).read_bytes():
                    failures.append(
                        f"chunk-appended {name} differs from the "
                        f"whole-week append")

        encoder = LineFeatureEncoder(EncoderConfig())
        dense = StoredWorld(chunked, out_of_core=False)
        ooc = StoredWorld(chunked, out_of_core=True)
        target = chunked.latest_week
        reference = dense.encode_week(target, encoder)
        streamed = ooc.encode_week(target, encoder, chunk_lines=5_000)
        if not np.array_equal(streamed.matrix, reference.matrix,
                              equal_nan=True):
            failures.append("out-of-core chunked encode diverged from dense")

        bundle = _scale_toy_bundle(encoder)
        bundle.predictor.model.compiled()
        multi = ScoringEngine(
            bundle, ooc, shard_size=4_096, workers=4).score_week(target)
        single = ScoringEngine(
            bundle, StoredWorld(chunked, out_of_core=True),
            shard_size=4_096, workers=1).score_week(target)
        if not np.array_equal(multi.scores, single.scores):
            failures.append("multi-worker scores diverged from single-worker")

    if failures:
        for failure in failures:
            print(f"scale smoke FAILED: {failure}")
        return 1
    print(f"smoke ok: {n_lines} lines x {n_weeks} weeks streamed in blocks "
          f"of {STREAM_BLOCK_LINES}; chunk appends byte-identical, "
          f"out-of-core encode equal to dense, {multi.n_shards}-shard "
          f"4-worker scoring bit-identical to single-worker")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    if args.smoke:
        return _scale_smoke(args)
    import contextlib
    import tempfile
    import time
    from pathlib import Path

    from repro.features.encoding import EncoderConfig, LineFeatureEncoder
    from repro.netsim import STREAM_BLOCK_LINES, stream_weeks
    from repro.obs.profile import peak_rss_kb
    from repro.serve import LineWeekStore, StoredWorld

    config = _sim_config(args)
    chunk = args.chunk_lines or STREAM_BLOCK_LINES
    with contextlib.ExitStack() as stack:
        if args.store:
            root = Path(args.store)
        else:
            root = Path(stack.enter_context(
                tempfile.TemporaryDirectory())) / "store"
        store = LineWeekStore.create(root, args.lines, config.population)
        gen_start = time.perf_counter()
        weeks = store.append_week_chunks(
            stream_weeks(config, chunk_lines=chunk))
        gen_seconds = time.perf_counter() - gen_start
        store.verify()

        world = StoredWorld(LineWeekStore.open(root), out_of_core=True)
        encoder = LineFeatureEncoder(EncoderConfig())
        encode_start = time.perf_counter()
        encoded = sum(
            piece.matrix.shape[0]
            for _, piece in world.iter_encode_week(
                store.latest_week, encoder, chunk_lines=chunk)
        )
        encode_seconds = time.perf_counter() - encode_start

    print(f"streamed {args.lines} lines x {len(weeks)} weeks "
          f"(chunk {chunk} lines)")
    print(f"  generate+append : {gen_seconds:.1f}s "
          f"({args.lines * len(weeks) / gen_seconds:.0f} line-weeks/s)")
    print(f"  encode (latest) : {encode_seconds:.1f}s "
          f"({encoded / encode_seconds:.0f} lines/s, streamed)")
    print(f"  peak RSS        : {peak_rss_kb() / 1024:.0f} MB")
    if args.store:
        print(f"  store           : {root}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "predict": _cmd_predict,
    "locate": _cmd_locate,
    "export": _cmd_export,
    "snapshot": _cmd_snapshot,
    "serve": _cmd_serve,
    "obs": _cmd_obs,
    "lifecycle": _cmd_lifecycle,
    "triage": _cmd_triage,
    "explain": _cmd_explain,
    "scale": _cmd_scale,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    from repro.obs import configure_logging

    configure_logging(verbose=getattr(args, "verbose", False))
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
