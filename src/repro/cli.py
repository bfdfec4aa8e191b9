"""Command-line interface: ``python -m repro <command>``.

Eleven subcommands mirror how an operator would poke at the system:

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
* ``serve`` -- run the scoring service over a store and registry;
* ``obs`` -- observability tooling: ``obs report`` runs an instrumented
  proactive loop (or reads a saved telemetry JSON) and renders the
  per-stage timing and quality breakdown;
* ``lifecycle`` -- continuous training: ``lifecycle run`` drives the
  proactive loop under the lifecycle controller (scheduled retrains,
  shadow champion--challenger gating, auto-rollback) and ``lifecycle
  status`` renders the signed decision log of a previous run;
* ``triage`` -- plant-level triage: cluster one week's anomalous lines
  by shared DSLAM/binder, classify upstream vs in-home, and compare
  precision-at-capacity with and without dispatch suppression;
* ``explain`` -- serve one line-week's two-stage diagnosis report:
  exact per-feature attribution of the served margin, plant context,
  and the templated technician next steps;
* ``scale`` -- the paper-scale streaming weekly cycle: chunked netsim
  generation appended incrementally into an out-of-core line-week
  store, then a streaming Table-3 encode -- peak memory stays bounded
  by the chunk size, never the full measurement cube.

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

    scale = sub.add_parser(
        "scale", parents=[common],
        help="run the streaming weekly cycle: chunked generation into an "
             "out-of-core line-week store, chunked encode, sharded scoring")
    scale.add_argument("--chunk-lines", type=int, default=None,
                       help="streaming chunk size in lines (rounds up to "
                            "whole RNG blocks; default: one block)")
    scale.add_argument("--store", default=None,
                       help="persist the store here (default: temp dir)")
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

    capacity = args.capacity or max(20, args.lines // 50)
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


def _cmd_serve(args: argparse.Namespace) -> int:
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


def _lifecycle_controller(args: argparse.Namespace, root):
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
        pipeline, LifecycleConfig(cadence_weeks=args.cadence)
    )


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


def _cmd_triage(args: argparse.Namespace) -> int:
    """``repro triage``: cluster, classify, suppress, compare precision."""
    from repro.fleet import (
        evaluate_plan,
        find_clusters,
        plan_dispatches,
        triage_eval_week,
    )
    from repro.netsim.simulator import SATURDAY_OFFSET

    if not args.scenario:
        args.scenario = "correlated_faults"

    result = _simulate(args)
    predictor = _trained_predictor(args, result, rounds=args.rounds)
    capacity = predictor.config.capacity
    topology = result.population.topology
    last = args.weeks - 1
    if args.week is None:
        week = triage_eval_week(result)
    elif 0 <= args.week <= last:
        week = args.week
    else:
        raise SystemExit(f"--week must be in [0, {last}]")
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
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile
    from pathlib import Path

    from repro.features.encoding import EncoderConfig, LineFeatureEncoder
    from repro.netsim import STREAM_BLOCK_LINES, stream_weeks
    from repro.obs.profile import peak_rss_kb, stage
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
        with stage("scale.generate_append") as generate:
            weeks = store.append_week_chunks(
                stream_weeks(config, chunk_lines=chunk))
        store.verify()

        world = StoredWorld(LineWeekStore.open(root))
        encoder = LineFeatureEncoder(EncoderConfig())
        with stage("scale.encode") as encode:
            encoded = sum(
                piece.matrix.shape[0]
                for _, piece in world.iter_encode_week(
                    store.latest_week, encoder, chunk_lines=chunk)
            )

    print(f"streamed {args.lines} lines x {len(weeks)} weeks "
          f"(chunk {chunk} lines)")
    print(f"  generate+append : {generate.seconds:.1f}s "
          f"({args.lines * len(weeks) / generate.seconds:.0f} line-weeks/s)")
    print(f"  encode (latest) : {encode.seconds:.1f}s "
          f"({encoded / encode.seconds:.0f} lines/s, streamed)")
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
