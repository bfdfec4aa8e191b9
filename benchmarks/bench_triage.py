"""Benchmark harness for the plant-level triage subsystem (``repro.fleet``).

Measures the three things this PR claims and writes them to
``BENCH_triage.json``:

* **aggregation** -- ``find_clusters`` throughput (lines/sec) on a large
  synthetic plant: a full anomaly-pool grouping + binomial concentration
  test + level disambiguation per call, best-of-N wall clock.
* **scenario** -- end-to-end quality on the ``correlated_faults``
  scenario: upstream recall (share of truly group-degraded anomalous
  lines that land in an upstream cluster -- the >= 0.9 acceptance bar),
  one group dispatch per upstream cluster, and precision-at-capacity of
  the suppression+backfill plan vs the per-line baseline at the same N.
  The harness asserts the triage precision is *strictly* higher.
* **table5_feed** -- the correlated scenario's derived outage schedule
  (DSLAM group faults escalated via ``OutageSchedule.from_group_faults``)
  feeding the Section-5.2 regression: ``explain_incorrect_by_outage``
  coefficients/P-values per horizon, confirming correlated plant events
  keep explaining incorrect predictions.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_triage.py            # full
    PYTHONPATH=src python benchmarks/bench_triage.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro import (
    PredictorConfig,
    TicketPredictor,
    build_population,
    evaluate_plan,
    evaluate_predictions,
    explain_incorrect_by_outage,
    find_clusters,
    paper_style_split,
    plan_dispatches,
    scenario,
)
from repro.fleet import triage_eval_week
from repro.netsim.population import PopulationConfig
from repro.netsim.simulator import SATURDAY_OFFSET, DslSimulator
from repro.obs.profile import resource_section


def _timed(fn, repeats: int = 1):
    """Best-of-N wall clock and the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


# ---------------------------------------------------------------------------
# aggregation throughput
# ---------------------------------------------------------------------------

def bench_aggregation(n_lines: int, repeats: int) -> dict:
    """``find_clusters`` wall clock on a synthetic plant with planted hotspots.

    Scores are unit Gaussians; two binders and one DSLAM get a +3 shift so
    the concentration test has real structure to find (the degenerate
    no-cluster case short-circuits and would overstate throughput).
    """
    population = build_population(PopulationConfig(n_lines=n_lines, seed=7))
    topology = population.topology
    rng = np.random.default_rng(7)
    scores = rng.standard_normal(n_lines)
    for binder_id in (1, topology.n_binders // 2):
        scores[topology.lines_of_binder(binder_id)] += 3.0
    scores[topology.lines_of_dslam(topology.n_dslams - 1)] += 3.0
    capacity = max(20, n_lines // 50)

    elapsed, triage = _timed(
        lambda: find_clusters(scores, topology, capacity), repeats
    )
    upstream = triage.upstream_clusters
    print(
        f"aggregation: {n_lines} lines in {elapsed * 1e3:.1f} ms "
        f"({n_lines / elapsed:,.0f} lines/s), "
        f"{len(upstream)} upstream clusters found"
    )
    assert upstream, "planted hotspots must produce upstream clusters"
    return {
        "n_lines": n_lines,
        "capacity": capacity,
        "pool_size": int(triage.pool_line_ids.size),
        "seconds": elapsed,
        "lines_per_s": n_lines / elapsed,
        "clusters": len(triage.clusters),
        "upstream_clusters": len(upstream),
    }


# ---------------------------------------------------------------------------
# correlated scenario: recall + precision-at-capacity
# ---------------------------------------------------------------------------

def bench_scenario(n_lines: int, n_weeks: int, rounds: int, seed: int) -> dict:
    """Baseline vs suppression+backfill precision on ``correlated_faults``."""
    config = scenario("correlated_faults", n_lines, n_weeks, seed=seed)
    result = DslSimulator(config).run()
    assert result.group_faults is not None

    split = paper_style_split(
        n_weeks, history=max(2, n_weeks - 11), train=3, selection=2, test=0
    )
    capacity = max(20, n_lines // 50)
    predictor = TicketPredictor(
        PredictorConfig(capacity=capacity, train_rounds=rounds)
    ).fit(result, split)

    week = triage_eval_week(result)
    day = week * 7 + SATURDAY_OFFSET
    topology = result.population.topology
    scores = predictor.score_week(result, week)

    elapsed, triage = _timed(
        lambda: find_clusters(scores, topology, capacity)
    )
    plan = plan_dispatches(scores, capacity, triage, week=week)

    fault = result.fault_active_on(day)
    active_groups = {
        (event.level, event.group_id)
        for event in result.group_faults.schedule.active_on(day)
    }
    scored = evaluate_plan(plan, fault, active_groups)

    # Upstream recall: of the anomalous-pool lines truly degraded by an
    # active group fault, how many landed inside an upstream cluster?
    degraded = result.group_faults.affected_lines(day)
    pool_degraded = triage.pool_line_ids[degraded[triage.pool_line_ids]]
    assert pool_degraded.size, "no truly-upstream line in the anomaly pool"
    recall = float(triage.upstream_line_mask()[pool_degraded].mean())

    upstream = triage.upstream_clusters
    print(
        f"scenario: week {week}, {len(upstream)} upstream clusters, "
        f"{scored['group_dispatches']} group dispatches, "
        f"upstream recall {recall:.0%}"
    )
    print(
        f"  precision@{capacity}: baseline {scored['baseline_precision']:.3f}"
        f" -> triage {scored['triage_precision']:.3f} "
        f"(suppressed {scored['suppressed']}, backfilled {scored['backfilled']})"
    )
    assert upstream, "correlated scenario must yield upstream clusters"
    assert scored["group_dispatches"] == len(upstream), (
        "exactly one group dispatch per upstream cluster"
    )
    assert recall >= 0.9, f"upstream recall {recall:.2f} below 0.9 bar"
    assert scored["triage_precision"] > scored["baseline_precision"], (
        "suppression+backfill must strictly improve precision-at-capacity"
    )
    return {
        "n_lines": n_lines,
        "n_weeks": n_weeks,
        "train_rounds": rounds,
        "seed": seed,
        "week": week,
        "capacity": capacity,
        "find_clusters_seconds": elapsed,
        "upstream_clusters": len(upstream),
        "clusters": [cluster.to_dict() for cluster in triage.clusters],
        "upstream_recall": recall,
        **scored,
    }, result, predictor, week


def _table5_week(result) -> int:
    """Latest Saturday strictly before the earliest derived outage.

    Table-5's window is forward-looking (``day < start <= day + T*7``):
    the prediction has to be made while the shared degradation is still
    live so the escalated maintenance outage lands inside the horizon.
    """
    first_start = min(event.start_day for event in result.outages.events)
    return max(0, (first_start - 1 - SATURDAY_OFFSET) // 7)


def bench_table5_feed(result, predictor) -> dict:
    """Table-5 regression over the *derived* (bridged) outage schedule."""
    assert result.outages.events, "bridge must derive >=1 DSLAM outage"
    week = _table5_week(result)
    ranking = predictor.rank_week(result, week)
    outcome = evaluate_predictions(result, ranking, week)
    capacity = predictor.config.capacity
    rows = explain_incorrect_by_outage(result, outcome, capacity)
    print(f"table5 feed (derived outages from DSLAM group faults, week {week}):")
    for row in rows:
        print(
            f"  T={row.horizon_weeks}w: incorrect frac "
            f"{row.incorrect_fraction:.3f}, coef {row.coefficient:+.3f}, "
            f"p {row.p_value:.3g}"
        )
    return {
        "week": week,
        "n_outage_events": len(result.outages.events),
        "outage_precursor_weeks": result.outages.config.precursor_weeks,
        "horizons": [
            {
                "horizon_weeks": row.horizon_weeks,
                "incorrect_fraction": row.incorrect_fraction,
                "coefficient": row.coefficient,
                "p_value": row.p_value,
            }
            for row in rows
        ],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_triage.json at "
                             "the repo root)")
    args = parser.parse_args()

    if args.quick:
        agg_lines, agg_repeats = 20_000, 3
        lines, weeks, rounds = 2500, 20, 40
    else:
        agg_lines, agg_repeats = 120_000, 3
        lines, weeks, rounds = 5000, 22, 60

    report = {
        "quick": args.quick,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    report["aggregation"] = bench_aggregation(agg_lines, agg_repeats)
    scenario_report, result, predictor, _week = bench_scenario(
        lines, weeks, rounds, args.seed
    )
    report["scenario"] = scenario_report
    report["table5_feed"] = bench_table5_feed(result, predictor)
    report["resources"] = resource_section()

    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_triage.json"
    )
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
