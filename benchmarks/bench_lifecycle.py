"""Performance harness for the lifecycle shadow-scoring path.

Promotion decisions score two models -- champion and challenger -- over
the same stored weeks.  The naive way doubles the whole serving cost;
the lifecycle path (:func:`repro.serve.score_bundles`) encodes each
shard once and repeats only the cheap compiled-ensemble fold, so shadow
evaluation must land well under 2x the champion-only run.  This harness
measures exactly that ratio and writes it to ``BENCH_lifecycle.json``:

* **champion_only** -- one bundle through a solo ``ScoringEngine`` run
  (the weekly Saturday scoring cost, best-of-N with the cache cleared);
* **shadow** -- champion + challenger through ``score_bundles`` on the
  shared-encode path (what every promotion gate pays), best-of-N;
* **naive_shadow** -- two sequential solo engine runs, the cost the
  shared encode avoids;
* **overhead_ratio** -- shadow / champion_only; the CI smoke job fails
  when it reaches 2.0.

Scores from the shadow path are asserted bit-identical to the solo
engine's, so the ratio being measured is the ratio of *correct* paths.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_lifecycle.py            # full
    PYTHONPATH=src python benchmarks/bench_lifecycle.py --quick    # CI smoke
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

from bench_serve import _synthetic_bundle, _synthetic_weeks
from repro.features.encoding import EncoderConfig, LineFeatureEncoder
from repro.netsim.population import PopulationConfig
from repro.obs.profile import resource_section
from repro.parallel import worker_count
from repro.serve import (
    DEFAULT_SHARD_SIZE,
    LineWeekStore,
    ScoringEngine,
    StoredWorld,
    score_bundles,
)


def _best_of(n: int, run) -> float:
    best = float("inf")
    for _ in range(n):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def bench_shadow(n_lines: int, n_weeks: int, n_rounds: int, shard_size: int,
                 workers: int | None, repeats: int = 3):
    rng = np.random.default_rng(20100805)
    weeks = _synthetic_weeks(rng, n_lines, n_weeks)

    with tempfile.TemporaryDirectory() as tmp:
        store = LineWeekStore.create(
            Path(tmp) / "store",
            n_lines=n_lines,
            population=PopulationConfig(n_lines=n_lines, seed=11),
        )
        for week, day, matrix, last_ticket in weeks:
            store.append_week(week, day, matrix, last_ticket)

        world = StoredWorld(LineWeekStore.open(store.root))
        encoder = LineFeatureEncoder(EncoderConfig())
        capacity = max(50, n_lines // 50)
        # Independently drawn stump sets: the challenger assembles its
        # own derived columns, as a real retrained model would.
        champion = _synthetic_bundle(rng, encoder, n_rounds, capacity)
        challenger = _synthetic_bundle(rng, encoder, n_rounds, capacity)
        champion.predictor.model.compiled()
        challenger.predictor.model.compiled()
        target = store.latest_week

        engine = ScoringEngine(
            champion, world, shard_size=shard_size, workers=workers
        )

        def champion_only():
            engine._score_cache.clear()
            return engine.score_week(target)

        def shadow():
            return score_bundles(
                {"champion": champion, "challenger": challenger},
                world, target, shard_size=shard_size, workers=workers,
            )

        def naive_shadow():
            for bundle in (champion, challenger):
                solo = ScoringEngine(
                    bundle, world, shard_size=shard_size, workers=workers
                )
                solo.score_week(target)

        champion_seconds = _best_of(repeats, champion_only)
        shadow_seconds = _best_of(repeats, shadow)
        naive_seconds = _best_of(repeats, naive_shadow)

        # Parity: the shared-encode path must reproduce the solo engine.
        engine._score_cache.clear()
        solo_scores = engine.score_week(target).scores
        shared = shadow()
        parity = bool(np.array_equal(shared["champion"], solo_scores))

    return {
        "n_lines": n_lines,
        "n_weeks": n_weeks,
        "n_rounds": n_rounds,
        "shard_size": shard_size,
        "workers": worker_count(workers),
        "repeats": repeats,
        "champion_only_seconds": champion_seconds,
        "shadow_seconds": shadow_seconds,
        "naive_shadow_seconds": naive_seconds,
        "overhead_ratio": shadow_seconds / champion_seconds,
        "naive_ratio": naive_seconds / champion_seconds,
        "shared_encode_speedup": naive_seconds / shadow_seconds,
        "shadow_lines_per_sec": 2 * n_lines / shadow_seconds,
        "parity_with_solo_engine": parity,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lines", type=int, default=120_000,
                        help="synthetic population size")
    parser.add_argument("--weeks", type=int, default=4,
                        help="stored weeks")
    parser.add_argument("--rounds", type=int, default=200,
                        help="synthetic ensemble depth")
    parser.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE,
                        help="lines per scoring shard (default: the "
                             "program's DEFAULT_SHARD_SIZE)")
    parser.add_argument("--workers", type=int, default=None,
                        help="scoring fan-out (default: REPRO_WORKERS or 1)")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for a CI smoke run")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when shadow/champion reaches this ratio")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_lifecycle.json")
    args = parser.parse_args()

    if args.quick:
        n_lines, n_weeks, n_rounds, shard = 8_000, 3, 60, 2_048
    else:
        n_lines, n_weeks, n_rounds, shard = (
            args.lines, args.weeks, args.rounds, args.shard_size
        )

    report = {
        "quick": args.quick,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "workers_env": os.environ.get("REPRO_WORKERS", ""),
        "max_ratio": args.max_ratio,
        "shadow": bench_shadow(
            n_lines, n_weeks, n_rounds, shard, args.workers
        ),
    }
    report["resources"] = resource_section()
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    shadow = report["shadow"]
    print(f"champion-only: {shadow['champion_only_seconds']:.3f}s "
          f"({n_lines} lines, {n_rounds} rounds, "
          f"{shadow['workers']} workers)")
    print(f"shadow pair:   {shadow['shadow_seconds']:.3f}s shared-encode "
          f"(ratio {shadow['overhead_ratio']:.2f}x), "
          f"naive {shadow['naive_shadow_seconds']:.3f}s "
          f"({shadow['naive_ratio']:.2f}x)")
    print(f"parity with solo engine: {shadow['parity_with_solo_engine']}")
    print(f"wrote {args.output}")

    if not shadow["parity_with_solo_engine"]:
        raise SystemExit("shadow scores diverged from the solo engine")
    if shadow["overhead_ratio"] >= args.max_ratio:
        raise SystemExit(
            f"shadow overhead {shadow['overhead_ratio']:.2f}x >= "
            f"{args.max_ratio:.1f}x budget"
        )


if __name__ == "__main__":
    main()
