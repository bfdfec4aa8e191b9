"""Paper-scale weekly cycle: the full loop at a million lines on one box.

The paper's deployment covers millions of DSL lines; every prior
benchmark in this repo stops at a few hundred thousand because the
monolithic :class:`DslSimulator` materialises the whole measurement
cube up front.  This harness drives the *streaming* cycle end to end --

    generate (chunked netsim) -> append (incremental store shards)
    -> encode (chunked, out-of-core) -> score (sharded multi-worker)
    -> dispatch (capacity-bounded top-N)

-- and writes the numbers to ``BENCH_scale.json``:

* **generate_append** -- :func:`repro.netsim.stream_weeks` feeding
  :meth:`LineWeekStore.append_week_chunks`: lines/sec and
  line-weeks/sec over the whole horizon.  Peak memory is one chunk's
  week matrices, never the cube.  The generator is lazy, so each block
  pull is timed under a nested ``scale.generate`` stage:
  ``generate_seconds`` is the simulation harness, and ``append_seconds``
  (generate_append minus generate) is the system's store append.
* **encode** (diagnostic) -- streaming
  :meth:`StoredWorld.iter_encode_week` of the latest week through the
  Table-3 encoder with the store forced out-of-core: chunks are encoded
  and released, never assembled.  The cycle itself encodes inside each
  scoring shard, so this standalone pass is reported next to the cycle,
  not added to ``cycle_seconds``.
* **score** / **score_single_worker** -- the sharded scoring engine over
  the out-of-core world, multi-worker vs one worker, same synthetic
  ensemble as ``bench_serve`` so the numbers are comparable.  Each
  shard's read, Table-3 encode and ensemble fold are the
  ``serve.read`` / ``serve.encode`` / ``serve.ensemble`` stages.
* **dispatch** -- cutting the top-N list from the scored week.
* **explain** / **payloads** -- the per-line reads on the out-of-core
  world: ``engine.explain`` on the top dispatched line (its attribution
  must reproduce the served score exactly) and
  ``engine.attribution_payloads`` over the whole dispatch list, the
  ``/dispatch?explain=1`` enrichment.  Both encode only their own lines,
  and they run before the RSS guard reads the peak.
* **parity** -- the invariants that make the streaming numbers *honest*,
  re-proven at a small scale on every run: chunked generation is
  bit-identical to the monolithic (single-chunk) run, and chunk-wise
  appends produce byte-identical shard files to whole-week appends.
* **guards** -- the CI-enforced floors: peak RSS bounded by chunk size
  (sub-linear in stored line-weeks; a dense run holds the whole
  ``n_lines x n_weeks x 25`` float32 cube), and multi-worker scoring
  at least ``min_speedup`` x the single-worker pass.  The speedup floor
  is only enforced when the box has >= 2 CPUs -- the report records
  ``cpu_count`` so a single-core result is legible, not fabricated.

Every phase is timed by a :func:`repro.obs.profile.stage` handle
(``scale.generate_append``, ``scale.generate``, ``scale.encode``,
``scale.score``,
``scale.dispatch``, ``scale.explain``, ``scale.payloads``), so the
headline seconds are the same numbers the
report's ``resources.stages`` table carries, next to the scoring
engine's own ``serve.score_week`` / ``serve.prepare`` /
``fabric.serve.shard`` / ``serve.read`` / ``serve.encode`` /
``serve.ensemble`` stages.  ``cycle_seconds`` is generate_append +
score + dispatch; ``system_cycle_seconds`` is append + score + dispatch,
the cycle without the simulator that stands in for the plant.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_scale.py            # 1M lines
    PYTHONPATH=src python benchmarks/bench_scale.py --quick    # 100K (CI)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

from bench_serve import _synthetic_bundle
from repro.features.encoding import EncoderConfig, LineFeatureEncoder
from repro.netsim import STREAM_BLOCK_LINES, SimulationConfig, stream_weeks
from repro.netsim.groupfaults import GroupFaultConfig
from repro.netsim.population import PopulationConfig
from repro.obs.profile import peak_rss_kb, resource_section, stage
from repro.parallel import worker_count
from repro.serve import LineWeekStore, ScoringEngine, StoredWorld

#: Multiple of the per-chunk working set allowed by the RSS guard, on
#: top of the fixed interpreter + per-line population overheads.
RSS_CHUNK_MULTIPLE = 4
#: Fixed allowance: interpreter, numpy, imports, allocator slack.
RSS_FIXED_MB = 320
#: Per-line allowance for the O(n) arrays a streaming run legitimately
#: holds (population/topology/conditions, scores, ticket vectors).  A
#: dense 8-week run needs 800 bytes/line for the measurement cube alone.
RSS_PER_LINE_BYTES = 400


def _scale_config(n_lines: int, n_weeks: int) -> SimulationConfig:
    """The benchmarked plant: group faults on, so shared-plant events
    span chunk boundaries and the restriction path is actually paid."""
    return SimulationConfig(
        n_weeks=n_weeks,
        population=PopulationConfig(n_lines=n_lines, seed=11),
        fault_rate_scale=2.0,
        group_faults=GroupFaultConfig(
            n_dslam_events=4, n_binder_events=8, event_window=(0.0, 0.7),
            seed=23,
        ),
        seed=20100808,
    )


def bench_cycle(n_lines: int, n_weeks: int, chunk_lines: int, n_rounds: int,
                shard_size: int, workers: int | None, score_passes: int):
    """One full streaming weekly cycle; returns the report section."""
    config = _scale_config(n_lines, n_weeks)
    with tempfile.TemporaryDirectory() as tmp:
        store = LineWeekStore.create(
            Path(tmp) / "store", n_lines=n_lines, population=config.population
        )

        generate_seconds = 0.0

        def timed_blocks():
            # Each block pull is the simulator's work alone; the rest of
            # generate_append is the store's.
            nonlocal generate_seconds
            blocks = stream_weeks(config, chunk_lines=chunk_lines)
            while True:
                with stage("scale.generate") as generate:
                    blk = next(blocks, None)
                generate_seconds += generate.seconds
                if blk is None:
                    return
                yield blk

        with stage("scale.generate_append") as generate_append:
            appended = store.append_week_chunks(timed_blocks())
        gen_seconds = generate_append.seconds
        append_seconds = gen_seconds - generate_seconds
        assert appended == list(range(n_weeks)), appended
        store.verify()

        # StoredWorld reads each shard's rows from disk; no plant cube.
        world = StoredWorld(LineWeekStore.open(store.root))
        encoder = LineFeatureEncoder(EncoderConfig())
        target = store.latest_week

        # A diagnostic encode pass, outside the cycle sum: the deployment
        # loop encodes inside each scoring shard.  Each chunk's base
        # features are produced and dropped -- holding the full encoded
        # matrix would cost more than the raw week it came from (~83
        # float64 columns vs 25 float32).
        encoded_rows = 0
        with stage("scale.encode") as encode:
            for shard, piece in world.iter_encode_week(
                target, encoder, chunk_lines=chunk_lines
            ):
                encoded_rows += piece.matrix.shape[0]
        encode_seconds = encode.seconds
        assert encoded_rows == n_lines

        rng = np.random.default_rng(20100808)
        bundle = _synthetic_bundle(
            rng, encoder, n_rounds, capacity=max(50, n_lines // 100)
        )
        bundle.predictor.model.compiled()  # compile off the clock

        def timed_score(n_workers):
            engine = ScoringEngine(
                bundle, world, shard_size=shard_size, workers=n_workers
            )
            best, scored = float("inf"), None
            for _ in range(score_passes):
                engine._score_cache.clear()
                with stage("scale.score", workers=n_workers) as score:
                    scored = engine.score_week(target)
                best = min(best, score.seconds)
            return engine, scored, best

        engine, scored, score_seconds = timed_score(workers)
        single_seconds = score_seconds
        single_scores = scored.scores
        if worker_count(workers) > 1:
            _, single, single_seconds = timed_score(1)
            single_scores = single.scores

        with stage("scale.dispatch") as cut:
            dispatch = engine.dispatch(target)
        dispatch_seconds = cut.seconds

        top_line = int(dispatch.line_ids[0])
        with stage("scale.explain") as explain:
            report = engine.explain(target, top_line)
        served_score = bundle.predictor.model.calibrator.transform(
            np.array([report.margin])
        )[0]
        with stage("scale.payloads") as payloads:
            n_payloads = len(engine.attribution_payloads(
                target, dispatch.line_ids
            ))
        assert n_payloads == len(dispatch)

        line_weeks = n_lines * n_weeks
        return {
            "n_lines": n_lines,
            "n_weeks": n_weeks,
            "chunk_lines": chunk_lines,
            "stream_block_lines": STREAM_BLOCK_LINES,
            "n_rounds": n_rounds,
            "shard_size": shard_size,
            "n_shards": scored.n_shards,
            "workers": worker_count(workers),
            "out_of_core": True,  # StoredWorld's only residency mode
            "generate_append_seconds": gen_seconds,
            "generate_seconds": generate_seconds,
            "append_seconds": append_seconds,
            "generate_lines_per_sec": n_lines / gen_seconds,
            "generate_line_weeks_per_sec": line_weeks / gen_seconds,
            "encode_seconds": encode_seconds,
            "encode_lines_per_sec": n_lines / encode_seconds,
            "score_seconds": score_seconds,
            "score_lines_per_sec": n_lines / score_seconds,
            "score_single_worker_seconds": single_seconds,
            "worker_speedup": single_seconds / score_seconds,
            "workers_match_single": bool(
                np.array_equal(scored.scores, single_scores)
            ),
            "dispatch_seconds": dispatch_seconds,
            "dispatch_size": len(dispatch),
            "explain_seconds": explain.seconds,
            "explain_exact": bool(
                report.attribution_exact
                and served_score == scored.scores[top_line]
            ),
            "payload_seconds": payloads.seconds,
            "cycle_seconds": gen_seconds + score_seconds + dispatch_seconds,
            "system_cycle_seconds": (
                append_seconds + score_seconds + dispatch_seconds
            ),
        }


def bench_parity(n_weeks: int = 2):
    """Small-scale proof that chunking changes nothing, run every time."""
    n_lines = 2 * STREAM_BLOCK_LINES + 700  # straddles two block boundaries
    config = _scale_config(n_lines, n_weeks)

    def collect(chunk_lines):
        feats = [[] for _ in range(n_weeks)]
        lasts = [[] for _ in range(n_weeks)]
        for blk in stream_weeks(config, chunk_lines=chunk_lines):
            feats[blk.week].append(blk.features)
            lasts[blk.week].append(blk.last_ticket_day)
        return (
            [np.concatenate(f) for f in feats],
            [np.concatenate(t) for t in lasts],
        )

    mono_f, mono_t = collect(None)
    chunk_f, chunk_t = collect(STREAM_BLOCK_LINES)
    generation_identical = all(
        np.array_equal(chunk_f[w], mono_f[w], equal_nan=True)
        and np.array_equal(chunk_t[w], mono_t[w])
        for w in range(n_weeks)
    )

    with tempfile.TemporaryDirectory() as tmp:
        whole = LineWeekStore.create(
            Path(tmp) / "whole", n_lines, config.population
        )
        for w in range(n_weeks):
            whole.append_week(w, w * 7 + 5, mono_f[w], mono_t[w])
        chunked = LineWeekStore.create(
            Path(tmp) / "chunked", n_lines, config.population
        )
        chunked.append_week_chunks(
            stream_weeks(config, chunk_lines=STREAM_BLOCK_LINES)
        )
        store_identical = all(
            (whole.root / name).read_bytes() == (chunked.root / name).read_bytes()
            for w in range(n_weeks)
            for name in (f"week_{w:05d}.npy", f"tickets_{w:05d}.npy")
        )
    return {
        "n_lines": n_lines,
        "n_weeks": n_weeks,
        "generation_chunked_equals_monolithic": generation_identical,
        "store_chunked_equals_whole_week": store_identical,
    }


def rss_guard(n_lines: int, n_weeks: int, chunk_lines: int) -> dict:
    """Peak-RSS budget: fixed + O(n) per-line + a few chunks -- never
    the O(n x weeks) cube a dense run would hold."""
    chunk_bytes = chunk_lines * n_weeks * 25 * 4
    budget_bytes = (
        RSS_FIXED_MB * 2**20
        + RSS_PER_LINE_BYTES * n_lines
        + RSS_CHUNK_MULTIPLE * chunk_bytes
    )
    dense_cube_bytes = n_lines * n_weeks * 25 * 4
    peak_bytes = peak_rss_kb() * 1024
    return {
        "peak_rss_mb": peak_bytes / 2**20,
        "budget_mb": budget_bytes / 2**20,
        "dense_cube_mb": dense_cube_bytes / 2**20,
        "chunk_working_set_mb": chunk_bytes / 2**20,
        "rss_within_budget": bool(peak_bytes <= budget_bytes),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lines", type=int, default=1_000_000,
                        help="plant size (lines)")
    parser.add_argument("--weeks", type=int, default=8,
                        help="simulated horizon")
    parser.add_argument("--chunk-lines", type=int, default=65_536,
                        help="streaming chunk size (rounds up to blocks)")
    parser.add_argument("--rounds", type=int, default=200,
                        help="synthetic ensemble depth")
    parser.add_argument("--shard-size", type=int, default=32_768,
                        help="lines per scoring shard (kept at 32,768, not "
                             "the program's DEFAULT_SHARD_SIZE: the "
                             "worker-speedup baseline was measured there)")
    parser.add_argument("--workers", type=int, default=None,
                        help="scoring fan-out (default: REPRO_WORKERS, or "
                             "min(4, cpu) when unset)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="multi-worker floor vs single worker "
                             "(enforced only with >= 2 CPUs)")
    parser.add_argument("--quick", action="store_true",
                        help="100K-line smoke for CI")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_scale.json")
    args = parser.parse_args()

    if args.quick:
        n_lines, n_weeks, chunk, rounds, shard, passes = (
            100_000, 4, 32_768, 60, 8_192, 3
        )
    else:
        n_lines, n_weeks, chunk, rounds, shard, passes = (
            args.lines, args.weeks, args.chunk_lines, args.rounds,
            args.shard_size, 2
        )

    workers = args.workers
    if workers is None and not os.environ.get("REPRO_WORKERS", "").strip():
        workers = min(4, os.cpu_count() or 1)
    cpu_count = os.cpu_count() or 1

    report = {
        "quick": args.quick,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": cpu_count,
        "workers_env": os.environ.get("REPRO_WORKERS", ""),
        "parity": bench_parity(),
        "scale": bench_cycle(
            n_lines, n_weeks, chunk, rounds, shard, workers, passes
        ),
    }
    scale = report["scale"]
    enforce_speedup = cpu_count >= 2 and scale["workers"] > 1
    report["guards"] = {
        **rss_guard(n_lines, n_weeks, chunk),
        "min_speedup": args.min_speedup,
        "speedup_enforced": enforce_speedup,
        "speedup_ok": (
            bool(scale["worker_speedup"] >= args.min_speedup)
            if enforce_speedup else None
        ),
    }
    report["resources"] = resource_section()
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    guards = report["guards"]
    parity = report["parity"]
    print(f"cycle:    {n_lines} lines x {n_weeks} weeks in "
          f"{scale['cycle_seconds']:.1f}s "
          f"(chunk {scale['chunk_lines']}, {scale['workers']} workers, "
          f"out-of-core={scale['out_of_core']})")
    print(f"system:   append + score + dispatch in "
          f"{scale['system_cycle_seconds']:.1f}s (the harness's "
          f"generation excluded)")
    print(f"generate: {scale['generate_lines_per_sec']:.0f} lines/s "
          f"({scale['generate_line_weeks_per_sec']:.0f} line-weeks/s, "
          f"{scale['generate_append_seconds']:.1f}s incl. store append: "
          f"{scale['generate_seconds']:.1f}s generate + "
          f"{scale['append_seconds']:.1f}s append)")
    print(f"encode:   {scale['encode_lines_per_sec']:.0f} lines/s "
          f"({scale['encode_seconds']:.2f}s, chunked; diagnostic, not in "
          f"the cycle: scoring encodes per shard)")
    print(f"score:    {scale['score_lines_per_sec']:.0f} lines/s "
          f"({scale['score_seconds']:.2f}s over {scale['n_shards']} shards); "
          f"single worker {scale['score_single_worker_seconds']:.2f}s "
          f"= {scale['worker_speedup']:.2f}x, "
          f"scores identical: {scale['workers_match_single']}")
    print(f"dispatch: top-{scale['dispatch_size']} in "
          f"{scale['dispatch_seconds'] * 1e3:.1f} ms")
    print(f"explain:  top line in {scale['explain_seconds'] * 1e3:.1f} ms "
          f"(exact: {scale['explain_exact']}); payloads for all "
          f"{scale['dispatch_size']} dispatched lines in "
          f"{scale['payload_seconds'] * 1e3:.1f} ms")
    print(f"parity:   generation {parity['generation_chunked_equals_monolithic']}, "
          f"store bytes {parity['store_chunked_equals_whole_week']}")
    print(f"rss:      peak {guards['peak_rss_mb']:.0f} MB vs budget "
          f"{guards['budget_mb']:.0f} MB "
          f"(dense cube alone: {guards['dense_cube_mb']:.0f} MB) -> "
          f"{'ok' if guards['rss_within_budget'] else 'OVER'}")
    if guards["speedup_enforced"]:
        print(f"speedup:  {scale['worker_speedup']:.2f}x vs floor "
              f"{guards['min_speedup']:.1f}x -> "
              f"{'ok' if guards['speedup_ok'] else 'BELOW FLOOR'}")
    else:
        print(f"speedup:  not enforced ({cpu_count} cpu, "
              f"{scale['workers']} workers)")
    print(f"wrote {args.output}")

    failures = []
    if not parity["generation_chunked_equals_monolithic"]:
        failures.append("chunked generation diverged from monolithic")
    if not parity["store_chunked_equals_whole_week"]:
        failures.append("chunked store shards diverged from whole-week")
    if not scale["workers_match_single"]:
        failures.append("multi-worker scores diverged from single worker")
    if not scale["explain_exact"]:
        failures.append("/explain does not reproduce the served score")
    if not guards["rss_within_budget"]:
        failures.append("peak RSS exceeded the chunk-bounded budget")
    if guards["speedup_enforced"] and not guards["speedup_ok"]:
        failures.append("multi-worker speedup below floor")
    if failures:
        raise SystemExit("bench_scale FAILED: " + "; ".join(failures))


if __name__ == "__main__":
    main()
