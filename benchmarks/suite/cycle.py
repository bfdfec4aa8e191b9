"""weekly_cycle: the Saturday campaign at steady-state history depth.

One op is one Saturday: ``LineWeekStore.append_week_chunks`` ->
``StoredWorld.refresh`` -> ``ScoringEngine.score_week`` ->
``ScoringEngine.dispatch`` -> ``find_clusters`` + ``plan_dispatches``.
Ops run in passes.  Each pass first sets up a fresh store holding
``history_weeks`` stored weeks, opens it out-of-core (the paper-scale
read path), loads the fixture bundle and scores the last stored week
once untimed; that set-up is one ``setup_s`` sample.  Then
``pass_weeks`` arriving weeks are cycled and timed.  Every pass does
identical work, so the per-week median does not depend on how many
passes fit in ``--seconds``.

Encode and ensemble scoring take nearly all of the week; HTTP, the
score cache and training are never touched.
"""

from __future__ import annotations

import shutil
from time import perf_counter

import numpy as np

from repro.fleet import find_clusters, plan_dispatches
from repro.obs.profile import peak_rss_kb
from repro.parallel import split_shards, worker_count
from repro.serve import LineWeekStore, ScoringEngine, StoredWorld
from repro.serve.scoring import DEFAULT_SHARD_SIZE

from harness import load_bundle, load_week, plant_config, prepare
from measure import SpanLog, attribute, end_to_end, format_attribution

SIZES = {
    "full": {
        "plant_lines": 40_000, "history_weeks": 26, "pass_weeks": 3,
        "min_passes": 3, "fixture_lines": 4_000, "fixture_rounds": 250,
    },
    "smoke": {
        "plant_lines": 8_192, "history_weeks": 6, "pass_weeks": 2,
        "min_passes": 1, "fixture_lines": 2_000, "fixture_rounds": 30,
    },
}

LAYERS = (
    "store.append", "store.refresh", "scoring.score_week", "dispatch.cut",
    "fleet.triage",
)


class _Cycle:
    """One run's shared state: inputs on disk, sizes, counters."""

    def __init__(self, seed, size, work, checks):
        self.size = size
        self.work = work
        self.checks = checks
        self.n_lines = size["plant_lines"]
        self.capacity = max(1, self.n_lines // 100)
        n_weeks = size["history_weeks"] + size["pass_weeks"]
        self.harness = prepare({
            "seed": seed, "plant_lines": self.n_lines, "plant_weeks": n_weeks,
            "fixture_lines": size["fixture_lines"],
            "fixture_rounds": size["fixture_rounds"],
            "capacity": self.capacity,
        }, work)
        self.days = self.harness["days"]
        self.population = plant_config(seed, self.n_lines, n_weeks).population
        self.passes = 0
        self.clusters: list[int] = []
        self.suppressed: list[int] = []

    def block(self, week):
        return load_week(self.work, week, self.days[week])

    def set_up(self):
        """A fresh store at history depth, opened and warmed; timed."""
        root = self.work / f"store-{self.passes}"
        self.passes += 1
        seconds = 0.0
        start = perf_counter()
        store = LineWeekStore.create(root, self.n_lines, self.population)
        seconds += perf_counter() - start
        for week in range(self.size["history_weeks"]):
            block = self.block(week)  # harness read, off the clock
            start = perf_counter()
            store.append_week_chunks([block])
            seconds += perf_counter() - start
        start = perf_counter()
        world = StoredWorld(LineWeekStore.open(root), out_of_core=True)
        bundle = load_bundle(self.work)
        engine = ScoringEngine(bundle, world)
        engine.score_week(self.size["history_weeks"] - 1)
        seconds += perf_counter() - start
        return seconds, store, world, engine

    def run_pass(self, log: SpanLog, week_seconds: list[float]):
        """Set up, then cycle the arriving weeks; returns the last state."""
        setup_s, store, world, engine = self.set_up()
        history, capacity = self.size["history_weeks"], self.capacity
        for week in range(history, history + self.size["pass_weeks"]):
            block = self.block(week)
            start = perf_counter()
            with log.span("cycle.week", trace_id=f"pass{self.passes}-week{week}"):
                with log.span("store.append"):
                    store.append_week_chunks([block])
                with log.span("store.refresh"):
                    world.refresh()
                with log.span("scoring.score_week"):
                    scored = engine.score_week(week)
                with log.span("dispatch.cut"):
                    dispatch = engine.dispatch(week, capacity)
                with log.span("fleet.triage"):
                    topology = world.population().topology
                    triage = find_clusters(scored.scores, topology, capacity)
                    plan = plan_dispatches(scored.scores, capacity, triage, week)
            week_seconds.append(perf_counter() - start)
            self.checks.record(
                len(dispatch) == capacity and plan.n_slots_used <= capacity,
                f"week {week}: dispatch/plan exceed capacity {capacity}",
            )
            self.clusters.append(len(triage.upstream_clusters))
            self.suppressed.append(int(plan.suppressed_line_ids.size))
        return setup_s, store, world, engine, week, scored, dispatch

    def phase(self, seconds, log):
        """Passes until ``seconds`` of cycling (and ``min_passes``) elapse."""
        weeks: list[float] = []
        setups: list[float] = []
        last = None
        while len(setups) < self.size["min_passes"] or sum(weeks) < seconds:
            if last is not None:
                shutil.rmtree(last[1].root)
            last = self.run_pass(log, weeks)
            setups.append(last[0])
        return weeks, setups, last

    def verify(self, last) -> None:
        """Output checks on the last week cycled."""
        _, store, world, engine, week, scored, dispatch = last
        predictor = engine.bundle.predictor
        reference = predictor.score_features(
            world.encode_week(week, predictor.encoder)
        )
        self.checks.record(
            np.array_equal(scored.scores, reference),
            "served scores differ from score_features(encode_week)",
        )
        cut = np.argsort(-reference, kind="stable")[: self.capacity]
        self.checks.record(
            np.array_equal(dispatch.line_ids, cut),
            "dispatch list is not the stable top-capacity cut",
        )
        try:
            store.verify()
            ok = True
        except ValueError:
            ok = False
        self.checks.record(ok, "store.verify() failed")

    def decompose(self, last, log: SpanLog) -> None:
        """Re-run the last week's score by layer: read, encode, ensemble."""
        _, _, world, engine, week, _, _ = last
        predictor = engine.bundle.predictor
        shards = split_shards(world.n_lines, DEFAULT_SHARD_SIZE)
        with log.span("decompose", trace_id=f"decompose-week{week}"):
            with log.span("store.read"):
                for shard in shards:
                    world.shard_measurements(shard)
            with log.span("features.read_encode"):
                pieces = list(world.iter_encode_week(
                    week, predictor.encoder, chunk_lines=DEFAULT_SHARD_SIZE
                ))
            with log.span("ml.ensemble"):
                for _, piece in pieces:
                    predictor.score_features(piece)


def run(seed, seconds, trace, smoke, work, checks) -> dict:
    size = SIZES["smoke" if smoke else "full"]
    cycle = _Cycle(seed, size, work, checks)
    weeks, setups, last = cycle.phase(seconds, SpanLog(False))
    out = {
        "e2e": end_to_end(setups, peak_rss_kb(), weeks,
                          cycle.n_lines * len(weeks), sum(weeks)),
        "notes": [
            f"plant {cycle.n_lines} lines, {size['history_weeks']} stored "
            f"weeks + {size['pass_weeks']} cycled per pass, {len(weeks)} "
            f"weeks timed, out-of-core reads, capacity {cycle.capacity}",
            f"harness: generate {cycle.harness['generate_s']:.2f}s, fixture "
            f"{cycle.harness['fixture_s']:.2f}s "
            f"({cycle.harness['fixture_columns']} model columns)",
        ],
        "layers": {"netsim.generate_s": cycle.harness["generate_s"]},
    }
    if trace:
        log = SpanLog(True, program=True)
        traced_weeks, traced_setups, traced_last = cycle.phase(seconds, log)
        out["traced_e2e"] = end_to_end(
            traced_setups, peak_rss_kb(), traced_weeks,
            cycle.n_lines * len(traced_weeks), sum(traced_weeks),
        )
        cycle.decompose(traced_last, log)
        log.close()
        shutil.rmtree(traced_last[1].root)
        _traced_layers(cycle, log.spans, out)
    # The checks run last: their full-plant encode would set the peak RSS.
    cycle.verify(last)
    shutil.rmtree(last[1].root)
    return out


def _traced_layers(cycle, spans, out) -> None:
    table = attribute(spans, "cycle.week")
    ops = table["ops"]
    layers = out["layers"]
    for name in LAYERS:
        layers[f"{name}_s"] = table["layers"].get(name, 0.0) / ops
    layers["cycle.unattributed_s"] = table["unattributed"] / ops
    decomposed = attribute(spans, "decompose")["layers"]
    layers["store.read_s"] = decomposed["store.read"]
    layers["features.encode_s"] = (
        decomposed["features.read_encode"] - decomposed["store.read"]
    )
    layers["ml.ensemble_s"] = decomposed["ml.ensemble"]
    layers["scoring.workers"] = worker_count(None)
    layers["fleet.clusters"] = float(np.mean(cycle.clusters))
    layers["fleet.suppressed"] = float(np.mean(cycle.suppressed))
    out["spans"] = spans
    out["tables"] = [
        "weekly_cycle: per-week self time by layer (traced passes)\n"
        + format_attribution(table, "cycle.unattributed"),
        "weekly_cycle: last-week decomposition of scoring.score_week "
        "(features.encode = read+encode pass - read pass)\n"
        f"  store.read {layers['store.read_s']:.4f}s  features.encode "
        f"{layers['features.encode_s']:.4f}s  ml.ensemble "
        f"{layers['ml.ensemble_s']:.4f}s",
    ]
