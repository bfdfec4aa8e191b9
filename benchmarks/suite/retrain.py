"""retrain: the weekly model refresh, from datasets to the decision log.

One op is one refresh on its own seeded ``DslSimulator`` world
(history 8, train 3, selection 2, test 4, horizon 4):
``build_ticket_dataset`` x2 -> ``TicketPredictor.fit_datasets`` (default
``PredictorConfig``, capacity 2% of the lines) -> ``build_locator_dataset``
+ ``CombinedLocator.fit`` (default ``LocatorConfig``) ->
``ModelRegistry.publish`` -> ``score_bundles`` shadow against the fixture
champion over the two last label-complete stored weeks ->
``DecisionLog.append``.

A set-up (one ``setup_s`` sample) snapshots the world into a fresh
line-week store and publishes the champion into a fresh registry with a
bootstrapped decision log; the first world is set up nine times, as
one set-up takes only tens of milliseconds and one sample is noisy.
Refreshes run until ``--seconds`` of refreshing have elapsed, at least
``min_ops``, each on a different world.  A refresh's cost follows its
world (how many columns feature selection keeps, how long the locator
boosts), so ``latency_ms`` is the mean refresh: every world weighs the
same, where the median of a few would be one world's cost.

Training (``features.selection``, ``ml.stumps``, ``core.locator``) is
nearly all of the time; the HTTP front end and large-scale scoring are
never touched.
"""

from __future__ import annotations

import shutil
import statistics
from time import perf_counter

import numpy as np

from repro.core.analysis import evaluate_predictions
from repro.core.locator import (
    N_DISPOSITIONS,
    CombinedLocator,
    LocatorConfig,
    ranks_of_truth,
)
from repro.core.predictor import PredictorConfig, TicketPredictor
from repro.data.joins import build_locator_dataset, build_ticket_dataset
from repro.lifecycle.decisions import DEFAULT_LOG_NAME, DecisionLog
from repro.obs.profile import peak_rss_kb
from repro.parallel import worker_count
from repro.serve import (
    LineWeekStore,
    ModelBundle,
    ModelRegistry,
    StoredWorld,
    score_bundles,
    snapshot_result,
)

from harness import fixture_world, load_bundle, prepare, split_for, sub_seed
from measure import SpanLog, attribute, end_to_end, format_attribution

SIZES = {
    "full": {
        "n_lines": 2_000, "n_weeks": 21, "locator_rounds": None,
        "min_ops": 2, "setups_first": 9,
        "fixture_lines": 4_000, "fixture_rounds": 250,
    },
    "smoke": {
        "n_lines": 800, "n_weeks": 21, "locator_rounds": 8,
        "min_ops": 1, "setups_first": 1,
        "fixture_lines": 2_000, "fixture_rounds": 30,
    },
}

LAYERS = (
    "data.ticket_dataset", "predictor.fit", "data.locator_dataset",
    "locator.fit", "registry.publish", "scoring.shadow",
    "lifecycle.decision_append",
)
PREDICTOR_SPANS = ("select_base", "select_derived", "final_train")

#: A refreshed model must rank at least this many times better than
#: chance, both for tickets (precision at capacity over the base rate)
#: and for dispositions (top-3 hit rate over 3 / 52).
MIN_LIFT = 2.0


class _Retrain:
    def __init__(self, seed, size, work, checks):
        self.seed = seed
        self.size = size
        self.work = work
        self.checks = checks
        self.capacity = max(1, size["n_lines"] // 50)
        self.harness = prepare({
            "seed": seed,
            "fixture_lines": size["fixture_lines"],
            "fixture_rounds": size["fixture_rounds"],
            # The champion ranks this plant, so it shares its capacity.
            "capacity": self.capacity,
        }, work)
        self.champion = load_bundle(work)
        self.split = split_for(size["n_weeks"])
        self.worlds = 0
        self.generate_s = self.harness["generate_s"]
        self.quality: list[dict] = []
        self.pending: list[tuple] = []
        self.setups = 0

    def world(self):
        """The next seeded world (harness cost, off the clock)."""
        start = perf_counter()
        result = fixture_world(
            sub_seed(self.seed, f"retrain-{self.worlds}"), self.size["n_lines"]
        )
        self.worlds += 1
        self.generate_s += perf_counter() - start
        return result

    def set_up(self, result):
        """Store + registry + decision log for one world; timed."""
        self.setups += 1
        root = self.work / f"retrain-{self.setups}"
        start = perf_counter()
        store = snapshot_result(result, root / "store")
        world = StoredWorld(LineWeekStore.open(store.root))
        registry = ModelRegistry(root / "registry")
        champion = registry.publish(self.champion, activate=True)
        decisions = DecisionLog(registry.root / DEFAULT_LOG_NAME)
        decisions.append("bootstrap", week=self.split.train_weeks[0],
                         version=champion)
        return perf_counter() - start, (root, world, registry, champion,
                                        decisions)

    def op(self, result, state, log: SpanLog):
        """One timed refresh; returns the published bundle and version."""
        _, world, registry, champion, decisions = state
        split = self.split
        horizon = split.horizon_weeks
        test_day = int(result.measurements.saturday_day[split.test_weeks[0]])
        shadow_weeks = list(split.test_weeks[-2:])
        rounds = self.size["locator_rounds"]
        with log.span("retrain", trace_id=f"world{self.worlds}"):
            predictor = TicketPredictor(PredictorConfig(capacity=self.capacity))
            with log.span("data.ticket_dataset"):
                train = build_ticket_dataset(
                    result, split.train_weeks, predictor.encoder, horizon
                )
                selection = build_ticket_dataset(
                    result, split.selection_weeks, predictor.encoder, horizon
                )
            with log.span("predictor.fit"):
                predictor.fit_datasets(train, selection)
            with log.span("data.locator_dataset"):
                dispatches = build_locator_dataset(
                    result, 0, test_day - 1, predictor.encoder
                )
            with log.span("locator.fit"):
                config = LocatorConfig() if rounds is None else \
                    LocatorConfig(n_rounds=rounds)
                locator = CombinedLocator(config).fit(dispatches)
            with log.span("registry.publish"):
                bundle = ModelBundle(
                    predictor=predictor, locator=locator,
                    meta={"trained_week": split.selection_weeks[-1]},
                )
                version = registry.publish(bundle)
            with log.span("scoring.shadow"):
                incumbent = registry.load(champion)
                for week in shadow_weeks:
                    score_bundles(
                        {"champion": incumbent, "challenger": bundle},
                        world, week,
                    )
            with log.span("lifecycle.decision_append"):
                decisions.append(
                    "retrain", week=split.selection_weeks[-1],
                    challenger_version=version, champion_version=champion,
                    shadow_weeks=shadow_weeks,
                )
        return bundle, version

    def verify(self, result, state, bundle, version) -> None:
        """Round trip, chain and quality checks on one refresh."""
        _, _, registry, _, decisions = state
        loaded = registry.load(version)
        self.checks.record(
            loaded.to_dict()["checksum"] == bundle.to_dict()["checksum"],
            f"registry.load({version}) does not round-trip",
        )
        self.checks.record(
            DecisionLog(decisions.path).verify() == [],
            "decision log chain does not verify",
        )

        split, predictor = self.split, bundle.predictor
        outcomes = [
            evaluate_predictions(
                result, predictor.rank_week(result, w), w, split.horizon_weeks
            )
            for w in split.test_weeks
        ]
        precision = float(np.mean(
            [o.accuracy_at(self.capacity) for o in outcomes]
        ))
        base_rate = float(np.mean([np.mean(o.hits) for o in outcomes]))
        test_day = int(result.measurements.saturday_day[split.test_weeks[0]])
        held_out = build_locator_dataset(
            result, test_day, 10**9, predictor.encoder
        )
        ranks = ranks_of_truth(
            bundle.locator.predict_proba(held_out.features.matrix),
            held_out.disposition,
        )
        top3 = float(np.mean(ranks <= 3))
        self.checks.record(
            precision >= MIN_LIFT * base_rate,
            f"precision at capacity {precision:.3f} below {MIN_LIFT}x base "
            f"rate {base_rate:.3f}",
        )
        self.checks.record(
            top3 >= MIN_LIFT * 3 / N_DISPOSITIONS,
            f"locator top-3 {top3:.3f} below {MIN_LIFT}x chance",
        )
        self.quality.append({
            "precision_at_capacity": precision,
            "base_rate": base_rate,
            "locator_top3": top3,
            "n_columns": predictor.recipes.n_columns,
            "bundle_bytes": (registry.root / version / "bundle.json")
            .stat().st_size,
        })

    def phase(self, seconds, log):
        """Refreshes on fresh worlds until ``seconds`` of them elapse."""
        ops: list[float] = []
        setups: list[float] = []
        while len(ops) < self.size["min_ops"] or sum(ops) < seconds:
            result = self.world()
            state = None
            for _ in range(self.size["setups_first"] if not ops else 1):
                if state is not None:
                    shutil.rmtree(state[0])
                setup_s, state = self.set_up(result)
                setups.append(setup_s)
            start = perf_counter()
            bundle, version = self.op(result, state, log)
            ops.append(perf_counter() - start)
            self.checks.record(True, "retrain op")
            self.pending.append((result, state, bundle, version))
        return ops, setups

    def verify_pending(self) -> None:
        """Check every refresh since the last call, then drop its files."""
        for result, state, bundle, version in self.pending:
            self.verify(result, state, bundle, version)
            shutil.rmtree(state[0])
        self.pending = []


def run(seed, seconds, trace, smoke, work, checks) -> dict:
    size = SIZES["smoke" if smoke else "full"]
    retrain = _Retrain(seed, size, work, checks)
    ops, setups = retrain.phase(seconds, SpanLog(False))
    # Measured before the checks, whose memory must not set the peak.
    out = {"e2e": end_to_end(setups, peak_rss_kb(), ops, len(ops), sum(ops),
                             typical=statistics.fmean)}
    retrain.verify_pending()
    if trace:
        log = SpanLog(True, program=True)
        retrain.worlds = 0  # replay the same worlds, so only tracing differs
        traced_ops, traced_setups = retrain.phase(seconds, log)
        out["traced_e2e"] = end_to_end(
            traced_setups, peak_rss_kb(), traced_ops, len(traced_ops),
            sum(traced_ops), typical=statistics.fmean,
        )
        log.close()
        retrain.verify_pending()
    quality = retrain.quality
    out["notes"] = [
        f"{len(ops)} refresh(es) on {size['n_lines']}-line x "
        f"{size['n_weeks']}-week worlds, capacity {retrain.capacity}, "
        f"locator rounds {size['locator_rounds'] or LocatorConfig().n_rounds}",
        "quality: precision@capacity "
        + ", ".join(f"{q['precision_at_capacity']:.3f} (base "
                    f"{q['base_rate']:.3f})" for q in quality[:len(ops)])
        + "; locator top-3 "
        + ", ".join(f"{q['locator_top3']:.3f}" for q in quality[:len(ops)]),
        f"harness: champion fixture {retrain.harness['fixture_s']:.2f}s",
    ]
    out["layers"] = {"netsim.generate_s": retrain.generate_s}
    if trace:
        _traced_layers(retrain, log.spans, out)
    return out


def _traced_layers(retrain, spans, out) -> None:
    table = attribute(spans, "retrain")
    n = table["ops"]
    layers = out["layers"]
    for name in LAYERS:
        layers[f"{name}_s"] = table["layers"].get(name, 0.0) / n
    fit_spans = table["program"].get("predictor.fit", {})
    for name in PREDICTOR_SPANS:
        layers[f"predictor.{name}_s"] = fit_spans.get(f"predict.{name}", 0.0) / n
    layers["retrain.unattributed_s"] = table["unattributed"] / n
    layers["scoring.workers"] = worker_count(None)
    for key, metric in (
        ("bundle_bytes", "registry.bundle_bytes"),
        ("n_columns", "predictor.n_columns"),
        ("precision_at_capacity", "predictor.precision_at_capacity"),
        ("locator_top3", "locator.top3"),
    ):
        layers[metric] = float(np.mean([q[key] for q in retrain.quality]))
    out["spans"] = spans
    out["tables"] = [
        "retrain: per-refresh self time by layer (traced refreshes)\n"
        + format_attribution(table, "retrain.unattributed")
    ]
