"""The closed continuous-training loop, end to end and deterministic.

One module-scoped run drives the full drama the subsystem exists for:

1. the pipeline warm-up trains and registers the initial champion;
2. live calibration drift trips the scheduler (the cadence clock is off,
   so the retrain is *drift*-triggered);
3. the challenger is shadow-scored next to the champion and promoted
   through the real gate (the margin is opened wide so it passes);
4. the next challenger is sabotaged (every stump score negated, so it
   ranks lines exactly backwards) and sails through the wide-open gate;
5. the watchdog sees its live precision collapse and rolls the registry
   back to the previous champion automatically.

Every decision must then be visible in three independent places: the
hash-chained decision log, the registry manifest's event trail, and the
obs metrics registry.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.pipeline import NevermindPipeline, PipelineConfig
from repro.core.predictor import PredictorConfig, TicketPredictor
from repro.lifecycle import (
    DecisionLog,
    LifecycleConfig,
    LifecycleController,
    PromotionGate,
    ShadowEvaluator,
    lifecycle_status,
)
from repro.netsim.population import PopulationConfig
from repro.netsim.simulator import SimulationConfig
from repro.obs.metrics import get_registry
from repro.serve import (
    LineWeekStore,
    ModelBundle,
    ModelRegistry,
    ScoringEngine,
    StoredWorld,
    score_bundles,
)


def _inverted_challenger(pipeline, week: int):
    """Train a real challenger, then negate every stump score.

    The result ranks lines exactly backwards -- the worst live regression
    the loop can hand the watchdog -- while remaining a perfectly
    ordinary, serialisable, fitted predictor to the registry and the
    shadow scorer.
    """
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


def _metric_total(snapshot: dict, name: str) -> float:
    return sum(
        s["value"] for s in snapshot.get(name, {}).get("samples", [])
    )


@pytest.fixture(scope="module")
def loop(tmp_path_factory):
    root = tmp_path_factory.mktemp("lifecycle")
    simulation = SimulationConfig(
        n_weeks=20,
        population=PopulationConfig(n_lines=1500, seed=13),
        fault_rate_scale=6.0,
        seed=77,
    )
    pipeline = NevermindPipeline(
        simulation,
        PipelineConfig(
            warmup_weeks=13,
            retrain_every=0,  # the controller owns every retrain
            predictor=PredictorConfig(
                capacity=40, horizon_weeks=3, train_rounds=40,
                selection_rounds=3, include_derived=False,
            ),
        ),
        store=LineWeekStore.create(
            root / "store", 1500, simulation.population
        ),
        registry=ModelRegistry(root / "registry"),
    )
    config = LifecycleConfig(
        cadence_weeks=0,                   # drift triggers only
        drift_calibration_threshold=1e-9,  # any live week trips the wire
        drift_baseline_window=1,
        drift_recent_window=1,
        drift_cooldown_weeks=2,
        shadow_weeks=2,
        bootstrap_samples=100,
        non_inferiority_margin=1.0,        # the real gate passes anything
        watchdog_drop=0.7,
        watchdog_patience=1,
        seed=4,
    )
    before = get_registry().snapshot()
    controller = LifecycleController(pipeline, config)
    sabotaged = False
    rolled_back = False
    while pipeline.simulator.week < simulation.n_weeks:
        controller.step()
        actions = [r.action for r in controller.log.records()]
        if "promote" in actions and not sabotaged:
            controller.challenger_factory = (
                lambda week: _inverted_challenger(pipeline, week)
            )
            sabotaged = True
        if "rollback" in actions:
            rolled_back = True
            break
    after = get_registry().snapshot()
    assert rolled_back, (
        "the drama never reached the rollback act; decisions: "
        f"{[r.action for r in controller.log.records()]}"
    )
    return {
        "controller": controller,
        "pipeline": pipeline,
        "registry": pipeline.registry,
        "root": root,
        "metrics_before": before,
        "metrics_after": after,
    }


class TestFullLoop:
    def test_bootstrap_registers_the_warmup_champion(self, loop):
        records = loop["controller"].log.records()
        assert records[0].action == "bootstrap"
        assert records[0].details["version"] == "v0001"
        assert records[0].details["config"]["watchdog_patience"] == 1

    def test_retrain_is_drift_triggered(self, loop):
        retrains = [
            r for r in loop["controller"].log.records()
            if r.action == "retrain"
        ]
        assert len(retrains) >= 2
        # The cadence clock is disabled, so only drift can have fired.
        assert retrains[0].details["reason"] == "calibration_drift"
        assert retrains[0].details["challenger_version"] == "v0002"
        assert retrains[0].details["champion_version"] == "v0001"

    def test_gated_promotion_records_shadow_evidence(self, loop):
        promotes = [
            r for r in loop["controller"].log.records()
            if r.action == "promote"
        ]
        assert len(promotes) >= 2
        first = promotes[0]
        assert first.details["version"] == "v0002"
        assert first.details["reason"] == "non_inferior"
        shadow = first.details["shadow"]
        assert len(shadow["weeks"]) == 2
        assert shadow["delta_ci_low"] <= shadow["delta_ci_high"]
        assert shadow["capacity"] == 40
        for row in shadow["per_week"]:
            assert 0.0 <= row["champion_precision"] <= 1.0
            assert 0.0 <= row["challenger_precision"] <= 1.0

    def test_saboteur_shadowed_as_clearly_worse(self, loop):
        # The inverted challenger loses the shadow comparison outright; it
        # is promoted only because the margin was opened to 1.0 -- which is
        # precisely why the watchdog exists.
        saboteur = [
            r for r in loop["controller"].log.records()
            if r.action == "promote"
        ][1]
        assert saboteur.details["version"] == "v0003"
        assert saboteur.details["shadow"]["precision_delta"] < -0.2

    def test_watchdog_rolls_back_to_previous_champion(self, loop):
        records = loop["controller"].log.records()
        rollback = [r for r in records if r.action == "rollback"][-1]
        assert rollback.details["rolled_back"] == "v0003"
        assert rollback.details["restored"] == "v0002"
        assert rollback.details["live_precision"] < rollback.details["floor"]
        registry = loop["registry"]
        assert registry.active == "v0002"
        cited = rollback.details["registry_event"]
        assert cited["action"] == "rollback"
        assert cited["rolled_back"] == "v0003"

    def test_pipeline_serves_the_restored_champion(self, loop):
        pipeline = loop["pipeline"]
        restored = loop["registry"].load("v0002").predictor
        result = pipeline.simulator.result()
        week = 13
        assert np.array_equal(
            pipeline.predictor.score_week(result, week),
            restored.score_week(result, week),
        )

    def test_registry_event_trail_matches(self, loop):
        actions = [e["action"] for e in loop["registry"].events]
        assert actions.count("publish") >= 3
        assert actions.count("activate") >= 3
        assert actions.count("rollback") == 1
        reopened = ModelRegistry(loop["registry"].root)
        assert [e["action"] for e in reopened.events] == actions

    def test_decision_chain_verifies_from_disk(self, loop):
        log = loop["controller"].log
        assert log.verify() == []
        reloaded = DecisionLog(log.path)
        assert reloaded.verify() == []
        assert reloaded.head_hash == log.head_hash
        actions = [r.action for r in reloaded.records()]
        # Every promotion is preceded by the retrain that produced it.
        for i, action in enumerate(actions):
            if action == "promote":
                assert actions[i - 1] == "retrain"

    def test_status_agrees_with_disk(self, loop):
        status = loop["controller"].status()
        disk = lifecycle_status(loop["registry"].root)
        assert status["chain_valid"] and disk["chain_valid"]
        assert status["active_version"] == disk["active_version"] == "v0002"
        assert status["decision_counts"] == disk["decision_counts"]
        assert status["watchdog"] is None  # disarmed by the rollback
        assert status["champion_version"] == "v0002"

    def test_obs_metrics_recorded_every_decision(self, loop):
        before, after = loop["metrics_before"], loop["metrics_after"]

        def delta(name):
            return _metric_total(after, name) - _metric_total(before, name)

        assert delta("repro_lifecycle_retrains_total") >= 2
        assert delta("repro_lifecycle_promotions_total") >= 2
        assert delta("repro_lifecycle_rollbacks_total") >= 1
        assert "repro_lifecycle_shadow_delta" in after
        assert _metric_total(after, "repro_lifecycle_active_version") == 2


class TestShadowEvaluator:
    """Shadow scoring against the shared session world (no extra sim)."""

    @pytest.fixture(scope="class")
    def world(self, small_store):
        return StoredWorld(small_store)

    @pytest.fixture(scope="class")
    def bundle(self, small_predictor):
        return ModelBundle(predictor=small_predictor)

    @staticmethod
    def _labels(result, world, weeks, horizon=3):
        labels = {}
        for week in weeks:
            day = world.store.day_of(week)
            delays = result.ticket_log.first_edge_ticket_after(
                result.n_lines, day, horizon * 7
            )
            labels[week] = delays >= 0
        return labels

    def test_self_shadow_is_an_exact_tie(self, world, bundle, small_result):
        weeks = world.store.weeks[-2:]
        evaluator = ShadowEvaluator(
            world, capacity=60, config=LifecycleConfig(bootstrap_samples=50)
        )
        report = evaluator.evaluate(
            bundle, bundle, weeks, self._labels(small_result, world, weeks)
        )
        assert report.precision_delta == 0.0
        assert report.delta_ci_low == 0.0 == report.delta_ci_high
        assert report.champion_ap == report.challenger_ap
        decision = PromotionGate(LifecycleConfig()).decide(report)
        assert decision.promote and decision.reason == "non_inferior"

    def test_bootstrap_ci_is_deterministic(self, world, bundle, small_result):
        weeks = world.store.weeks[-2:]
        labels = self._labels(small_result, world, weeks)
        config = LifecycleConfig(bootstrap_samples=50, seed=99)
        one = ShadowEvaluator(world, 60, config).evaluate(
            bundle, bundle, weeks, labels
        )
        two = ShadowEvaluator(world, 60, config).evaluate(
            bundle, bundle, weeks, labels
        )
        assert one.to_dict() == {**two.to_dict(),
                                 "shadow_seconds": one.shadow_seconds}

    def test_score_bundles_matches_the_serving_engine(
        self, world, bundle, small_store
    ):
        week = small_store.latest_week
        shared = score_bundles(
            {"champion": bundle, "challenger": bundle}, world, week,
            shard_size=500,
        )
        engine = ScoringEngine(bundle, world, shard_size=500)
        expected = engine.score_week(week).scores
        assert np.array_equal(shared["champion"], expected)
        assert np.array_equal(shared["challenger"], expected)

    def test_score_bundles_rejects_empty_input(self, world, small_store):
        with pytest.raises(ValueError):
            score_bundles({}, world, small_store.latest_week)

    def test_evaluate_validates_weeks_and_labels(
        self, world, bundle, small_result
    ):
        evaluator = ShadowEvaluator(world, 60, LifecycleConfig())
        with pytest.raises(ValueError):
            evaluator.evaluate(bundle, bundle, [], {})
        weeks = world.store.weeks[-2:]
        labels = self._labels(small_result, world, weeks[:1])
        with pytest.raises(ValueError, match="labels"):
            evaluator.evaluate(bundle, bundle, weeks, labels)


class TestPipelineHooks:
    def _tiny(self, **config_kw):
        simulation = SimulationConfig(
            n_weeks=3, population=PopulationConfig(n_lines=200)
        )
        return NevermindPipeline(
            simulation, PipelineConfig(warmup_weeks=99, **config_kw)
        )

    def test_hook_fires_with_none_during_warmup(self):
        pipeline = self._tiny()
        seen = []
        pipeline.on_week_end = lambda week, report: seen.append((week, report))
        pipeline.run()
        assert seen == [(0, None), (1, None), (2, None)]

    def test_adopt_rejects_an_unfitted_predictor(self):
        pipeline = self._tiny()
        with pytest.raises(ValueError, match="unfitted"):
            pipeline.adopt(TicketPredictor(PredictorConfig()), week=5)

    def test_controller_requires_store_and_registry(self):
        with pytest.raises(ValueError, match="store"):
            LifecycleController(self._tiny())
