"""Plant-level triage: grouping test, suppression policy, loop wiring."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.pipeline import NevermindPipeline, PipelineConfig
from repro.core.predictor import PredictorConfig
from repro.fleet import (
    TriageConfig,
    evaluate_plan,
    find_clusters,
    plan_dispatches,
)
from repro.fleet.aggregation import CLASS_IN_HOME, CLASS_UPSTREAM
from repro.fleet.suppression import TriagePlan
from repro.netsim.groupfaults import GroupFaultConfig
from repro.netsim.population import PopulationConfig
from repro.netsim.simulator import SimulationConfig
from repro.netsim.topology import Binder, Bras, Dslam, Topology


def grid_topology(n_dslams: int = 4, binders_per: int = 4,
                  lines_per_binder: int = 8) -> Topology:
    """A regular plant: every DSLAM has the same binder layout."""
    dslams, binders, line_dslam, line_binder = [], [], [], []
    next_line = 0
    for d in range(n_dslams):
        dslam_lines = []
        for _ in range(binders_per):
            ids = np.arange(next_line, next_line + lines_per_binder)
            next_line += lines_per_binder
            binders.append(Binder(binder_id=len(binders), dslam_id=d,
                                  line_ids=ids))
            dslam_lines.append(ids)
            line_binder.extend([len(binders) - 1] * lines_per_binder)
        all_ids = np.concatenate(dslam_lines)
        dslams.append(Dslam(dslam_id=d, bras_id=0, geo=0, line_ids=all_ids))
        line_dslam.extend([d] * all_ids.size)
    topology = Topology(
        brases=[Bras(bras_id=0, dslam_ids=np.arange(n_dslams))],
        dslams=dslams,
        line_dslam=np.array(line_dslam),
        line_bras=np.zeros(next_line, dtype=int),
        binders=binders,
        line_binder=np.array(line_binder),
    )
    topology.validate()
    return topology


def scores_with_hotspots(topology: Topology, hot_lines: np.ndarray,
                         seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(topology.n_lines)
    scores[hot_lines] += 5.0
    return scores


class TestFindClusters:
    def test_binder_hotspot_classified_upstream(self):
        topology = grid_topology()
        hot = topology.lines_of_binder(5)
        triage = find_clusters(scores_with_hotspots(topology, hot), topology,
                               capacity=10)
        upstream = triage.upstream_clusters
        assert [(c.level, c.group_id) for c in upstream] == [("binder", 5)]
        np.testing.assert_array_equal(
            np.sort(upstream[0].anomalous_line_ids), hot
        )
        # The parent DSLAM never surfaces as an upstream cluster of its
        # own -- at most an in-home informational entry.
        dslam_clusters = [c for c in triage.clusters if c.level == "dslam"]
        assert all(c.classification == CLASS_IN_HOME for c in dslam_clusters)

    def test_significant_parent_dropped_as_shadow(self):
        # A small DSLAM (2 binders) where ONE binder is hot: the parent
        # reaches significance too (half its lines anomalous) but the
        # concentration lives in the binder, so the parent is dropped.
        topology = grid_topology(n_dslams=8, binders_per=2,
                                 lines_per_binder=8)
        hot = topology.lines_of_binder(4)
        config = TriageConfig(min_fraction=0.3, dslam_spread=0.75)
        triage = find_clusters(scores_with_hotspots(topology, hot), topology,
                               capacity=8, config=config)
        kept = {(c.level, c.group_id) for c in triage.clusters}
        parent = topology.dslam_of_binder(4)
        assert ("binder", 4) in kept
        assert ("dslam", parent) not in kept

    def test_spread_dslam_subsumes_binders(self):
        topology = grid_topology()
        hot = topology.lines_of_dslam(2)
        triage = find_clusters(scores_with_hotspots(topology, hot), topology,
                               capacity=12)
        upstream = triage.upstream_clusters
        assert [(c.level, c.group_id) for c in upstream] == [("dslam", 2)]
        # Its binders were individually significant but got subsumed.
        kept = {(c.level, c.group_id) for c in triage.clusters}
        for binder_id in np.unique(topology.line_binder[hot]):
            assert ("binder", int(binder_id)) not in kept

    def test_uniform_anomalies_stay_in_home(self):
        topology = grid_topology()
        # One anomalous line per binder: no concentration anywhere.
        hot = np.array([b.line_ids[0] for b in topology.binders])
        triage = find_clusters(scores_with_hotspots(topology, hot), topology,
                               capacity=6)
        assert triage.upstream_clusters == []
        assert all(c.classification == CLASS_IN_HOME for c in triage.clusters)
        assert not triage.upstream_line_mask().any()

    def test_min_anomalous_floor(self):
        topology = grid_topology()
        hot = topology.lines_of_binder(5)[:2]  # concentrated but only 2
        config = TriageConfig(min_anomalous=3)
        triage = find_clusters(scores_with_hotspots(topology, hot), topology,
                               capacity=4, config=config)
        assert all(c.n_anomalous >= 3 for c in triage.clusters)
        assert triage.upstream_clusters == []

    def test_min_fraction_floor(self):
        topology = grid_topology(binders_per=1, lines_per_binder=40)
        hot = topology.lines_of_binder(0)[:4]  # 10% of a big binder
        config = TriageConfig(min_fraction=0.3, anomaly_pool=1.0)
        triage = find_clusters(scores_with_hotspots(topology, hot), topology,
                               capacity=4, config=config)
        assert triage.upstream_clusters == []

    def test_pool_uses_stable_dispatch_ranking(self):
        topology = grid_topology()
        scores = np.zeros(topology.n_lines)  # all ties
        triage = find_clusters(scores, topology, capacity=10)
        np.testing.assert_array_equal(triage.pool_line_ids, np.arange(30))

    def test_input_validation(self):
        topology = grid_topology()
        with pytest.raises(ValueError):
            find_clusters(np.zeros(topology.n_lines + 1), topology, 10)
        with pytest.raises(ValueError):
            find_clusters(np.zeros(topology.n_lines), topology, 0)

    @pytest.mark.parametrize("field, value", [
        ("min_anomalous", 0),
        ("min_anomalous", -1),
        ("alpha", 0.0),
        ("alpha", 1.0),
        ("alpha", float("nan")),
        ("anomaly_pool", 0.5),
        ("anomaly_pool", 0.0),
        ("min_fraction", -0.1),
        ("min_fraction", 1.5),
        ("dslam_spread", -0.01),
        ("dslam_spread", 2.0),
    ])
    def test_config_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            TriageConfig(**{field: value})

    def test_config_accepts_boundaries(self):
        TriageConfig(min_anomalous=1, anomaly_pool=1.0, min_fraction=0.0,
                     dslam_spread=1.0, alpha=0.5)
        TriageConfig(min_fraction=1.0, dslam_spread=0.0)

    def test_to_dict_roundtrips_to_json(self):
        import json

        topology = grid_topology()
        hot = topology.lines_of_binder(5)
        triage = find_clusters(scores_with_hotspots(topology, hot), topology,
                               capacity=10)
        payload = json.loads(json.dumps(triage.to_dict()))
        assert payload["n_upstream"] == 1
        assert payload["clusters"][0]["classification"] == CLASS_UPSTREAM


class TestPlanDispatches:
    def test_no_upstream_plan_is_exactly_baseline(self):
        topology = grid_topology()
        scores = np.random.default_rng(1).standard_normal(topology.n_lines)
        triage = find_clusters(scores, topology, capacity=10)
        assert triage.upstream_clusters == []
        plan = plan_dispatches(scores, 10, triage, week=4)
        np.testing.assert_array_equal(plan.line_ids, plan.baseline_line_ids)
        np.testing.assert_array_equal(
            plan.line_ids, np.argsort(-scores, kind="stable")[:10]
        )
        assert plan.group_dispatches == []
        assert plan.suppressed_line_ids.size == 0
        assert plan.backfilled_line_ids.size == 0
        assert plan.n_slots_used == 10

    def test_suppression_and_backfill_accounting(self):
        topology = grid_topology()
        hot = topology.lines_of_binder(5)
        scores = scores_with_hotspots(topology, hot)
        capacity = 12
        triage = find_clusters(scores, topology, capacity)
        plan = plan_dispatches(scores, capacity, triage, week=7)
        assert len(plan.group_dispatches) == 1
        # Every member of the upstream binder vanished from per-line slots.
        assert not np.isin(plan.line_ids, hot).any()
        assert np.isin(plan.suppressed_line_ids, hot).all()
        # One slot paid for the group dispatch, the rest stay per-line.
        assert plan.line_ids.size == capacity - 1
        assert plan.n_slots_used == capacity
        # Backfilled lines are exactly the per-line picks not in baseline.
        promoted = np.setdiff1d(plan.line_ids, plan.baseline_line_ids)
        np.testing.assert_array_equal(
            np.sort(plan.backfilled_line_ids), promoted
        )
        assert plan.to_dict()["group_targets"] == [
            {"level": "binder", "group_id": 5}
        ]

    def test_evaluate_plan_arithmetic(self):
        fault = np.zeros(20, dtype=bool)
        fault[[0, 1, 5]] = True
        plan = TriagePlan(
            week=3, capacity=4,
            baseline_line_ids=np.array([0, 1, 2, 3]),
            line_ids=np.array([0, 5, 6]),
            group_dispatches=[object()],  # only len() is used
            suppressed_line_ids=np.array([1, 2]),
            backfilled_line_ids=np.array([5, 6]),
        )
        plan.group_dispatches = []
        scored = evaluate_plan(plan, fault)
        assert scored["baseline_hits"] == 2
        assert scored["baseline_precision"] == pytest.approx(0.5)
        assert scored["per_line_hits"] == 2
        assert scored["group_hits"] == 0
        assert scored["triage_precision"] == pytest.approx(0.5)

    def test_evaluate_plan_group_hits_need_active_fault(self):
        topology = grid_topology()
        hot = topology.lines_of_binder(5)
        scores = scores_with_hotspots(topology, hot)
        triage = find_clusters(scores, topology, 12)
        plan = plan_dispatches(scores, 12, triage)
        fault = np.zeros(topology.n_lines, dtype=bool)
        missed = evaluate_plan(plan, fault, active_groups=set())
        hit = evaluate_plan(plan, fault, active_groups={("binder", 5)})
        assert missed["group_hits"] == 0
        assert hit["group_hits"] == 1
        assert hit["triage_hits"] == missed["triage_hits"] + 1


class TestPipelineWiring:
    """The closed loop with and without the triage stage."""

    SIMULATION = dict(
        n_weeks=18,
        population=PopulationConfig(n_lines=1200, seed=13),
        fault_rate_scale=6.0,
        seed=77,
    )
    PREDICTOR = PredictorConfig(
        capacity=30, horizon_weeks=3, train_rounds=30, selection_rounds=3,
        include_derived=False,
    )

    def _run(self, triage, group_faults=None):
        simulation = SimulationConfig(
            group_faults=group_faults, **self.SIMULATION
        )
        pipeline = NevermindPipeline(
            simulation,
            PipelineConfig(warmup_weeks=13, predictor=self.PREDICTOR,
                           triage=triage),
        )
        pipeline.run()
        return pipeline

    def test_disabled_triage_is_bit_identical(self):
        plain = self._run(triage=None)
        triaged = self._run(triage=TriageConfig())
        # No group faults -> no clusters -> the stage must not perturb a
        # single submitted line or score.
        assert len(plain.reports) == len(triaged.reports)
        for a, b in zip(plain.reports, triaged.reports):
            np.testing.assert_array_equal(a.submitted, b.submitted)
            assert b.clusters_found == 0
            assert b.suppressed == 0
            assert b.backfilled == 0

    def test_correlated_world_produces_group_dispatches(self):
        group = GroupFaultConfig(
            n_dslam_events=1, n_binder_events=2, seed=21,
            event_window=(0.55, 0.8),
        )
        pipeline = self._run(triage=TriageConfig(), group_faults=group)
        summary = pipeline.summary()
        assert summary["clusters_found"] > 0
        assert summary["suppressed"] > 0
        dispatcher = pipeline.simulator.dispatcher
        assert len(dispatcher.group_records) == summary["clusters_found"]
        assert summary["group_problems_found"] == sum(
            1 for r in dispatcher.group_records if r.found_fault
        )
        # Capacity is never exceeded: per-line + group slots <= capacity.
        for report in pipeline.reports:
            slots = len(report.submitted) + report.clusters_found
            assert slots <= self.PREDICTOR.capacity


class TestServeEndpoint:
    def test_triage_route(self, small_store, small_predictor, tmp_path):
        from repro.serve import ModelBundle, ModelRegistry, ScoringService

        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(
            ModelBundle(predictor=small_predictor, meta={}), activate=True
        )
        service = ScoringService(
            small_store.root, tmp_path / "registry", shard_size=500
        )
        status, payload = service.dispatch_request("GET", "/triage")
        assert status == 200
        assert payload["week"] == small_store.latest_week
        assert payload["capacity"] == small_predictor.config.capacity
        assert payload["n_clusters"] >= 0
        assert "plan" in payload
        assert payload["plan"]["n_per_line"] + \
            payload["plan"]["n_group_dispatches"] <= payload["capacity"]

        status, _ = service.dispatch_request("GET", "/triage?capacity=-2")
        assert status == 400

    def test_triage_route_searches_once_per_week_and_version(
        self, small_store, small_predictor, tmp_path, monkeypatch
    ):
        import repro.serve.service
        from repro.serve import ModelBundle, ModelRegistry, ScoringService

        registry = ModelRegistry(tmp_path / "registry")
        for gen in (1, 2):
            registry.publish(
                ModelBundle(predictor=small_predictor, meta={"gen": gen})
            )
        registry.activate("v0001")
        service = ScoringService(
            small_store.root, tmp_path / "registry", shard_size=500
        )
        week = small_store.latest_week
        capacity = small_predictor.config.capacity
        scored = service.engine.score_week(week)
        topology = service.world.population().topology
        triage = find_clusters(scored.scores, topology, capacity)
        expected = triage.to_dict()
        expected.update({
            "week": week,
            "day": scored.day,
            "model_version": "v0001",
            "plan": plan_dispatches(
                scored.scores, capacity, triage, week=week
            ).to_dict(),
        })

        searches = []

        def counting_find_clusters(*args, **kwargs):
            searches.append(args[2])
            return find_clusters(*args, **kwargs)

        monkeypatch.setattr(
            repro.serve.service, "find_clusters", counting_find_clusters
        )
        for _ in range(3):
            status, payload = service.dispatch_request("GET", "/triage")
            assert status == 200
            assert json.dumps(payload, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            )
        # /explain shares the cached (week, version) result.
        status, _ = service.dispatch_request("GET", "/explain?line=0")
        assert status == 200
        assert searches == [capacity]
        # A non-default capacity is computed on the spot, never cached.
        status, payload = service.dispatch_request(
            "GET", f"/triage?capacity={capacity + 1}"
        )
        assert status == 200 and payload["capacity"] == capacity + 1
        assert searches == [capacity, capacity + 1]
        # A new active version searches once more.
        service.registry.activate("v0002")
        service.reload()
        for _ in range(2):
            status, payload = service.dispatch_request("GET", "/triage")
            assert payload["model_version"] == "v0002"
        assert searches == [capacity, capacity + 1, capacity]
