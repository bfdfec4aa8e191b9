"""Failure-injection and degenerate-configuration tests.

These exercise the paths a healthy experiment never hits: plants with no
faults at all, worlds where no one reports anything, fully-missing
measurement weeks, and learners fed degenerate matrices.
"""

import numpy as np
import pytest

from repro import (
    DslSimulator,
    PopulationConfig,
    PredictorConfig,
    SimulationConfig,
    TicketPredictor,
    build_ticket_dataset,
    paper_style_split,
)
from repro.features.encoding import LineFeatureEncoder
from repro.measurement.records import N_FEATURES, MeasurementStore, feature_index
from repro.ml.boostexter import BStump, BStumpConfig
from repro.netsim.faults import FaultModel, FaultState
from repro.tickets.customers import CustomerConfig, build_customers


class TestFaultFreePlant:
    @pytest.fixture(scope="class")
    def quiet_world(self):
        config = SimulationConfig(
            n_weeks=14,
            population=PopulationConfig(n_lines=600, seed=1),
            fault_rate_scale=0.0,
            billing_ticket_rate=0.0,
            seed=3,
        )
        return DslSimulator(config).run()

    def test_no_faults_no_edge_tickets(self, quiet_world):
        assert len(quiet_world.fault_events) == 0
        assert len(quiet_world.ticket_log.edge_tickets()) == 0

    def test_measurements_still_produced(self, quiet_world):
        assert len(quiet_world.measurements.filled_weeks) == 14

    def test_predictor_refuses_single_class(self, quiet_world):
        split = paper_style_split(14, history=4, train=2, selection=2, test=1,
                                  horizon_weeks=2)
        with pytest.raises(ValueError):
            TicketPredictor(
                PredictorConfig(capacity=20, horizon_weeks=2, train_rounds=5)
            ).fit(quiet_world, split)

    def test_healthy_lines_measure_healthy(self, quiet_world):
        matrix = quiet_world.measurements.week_matrix(10)
        on = matrix[:, feature_index("state")] == 1.0
        nmr = matrix[on, feature_index("dnnmr")]
        # Without faults, only provisioning determines margins; the median
        # line has solid headroom.
        assert np.median(nmr) > 5.0


class TestInvalidDispatchTargets:
    """Bad proactive targets are refused before any ticket or RNG draw."""

    @pytest.fixture
    def sim(self):
        config = SimulationConfig(
            n_weeks=6,
            population=PopulationConfig(n_lines=300, seed=3),
            fault_rate_scale=8.0,
            seed=5,
        )
        sim = DslSimulator(config)
        for _ in range(4):
            sim.step()
        return sim

    @staticmethod
    def _snapshot(sim):
        return (
            len(sim.ticket_log.tickets),
            len(sim.dispatcher.records),
            len(sim.dispatcher.group_records),
            sim.rng.bit_generator.state,
            sim.state.disposition.copy(),
        )

    def _assert_untouched(self, sim, before):
        after = self._snapshot(sim)
        assert after[:4] == before[:4]
        np.testing.assert_array_equal(after[4], before[4])

    @pytest.mark.parametrize("ids", [[-1], [3, -1], [0, 300]])
    def test_out_of_range_line_ids(self, sim, ids):
        before = self._snapshot(sim)
        with pytest.raises(IndexError, match="out of range"):
            sim.apply_proactive_fixes(np.array(ids), day=30)
        self._assert_untouched(sim, before)
        assert len(sim.apply_proactive_fixes(np.array([0, 299]), day=30)) == 2

    @pytest.mark.parametrize(
        "groups", [[("DSLAM", 0)], [("dslam", 0), ("cabinet", 1)]]
    )
    def test_unknown_group_level(self, sim, groups):
        before = self._snapshot(sim)
        with pytest.raises(ValueError, match="group level"):
            sim.apply_group_fixes(groups, day=30)
        self._assert_untouched(sim, before)
        assert len(sim.apply_group_fixes([("binder", 0)], day=30)) == 1

    @pytest.mark.parametrize(
        "groups",
        [[("dslam", -1)], [("binder", -1)], [("binder", 0), ("dslam", 10**6)]],
    )
    def test_out_of_range_group_ids(self, sim, groups):
        topo = sim.population.topology
        before = self._snapshot(sim)
        with pytest.raises(IndexError, match="out of range"):
            sim.apply_group_fixes(groups, day=30)
        with pytest.raises(IndexError, match="out of range"):
            sim.apply_group_fixes([("binder", topo.n_binders)], day=30)
        self._assert_untouched(sim, before)
        last = topo.n_dslams - 1
        assert len(sim.apply_group_fixes([("dslam", last)], day=30)) == 1


class TestSilentCustomers:
    def test_zero_propensity_means_no_reports(self):
        config = SimulationConfig(
            n_weeks=10,
            population=PopulationConfig(n_lines=500, seed=2),
            customers=CustomerConfig(propensity_alpha=1e-4,
                                     propensity_beta=100.0),
            fault_rate_scale=5.0,
            billing_ticket_rate=0.0,
            seed=4,
        )
        result = DslSimulator(config).run()
        assert len(result.fault_events) > 0
        assert len(result.ticket_log.edge_tickets()) == 0


class TestDegenerateMeasurements:
    def test_encoder_with_all_modems_off(self):
        store = MeasurementStore(n_lines=5, n_weeks=3)
        for week in range(3):
            features = np.full((5, N_FEATURES), np.nan, dtype=float)
            features[:, feature_index("state")] = 0.0
            store.add_week(week, week * 7 + 5, features)
        from repro.netsim.population import build_population
        population = build_population(PopulationConfig(n_lines=5))
        fs = LineFeatureEncoder().encode(store, 2, population)
        # Basic block: state present, everything else missing.
        assert np.all(fs.column("basic:state") == 0.0)
        assert np.all(np.isnan(fs.column("basic:dnbr")))
        assert np.all(fs.column("modem:off_fraction") == 1.0)

    def test_bstump_survives_mostly_missing_matrix(self, rng):
        X = rng.normal(size=(500, 4))
        y = (X[:, 0] > 0).astype(float)
        X[rng.random(X.shape) < 0.9] = np.nan
        model = BStump(BStumpConfig(n_rounds=10)).fit(X, y)
        out = model.decision_function(X)
        assert np.all(np.isfinite(out))


class TestFaultModelDegenerate:
    def test_zero_rate_never_strikes(self, rng):
        model = FaultModel(rate_scale=0.0)
        state = FaultState.healthy(1000)
        struck = model.sample_onsets(state, rng, 0)
        assert struck.size == 0

    def test_advance_on_healthy_plant_is_noop(self, rng):
        model = FaultModel()
        state = FaultState.healthy(10)
        cleared = model.advance_week(state, rng)
        assert cleared.size == 0
        assert not state.active.any()


class TestDatasetDegenerate:
    def test_dataset_on_first_week_has_nan_history(self, small_result):
        ds = build_ticket_dataset(small_result, [0], horizon_weeks=2)
        delta = ds.features.matrix[:, 25:50]
        ts = ds.features.matrix[:, 50:75]
        assert np.all(np.isnan(delta))
        assert np.all(np.isnan(ts))

    def test_customers_all_away(self):
        customers = build_customers(
            50, 6, CustomerConfig(away_start_prob=1.0, away_min_weeks=6,
                                  away_max_weeks=6),
        )
        assert customers.away.all()
        assert not customers.present(3).any()


class TestOutOfRangeTrainingConfig:
    """Each training setting is checked when its config is built, not
    first inside a fit (where ``n_rounds=0`` used to surface as
    "boosting selected no weak learners")."""

    def test_bstump_needs_a_round(self):
        with pytest.raises(ValueError, match="n_rounds"):
            BStumpConfig(n_rounds=0)

    def test_locator_needs_a_round(self):
        from repro.core.locator import LocatorConfig

        with pytest.raises(ValueError, match="n_rounds"):
            LocatorConfig(n_rounds=0)

    def test_locator_needs_two_folds(self):
        from repro.core.locator import LocatorConfig

        with pytest.raises(ValueError, match="cv_folds"):
            LocatorConfig(cv_folds=1)

    @pytest.mark.parametrize(
        "name", ["train_rounds", "selection_rounds", "horizon_weeks"]
    )
    def test_predictor_counts_start_at_one(self, name):
        with pytest.raises(ValueError, match=name):
            PredictorConfig(**{name: 0})

    def test_predictor_product_pool_is_not_negative(self):
        with pytest.raises(ValueError, match="product_pool"):
            PredictorConfig(product_pool=-3)
        assert PredictorConfig(product_pool=0).product_pool == 0
