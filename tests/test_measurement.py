"""Unit tests for the measurement layer (repro.measurement)."""

import numpy as np
import pytest

from repro.measurement.linetest import LineTestConfig, LineTester
from repro.measurement.records import (
    CATEGORICAL_FEATURES,
    FEATURE_NAMES,
    N_FEATURES,
    MeasurementStore,
    feature_index,
)
from repro.netsim.faults import FaultModel, FaultState
from repro.netsim.population import PopulationConfig, build_population


class TestSchema:
    def test_25_features(self):
        """Table 2 defines 25 line features."""
        assert N_FEATURES == 25

    def test_paper_feature_names_present(self):
        for name in ("state", "dnbr", "upbr", "dnnmr", "upnmr", "dnaten",
                     "dnrelcap", "dncvcnt1", "dnescnt1", "dnfeccnt1",
                     "hicar", "bt", "crosstalk", "looplength",
                     "dnmaxattainfbr", "dncells"):
            assert name in FEATURE_NAMES

    def test_feature_index_roundtrip(self):
        for i, name in enumerate(FEATURE_NAMES):
            assert feature_index(name) == i

    def test_unknown_feature_raises(self):
        with pytest.raises(KeyError):
            feature_index("fiber_attenuation")

    def test_categoricals_are_flags(self):
        assert CATEGORICAL_FEATURES == {"state", "bt", "crosstalk"}


class TestStore:
    def test_add_and_read_week(self, rng):
        store = MeasurementStore(n_lines=10, n_weeks=3)
        features = rng.normal(size=(10, N_FEATURES))
        store.add_week(1, day=12, features=features)
        assert np.allclose(store.week_matrix(1), features, atol=1e-5)
        assert store.saturday_day[1] == 12
        assert list(store.filled_weeks) == [1]

    def test_unfilled_week_raises(self):
        store = MeasurementStore(n_lines=2, n_weeks=2)
        with pytest.raises(ValueError):
            store.week_matrix(0)

    def test_double_fill_rejected(self, rng):
        store = MeasurementStore(n_lines=2, n_weeks=2)
        features = rng.normal(size=(2, N_FEATURES))
        store.add_week(0, 5, features)
        with pytest.raises(ValueError):
            store.add_week(0, 5, features)

    def test_shape_checked(self):
        store = MeasurementStore(n_lines=2, n_weeks=2)
        with pytest.raises(ValueError):
            store.add_week(0, 5, np.zeros((3, N_FEATURES)))

    def test_week_range_checked(self):
        store = MeasurementStore(n_lines=2, n_weeks=2)
        with pytest.raises(IndexError):
            store.add_week(5, 5, np.zeros((2, N_FEATURES)))

    def test_line_series_view(self, rng):
        store = MeasurementStore(n_lines=4, n_weeks=2)
        store.add_week(0, 5, rng.normal(size=(4, N_FEATURES)))
        series = store.line_series(2)
        assert series.shape == (2, N_FEATURES)

    def test_modem_off_fraction(self):
        store = MeasurementStore(n_lines=2, n_weeks=4)
        state_col = feature_index("state")
        for week in range(4):
            features = np.zeros((2, N_FEATURES))
            features[0, state_col] = 1.0  # line 0 always on
            features[1, state_col] = 1.0 if week < 1 else 0.0  # line 1 mostly off
            store.add_week(week, week * 7 + 5, features)
        off = store.modem_off_fraction()
        assert off[0] == 0.0
        assert off[1] == pytest.approx(0.75)

    def test_modem_off_fraction_bounded_history(self):
        store = MeasurementStore(n_lines=1, n_weeks=3)
        state_col = feature_index("state")
        for week, on in enumerate([0.0, 1.0, 1.0]):
            features = np.zeros((1, N_FEATURES))
            features[0, state_col] = on
            store.add_week(week, week * 7 + 5, features)
        assert store.modem_off_fraction(upto_week=1)[0] == 1.0
        assert store.modem_off_fraction()[0] == pytest.approx(1 / 3)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            MeasurementStore(n_lines=0, n_weeks=1)


class TestWeekMajorLayout:
    """The week-major cube is invisible to every accessor.

    The reference is the line-major ``(n_lines, n_weeks, 25)`` cube the
    store used to hold; each accessor must return the same shape and
    bytes from it.
    """

    @pytest.fixture()
    def filled(self, rng):
        n_lines, n_weeks = 37, 6
        store = MeasurementStore(n_lines=n_lines, n_weeks=n_weeks)
        reference = np.full((n_lines, n_weeks, N_FEATURES), np.nan, np.float32)
        state = feature_index("state")
        for week in (0, 1, 3, 5):  # week 2 and 4 are never recorded
            features = rng.normal(size=(n_lines, N_FEATURES))
            features[:, state] = rng.random(n_lines) < 0.7
            features[rng.random(n_lines) < 0.2] = np.nan
            features[rng.random(features.shape) < 0.1] = -0.0
            store.add_week(week, week * 7 + 5, features)
            reference[:, week, :] = features
        return store, reference

    @staticmethod
    def _same(got, expected):
        assert got.shape == expected.shape
        assert got.dtype == expected.dtype
        assert np.ascontiguousarray(got).tobytes() == expected.tobytes()

    def test_week_matrix_is_contiguous_and_unchanged(self, filled):
        store, reference = filled
        for week in store.filled_weeks:
            got = store.week_matrix(week)
            assert got.flags.c_contiguous
            self._same(got, reference[:, week, :])

    def test_data_line_and_feature_series_unchanged(self, filled):
        store, reference = filled
        self._same(store.data, reference)
        for line in (0, 17, 36):
            self._same(store.line_series(line), reference[line])
        for name in ("state", "dnbr", "upcells"):
            self._same(
                store.feature_series(name), reference[:, :, feature_index(name)]
            )

    def test_modem_off_fraction_unchanged(self, filled):
        store, reference = filled
        state = feature_index("state")
        for upto in (None, 1, 3, 6):
            weeks = store.filled_weeks
            if upto is not None:
                weeks = weeks[weeks < upto]
            column = reference[:, weeks, state]
            expected = np.mean((column == 0) | np.isnan(column), axis=1)
            self._same(store.modem_off_fraction(upto_week=upto), expected)

    def test_from_week_major_wraps_without_copy(self, filled):
        store, _ = filled
        rows = store.cube[:, 5:20]
        view = MeasurementStore.from_week_major(
            rows, store.saturday_day, store._filled
        )
        assert (view.n_lines, view.n_weeks) == (15, store.n_weeks)
        assert np.shares_memory(view.week_matrix(3), store.week_matrix(3))
        self._same(view.data, store.data[5:20])
        with pytest.raises(ValueError):
            MeasurementStore.from_week_major(
                rows.astype(np.float64), store.saturday_day, store._filled
            )
        with pytest.raises(ValueError):
            MeasurementStore.from_week_major(
                rows, store.saturday_day[:-1], store._filled
            )


class TestLineTester:
    @pytest.fixture(scope="class")
    def world(self):
        population = build_population(PopulationConfig(n_lines=3000, seed=21))
        return population, population.conditions()

    def run_test(self, world, rng, fault_state=None, dslam_down=None,
                 usage=None):
        population, conditions = world
        model = FaultModel()
        state = fault_state or FaultState.healthy(population.n_lines)
        effects = model.effects(state)
        n = population.n_lines
        tester = LineTester()
        return tester.run(
            conditions,
            effects,
            usage if usage is not None else np.full(n, 0.6),
            dslam_down if dslam_down is not None else np.zeros(n, dtype=bool),
            rng,
        )

    def test_output_shape(self, world, rng):
        out = self.run_test(world, rng)
        assert out.shape == (3000, N_FEATURES)

    def test_off_modems_have_nan_features(self, world, rng):
        out = self.run_test(world, rng)
        state = out[:, feature_index("state")]
        off = state == 0.0
        assert off.any()
        assert np.all(np.isnan(out[off][:, feature_index("dnbr")]))
        on = state == 1.0
        assert not np.isnan(out[on][:, feature_index("dnbr")]).any()

    def test_dslam_down_blocks_all_records(self, world, rng):
        population, _ = world
        down = np.ones(population.n_lines, dtype=bool)
        out = self.run_test(world, rng, dslam_down=down)
        assert np.all(out[:, feature_index("state")] == 0.0)

    def test_rates_respect_profiles(self, world, rng):
        population, conditions = world
        out = self.run_test(world, rng)
        on = out[:, feature_index("state")] == 1.0
        dnbr = out[on, feature_index("dnbr")]
        # No line syncs meaningfully above its provisioned rate.
        provisioned = conditions.profile_down_kbps[on]
        assert np.all(dnbr <= provisioned * 1.05)

    def test_long_loops_attenuate_more(self, world, rng):
        population, _ = world
        out = self.run_test(world, rng)
        on = out[:, feature_index("state")] == 1.0
        atten = out[on, feature_index("dnaten")]
        loops = population.loop_kft[on]
        assert np.corrcoef(loops, atten)[0, 1] > 0.95

    def test_loop_estimate_tracks_truth(self, world, rng):
        population, _ = world
        out = self.run_test(world, rng)
        on = out[:, feature_index("state")] == 1.0
        est_kft = out[on, feature_index("looplength")] / 1000.0
        assert np.corrcoef(population.loop_kft[on], est_kft)[0, 1] > 0.9

    def test_faulty_lines_look_worse(self, world, rng):
        population, _ = world
        n = population.n_lines
        state = FaultState.healthy(n)
        from repro.netsim.components import DISPOSITION_INDEX
        code = DISPOSITION_INDEX["f1-wire-conductor-wet"]
        faulty = np.arange(0, n, 2)
        state.disposition[faulty] = code
        state.severity[faulty] = 1.0
        state.onset_day[faulty] = 0
        out = self.run_test(world, rng, fault_state=state)
        on = out[:, feature_index("state")] == 1.0
        cv = out[:, feature_index("dncvcnt1")]
        is_faulty = np.zeros(n, dtype=bool)
        is_faulty[faulty] = True
        assert np.nanmean(cv[on & is_faulty]) > 3 * np.nanmean(cv[on & ~is_faulty])

    def test_heavy_users_push_more_cells(self, world, rng):
        population, _ = world
        n = population.n_lines
        usage = np.where(np.arange(n) % 2 == 0, 0.9, 0.1)
        out = self.run_test(world, rng, usage=usage)
        on = out[:, feature_index("state")] == 1.0
        cells = out[:, feature_index("dncells")]
        heavy = (np.arange(n) % 2 == 0) & on
        light = (np.arange(n) % 2 == 1) & on
        assert np.nanmean(cells[heavy]) > 3 * np.nanmean(cells[light])

    def test_counter_features_are_nonnegative_integers(self, world, rng):
        out = self.run_test(world, rng)
        on = out[:, feature_index("state")] == 1.0
        for name in ("dncvcnt1", "dncvcnt2", "dncvcnt3", "dnescnt1",
                     "dnescnt2", "dnfeccnt1"):
            col = out[on, feature_index(name)]
            assert np.all(col >= 0)
            assert np.allclose(col, np.round(col))

    def test_cv_thresholds_nested(self, world, rng):
        out = self.run_test(world, rng)
        on = out[:, feature_index("state")] == 1.0
        cv1 = out[on, feature_index("dncvcnt1")]
        cv2 = out[on, feature_index("dncvcnt2")]
        cv3 = out[on, feature_index("dncvcnt3")]
        assert np.all(cv2 <= cv1)
        assert np.all(cv3 <= cv2)

    def test_shape_validation(self, world, rng):
        population, conditions = world
        tester = LineTester()
        effects = FaultModel().effects(FaultState.healthy(population.n_lines))
        with pytest.raises(ValueError):
            tester.run(conditions, effects, np.ones(3),
                       np.zeros(population.n_lines, dtype=bool), rng)
