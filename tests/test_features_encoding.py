"""Unit tests for the Table-3 feature encoding (repro.features.encoding)."""

import numpy as np
import pytest

from repro.features.encoding import (
    _PROFILE_FEATURES,
    EncoderConfig,
    FeatureSet,
    LineFeatureEncoder,
)
from repro.measurement.records import (
    FEATURE_NAMES,
    N_FEATURES,
    MeasurementStore,
    feature_index,
)
from repro.netsim.population import PopulationConfig, build_population
from repro.serve.store import LineWeekStore, StoredWorld, _StoredTicketView


@pytest.fixture(scope="module")
def encoded(small_result_module):
    encoder = LineFeatureEncoder()
    week = 12
    return encoder.encode(
        small_result_module.measurements, week, small_result_module.population,
        small_result_module.ticket_log,
    )


@pytest.fixture(scope="module")
def small_result_module(request):
    return request.getfixturevalue("small_result")


class TestBaseEncoding:
    def test_family_layout(self, encoded):
        groups = encoded.groups
        assert groups.count("basic") == 25
        assert groups.count("delta") == 25
        assert groups.count("timeseries") == 25
        assert groups.count("profile") == 6
        assert groups.count("ticket") == 1
        assert groups.count("modem") == 1
        assert encoded.n_features == 83

    def test_base_count_helper(self):
        assert LineFeatureEncoder().base_feature_count() == 83

    def test_basic_block_matches_store(self, encoded, small_result_module):
        week_matrix = small_result_module.measurements.week_matrix(12)
        basic = encoded.matrix[:, :25]
        assert np.allclose(basic, week_matrix, equal_nan=True, atol=1e-5)

    def test_delta_block_is_difference(self, encoded, small_result_module):
        store = small_result_module.measurements
        expected = np.asarray(store.week_matrix(12), float) - np.asarray(
            store.week_matrix(11), float
        )
        delta = encoded.matrix[:, 25:50]
        assert np.allclose(delta, expected, equal_nan=True, atol=1e-4)

    def test_timeseries_standardised(self, encoded):
        ts = encoded.matrix[:, 50:75]
        finite = ts[np.isfinite(ts)]
        # Standardised deviations concentrate near zero.
        assert np.abs(np.median(finite)) < 1.0
        assert np.percentile(np.abs(finite), 90) < 6.0

    def test_profile_features_near_one_for_healthy(self, encoded):
        names = encoded.names
        col = encoded.matrix[:, names.index("profile:dnbr")]
        finite = col[np.isfinite(col)]
        # Most lines sync at their profile rate => ratio ~1.
        assert 0.7 < np.median(finite) <= 1.05

    def test_ticket_feature_capped(self, encoded):
        col = encoded.column("ticket:days_since_last")
        assert np.all(col > 0)
        assert np.max(col) == 365.0

    def test_modem_feature_fraction(self, encoded):
        col = encoded.column("modem:off_fraction")
        assert np.all((col >= 0) & (col <= 1))

    def test_categorical_mask(self, encoded):
        for name, flag in zip(encoded.names, encoded.categorical):
            if flag:
                assert name in ("basic:state", "basic:bt", "basic:crosstalk")


class TestDerived:
    def test_quadratic_columns(self, small_result_module):
        encoder = LineFeatureEncoder(EncoderConfig(include_quadratic=True))
        fs = encoder.encode(
            small_result_module.measurements, 12,
            small_result_module.population, small_result_module.ticket_log,
        )
        assert fs.groups.count("quadratic") == 83
        quad = fs.matrix[:, 83:166]
        base = fs.matrix[:, :83]
        assert np.allclose(quad, base**2, equal_nan=True)

    def test_product_pairs(self, small_result_module):
        encoder = LineFeatureEncoder(EncoderConfig(include_products=True))
        pairs = [(0, 1), (5, 7)]
        fs = encoder.encode(
            small_result_module.measurements, 12,
            small_result_module.population, small_result_module.ticket_log,
            product_pairs=pairs,
        )
        assert fs.groups.count("product") == 2
        prod = fs.matrix[:, -2:]
        base = fs.matrix[:, :83]
        assert np.allclose(prod[:, 0], base[:, 0] * base[:, 1], equal_nan=True)
        assert np.allclose(prod[:, 1], base[:, 5] * base[:, 7], equal_nan=True)

    def test_bad_product_pair_rejected(self, small_result_module):
        encoder = LineFeatureEncoder(EncoderConfig(include_products=True))
        with pytest.raises(IndexError):
            encoder.encode(
                small_result_module.measurements, 12,
                small_result_module.population, small_result_module.ticket_log,
                product_pairs=[(0, 999)],
            )


class TestEdgeCases:
    def test_unrecorded_week_rejected(self, small_result_module):
        encoder = LineFeatureEncoder()
        with pytest.raises(ValueError):
            encoder.encode(
                small_result_module.measurements, 999,
                small_result_module.population,
            )

    def test_week_zero_has_nan_delta(self, small_result_module):
        encoder = LineFeatureEncoder()
        fs = encoder.encode(
            small_result_module.measurements, 0,
            small_result_module.population,
        )
        delta = fs.matrix[:, 25:50]
        assert np.all(np.isnan(delta))

    def test_no_ticket_log_defaults(self, small_result_module):
        encoder = LineFeatureEncoder()
        fs = encoder.encode(
            small_result_module.measurements, 12,
            small_result_module.population, ticket_log=None,
        )
        assert np.all(fs.column("ticket:days_since_last") == 365.0)

    def test_min_history_records_gate(self, small_result_module):
        encoder = LineFeatureEncoder(EncoderConfig(min_history_records=999))
        fs = encoder.encode(
            small_result_module.measurements, 12,
            small_result_module.population,
        )
        assert np.all(np.isnan(fs.matrix[:, 50:75]))


class TestFeatureSet:
    def make(self):
        return FeatureSet(
            matrix=np.arange(12, dtype=float).reshape(3, 4),
            names=["a", "b", "c", "d"],
            groups=["basic"] * 4,
            categorical=np.array([False, True, False, False]),
        )

    def test_column_lookup(self):
        fs = self.make()
        assert np.array_equal(fs.column("b"), np.array([1.0, 5.0, 9.0]))
        with pytest.raises(KeyError):
            fs.column("zzz")

    def test_subset(self):
        fs = self.make().subset([1, 3])
        assert fs.names == ["b", "d"]
        assert fs.matrix.shape == (3, 2)
        assert fs.categorical[0]


def stacked_encode(encoder, measurements, week, population, ticket_log=None,
                   product_pairs=None):
    """The encode as separate blocks joined by ``np.hstack``: the
    reference the preallocated encode must match bit for bit."""
    current = np.asarray(measurements.week_matrix(week), dtype=float)
    if week >= 1 and (week - 1) in measurements.filled_weeks:
        delta = current - np.asarray(measurements.week_matrix(week - 1), float)
    else:
        delta = np.full_like(current, np.nan)
    ts = np.empty_like(current)
    encoder._timeseries_block(measurements, week, current, ts)
    expected = encoder._profile_expectations(population)
    profile = np.empty_like(expected)
    with np.errstate(divide="ignore", invalid="ignore"):
        for slot, name in enumerate(_PROFILE_FEATURES):
            profile[:, slot] = current[:, feature_index(name)] / expected[:, slot]
    day = int(measurements.saturday_day[week])
    if ticket_log is None:
        since = np.full(measurements.n_lines, 365.0)
    else:
        last = ticket_log.last_ticket_day_before(measurements.n_lines, day)
        since = np.where(last >= 0, day - last, 365.0).astype(float)
    off = measurements.modem_off_fraction(upto_week=week + 1)
    matrix = np.hstack([current, delta, ts, profile, since[:, None], off[:, None]])
    base_count = matrix.shape[1]
    if encoder.config.include_quadratic:
        matrix = np.hstack([matrix, matrix**2])
    if encoder.config.include_products:
        if product_pairs is None:
            product_pairs = [
                (i, j) for i in range(base_count) for j in range(i + 1, base_count)
            ]
        cols = np.empty((matrix.shape[0], len(product_pairs)))
        for slot, (i, j) in enumerate(product_pairs):
            cols[:, slot] = matrix[:, i] * matrix[:, j]
        matrix = np.hstack([matrix, cols])
    return matrix


def _nan_payload_world(n_lines=300, n_weeks=9, seed=3):
    """A store whose records carry NaNs with distinct payloads and signs,
    signed zeros, mixed magnitudes and a missing week, plus a ticket view
    with ticket-free lines."""
    rng = np.random.default_rng(seed)
    store = MeasurementStore(n_lines=n_lines, n_weeks=n_weeks)
    for week in range(n_weeks):
        if week == n_weeks - 4:
            continue  # a gap: the delta and history reads must skip it
        features = rng.normal(10.0, 3.0, size=(n_lines, N_FEATURES))
        features *= 10.0 ** rng.integers(-6, 7, size=features.shape)
        features[rng.random(features.shape) < 0.1] = -0.0
        features = features.astype(np.float32)
        bits = features.view(np.uint32)
        nan = rng.random(features.shape) < 0.15
        payload = rng.integers(1, 2**22, size=features.shape, dtype=np.uint32)
        sign = np.where(rng.random(features.shape) < 0.5, 0x80000000, 0)
        bits[nan] = (0x7FC00000 | payload | sign.astype(np.uint32))[nan]
        store.add_week(week, week * 7 + 5, features)
    population = build_population(PopulationConfig(n_lines=n_lines, seed=seed))
    last_day = rng.integers(-1, 60, size=n_lines)
    return store, population, last_day


_CONFIGS = [
    EncoderConfig(history_weeks=6, include_quadratic=quad, include_products=prod)
    for quad in (False, True) for prod in (False, True)
]
_CONFIG_IDS = ["base", "products", "quadratic", "quadratic+products"]


def _assert_bits_equal(got, expected):
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestPreallocatedEncode:
    """One preallocated matrix gives the stacked blocks' bits exactly."""

    @pytest.fixture(scope="class")
    def world(self):
        return _nan_payload_world()

    @pytest.mark.parametrize("config", _CONFIGS, ids=_CONFIG_IDS)
    @pytest.mark.parametrize("week", [0, 6, 8])  # week 6 follows the gap
    def test_dense_matches_stacked_blocks(self, world, config, week):
        store, population, last_day = world
        encoder = LineFeatureEncoder(config)
        day = int(store.saturday_day[week])
        tickets = _StoredTicketView(last_day, day)
        for pairs in (None, [(0, 1), (82, 3), (50, 50), (81, 60)]):
            got = encoder.encode(store, week, population, tickets, pairs)
            _assert_bits_equal(
                got.matrix,
                stacked_encode(encoder, store, week, population, tickets, pairs),
            )
        cold = encoder.encode(store, week, population)
        _assert_bits_equal(
            cold.matrix, stacked_encode(encoder, store, week, population)
        )

    def test_payloads_reach_the_output(self, world):
        store, population, _ = world
        fs = LineFeatureEncoder(_CONFIGS[-1]).encode(store, 8, population)
        nans = fs.matrix[np.isnan(fs.matrix)].view(np.uint64)
        assert np.unique(nans).size > 100
        assert np.any(nans >> 63) and np.any(fs.matrix.view(np.uint64) == 2**63)

    @pytest.mark.parametrize("config", _CONFIGS, ids=_CONFIG_IDS)
    def test_out_of_core_matches_stacked_blocks(self, world, config, tmp_path):
        store, population, last_day = world
        stored = LineWeekStore.create(
            tmp_path / "store", store.n_lines, population.config
        )
        for week in store.filled_weeks.tolist():
            stored.append_week(
                week, int(store.saturday_day[week]), store.week_matrix(week),
                last_day,
            )
        encoder = LineFeatureEncoder(config)
        week = int(store.filled_weeks[-1])
        tickets = _StoredTicketView(last_day, int(store.saturday_day[week]))
        expected = stacked_encode(encoder, store, week, population, tickets)
        reader = StoredWorld(stored)
        for chunk_lines in (None, 97, 1_000):
            got = reader.encode_week(week, encoder, chunk_lines=chunk_lines)
            _assert_bits_equal(got.matrix, expected)
