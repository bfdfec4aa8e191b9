"""Property-based tests on the feature encoder and measurement store."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.encoding import (
    TIMESERIES_TILE_ROWS,
    EncoderConfig,
    LineFeatureEncoder,
)
from repro.measurement.records import N_FEATURES, MeasurementStore, feature_index
from repro.netsim.population import PopulationConfig, build_population


def timeseries_oracle(
    store: MeasurementStore, week: int, config: EncoderConfig
) -> np.ndarray:
    """The Table-3 time-series block as a gathered-cube nanmean/nanstd.

    The reference the encoder's streaming kernel must match bit for bit:
    gather every history week into a float64 ``(lines, weeks, features)``
    cube and reduce it along the week axis with numpy's NaN-aware
    mean and (ddof 0) standard deviation.
    """
    current = np.asarray(store.week_matrix(week), dtype=float)
    history = store.filled_weeks
    history = history[(history < week) & (history >= week - config.history_weeks)]
    if history.size == 0:
        return np.full_like(current, np.nan)
    series = np.asarray(store.data[:, history, :], dtype=float)
    counts = np.sum(~np.isnan(series), axis=1)
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        mean = np.nanmean(series, axis=1)
        std = np.nanstd(series, axis=1)
    enough = counts >= config.min_history_records
    std = np.where(std > 1e-9, std, np.nan)
    deviation = (current - mean) / std
    deviation[~enough] = np.nan
    return deviation


@st.composite
def timeseries_worlds(draw, n_lines=st.integers(1, 10)):
    """Stores that stress the time-series kernel's edge cases.

    Gaps in the filled weeks, NaN-heavy weeks, all-missing lines,
    constant series (std 0), ``-0.0`` records, histories shorter than
    ``history_weeks`` and ``min_history_records`` above the present
    count; the prediction week may be week 0.
    """
    n_lines = draw(n_lines)
    n_weeks = draw(st.integers(1, 12))
    filled = draw(st.lists(st.booleans(), min_size=n_weeks, max_size=n_weeks))
    filled[draw(st.integers(0, n_weeks - 1))] = True
    missing_rate = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dead = rng.random(n_lines) < 0.2
    constant = rng.random(n_lines) < 0.3
    level = rng.normal(10.0, 3.0, size=(n_lines, N_FEATURES))
    level[rng.random(level.shape) < 0.3] = -0.0
    store = MeasurementStore(n_lines=n_lines, n_weeks=n_weeks)
    for week in np.flatnonzero(filled):
        features = rng.normal(10.0, 3.0, size=(n_lines, N_FEATURES))
        # Mixed magnitudes make the float64 sums round, so the fold
        # order shows in the result.
        features *= 10.0 ** rng.integers(-12, 13, size=features.shape)
        features[constant] = level[constant]
        features[rng.random(features.shape) < 0.1] = -0.0
        features[rng.random(features.shape) < missing_rate] = np.nan
        features[dead] = np.nan
        store.add_week(int(week), int(week) * 7 + 5, features.astype(np.float32))
    config = EncoderConfig(
        history_weeks=draw(st.integers(1, 14)),
        min_history_records=draw(st.integers(0, 5)),
    )
    week = draw(st.sampled_from([int(w) for w in np.flatnonzero(filled)]))
    population = build_population(PopulationConfig(n_lines=n_lines, seed=seed))
    return store, population, config, week


#: Plant sizes that cross row-tile boundaries of the time-series kernel:
#: a partial last tile after several full ones, an exact multiple, and a
#: single row spilling into a second tile.
_MULTI_TILE_LINES = (
    3 * TIMESERIES_TILE_ROWS + 17, 2 * TIMESERIES_TILE_ROWS,
    TIMESERIES_TILE_ROWS + 1,
)


def _assert_timeseries_bit_identical(world):
    store, population, config, week = world
    fs = LineFeatureEncoder(config).encode(store, week, population)
    columns = [i for i, g in enumerate(fs.groups) if g == "timeseries"]
    assert len(columns) == N_FEATURES
    got = np.ascontiguousarray(fs.matrix[:, columns])
    expected = timeseries_oracle(store, week, config)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestTimeseriesKernel:
    @given(timeseries_worlds())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_gathered_nanstd(self, world):
        _assert_timeseries_bit_identical(world)

    @given(timeseries_worlds(n_lines=st.sampled_from(_MULTI_TILE_LINES)))
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_across_row_tiles(self, world):
        _assert_timeseries_bit_identical(world)


@st.composite
def measurement_worlds(draw):
    """A tiny random population with a consistent measurement store."""
    n_lines = draw(st.integers(3, 12))
    n_weeks = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    store = MeasurementStore(n_lines=n_lines, n_weeks=n_weeks)
    for week in range(n_weeks):
        features = rng.normal(10.0, 3.0, size=(n_lines, N_FEATURES))
        state = rng.random(n_lines) < 0.85
        features[:, feature_index("state")] = state.astype(float)
        features[~state, 1:] = np.nan
        store.add_week(week, week * 7 + 5, features.astype(np.float32))
    population = build_population(PopulationConfig(n_lines=n_lines, seed=seed))
    return store, population


class TestEncoderProperties:
    @given(measurement_worlds())
    @settings(max_examples=25, deadline=None)
    def test_basic_block_equals_current_week(self, world):
        store, population = world
        week = store.n_weeks - 1
        fs = LineFeatureEncoder().encode(store, week, population)
        assert np.allclose(
            fs.matrix[:, :N_FEATURES],
            np.asarray(store.week_matrix(week), float),
            equal_nan=True,
            atol=1e-5,
        )

    @given(measurement_worlds())
    @settings(max_examples=25, deadline=None)
    def test_delta_block_is_exact_difference(self, world):
        store, population = world
        week = store.n_weeks - 1
        fs = LineFeatureEncoder().encode(store, week, population)
        current = np.asarray(store.week_matrix(week), float)
        previous = np.asarray(store.week_matrix(week - 1), float)
        delta = fs.matrix[:, N_FEATURES:2 * N_FEATURES]
        assert np.allclose(delta, current - previous, equal_nan=True, atol=1e-4)

    @given(measurement_worlds())
    @settings(max_examples=25, deadline=None)
    def test_column_count_is_invariant(self, world):
        store, population = world
        encoder = LineFeatureEncoder()
        fs = encoder.encode(store, store.n_weeks - 1, population)
        assert fs.n_features == encoder.base_feature_count()
        assert len(fs.names) == fs.n_features
        assert len(fs.groups) == fs.n_features
        assert fs.categorical.shape == (fs.n_features,)

    @given(measurement_worlds())
    @settings(max_examples=25, deadline=None)
    def test_quadratic_consistency(self, world):
        store, population = world
        encoder = LineFeatureEncoder(EncoderConfig(include_quadratic=True))
        fs = encoder.encode(store, store.n_weeks - 1, population)
        base_n = encoder.base_feature_count()
        assert np.allclose(
            fs.matrix[:, base_n:2 * base_n],
            fs.matrix[:, :base_n] ** 2,
            equal_nan=True,
        )

    @given(measurement_worlds(), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_subset_preserves_columns(self, world, pick_seed):
        store, population = world
        fs = LineFeatureEncoder().encode(store, store.n_weeks - 1, population)
        rng = np.random.default_rng(pick_seed)
        indices = rng.choice(fs.n_features, size=5, replace=False)
        sub = fs.subset(indices)
        for out_col, in_col in enumerate(indices):
            assert np.allclose(
                sub.matrix[:, out_col], fs.matrix[:, in_col], equal_nan=True
            )
            assert sub.names[out_col] == fs.names[in_col]


class TestStoreProperties:
    @given(st.integers(1, 20), st.integers(1, 10))
    def test_fresh_store_is_all_missing(self, n_lines, n_weeks):
        store = MeasurementStore(n_lines=n_lines, n_weeks=n_weeks)
        assert np.all(np.isnan(store.data))
        assert store.filled_weeks.size == 0

    @given(measurement_worlds())
    @settings(max_examples=25, deadline=None)
    def test_modem_off_fraction_bounds(self, world):
        store, _ = world
        off = store.modem_off_fraction()
        assert np.all((off >= 0.0) & (off <= 1.0))
