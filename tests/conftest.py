"""Shared fixtures: one small simulated world reused across test modules.

The simulation is deterministic (seeded) and session-scoped, so the test
suite pays for it once.  Keep the scale small here -- benchmarks own the
realistic scales.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DslSimulator,
    PopulationConfig,
    PredictorConfig,
    SimulationConfig,
    TicketPredictor,
    paper_style_split,
)
from repro.measurement.records import N_FEATURES, MeasurementStore
from repro.serve import snapshot_result


@pytest.fixture(scope="session")
def small_result():
    """A 2,500-line, 20-week simulated world with densified faults."""
    config = SimulationConfig(
        n_weeks=20,
        population=PopulationConfig(n_lines=2500, seed=5),
        fault_rate_scale=4.0,
        seed=99,
    )
    return DslSimulator(config).run()


@pytest.fixture(scope="session")
def locator_world():
    """A dispatch-dense world for the trouble-locator comparisons.

    The basic-vs-learned locator gap is variance-dominated below ~1,000
    training dispatches, so these tests get a denser plant than
    ``small_result``.
    """
    config = SimulationConfig(
        n_weeks=22,
        population=PopulationConfig(n_lines=4000, seed=8),
        fault_rate_scale=6.0,
        seed=17,
    )
    return DslSimulator(config).run()


@pytest.fixture(scope="session")
def small_split(small_result):
    """A paper-style split matching the small world's horizon."""
    return paper_style_split(
        small_result.config.n_weeks, history=6, train=3, selection=2, test=2,
        horizon_weeks=3,
    )


@pytest.fixture(scope="session")
def small_predictor(small_result, small_split):
    """A fitted ticket predictor on the small world (shared, read-only)."""
    return TicketPredictor(
        PredictorConfig(capacity=60, train_rounds=30)
    ).fit(small_result, small_split)


@pytest.fixture(scope="session")
def small_store(small_result, tmp_path_factory):
    """The small world snapshotted into a line-week store (read-only)."""
    return snapshot_result(
        small_result, tmp_path_factory.mktemp("serve") / "store"
    )


def _dense_measurements(store) -> MeasurementStore:
    """A whole-plant MeasurementStore assembled from every stored week's
    ``week_matrix`` rows, NaN where the store holds no week."""
    n_weeks = store.latest_week + 1
    cube = np.full((n_weeks, store.n_lines, N_FEATURES), np.nan, np.float32)
    saturday_day = np.full(n_weeks, -1, dtype=int)
    filled = np.zeros(n_weeks, dtype=bool)
    for week in store.weeks:
        cube[week] = store.week_matrix(week)
        saturday_day[week] = store.day_of(week)
        filled[week] = True
    return MeasurementStore.from_week_major(cube, saturday_day, filled)


@pytest.fixture(scope="session")
def dense_measurements():
    """The oracle for out-of-core reads: a factory building a dense
    in-memory MeasurementStore of a ``LineWeekStore``."""
    return _dense_measurements


@pytest.fixture(scope="session")
def small_locator(small_result):
    """A small fitted combined trouble locator (shared, read-only)."""
    from repro import CombinedLocator, LocatorConfig, build_locator_dataset

    train = build_locator_dataset(
        small_result, 30, small_result.config.n_weeks * 7
    )
    return CombinedLocator(LocatorConfig(n_rounds=6, cv_folds=2)).fit(train)


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)
