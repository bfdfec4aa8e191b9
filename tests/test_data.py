"""Unit tests for dataset assembly (repro.data)."""

import numpy as np
import pytest

from repro.data.joins import (
    anonymize_ids,
    build_locator_dataset,
    build_ticket_dataset,
)
from repro.data.splits import TemporalSplit, paper_style_split


class TestSplits:
    def test_paper_style_layout(self):
        split = paper_style_split(20, history=8, train=4, selection=2, test=2)
        assert split.history_weeks == tuple(range(0, 8))
        assert split.train_weeks == tuple(range(8, 12))
        assert split.selection_weeks == tuple(range(12, 14))
        assert split.test_weeks == tuple(range(14, 16))
        assert split.horizon_days == 28

    def test_too_short_simulation_rejected(self):
        with pytest.raises(ValueError):
            paper_style_split(10, history=8, train=4, selection=2, test=2)

    def test_horizon_fits_for_last_test_week(self):
        split = paper_style_split(20)
        last = max(split.test_weeks)
        assert last * 7 + 5 + split.horizon_days <= 20 * 7 - 1

    def test_validate_rejects_overlap(self):
        split = TemporalSplit(
            history_weeks=(0, 1), train_weeks=(1, 2), selection_weeks=(3,),
            test_weeks=(4,), horizon_weeks=1,
        )
        with pytest.raises(ValueError):
            split.validate(10)

    def test_validate_rejects_truncated_horizon(self):
        split = TemporalSplit(
            history_weeks=(0,), train_weeks=(1,), selection_weeks=(2,),
            test_weeks=(9,), horizon_weeks=4,
        )
        with pytest.raises(ValueError):
            split.validate(10)

    def test_zero_test_weeks_allowed(self):
        split = paper_style_split(16, history=6, train=3, selection=3, test=0)
        assert split.test_weeks == ()


class TestAnonymize:
    def test_stable_and_distinct(self):
        ids = np.array([1, 2, 3, 1])
        hashed = anonymize_ids(ids)
        assert hashed[0] == hashed[3]
        assert len({hashed[0], hashed[1], hashed[2]}) == 3

    def test_salt_changes_tokens(self):
        ids = np.array([1])
        assert anonymize_ids(ids, salt="a")[0] != anonymize_ids(ids, salt="b")[0]

    def test_no_raw_id_leak(self):
        hashed = anonymize_ids(np.array([123456789]))
        assert "123456789" not in hashed[0]


class TestTicketDataset:
    def test_shapes_one_week(self, small_result, small_split):
        week = small_split.train_weeks[0]
        ds = build_ticket_dataset(small_result, [week], horizon_weeks=3)
        assert ds.n_examples == small_result.n_lines
        assert ds.features.matrix.shape[0] == ds.n_examples
        assert set(np.unique(ds.y)) <= {0.0, 1.0}

    def test_multiple_weeks_stack(self, small_result, small_split):
        ds = build_ticket_dataset(
            small_result, small_split.train_weeks, horizon_weeks=3
        )
        assert ds.n_examples == small_result.n_lines * len(small_split.train_weeks)
        assert len(set(ds.weeks)) == len(small_split.train_weeks)

    def test_labels_match_ticket_log(self, small_result, small_split):
        week = small_split.train_weeks[0]
        ds = build_ticket_dataset(small_result, [week], horizon_weeks=3)
        day = int(small_result.measurements.saturday_day[week])
        delays = small_result.ticket_log.first_edge_ticket_after(
            small_result.n_lines, day, 21
        )
        assert np.array_equal(ds.y, (delays >= 0).astype(float))
        assert np.array_equal(ds.delays, delays)

    def test_positive_rate_reasonable(self, small_result, small_split):
        ds = build_ticket_dataset(small_result, small_split.train_weeks,
                                  horizon_weeks=3)
        assert 0.005 < ds.positive_rate() < 0.5

    def test_empty_weeks_rejected(self, small_result):
        with pytest.raises(ValueError):
            build_ticket_dataset(small_result, [])


class TestLocatorDataset:
    def test_build(self, small_result):
        ds = build_locator_dataset(small_result, first_day=40, last_day=120)
        assert ds.n_examples > 50
        assert np.all((ds.disposition >= 0) & (ds.disposition < 52))
        assert np.all((ds.location >= 0) & (ds.location < 4))
        assert ds.features.matrix.shape[0] == ds.n_examples

    def test_location_consistent_with_catalog(self, small_result):
        from repro.netsim.components import disposition_arrays
        locations = disposition_arrays().location
        ds = build_locator_dataset(small_result, 40, 120)
        assert np.array_equal(ds.location, locations[ds.disposition])

    def test_day_range_respected(self, small_result):
        ds = build_locator_dataset(small_result, 40, 60)
        assert np.all((ds.ticket_days >= 40) & (ds.ticket_days <= 60))

    def test_empty_range_raises(self, small_result):
        with pytest.raises(ValueError):
            build_locator_dataset(small_result, 0, 1)
