"""Line-week store: round-trips, append-only discipline, integrity."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.measurement.records import N_FEATURES
from repro.netsim.population import PopulationConfig
from repro.serve import LineWeekStore, StoredWorld, snapshot_result


class TestRoundTrip:
    def test_snapshot_covers_every_filled_week(self, small_result, small_store):
        assert small_store.weeks == [
            int(w) for w in small_result.measurements.filled_weeks
        ]
        assert small_store.n_lines == small_result.n_lines

    def test_matrices_read_back_verbatim(self, small_result, small_store):
        for week in (0, 7, small_store.latest_week):
            live = small_result.measurements.week_matrix(week)
            stored = small_store.week_matrix(week)
            # float32 in, float32 out: bit-identical including NaN pattern
            assert stored.dtype == np.float32
            assert np.array_equal(stored, live, equal_nan=True)

    def test_ticket_vectors_read_back_verbatim(self, small_result, small_store):
        week = small_store.latest_week
        day = small_store.day_of(week)
        assert day == int(small_result.measurements.saturday_day[week])
        live = small_result.ticket_log.last_ticket_day_before(
            small_result.n_lines, day
        )
        assert np.array_equal(small_store.last_ticket_day(week), live)

    def test_reopen_sees_the_same_weeks(self, small_store):
        reopened = LineWeekStore.open(small_store.root)
        assert reopened.weeks == small_store.weeks
        assert reopened.n_lines == small_store.n_lines
        week = reopened.latest_week
        assert np.array_equal(
            reopened.week_matrix(week), small_store.week_matrix(week),
            equal_nan=True,
        )

    def test_snapshot_is_idempotent(self, small_result, small_store):
        again = snapshot_result(small_result, small_store.root)
        assert again.weeks == small_store.weeks


class TestAppendDiscipline:
    @pytest.fixture()
    def empty_store(self, tmp_path):
        return LineWeekStore.create(
            tmp_path / "s", n_lines=10, population=PopulationConfig(n_lines=10)
        )

    def test_duplicate_week_is_rejected(self, empty_store):
        features = np.zeros((10, N_FEATURES), dtype=np.float32)
        tickets = np.full(10, -1)
        empty_store.append_week(3, 27, features, tickets)
        with pytest.raises(ValueError, match="append-only"):
            empty_store.append_week(3, 27, features, tickets)

    def test_shape_validation(self, empty_store):
        with pytest.raises(ValueError, match="features must be"):
            empty_store.append_week(
                0, 6, np.zeros((9, N_FEATURES), dtype=np.float32),
                np.full(10, -1),
            )
        with pytest.raises(ValueError, match="last_ticket_day"):
            empty_store.append_week(
                0, 6, np.zeros((10, N_FEATURES), dtype=np.float32),
                np.full(9, -1),
            )

    def test_create_refuses_existing_store(self, empty_store):
        with pytest.raises(FileExistsError):
            LineWeekStore.create(
                empty_store.root, n_lines=10,
                population=PopulationConfig(n_lines=10),
            )

    def test_open_missing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            LineWeekStore.open(tmp_path / "nowhere")


class TestIntegrity:
    def test_verify_passes_on_a_clean_store(self, small_store):
        small_store.verify()

    def test_corrupted_shard_is_detected(self, tmp_path):
        store = LineWeekStore.create(
            tmp_path / "s", n_lines=4, population=PopulationConfig(n_lines=4)
        )
        store.append_week(
            0, 6, np.ones((4, N_FEATURES), dtype=np.float32), np.full(4, -1)
        )
        shard = store.root / "week_00000.npy"
        data = np.load(shard)
        data[0, 0] = 99.0
        np.save(shard, data)
        with pytest.raises(ValueError, match="checksum"):
            LineWeekStore.open(store.root).verify()

    def test_unsupported_format_version(self, tmp_path):
        store = LineWeekStore.create(
            tmp_path / "s", n_lines=4, population=PopulationConfig(n_lines=4)
        )
        manifest = json.loads((store.root / "manifest.json").read_text())
        manifest["format_version"] = 999
        (store.root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format version"):
            LineWeekStore.open(store.root)


class TestStoredWorld:
    def test_population_rebuilds_from_stored_seed(self, small_result, small_store):
        world = StoredWorld(small_store)
        live = small_result.population
        rebuilt = world.population()
        assert rebuilt.n_lines == live.n_lines
        assert np.array_equal(rebuilt.loop_kft, live.loop_kft)
        assert np.array_equal(rebuilt.profile_idx, live.profile_idx)

    def test_encode_week_matches_live_encoding(
        self, small_result, small_store, small_predictor
    ):
        week = small_store.latest_week
        live = small_predictor.encoder.encode(
            small_result.measurements, week, small_result.population,
            small_result.ticket_log,
        )
        stored = StoredWorld(small_store).encode_week(
            week, small_predictor.encoder
        )
        assert np.array_equal(stored.matrix, live.matrix, equal_nan=True)

    def test_ticket_view_rejects_mismatched_queries(self, small_store):
        world = StoredWorld(small_store)
        week = small_store.latest_week
        view_day = small_store.day_of(week)
        encoder_view = world.encode_week  # smoke: encode still works
        del encoder_view
        from repro.serve.store import _StoredTicketView

        view = _StoredTicketView(small_store.last_ticket_day(week), view_day)
        with pytest.raises(ValueError, match="lines"):
            view.last_ticket_day_before(small_store.n_lines + 1, view_day)
        with pytest.raises(ValueError, match="day"):
            view.last_ticket_day_before(small_store.n_lines, view_day + 1)


class TestOutOfCoreReads:
    """Out-of-core shard reads land in a week-major cube, byte for byte."""

    N_LINES = 1_000
    STORED = (0, 1, 3, 4)  # week 2 is never appended

    @pytest.fixture()
    def store(self, tmp_path):
        rng = np.random.default_rng(7)
        store = LineWeekStore.create(
            tmp_path / "s", n_lines=self.N_LINES,
            population=PopulationConfig(n_lines=self.N_LINES),
        )
        for week in self.STORED:
            features = rng.normal(size=(self.N_LINES, N_FEATURES))
            features[rng.random(self.N_LINES) < 0.2] = np.nan
            features[rng.random(features.shape) < 0.1] = -0.0
            store.append_week(
                week, week * 7 + 5, features.astype(np.float32),
                np.full(self.N_LINES, -1),
            )
        return store

    def test_shards_equal_the_dense_row_view(self, store, dense_measurements):
        from repro.parallel import split_shards

        dense = dense_measurements(store)
        world = StoredWorld(store)
        shards = split_shards(self.N_LINES, 384)
        assert shards[-1].stop - shards[-1].start < 384  # a partial last shard
        for shard in shards:
            d = dense.data[shard]
            o = world.shard_measurements(shard)
            assert o.data.shape == d.shape
            assert o.data.tobytes() == d.tobytes()
            assert np.isnan(o.data[:, 2, :]).all()  # the unstored week
            assert o.saturday_day.tolist() == dense.saturday_day.tolist()
            assert o.filled_weeks.tolist() == list(self.STORED)
            for week in self.STORED:
                assert o.week_matrix(week).flags.c_contiguous
                assert o.week_matrix(week).tobytes() == (
                    store.week_matrix(week)[shard].tobytes()
                )

    def test_read_rows_into_fills_the_caller_buffer(self, store):
        out = np.full((100, N_FEATURES), 7.0, dtype=np.float32)
        store.read_rows_into(3, 250, out)
        assert out.tobytes() == store.week_matrix(3)[250:350].tobytes()
        assert store.read_rows(3, 250, 350).tobytes() == out.tobytes()
        with pytest.raises(ValueError, match="outside"):
            store.read_rows_into(3, self.N_LINES - 50, out)
        with pytest.raises(ValueError, match="float32"):
            store.read_rows_into(3, 0, out.astype(np.float64))
        with pytest.raises(ValueError, match="float32"):
            store.read_rows_into(3, 0, np.empty((N_FEATURES, 100), np.float32).T)

    def test_truncated_week_file_raises(self, store):
        path = store.root / "week_00003.npy"
        path.write_bytes(path.read_bytes()[:-N_FEATURES * 4 * 10])
        ooc = StoredWorld(LineWeekStore.open(store.root))
        ooc.shard_measurements(slice(0, 500))  # rows before the cut still read
        with pytest.raises(ValueError, match="truncated"):
            ooc.shard_measurements(slice(500, self.N_LINES))
        with pytest.raises(ValueError, match="truncated"):
            ooc.shard_measurements(np.array([3, 999]))  # last run past the cut

    def test_id_rows_equal_the_dense_rows(self, store, dense_measurements):
        # Runs of one and of several ids, the first and the last line,
        # and a run across a 384-row shard boundary.
        ids = np.array([0, 1, 2, 17, 380, 381, 382, 383, 384, 700, 999])
        d = dense_measurements(store).data[ids]
        o = StoredWorld(store).shard_measurements(ids)
        assert o.data.tobytes() == d.tobytes()
        assert np.isnan(o.data[:, 2, :]).all()
        for week in self.STORED:
            assert o.week_matrix(week).tobytes() == (
                store.week_matrix(week)[ids].tobytes()
            )
        out = np.empty((ids.size, N_FEATURES), dtype=np.float32)
        store.read_rows_into(4, ids, out)
        assert out.tobytes() == store.week_matrix(4)[ids].tobytes()

    def test_ticket_id_rows_equal_the_stored_vector(self, store):
        ids = np.array([0, 1, 2, 17, 380, 381, 382, 383, 384, 700, 999])
        for week in self.STORED:
            got = store.read_ticket_rows(week, ids)
            expected = np.asarray(store.last_ticket_day(week))[ids]
            assert got.dtype == expected.dtype
            assert got.tolist() == expected.tolist()
            assert store.read_ticket_rows(week, 380, 385).tolist() == (
                expected[4:9].tolist()
            )
        with pytest.raises(ValueError):
            store.read_ticket_rows(1, 380)
        with pytest.raises(ValueError):
            store.read_ticket_rows(1, ids, 999)

    @pytest.mark.parametrize("ids", [
        [5, 3], [3, 3], [-1, 4], [4, 1_000], [],
    ])
    def test_id_rows_must_be_sorted_unique_and_stored(self, store, ids):
        out = np.empty((len(ids), N_FEATURES), dtype=np.float32)
        ids = np.array(ids, dtype=np.int64)
        with pytest.raises(ValueError):
            store.read_rows_into(1, ids, out)
        with pytest.raises(ValueError):
            store.read_ticket_rows(1, ids)
