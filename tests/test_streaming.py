"""Streaming generation and out-of-core store: chunk-size invariance.

The paper-scale cycle only works if chunking is *free* -- any chunk size
must produce bit-identical features, ticket vectors, stored shards and
scores.  These tests pin that invariant at every stage: generator,
store, reader, encoder and scorer.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.features.encoding import EncoderConfig, LineFeatureEncoder
from repro.netsim import (
    STREAM_BLOCK_LINES,
    SimulationConfig,
    StreamingSimulator,
    stream_weeks,
)
from repro.netsim.groupfaults import GroupFaultConfig
from repro.netsim.population import PopulationConfig
from repro.serve.store import (
    DEFAULT_SHARD_SIZE,
    LineWeekStore,
    StoredWorld,
    _StoredTicketView,
)

N_LINES = 3 * STREAM_BLOCK_LINES - 1000  # deliberately not block-aligned
N_WEEKS = 4


def _config() -> SimulationConfig:
    """A small plant with group faults that straddle block boundaries."""
    return SimulationConfig(
        n_weeks=N_WEEKS,
        population=PopulationConfig(n_lines=N_LINES, seed=13),
        fault_rate_scale=3.0,
        group_faults=GroupFaultConfig(
            n_dslam_events=2,
            n_binder_events=3,
            event_window=(0.0, 0.6),
            seed=29,
        ),
        seed=77,
    )


def _collect(chunk_lines):
    """Assemble full per-week matrices from a streaming run."""
    feats = [[] for _ in range(N_WEEKS)]
    lasts = [[] for _ in range(N_WEEKS)]
    blocks = []
    for blk in stream_weeks(_config(), chunk_lines=chunk_lines):
        feats[blk.week].append(blk.features)
        lasts[blk.week].append(blk.last_ticket_day)
        blocks.append(blk)
    return (
        [np.concatenate(parts, axis=0) for parts in feats],
        [np.concatenate(parts) for parts in lasts],
        blocks,
    )


@pytest.fixture(scope="module")
def monolithic():
    return _collect(chunk_lines=None)


class TestGeneratorInvariance:
    def test_monolithic_shapes(self, monolithic):
        feats, lasts, blocks = monolithic
        assert len(blocks) == N_WEEKS  # one chunk -> one block per week
        for week, (f, l) in enumerate(zip(feats, lasts)):
            assert f.shape == (N_LINES, 25)
            assert f.dtype == np.float32
            assert l.shape == (N_LINES,)
            assert l.dtype == np.int64
            assert blocks[week].day == week * 7 + 5

    @pytest.mark.parametrize(
        "chunk_lines",
        [STREAM_BLOCK_LINES, 10_000, 2 * STREAM_BLOCK_LINES],
    )
    def test_chunked_bit_identical_to_monolithic(self, monolithic, chunk_lines):
        feats, lasts, _ = monolithic
        c_feats, c_lasts, c_blocks = _collect(chunk_lines)
        for week in range(N_WEEKS):
            assert np.array_equal(c_feats[week], feats[week], equal_nan=True)
            assert np.array_equal(c_lasts[week], lasts[week])
        # a sub-block request rounds UP to one whole block
        if chunk_lines == 10_000:
            starts = sorted({b.start for b in c_blocks})
            assert starts[:2] == [0, 2 * STREAM_BLOCK_LINES]

    def test_group_event_straddles_a_block_boundary(self):
        sim = StreamingSimulator(_config())
        assert sim.group_faults is not None
        straddles = False
        for event in sim.group_faults.schedule.events:
            blocks = set(event.line_ids // STREAM_BLOCK_LINES)
            straddles = straddles or len(blocks) > 1
            day = event.start_day + 20  # well past every onset lag
            full = sim.group_faults.line_strength(day)
            for start in range(0, N_LINES, STREAM_BLOCK_LINES):
                stop = min(start + STREAM_BLOCK_LINES, N_LINES)
                part = sim.group_faults.line_strength_range(day, start, stop)
                assert np.array_equal(part, full[start:stop])
        assert straddles, "fixture config must produce a straddling event"

    def test_tickets_and_faults_actually_fire(self, monolithic):
        _, lasts, _ = monolithic
        assert (lasts[-1] >= 0).sum() > 0  # some lines have ticket history

    def test_chunk_lines_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            list(StreamingSimulator(_config()).run_streaming(chunk_lines=0))


class TestChunkedStore:
    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory, monolithic):
        feats, lasts, blocks = monolithic
        root = tmp_path_factory.mktemp("streams")
        pop = _config().population
        whole = LineWeekStore.create(root / "whole", N_LINES, pop)
        for week in range(N_WEEKS):
            whole.append_week(week, week * 7 + 5, feats[week], lasts[week])
        chunked = LineWeekStore.create(root / "chunked", N_LINES, pop)
        appended = chunked.append_week_chunks(
            stream_weeks(_config(), chunk_lines=STREAM_BLOCK_LINES)
        )
        assert appended == list(range(N_WEEKS))
        return whole, chunked

    def test_shard_files_byte_identical(self, stores):
        whole, chunked = stores
        for week in range(N_WEEKS):
            for prefix in ("week", "tickets"):
                name = f"{prefix}_{week:05d}.npy"
                assert (whole.root / name).read_bytes() == (
                    chunked.root / name
                ).read_bytes()

    def test_checksums_verify_after_reopen(self, stores):
        _, chunked = stores
        reopened = LineWeekStore.open(chunked.root)
        reopened.verify()
        assert reopened.weeks == list(range(N_WEEKS))

    def test_read_rows_matches_full_matrix(self, stores, monolithic):
        feats, lasts, _ = monolithic
        _, chunked = stores
        for start, stop in [(0, 100), (8000, 9000), (N_LINES - 7, N_LINES)]:
            got = chunked.read_rows(1, start, stop)
            assert np.array_equal(got, feats[1][start:stop], equal_nan=True)
            ticks = chunked.read_ticket_rows(1, start, stop)
            assert np.array_equal(ticks, lasts[1][start:stop])

    def test_read_rows_rejects_bad_ranges(self, stores):
        _, chunked = stores
        assert chunked.read_rows(0, 10, 10).shape == (0, 25)
        with pytest.raises(ValueError):
            chunked.read_rows(0, 0, N_LINES + 1)
        with pytest.raises(ValueError):
            chunked.read_rows(0, 50, 10)

    def test_partial_stream_publishes_nothing(self, tmp_path, monolithic):
        feats, lasts, blocks = monolithic

        def bad_stream():
            yield blocks[0]
            raise RuntimeError("disk on fire")

        store = LineWeekStore.create(
            tmp_path / "partial", N_LINES, _config().population
        )
        with pytest.raises(RuntimeError, match="disk on fire"):
            store.append_week_chunks(bad_stream())
        reopened = LineWeekStore.open(store.root)
        assert reopened.weeks == []


def _one_pass_encode(world, dense, week, encoder):
    """The oracle: one ``encoder.encode`` over the whole dense cube,
    ``dense`` (the ``dense_measurements`` factory) of the world's store."""
    store = world.store
    ticket_view = _StoredTicketView(
        store.last_ticket_day(week), store.day_of(week)
    )
    return encoder.encode(
        dense(store), week, world.population(), ticket_view
    )


class TestOutOfCoreWorld:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory, monolithic):
        feats, lasts, _ = monolithic
        root = tmp_path_factory.mktemp("ooc") / "store"
        store = LineWeekStore.create(root, N_LINES, _config().population)
        for week in range(N_WEEKS):
            store.append_week(week, week * 7 + 5, feats[week], lasts[week])
        return store

    def test_encode_week_chunked_matches_dense(self, store, dense_measurements):
        encoder = LineFeatureEncoder(EncoderConfig())
        world = StoredWorld(store)
        ref = _one_pass_encode(world, dense_measurements, N_WEEKS - 1, encoder)
        for chunk_lines in (5_000, 9_999, None):
            got = world.encode_week(N_WEEKS - 1, encoder, chunk_lines=chunk_lines)
            assert np.array_equal(got.matrix, ref.matrix, equal_nan=True)
            assert got.names == ref.names
            assert got.groups == ref.groups

    def test_default_chunk_hashes_like_one_65536_line_chunk(self, store):
        # The default chunk is the scoring shard, several chunks over this
        # plant; one 65,536-line chunk covers it whole.
        assert N_LINES > DEFAULT_SHARD_SIZE
        encoder = LineFeatureEncoder(EncoderConfig(include_quadratic=True))
        world = StoredWorld(store)
        digests = {
            hashlib.sha256(
                world.encode_week(N_WEEKS - 1, encoder, chunk).matrix
            ).hexdigest()
            for chunk in (None, 65_536)
        }
        assert len(digests) == 1

    def test_iter_encode_week_streams_the_same_matrix(
        self, store, dense_measurements
    ):
        encoder = LineFeatureEncoder(EncoderConfig())
        world = StoredWorld(store)
        ref = _one_pass_encode(world, dense_measurements, N_WEEKS - 1, encoder)
        rows = 0
        for shard, piece in world.iter_encode_week(
            N_WEEKS - 1, encoder, chunk_lines=6_000
        ):
            assert np.array_equal(
                piece.matrix, ref.matrix[shard], equal_nan=True
            )
            assert piece.names == ref.names
            rows += piece.matrix.shape[0]
        assert rows == N_LINES

    def test_shard_measurements_match_dense_view(self, store, dense_measurements):
        dense = dense_measurements(store)
        shard = slice(4_000, 12_345)
        o = StoredWorld(store).shard_measurements(shard)
        assert np.array_equal(dense.data[shard], o.data, equal_nan=True)
        assert np.array_equal(
            dense.saturday_day[:N_WEEKS], o.saturday_day[:N_WEEKS]
        )

    def test_out_of_core_is_the_only_mode(self, store):
        StoredWorld(store, out_of_core=True)  # the one mode, spelled out
        for value in (False, None, 1):
            with pytest.raises(ValueError, match="out_of_core"):
                StoredWorld(store, out_of_core=value)

    def test_ooc_rejects_degenerate_shards(self, store):
        ooc = StoredWorld(store)
        with pytest.raises(ValueError):
            ooc.shard_measurements(slice(100, 100))
