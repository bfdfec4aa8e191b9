"""The line-week store: append-only columnar storage of weekly campaigns.

The paper's deployment (Fig. 3) separates *collection* -- every Saturday a
line-test campaign snapshots the Table-2 features of millions of lines --
from *scoring*, which may run on different machines and must never
re-simulate or re-measure.  This module is that boundary: a directory of
memory-mapped ``.npy`` shards plus a small JSON manifest, written once per
week and read back arbitrarily often.

Layout::

    store_root/
      manifest.json            # schema, population config, week index
      week_00012.npy           # (n_lines, 25) float32 line-test matrix
      tickets_00012.npy        # (n_lines,) int64 last-ticket-day vector

Per week the store holds the raw measurement matrix *and* the per-line
"most recent customer ticket day before this Saturday" vector, which is
the only ticket-log derivative the Table-3 encoder needs; together with
the population config (the simulated plant is rebuilt deterministically
from its seed) a stored week encodes to *bit-identical* features -- and
therefore bit-identical scores and dispatch lists -- as the in-memory
batch pipeline.  Shards are checksummed (SHA-256 of the raw bytes) and
verified on read, and the manifest is replaced through
:func:`repro.durable.atomic_write` so a crashed writer never corrupts the
index.

Two write paths share one incremental shard writer: :meth:`append_week`
takes a whole week in memory, :meth:`append_week_chunks` drains the
streaming simulator's per-chunk blocks so a million-line week is written
without ever existing as one array.  Both fsync every shard before the
manifest entry that references it is published -- the manifest is the
commit point, so a crash between data and index can truncate unpublished
files but never leave the index pointing at torn bytes.  Chunked and
whole-week appends produce byte-identical ``.npy`` files and checksums.

On the read side, :meth:`LineWeekStore.read_rows_into` serves a
contiguous row range, or a sorted set of row ids run by run, straight
from disk offsets (no mmap, so touched pages never accumulate in RSS).
:class:`StoredWorld` reads out of core: scoring shards, chunked encodes
and per-line reads each read only their own rows of every stored week,
in place into that week's contiguous block of a week-major cube, and
nothing ever assembles the plant's ``(n_weeks, n_lines, 25)`` cube.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.lib import format as _npy_format

from repro.durable import atomic_write
from repro.features.encoding import FeatureSet, LineFeatureEncoder
from repro.measurement.records import FEATURE_NAMES, N_FEATURES, MeasurementStore
from repro.netsim.population import Population, PopulationConfig, build_population
from repro.parallel import split_shards

__all__ = [
    "LineWeekStore",
    "StoredWorld",
    "snapshot_result",
    "DEFAULT_SHARD_SIZE",
]

_MANIFEST = "manifest.json"
_FORMAT_VERSION = 1

#: Lines per out-of-core read+encode batch: a scoring shard, and the
#: default row chunk of :meth:`StoredWorld.iter_encode_week`.  A batch
#: holds its rows of every stored week (lines x weeks x 100 B: 25
#: float32 per line-week) plus their float64 encode (83 base columns,
#: 664 B per line); at 29 stored weeks, 4,096 lines is ~12 MB of cube
#: and ~3 MB of features.  Sized by a sweep on the ``weekly_cycle``
#: benchmark (40K lines, 29 weeks, 2 vCPUs; DESIGN.md section 15):
#: against 16,384 lines, 4,096 cuts peak RSS ~156 -> ~99 MB with
#: latency no worse, and 2,048 saves ~7 MB more but runs slower.
DEFAULT_SHARD_SIZE = 4_096


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _ShardWriter:
    """Incremental ``.npy`` writer, byte-identical to ``np.save``.

    The final shape is known up front, so the v1.0 header is written
    first and row chunks are appended sequentially while a running
    SHA-256 accumulates over the data bytes (the store's checksums cover
    data only, matching ``_sha256(array.tobytes())`` on the whole-array
    path).  ``close`` refuses an incomplete shard, fsyncs, and returns
    the checksum -- callers publish the manifest entry only after that.
    """

    def __init__(self, path: Path, shape: tuple[int, ...], dtype) -> None:
        self.path = path
        self._dtype = np.dtype(dtype)
        self._row_shape = tuple(shape[1:])
        self._total_rows = int(shape[0])
        self._rows = 0
        self._hash = hashlib.sha256()
        self._fh = open(path, "wb")
        _npy_format.write_array_header_1_0(
            self._fh,
            {
                "descr": _npy_format.dtype_to_descr(self._dtype),
                "fortran_order": False,
                "shape": tuple(shape),
            },
        )

    @property
    def rows_written(self) -> int:
        return self._rows

    def write(self, chunk: np.ndarray) -> None:
        chunk = np.ascontiguousarray(chunk, dtype=self._dtype)
        if tuple(chunk.shape[1:]) != self._row_shape:
            raise ValueError(
                f"chunk rows must have shape {self._row_shape}, "
                f"got {tuple(chunk.shape[1:])}"
            )
        if self._rows + chunk.shape[0] > self._total_rows:
            raise ValueError(
                f"shard {self.path.name} overflows: "
                f"{self._rows} + {chunk.shape[0]} > {self._total_rows} rows"
            )
        data = chunk.tobytes()
        self._fh.write(data)
        self._hash.update(data)
        self._rows += chunk.shape[0]

    def close(self) -> str:
        """Fsync and return the hex checksum; raises if rows are missing."""
        if self._rows != self._total_rows:
            self._fh.close()
            raise ValueError(
                f"shard {self.path.name} is incomplete: "
                f"{self._rows} of {self._total_rows} rows written"
            )
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        return self._hash.hexdigest()

    def abort(self) -> None:
        if not self._fh.closed:
            self._fh.close()


@dataclass(frozen=True)
class _WeekEntry:
    """One stored campaign, as indexed by the manifest."""

    week: int
    day: int
    measurements: str
    tickets: str
    measurements_checksum: str
    tickets_checksum: str


class LineWeekStore:
    """Append-only weekly snapshots of the line population.

    Create with :meth:`create`, reopen with :meth:`open`; both return a
    handle that can append further weeks (append-only: an existing week
    can never be rewritten).
    """

    def __init__(
        self,
        root: Path,
        n_lines: int,
        population: dict,
        entries: dict[int, _WeekEntry],
    ):
        self.root = root
        self.n_lines = n_lines
        self._population_config = population
        self._entries = entries
        self._layouts: dict[str, tuple[tuple[int, ...], np.dtype, int, str]] = {}

    # ----- lifecycle ------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str | Path,
        n_lines: int,
        population: PopulationConfig,
    ) -> "LineWeekStore":
        """Initialise an empty store directory (must not already exist)."""
        root = Path(root)
        if (root / _MANIFEST).exists():
            raise FileExistsError(f"store already initialised at {root}")
        if n_lines <= 0:
            raise ValueError("n_lines must be positive")
        root.mkdir(parents=True, exist_ok=True)
        store = cls(root, n_lines, asdict(population), {})
        store._write_manifest()
        return store

    @classmethod
    def open(cls, root: str | Path) -> "LineWeekStore":
        """Open an existing store and load its manifest."""
        root = Path(root)
        manifest_path = root / _MANIFEST
        if not manifest_path.exists():
            raise FileNotFoundError(f"no line-week store at {root}")
        manifest = json.loads(manifest_path.read_text())
        version = manifest.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported store format version: {version!r}")
        if manifest.get("feature_names") != list(FEATURE_NAMES):
            raise ValueError("store was written with a different feature schema")
        entries = {
            int(e["week"]): _WeekEntry(
                week=int(e["week"]),
                day=int(e["day"]),
                measurements=e["measurements"],
                tickets=e["tickets"],
                measurements_checksum=e["measurements_checksum"],
                tickets_checksum=e["tickets_checksum"],
            )
            for e in manifest["weeks"]
        }
        return cls(root, int(manifest["n_lines"]), manifest["population"], entries)

    def _write_manifest(self) -> None:
        manifest = {
            "format_version": _FORMAT_VERSION,
            "n_lines": self.n_lines,
            "feature_names": list(FEATURE_NAMES),
            "population": self._population_config,
            "weeks": [
                {
                    "week": e.week,
                    "day": e.day,
                    "measurements": e.measurements,
                    "tickets": e.tickets,
                    "measurements_checksum": e.measurements_checksum,
                    "tickets_checksum": e.tickets_checksum,
                }
                for _, e in sorted(self._entries.items())
            ],
        }
        atomic_write(self.root / _MANIFEST, json.dumps(manifest, indent=1).encode())

    # ----- write path -----------------------------------------------------

    def append_week(
        self,
        week: int,
        day: int,
        features: np.ndarray,
        last_ticket_day: np.ndarray,
    ) -> None:
        """Append one Saturday campaign (refuses to rewrite a stored week).

        Args:
            week: week index of the campaign.
            day: absolute simulation day of the test (the Saturday).
            features: (n_lines, 25) measurement matrix; stored as float32.
            last_ticket_day: per-line day of the most recent customer
                ticket strictly before ``day`` (-1 when none), i.e.
                ``TicketLog.last_ticket_day_before(n_lines, day)``.
        """
        if week < 0:
            raise ValueError(f"week must be >= 0, got {week}")
        if week in self._entries:
            raise ValueError(f"week {week} is already stored (store is append-only)")
        features = np.ascontiguousarray(features, dtype=np.float32)
        if features.shape != (self.n_lines, N_FEATURES):
            raise ValueError(
                f"features must be ({self.n_lines}, {N_FEATURES}), "
                f"got {features.shape}"
            )
        last_ticket_day = np.ascontiguousarray(last_ticket_day, dtype=np.int64)
        if last_ticket_day.shape != (self.n_lines,):
            raise ValueError(
                f"last_ticket_day must be ({self.n_lines},), "
                f"got {last_ticket_day.shape}"
            )
        meas, tick = self._week_writers(week)
        meas.write(features)
        tick.write(last_ticket_day)
        # Shards are durable (fsynced by close) before the manifest entry
        # that references them is published.
        self._publish_week(week, day, meas, tick)
        self._write_manifest()

    def append_week_chunks(self, blocks) -> list[int]:
        """Append one or more weeks incrementally from streamed chunks.

        Drains an iterable of chunk payloads -- anything shaped like the
        streaming simulator's :class:`~repro.netsim.streaming.WeekBlock`
        (attributes ``week``, ``day``, ``start``, ``stop``, ``features``,
        ``last_ticket_day``) -- writing each week's shards as rows
        arrive, so no week is ever held in memory whole.  Per week the
        chunks must cover ``[0, n_lines)`` contiguously and in order;
        different weeks may interleave arbitrarily (the streaming engine
        emits chunk-major).

        Same guarantees as :meth:`append_week`: shards are fsynced before
        the manifest references them, checksums and file bytes are
        identical to a whole-week append of the concatenated rows, and
        the manifest -- published once, after every started week
        completed -- is the commit point: a crash mid-stream leaves the
        store exactly as it was.

        Returns the sorted list of week indices appended.
        """
        pending: dict[int, tuple[int, _ShardWriter, _ShardWriter]] = {}
        try:
            for block in blocks:
                week = int(block.week)
                start, stop = int(block.start), int(block.stop)
                state = pending.get(week)
                if state is None:
                    if week < 0:
                        raise ValueError(f"week must be >= 0, got {week}")
                    if week in self._entries:
                        raise ValueError(
                            f"week {week} is already stored "
                            f"(store is append-only)"
                        )
                    meas, tick = self._week_writers(week)
                    state = pending[week] = (int(block.day), meas, tick)
                day, meas, tick = state
                if int(block.day) != day:
                    raise ValueError(
                        f"week {week} chunks disagree on the campaign day: "
                        f"{day} vs {int(block.day)}"
                    )
                if start != meas.rows_written:
                    raise ValueError(
                        f"week {week} chunks must arrive in row order: "
                        f"expected start {meas.rows_written}, got {start}"
                    )
                features = np.asarray(block.features)
                tickets = np.asarray(block.last_ticket_day)
                if features.shape[0] != stop - start or \
                        tickets.shape[0] != stop - start:
                    raise ValueError(
                        f"week {week} chunk [{start}, {stop}) carries "
                        f"{features.shape[0]} feature rows and "
                        f"{tickets.shape[0]} ticket rows"
                    )
                meas.write(features)
                tick.write(tickets)
        except BaseException:
            for _, meas, tick in pending.values():
                meas.abort()
                tick.abort()
            raise
        for week in sorted(pending):
            day, meas, tick = pending[week]
            self._publish_week(week, day, meas, tick)
        if pending:
            self._write_manifest()
        return sorted(pending)

    def _week_writers(self, week: int) -> tuple[_ShardWriter, _ShardWriter]:
        meas = _ShardWriter(
            self.root / f"week_{week:05d}.npy",
            (self.n_lines, N_FEATURES), np.float32,
        )
        tick = _ShardWriter(
            self.root / f"tickets_{week:05d}.npy",
            (self.n_lines,), np.int64,
        )
        return meas, tick

    def _publish_week(
        self, week: int, day: int, meas: _ShardWriter, tick: _ShardWriter
    ) -> None:
        """Close (fsync) both shards and index the week -- not yet durable
        until the caller rewrites the manifest."""
        self._entries[week] = _WeekEntry(
            week=week,
            day=int(day),
            measurements=meas.path.name,
            tickets=tick.path.name,
            measurements_checksum=meas.close(),
            tickets_checksum=tick.close(),
        )

    # ----- read path ------------------------------------------------------

    @property
    def weeks(self) -> list[int]:
        """Stored week indices, ascending."""
        return sorted(self._entries)

    @property
    def latest_week(self) -> int:
        """The most recent stored week (-1 when empty)."""
        return max(self._entries) if self._entries else -1

    def day_of(self, week: int) -> int:
        """Absolute Saturday day of a stored week."""
        return self._entry(week).day

    def _entry(self, week: int) -> _WeekEntry:
        try:
            return self._entries[week]
        except KeyError:
            raise KeyError(f"week {week} is not in the store") from None

    def _load(self, name: str, checksum: str, mmap: bool) -> np.ndarray:
        path = self.root / name
        array = np.load(path, mmap_mode="r" if mmap else None)
        if not mmap and _sha256(np.ascontiguousarray(array).tobytes()) != checksum:
            raise ValueError(f"shard {name} is corrupted (checksum mismatch)")
        return array

    def week_matrix(self, week: int, mmap: bool = True) -> np.ndarray:
        """(n_lines, 25) float32 measurement matrix of a stored week.

        Memory-mapped by default; pass ``mmap=False`` for an in-memory
        copy with checksum verification.
        """
        entry = self._entry(week)
        return self._load(entry.measurements, entry.measurements_checksum, mmap)

    def last_ticket_day(self, week: int, mmap: bool = True) -> np.ndarray:
        """(n_lines,) last-customer-ticket-day vector of a stored week."""
        entry = self._entry(week)
        return self._load(entry.tickets, entry.tickets_checksum, mmap)

    def _shard_layout(
        self, name: str
    ) -> tuple[tuple[int, ...], np.dtype, int, str]:
        """(shape, dtype, data byte offset, path) of a shard, header parsed
        once."""
        layout = self._layouts.get(name)
        if layout is None:
            path = str(self.root / name)
            with open(path, "rb") as fh:
                version = _npy_format.read_magic(fh)
                if version == (1, 0):
                    shape, fortran, dtype = _npy_format.read_array_header_1_0(fh)
                elif version == (2, 0):
                    shape, fortran, dtype = _npy_format.read_array_header_2_0(fh)
                else:
                    raise ValueError(
                        f"shard {name} has unsupported npy version {version}"
                    )
                if fortran:
                    raise ValueError(f"shard {name} is Fortran-ordered")
                layout = (tuple(shape), dtype, fh.tell(), path)
            self._layouts[name] = layout
        return layout

    def _row_layout(
        self, name: str, start: int, stop: int
    ) -> tuple[tuple[int, ...], np.dtype, int, str]:
        """:meth:`_shard_layout`, after checking ``[start, stop)`` fits."""
        layout = self._shard_layout(name)
        if not 0 <= start <= stop <= layout[0][0]:
            raise ValueError(
                f"row range [{start}, {stop}) outside shard of {layout[0][0]} rows"
            )
        return layout

    def _read_runs_into(self, name: str, runs, out: np.ndarray) -> None:
        """Read each ``(first row, output row, length)`` run of
        :func:`_row_runs` into ``out`` with one positioned read."""
        first, (last, _, count) = runs[0][0], runs[-1]
        shape, dtype, offset, path = self._row_layout(name, first, last + count)
        if (
            out.dtype != dtype
            or out.shape[1:] != tuple(shape[1:])
            or not out.flags.c_contiguous
            or not out.flags.writeable
        ):
            raise ValueError(
                f"out must be a writeable C-contiguous (rows, "
                f"{', '.join(map(str, shape[1:]))}) {dtype} array, got "
                f"{out.shape} {out.dtype}"
            )
        if out.size == 0:
            return
        row_bytes = out.nbytes // out.shape[0]
        buf = memoryview(out).cast("B")
        # Unbuffered: each run is read straight into ``out``, with no
        # read-ahead past a short run.
        with open(path, "rb", buffering=0) as fh:
            for start, at, count in runs:
                view = buf[at * row_bytes:(at + count) * row_bytes]
                fh.seek(offset + start * row_bytes)
                while view:  # a raw read may stop short; 0 bytes is EOF
                    got = fh.readinto(view)
                    if not got:
                        raise ValueError(f"shard {name} is truncated")
                    view = view[got:]

    def _read_week_runs(self, week: int, runs, out: np.ndarray) -> None:
        """:meth:`read_rows_into` with the rows' runs already computed."""
        self._read_runs_into(self._entry(week).measurements, runs, out)

    def _read_rows(self, name: str, start: int, stop: int) -> np.ndarray:
        shape, dtype, *_ = self._row_layout(name, start, stop)
        out = np.empty((stop - start,) + tuple(shape[1:]), dtype=dtype)
        self._read_runs_into(name, _row_runs(start, stop - start), out)
        return out

    def read_rows_into(self, week: int, rows, out: np.ndarray) -> None:
        """Read rows ``[rows, rows + len(out))`` of a week into ``out``,
        or, given a sorted array of unique row ids, those rows.

        Each contiguous run is one unbuffered positioned read of exactly
        its byte range into the caller's buffer (the shard opened once) --
        no mmap, so out-of-core scoring never accumulates touched pages
        in resident memory, and no intermediate copy.  ``out`` must be a
        writeable C-contiguous ``(rows, 25)`` float32 array (e.g. one
        week's block of a week-major cube); raises ``ValueError`` for
        rows outside the shard or a truncated shard file.
        """
        self._read_week_runs(week, _row_runs(rows, out.shape[0]), out)

    def read_rows(self, week: int, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` of a week's measurement matrix.

        A fresh ``(stop - start, 25)`` float32 array equal to
        ``week_matrix(week)[start:stop]``, read by :meth:`read_rows_into`.
        """
        return self._read_rows(self._entry(week).measurements, start, stop)

    def read_ticket_rows(
        self, week: int, rows, stop: int | None = None
    ) -> np.ndarray:
        """Rows ``[rows, stop)`` of a week's last-ticket-day vector, or,
        given a sorted array of unique line ids and no ``stop``, those
        lines' entries (``last_ticket_day(week)[rows]``).

        Positioned reads through the shard's cached layout, as in
        :meth:`read_rows_into` and with its ``ValueError`` rules, so a
        per-line read never re-parses the ``.npy`` header.
        """
        name = self._entry(week).tickets
        if np.ndim(rows) == 0:
            if stop is None:
                raise ValueError("a start row needs a stop row")
            return self._read_rows(name, rows, stop)
        if stop is not None:
            raise ValueError("stop applies to a start row, not to row ids")
        shape, dtype, *_ = self._shard_layout(name)
        out = np.empty((len(rows),) + tuple(shape[1:]), dtype=dtype)
        self._read_runs_into(name, _row_runs(rows, len(rows)), out)
        return out

    def verify(self) -> None:
        """Re-hash every shard against the manifest; raises on mismatch."""
        for week in self.weeks:
            self.week_matrix(week, mmap=False)
            self.last_ticket_day(week, mmap=False)

    def population_config(self) -> PopulationConfig:
        """The plant's population configuration as written at creation."""
        return PopulationConfig(**self._population_config)


def _row_runs(rows, n_rows: int) -> list[tuple[int, int, int]]:
    """``(first row, output row, length)`` of each contiguous run of
    ``rows``: a start row or ``n_rows`` sorted unique ids."""
    if np.ndim(rows) == 0:
        return [(int(rows), 0, n_rows)]
    ids = np.asarray(rows, dtype=np.int64)
    if ids.shape != (n_rows,) or n_rows == 0 or np.any(np.diff(ids) <= 0):
        raise ValueError(f"row ids must be {n_rows} sorted unique ids")
    at = np.flatnonzero(np.diff(ids, prepend=ids[0] - 2) != 1).tolist()
    return [(int(ids[a]), a, b - a) for a, b in zip(at, at[1:] + [n_rows])]


class _StoredTicketView:
    """The one ticket-log query the encoder makes, served from a shard."""

    def __init__(self, last_day: np.ndarray, day: int):
        self._last_day = last_day
        self._day = day

    def last_ticket_day_before(self, n_lines: int, day: int) -> np.ndarray:
        if n_lines != self._last_day.shape[0]:
            raise ValueError(
                f"stored ticket vector covers {self._last_day.shape[0]} lines, "
                f"caller asked for {n_lines}"
            )
        if day != self._day:
            raise ValueError(
                f"stored ticket vector was snapshotted for day {self._day}, "
                f"caller asked for day {day}"
            )
        return np.asarray(self._last_day)


def _population_row_view(full: Population, rows) -> Population:
    """A row view of the population's per-line arrays (zero-copy for a
    slice)."""
    view = object.__new__(Population)
    view.config = full.config
    view.topology = full.topology  # not per-line; unused by the encoder
    view.loop_kft = full.loop_kft[rows]
    view.profile_idx = full.profile_idx[rows]
    view.ambient_noise_db = full.ambient_noise_db[rows]
    view.static_bridge_tap = full.static_bridge_tap[rows]
    view.static_crosstalk = full.static_crosstalk[rows]
    return view


class StoredWorld:
    """Encoder-compatible views over a :class:`LineWeekStore`.

    Rebuilds the population deterministically from the stored config and
    serves :class:`MeasurementStore` views over the week shards, so
    :meth:`encode_week` produces feature matrices bit-identical to
    encoding the live simulation the snapshots came from.

    Reads are out of core: :meth:`shard_measurements` reads only its own
    rows of every stored week from disk, so peak memory is bounded by
    the shard size, not the plant: shard lines x stored weeks x 100 B of
    cube (25 float32 per line-week) plus the shard's encode.  No
    whole-plant cube is ever cached.  ``out_of_core`` is accepted only
    as ``True``, the one residency mode.
    """

    def __init__(self, store: LineWeekStore, out_of_core: bool = True):
        if out_of_core is not True:
            raise ValueError(
                f"StoredWorld always reads its shards from disk; "
                f"out_of_core must be True, got {out_of_core!r}"
            )
        self.store = store
        self._population: Population | None = None

    @property
    def n_lines(self) -> int:
        return self.store.n_lines

    def refresh(self) -> None:
        """Re-read the manifest (picks up weeks appended by a writer)."""
        self.store = LineWeekStore.open(self.store.root)

    def population(self) -> Population:
        """The plant population, rebuilt from the stored seed (cached)."""
        if self._population is None:
            self._population = build_population(self.store.population_config())
        return self._population

    def shard_measurements(self, rows) -> MeasurementStore:
        """A measurement view covering only ``rows``: a contiguous slice
        (a scoring shard) or a sorted array of unique line ids.

        Reads exactly those rows of every stored week from disk
        (positioned reads, no mmap), so a reader never materialises more
        than its own rows.
        """
        if not isinstance(rows, slice):
            return self._read_measurements(rows, len(rows))
        start, stop, step = rows.indices(self.store.n_lines)
        if step != 1:
            raise ValueError("shards must be contiguous row ranges")
        if stop <= start:
            raise ValueError(f"empty shard [{start}, {stop})")
        return self._read_measurements(start, stop - start)

    def _read_measurements(self, rows, n_rows: int) -> MeasurementStore:
        """``n_rows`` rows (from a start row, or sorted unique ids) of
        every stored week, read in place.

        Each stored week's rows land straight in its contiguous block of
        a week-major cube; only the weeks the store does not hold are
        NaN-filled.  The rows' runs are computed once for every week.
        """
        stored = self.store.weeks
        if not stored:
            raise ValueError("the store holds no weeks yet")
        runs = _row_runs(rows, n_rows)
        n_weeks = max(stored) + 1
        cube = np.empty((n_weeks, n_rows, N_FEATURES), dtype=np.float32)
        saturday_day = np.full(n_weeks, -1, dtype=int)
        filled = np.zeros(n_weeks, dtype=bool)
        filled[stored] = True
        for week in range(n_weeks):
            if filled[week]:
                self.store._read_week_runs(week, runs, cube[week])
                saturday_day[week] = self.store.day_of(week)
            else:
                cube[week] = np.nan
        return MeasurementStore.from_week_major(cube, saturday_day, filled)

    def iter_encode_week(
        self,
        week: int,
        encoder: LineFeatureEncoder,
        chunk_lines: int | None = None,
    ):
        """Yield ``(shard, FeatureSet)`` per row chunk of a stored week.

        The streaming form of :meth:`encode_week`: each chunk of
        ``chunk_lines`` lines (default :data:`DEFAULT_SHARD_SIZE`, the
        scoring shard) is read and encoded, yielded and released, so a
        consumer that processes chunks independently (scoring, export)
        never holds the full base-feature matrix -- at paper scale that
        matrix is several times larger than a week of raw measurements.
        """
        if chunk_lines is not None and chunk_lines < 1:
            raise ValueError(f"chunk_lines must be >= 1, got {chunk_lines}")
        day = self.store.day_of(week)
        population = self.population()
        last_day = np.asarray(self.store.last_ticket_day(week))
        for shard in split_shards(
            self.store.n_lines, chunk_lines or DEFAULT_SHARD_SIZE
        ):
            yield shard, encoder.encode(
                self.shard_measurements(shard),
                week,
                _population_row_view(population, shard),
                _StoredTicketView(last_day[shard], day),
            )

    def encode_week(
        self,
        week: int,
        encoder: LineFeatureEncoder,
        chunk_lines: int | None = None,
    ) -> FeatureSet:
        """Table-3 base features for every line at a stored week.

        Assembles the :meth:`iter_encode_week` row chunks into one
        preallocated output -- every encoder operation is row-wise, so
        the chunked matrix is bit-identical to a one-pass encode while
        the world never loads the full week matrix (and never holds two
        copies of the encoded one).  Serving never
        builds this matrix: its per-line reads encode only their rows.
        """
        matrix: np.ndarray | None = None
        first: FeatureSet | None = None
        for shard, piece in self.iter_encode_week(week, encoder, chunk_lines):
            if first is None:
                first = piece
                if shard.stop >= self.store.n_lines:
                    return piece  # single chunk covers the plant
                matrix = np.empty(
                    (self.store.n_lines, piece.matrix.shape[1]),
                    dtype=piece.matrix.dtype,
                )
            matrix[shard] = piece.matrix
        if first is None:
            raise ValueError("the store holds no lines to encode")
        return FeatureSet(
            matrix=matrix,
            names=first.names,
            groups=first.groups,
            categorical=first.categorical,
        )


def snapshot_result(result, root: str | Path) -> LineWeekStore:
    """Write every recorded week of a simulation result into a store.

    Creates the store when ``root`` is empty, otherwise appends only the
    weeks not yet present.  Used by the ``repro snapshot`` CLI and the
    pipeline's persistence hook-free batch export.
    """
    root = Path(root)
    if (root / _MANIFEST).exists():
        store = LineWeekStore.open(root)
        if store.n_lines != result.n_lines:
            raise ValueError(
                f"store covers {store.n_lines} lines, result has {result.n_lines}"
            )
    else:
        store = LineWeekStore.create(
            root, result.n_lines, result.config.population
        )
    measurements = result.measurements
    for week in measurements.filled_weeks:
        week = int(week)
        if week in store._entries:
            continue
        day = int(measurements.saturday_day[week])
        store.append_week(
            week,
            day,
            measurements.week_matrix(week),
            result.ticket_log.last_ticket_day_before(result.n_lines, day),
        )
    return store
