"""The flight recorder: a persistent, append-only telemetry history.

PR 3's metrics/trace/log pillars evaporate at process exit; this module
keeps the time series that survive it.  A :class:`HistoryStore` is one
JSONL file of *snapshot records* -- one per pipeline week, per lifecycle
decision, per serve sampling tick -- that the dashboard and the
self-monitoring health detector (:mod:`repro.obs.health`) read back
across runs, so "is scoring slower than last month?" has an answer.

Design constraints, in the repo's order:

* **dependency-free** -- stdlib only;
* **append-only and crash-safe** -- every record goes through
  :func:`repro.durable.append_record` (one fsynced ``os.write`` in
  append mode), so two writers interleave whole lines rather than
  bytes; reopening drops only a torn, unterminated final line.  The
  durability rules shared by every store are in DESIGN.md,
  "Persistence and crash model";
* **schema-versioned** -- every record carries ``"v"``; readers skip
  records from a *newer* schema instead of mis-parsing them, so a
  downgrade never corrupts a dashboard;
* **bounded** -- optional retention: :meth:`compact` rewrites the file
  through :func:`repro.durable.atomic_write` keeping the newest
  ``max_records`` and/or dropping records older than
  ``max_age_seconds``; with ``max_records`` set, appends auto-compact
  once the file holds twice that many records, so a long-lived serve
  process cannot grow the file without bound.

Record shape (one JSON object per line)::

    {"v": 1, "ts": 1722945600.0, "kind": "pipeline_week", "week": 17,
     "values": {"precision": 0.45, "wall_seconds.score": 0.012, ...},
     "meta": {...}}                     # meta is optional

``values`` is a flat name -> float mapping; :meth:`HistoryStore.query`
pulls one named series in append order, which is all the EWMA trending
in :mod:`repro.obs.health` needs.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Iterator

from repro.durable import append_record, atomic_write, read_records

__all__ = ["SCHEMA_VERSION", "DEFAULT_FILENAME", "HistoryRecord", "HistoryStore"]

#: Version stamped into every record; readers skip records newer than this.
SCHEMA_VERSION = 1

#: File name used when the store is given a directory instead of a file.
DEFAULT_FILENAME = "history.jsonl"


class HistoryRecord(dict):
    """One snapshot record -- a dict with attribute sugar for hot fields."""

    @property
    def kind(self) -> str:
        return self["kind"]

    @property
    def ts(self) -> float:
        return float(self["ts"])

    @property
    def week(self) -> int | None:
        return self.get("week")

    @property
    def values(self) -> dict[str, float]:
        return self.get("values", {})


class HistoryStore:
    """Append-only JSONL time series of telemetry snapshots.

    Args:
        path: the history file, or a directory (gets
            ``history.jsonl`` inside it).  Parents are created.
        max_records: optional retention bound; appends auto-compact to
            this many records once the file holds twice as many.
    """

    def __init__(self, path: str | Path, max_records: int | None = None):
        path = Path(path)
        if path.suffix != ".jsonl":
            path = path / DEFAULT_FILENAME
        path.parent.mkdir(parents=True, exist_ok=True)
        self.path = path
        if max_records is not None and max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        self.max_records = max_records
        self._lock = threading.Lock()
        # Recovery drops only a torn (unterminated) tail; see DESIGN.md,
        # "Persistence and crash model".
        self._count = len(read_records(self.path))

    # ----- writing --------------------------------------------------------

    def append(
        self,
        kind: str,
        values: dict[str, Any],
        week: int | None = None,
        meta: dict[str, Any] | None = None,
        ts: float | None = None,
    ) -> HistoryRecord:
        """Append one snapshot record; returns it.

        ``values`` are coerced to floats (the query/trending layers are
        numeric); non-coercible entries raise here, at the write site,
        rather than poisoning a reader later.
        """
        record: dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "ts": time.time() if ts is None else float(ts),
            "kind": str(kind),
            "values": {str(k): float(v) for k, v in values.items()},
        }
        if week is not None:
            record["week"] = int(week)
        if meta:
            record["meta"] = meta
        line = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        with self._lock:
            append_record(self.path, line)
            self._count += 1
            over = (
                self.max_records is not None
                and self._count > 2 * self.max_records
            )
        if over:
            self.compact(max_records=self.max_records)
        return HistoryRecord(record)

    # ----- reading --------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def records(
        self, kind: str | None = None, limit: int | None = None
    ) -> list[HistoryRecord]:
        """All records in append order, optionally filtered by kind.

        ``limit`` keeps the *newest* N after filtering.  Unparseable
        lines (another process died mid-write since we last recovered)
        and records from a newer schema version are skipped, not raised.
        """
        out = [r for r in self._iter_records() if kind is None or r.kind == kind]
        if limit is not None:
            out = out[-limit:]
        return out

    def _iter_records(self) -> Iterator[HistoryRecord]:
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            for line in fh:
                try:
                    record = json.loads(line)
                except (ValueError, UnicodeDecodeError):
                    continue
                if not isinstance(record, dict):
                    continue
                if record.get("v", 0) > SCHEMA_VERSION:
                    continue  # written by a newer repro; skip, don't guess
                yield HistoryRecord(record)

    def query(
        self,
        name: str,
        window: int | None = None,
        kind: str | None = None,
    ) -> list[float]:
        """One named value series in append order.

        Args:
            name: key into each record's ``values`` dict; records
                without it are skipped.
            window: keep only the newest N points.
            kind: restrict to one record kind (recommended -- value
                names are namespaced per kind by convention, but a
                filter makes the intent explicit).
        """
        series = [
            float(r.values[name])
            for r in self._iter_records()
            if (kind is None or r.kind == kind) and name in r.values
        ]
        if window is not None:
            series = series[-window:]
        return series

    def kinds(self) -> dict[str, int]:
        """Record counts by kind (dashboard summary line)."""
        counts: dict[str, int] = {}
        for record in self._iter_records():
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts

    # ----- retention ------------------------------------------------------

    def compact(
        self,
        max_records: int | None = None,
        max_age_seconds: float | None = None,
    ) -> int:
        """Rewrite the file keeping only recent records; returns kept count.

        The rewrite is atomic (:func:`repro.durable.atomic_write`), so a
        reader opening the path mid-compaction sees either the old or the
        new file, never a partial one.  Compaction is an owner-side
        operation: a record another handle appends between the read and
        the replace is lost.
        """
        with self._lock:
            kept = list(self._iter_records())
            if max_age_seconds is not None:
                cutoff = time.time() - max_age_seconds
                kept = [r for r in kept if r.ts >= cutoff]
            if max_records is not None:
                kept = kept[-max_records:]
            atomic_write(self.path, b"".join(
                (json.dumps(dict(r), separators=(",", ":")) + "\n").encode()
                for r in kept
            ))
            self._count = len(kept)
            return self._count
