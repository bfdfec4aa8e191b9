"""The serve-side score cache: ``(line, week, model_version)`` reads in O(1).

The steady state of the serving subsystem is read-heavy: many ``/score``,
``/locate`` and ``/explain`` lookups against the scores of one Saturday
campaign.  The :class:`~repro.serve.scoring.ScoringEngine` already keeps
a per-instance week cache, but every registry ``activate``/``rollback``
plus ``POST /reload`` replaces the engine -- and with it the cache -- so
the first read after any model event re-ran the full shard scan even when
the active version had not actually changed.

:class:`ScoreCache` is owned by the *service* and survives engine
reloads.  Entries are immutable week-level artefacts keyed by
``(kind, week, model_version)`` -- scored weeks and triage results --
and a per-line read indexes into the cached week vector, so the
effective key of a score lookup is ``(line, week, model_version)``.
Encoded features are not cached: ``/locate`` and ``/explain`` encode
only the lines they name, so no whole-week feature matrix is ever held.

Invalidation is event-driven: the registry notifies its listeners on
``activate``/``rollback`` and the service invalidates on ``reload``,
each time keeping only entries of the version that is (or is becoming)
active; entries are version-pinned and immutable, so keeping the
surviving version's entries warm is always correct.

Eviction is LRU over a bounded entry count; hit/miss/invalidation
counters land on the obs registry (``repro_serve_cache_*``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.obs.metrics import get_registry

__all__ = ["ScoreCache", "DEFAULT_CACHE_ENTRIES"]

#: Week-level entries kept (scores/triage each count as one);
#: a year of weekly campaigns for two versions fits comfortably.
DEFAULT_CACHE_ENTRIES = 256

_KINDS = ("scores", "triage")


class ScoreCache:
    """LRU cache of immutable week-level serving artefacts."""

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple[str, int, str], Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        metrics = get_registry()
        self._hits_total = metrics.counter(
            "repro_serve_cache_hits_total",
            "Score-cache hits, by entry kind",
        )
        self._misses_total = metrics.counter(
            "repro_serve_cache_misses_total",
            "Score-cache misses, by entry kind",
        )
        self._invalidations_total = metrics.counter(
            "repro_serve_cache_invalidations_total",
            "Entries dropped by cache invalidation, by reason",
        )
        self._entries_gauge = metrics.gauge(
            "repro_serve_cache_entries", "Live score-cache entries"
        )

    @staticmethod
    def _key(kind: str, week: int, version: str | None) -> tuple[str, int, str]:
        if kind not in _KINDS:
            raise ValueError(f"unknown cache kind {kind!r}")
        return (kind, int(week), str(version))

    # ----- generic access -------------------------------------------------

    def get(self, kind: str, week: int, version: str | None):
        """The cached entry, or None (counts a hit or a miss)."""
        key = self._key(kind, week, version)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
        if entry is not None:
            self._hits_total.inc(kind=kind)
        else:
            self._misses_total.inc(kind=kind)
        return entry

    def put(self, kind: str, week: int, version: str | None, entry) -> None:
        """Store an immutable week-level artefact (LRU-evicting)."""
        if entry is None:
            raise ValueError("cannot cache None")
        key = self._key(kind, week, version)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            size = len(self._entries)
        self._entries_gauge.set(size)

    def peek(self, kind: str, week: int, version: str | None) -> bool:
        """Whether an entry exists, without touching LRU order or counters."""
        with self._lock:
            return self._key(kind, week, version) in self._entries

    # ----- invalidation ---------------------------------------------------

    def invalidate(self, reason: str, keep_version: str | None = None) -> int:
        """Drop entries made stale by a model event; returns the count.

        With ``keep_version`` given, entries of that version survive:
        versions are immutable once published, so scores computed under
        the surviving version stay exact.  Without it, everything goes.
        """
        with self._lock:
            if keep_version is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                keep = str(keep_version)
                stale = [k for k in self._entries if k[2] != keep]
                dropped = len(stale)
                for key in stale:
                    del self._entries[key]
            self._invalidations += dropped
            size = len(self._entries)
        if dropped:
            self._invalidations_total.inc(dropped, reason=reason)
        self._entries_gauge.set(size)
        return dropped

    # ----- introspection --------------------------------------------------

    def stats(self) -> dict:
        """Hit/miss/size numbers for benchmarks and ``/metrics`` readers."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": self._hits / total if total else 0.0,
                "invalidated": self._invalidations,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
