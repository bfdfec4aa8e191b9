"""The signed decision log: an append-only, hash-chained audit trail.

Every lifecycle action -- bootstrap, retrain, promote, hold, rollback --
appends one JSON record to a ``.jsonl`` file.  Records are chained the
way a ledger is: each carries the SHA-256 of its canonicalised content
*including the previous record's hash*, so editing, dropping, or
reordering any historical decision invalidates every later hash and
:meth:`DecisionLog.verify` pinpoints the first broken link.  (No key
material is involved -- the "signature" is tamper-*evidence*, not
tamper-*proofing*, which is the right tool for a single-operator audit
trail.)

The log lives next to the model registry by default
(``<registry_root>/LIFECYCLE.jsonl``) so the ``/lifecycle`` service
endpoint and ``repro lifecycle status`` can reconstruct the full story
from the serving directories alone.  Appends and recovery go through
:mod:`repro.durable`: a crash mid-append leaves an unterminated tail that
the next open truncates, while a complete line that fails to parse is
kept and reported by :meth:`DecisionLog.verify` as tampering.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.durable import append_record, read_records

__all__ = ["DecisionRecord", "DecisionLog", "DEFAULT_LOG_NAME"]

#: File name of the decision log inside a registry root.
DEFAULT_LOG_NAME = "LIFECYCLE.jsonl"

_GENESIS = "0" * 64


def _canonical(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class DecisionRecord:
    """One chained lifecycle decision.

    Attributes:
        seq: 0-based position in the log.
        action: ``bootstrap`` | ``retrain`` | ``promote`` | ``hold`` |
            ``rollback`` (free-form for forward compatibility).
        week: the pipeline week the decision was taken at.
        at: wall-clock timestamp.
        details: free-form JSON evidence (shadow metrics, gate verdict,
            cited registry versions/events, ...).
        prev_hash: hash of the preceding record (64 zeros at genesis).
        hash: SHA-256 over (prev_hash + canonical body).
    """

    seq: int
    action: str
    week: int
    at: float
    details: dict[str, Any]
    prev_hash: str
    hash: str

    def body(self) -> dict[str, Any]:
        """The hashed content (everything except ``hash`` itself)."""
        return {
            "seq": self.seq,
            "action": self.action,
            "week": self.week,
            "at": self.at,
            "details": self.details,
            "prev_hash": self.prev_hash,
        }

    def expected_hash(self) -> str:
        return hashlib.sha256(_canonical(self.body()).encode()).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        return {**self.body(), "hash": self.hash}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DecisionRecord":
        return cls(
            seq=int(payload["seq"]),
            action=str(payload["action"]),
            week=int(payload["week"]),
            at=float(payload["at"]),
            details=dict(payload["details"]),
            prev_hash=str(payload["prev_hash"]),
            hash=str(payload["hash"]),
        )


class DecisionLog:
    """Append-only JSONL decision ledger with hash-chain verification."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._records: list[DecisionRecord] = []
        # Complete lines that do not parse: never dropped, only reported
        # by ``verify`` (recovery truncates nothing but a torn tail).
        self._unreadable: list[int] = []
        for lineno, line in enumerate(read_records(self.path)):
            try:
                self._records.append(DecisionRecord.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                self._unreadable.append(lineno)

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[DecisionRecord]:
        return list(self._records)

    @property
    def head_hash(self) -> str:
        return self._records[-1].hash if self._records else _GENESIS

    def append(
        self, action: str, week: int, **details: Any
    ) -> DecisionRecord:
        """Chain and persist one decision; returns the sealed record."""
        body = {
            "seq": len(self._records),
            "action": action,
            "week": int(week),
            "at": time.time(),
            "details": details,
            "prev_hash": self.head_hash,
        }
        digest = hashlib.sha256(_canonical(body).encode()).hexdigest()
        record = DecisionRecord(hash=digest, **body)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        append_record(self.path, (_canonical(record.to_dict()) + "\n").encode())
        self._records.append(record)
        return record

    def verify(self) -> list[str]:
        """Check the whole chain; returns problems (empty = intact)."""
        problems = [
            f"line {lineno}: not a decision record" for lineno in self._unreadable
        ]
        prev = _GENESIS
        for i, record in enumerate(self._records):
            if record.seq != i:
                problems.append(
                    f"record {i}: sequence says {record.seq}, expected {i}"
                )
            if record.prev_hash != prev:
                problems.append(
                    f"record {i}: prev_hash does not match record {i - 1}"
                )
            if record.hash != record.expected_hash():
                problems.append(f"record {i}: content hash mismatch")
            prev = record.hash
        return problems

    def to_dicts(self) -> list[dict[str, Any]]:
        return [r.to_dict() for r in self._records]
