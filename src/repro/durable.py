"""The one durable-write path every persistent store goes through.

Two write primitives and one recovery rule (DESIGN.md, "Persistence and
crash model"):

* :func:`atomic_write` replaces a whole file: the bytes go to a
  uniquely-named tmp file in the same directory, which is fsynced,
  renamed over the target with ``os.replace``, and the directory is
  fsynced so the rename itself survives a power cut.  A reader sees the
  old file or the new one, never a mixture; a crash leaves at most a
  stray ``.tmp`` that nothing reads.
* :func:`append_record` appends one newline-terminated record with a
  single ``os.write`` on an ``O_APPEND`` descriptor, then fsyncs.  Two
  writers interleave whole records, never bytes.
* :func:`read_records` is the recovery rule: the only damage a crashed
  append can leave is an *unterminated* final fragment, so that fragment
  -- and nothing else -- is truncated away.  A complete line that fails
  to parse is returned like any other: deciding what it means (skip it,
  report tampering) is the caller's job, never the recovery's.
"""

from __future__ import annotations

import os
import secrets
from pathlib import Path

__all__ = ["atomic_write", "append_record", "read_records"]


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data``: tmp, fsync, ``os.replace``, fsync dir."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(6)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    except OSError:
        os.close(fd)
        os.unlink(tmp)
        raise
    os.close(fd)
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def append_record(path: str | Path, line: bytes) -> None:
    """Append one ``\\n``-terminated record with one ``os.write``, fsynced."""
    if not line.endswith(b"\n") or b"\n" in line[:-1]:
        raise ValueError("a record is exactly one newline-terminated line")
    path = Path(path)
    created = not path.exists()
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        written = os.write(fd, line)
        if written != len(line):
            raise OSError(f"short append to {path}: {written} of {len(line)} bytes")
        os.fsync(fd)
    finally:
        os.close(fd)
    if created:
        _fsync_dir(path.parent)


def read_records(path: str | Path) -> list[bytes]:
    """Complete lines of an append log, newline kept; recovers a torn tail.

    A missing file is an empty log.  An unterminated final fragment --
    what a crash mid-append leaves -- is truncated from the file.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return []
    end = raw.rfind(b"\n") + 1
    if end != len(raw):
        with open(path, "r+b") as fh:
            fh.truncate(end)
    return raw[:end].splitlines(keepends=True)
