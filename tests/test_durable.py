"""The durable-write path: primitives, recovery rule, crash injection.

Every persistent store writes through :mod:`repro.durable`.  The crash
tests stand a recording fake in for ``os`` inside that module (and for
the line-week store's shard fsync), run one store operation once to learn
its ``write`` / ``fsync`` / ``replace`` boundaries, then rerun it from
the same starting state killed at each boundary in turn -- and, for
appends, with every strict prefix of the record landed on disk.  After
each kill a fresh handle must open cleanly, show exactly the state before
or after the operation, pass the store's own integrity check, and accept
the next operation.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro.durable as durable
import repro.serve.store as store_module
from repro.cli import main
from repro.durable import append_record, atomic_write, read_records
from repro.lifecycle.decisions import DEFAULT_LOG_NAME, DecisionLog
from repro.measurement.records import N_FEATURES
from repro.ml.boostexter import BStump, BStumpConfig
from repro.ml.serialize import bstump_to_dict, load_bstump, save_bstump
from repro.netsim.population import PopulationConfig
from repro.obs.history import HistoryStore
from repro.serve import LineWeekStore, ModelBundle, ModelRegistry


class SimulatedCrash(BaseException):
    """A kill -9: not an ``Exception``, so no cleanup handler runs."""


class CrashInjector:
    """Stand-in for ``os`` that records write boundaries and can crash.

    ``crash_at`` is the index of the boundary call that never happens;
    when that call is a ``write``, ``torn`` bytes of it land first.
    """

    def __init__(self, crash_at: int | None = None, torn: int = 0):
        self.crash_at = crash_at
        self.torn = torn
        self.calls: list[tuple[str, str]] = []
        self._paths: dict[int, str] = {}

    def __getattr__(self, name):
        return getattr(os, name)

    def _boundary(self, op: str, target: str) -> bool:
        self.calls.append((op, target))
        return len(self.calls) - 1 == self.crash_at

    def open(self, path, flags, mode=0o777):
        fd = os.open(path, flags, mode)
        self._paths[fd] = str(path)
        return fd

    def write(self, fd, data):
        if self._boundary("write", self._paths.get(fd, "<shard>")):
            os.write(fd, bytes(data)[: self.torn])
            raise SimulatedCrash
        return os.write(fd, data)

    def fsync(self, fd):
        if self._boundary("fsync", self._paths.get(fd, "<shard>")):
            raise SimulatedCrash
        os.fsync(fd)

    def replace(self, src, dst):
        if self._boundary("replace", f"{src}->{dst}"):
            raise SimulatedCrash
        os.replace(src, dst)


@contextmanager
def injected(injector: CrashInjector):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(durable, "os", injector)
        mp.setattr(store_module, "os", injector)
        yield injector


def assert_fsync_order(calls: list[tuple[str, str]]) -> None:
    """Each replace follows its tmp file's fsync and precedes a directory
    fsync; each append's write is followed by an fsync of the same file."""
    replaces = [i for i, (op, _) in enumerate(calls) if op == "replace"]
    for i in replaces:
        src, dst = calls[i][1].split("->")
        assert ("fsync", src) in calls[:i], calls
        assert ("fsync", str(Path(dst).parent)) in calls[i + 1:], calls
    for i, (op, target) in enumerate(calls):
        if op == "write" and target.endswith(".jsonl"):
            assert calls[i + 1] == ("fsync", target), calls


def crash_matrix(tmp_path, build, operation, snapshot, check, next_op):
    """Kill ``operation`` at every boundary; return the number of cases.

    ``build(root)`` makes the starting state, ``operation(root)`` runs
    the write through fresh handles, ``snapshot(root)`` reads the state
    through fresh handles, ``check(root)`` asserts integrity and
    ``next_op(root)`` must succeed from either state.
    """
    template = tmp_path / "template"
    build(template)
    before = snapshot(template)

    def fresh(name: str) -> Path:
        root = tmp_path / name
        shutil.copytree(template, root)
        return root

    dry = fresh("dry")
    with injected(CrashInjector()) as probe:
        operation(dry)
    after = snapshot(dry)
    assert after != before
    assert probe.calls, "the operation bypassed repro.durable"
    assert_fsync_order(probe.calls)

    cases = [(i, 0) for i in range(len(probe.calls))]
    for i, (op, target) in enumerate(probe.calls):
        if op == "write" and target.endswith(".jsonl"):
            # every strict prefix of the appended record lands torn
            grown = Path(target).relative_to(dry)
            size = (dry / grown).stat().st_size - (template / grown).stat().st_size
            cases += [(i, k) for k in range(1, size)]

    for n, (crash_at, torn) in enumerate(cases):
        root = fresh(f"case{n}")
        with pytest.raises(SimulatedCrash):
            with injected(CrashInjector(crash_at, torn)):
                operation(root)
        state = snapshot(root)
        assert state in (before, after), (crash_at, torn, probe.calls[crash_at])
        check(root)
        next_op(root)
        check(root)
        shutil.rmtree(root)
    return len(cases)


# ----- the primitives ---------------------------------------------------------


class TestPrimitives:
    def test_atomic_write_replaces_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "f.json"
        atomic_write(path, b"one")
        atomic_write(path, b"two")
        assert path.read_bytes() == b"two"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]

    def test_atomic_write_tmp_names_are_unique(self, tmp_path):
        path = tmp_path / "MANIFEST.json"
        stray = tmp_path / "MANIFEST.json.tmp"
        stray.write_bytes(b"left by a crashed writer")
        names = set()
        with injected(CrashInjector()) as probe:
            atomic_write(path, b"a")
            atomic_write(path, b"b")
        for op, target in probe.calls:
            if op == "replace":
                names.add(target.split("->")[0])
        assert len(names) == 2 and str(stray) not in names
        assert stray.read_bytes() == b"left by a crashed writer"

    def test_append_record_rejects_non_records(self, tmp_path):
        for bad in (b"no newline", b"two\nlines\n"):
            with pytest.raises(ValueError):
                append_record(tmp_path / "log.jsonl", bad)
        assert not (tmp_path / "log.jsonl").exists()

    def test_read_records_truncates_only_an_unterminated_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a": 1}\nnot json\n{"b": 2}\n{"c": 3')
        assert read_records(path) == [b'{"a": 1}\n', b"not json\n", b'{"b": 2}\n']
        assert path.read_bytes() == b'{"a": 1}\nnot json\n{"b": 2}\n'

    def test_read_records_of_missing_file_is_empty(self, tmp_path):
        assert read_records(tmp_path / "absent.jsonl") == []
        assert not (tmp_path / "absent.jsonl").exists()


# ----- crash injection, one store operation at a time ------------------------


N_LINES = 12


def _week(week: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(week)
    return (rng.normal(size=(N_LINES, N_FEATURES)).astype(np.float32),
            rng.integers(-1, 7 * week + 1, size=N_LINES))


def _store_snapshot(root: Path):
    store = LineWeekStore.open(root / "store")
    return [(w, store.day_of(w), store.week_matrix(w, mmap=False).tobytes(),
             store.last_ticket_day(w, mmap=False).tobytes())
            for w in store.weeks]


class TestLineWeekStore:
    def test_append_week(self, tmp_path):
        def build(root):
            store = LineWeekStore.create(
                root / "store", N_LINES, PopulationConfig(n_lines=N_LINES)
            )
            store.append_week(0, 6, *_week(0))

        def operation(root):
            LineWeekStore.open(root / "store").append_week(1, 13, *_week(1))

        def next_op(root):
            LineWeekStore.open(root / "store").append_week(2, 20, *_week(2))

        n = crash_matrix(
            tmp_path, build, operation, _store_snapshot,
            lambda root: LineWeekStore.open(root / "store").verify(), next_op,
        )
        assert n == 6  # two shard fsyncs + the manifest's four boundaries

    def test_append_week_chunks(self, tmp_path):
        # Two weeks, three chunks each, interleaved chunk-major as the
        # streaming engine emits them: four shards in one commit.
        n = crash_matrix(
            tmp_path, _store_with_week_0, _append_chunked_weeks_1_2,
            _store_snapshot, _verify_store,
            lambda root: LineWeekStore.open(root / "store").append_week_chunks(
                _chunks([3])
            ),
        )
        assert n == 8  # four shard fsyncs + the manifest's four boundaries

    def test_append_week_chunks_killed_between_chunks(self, tmp_path):
        template = tmp_path / "template"
        _store_with_week_0(template)
        before = _store_snapshot(template)
        blocks = _chunks([1, 2])
        for k in range(len(blocks) + 1):
            root = tmp_path / f"case{k}"
            shutil.copytree(template, root)

            def killed_after_chunk(k=k):
                yield from blocks[:k]
                raise SimulatedCrash

            with pytest.raises(SimulatedCrash):
                LineWeekStore.open(root / "store").append_week_chunks(
                    killed_after_chunk()
                )
            assert _store_snapshot(root) == before, k
            _verify_store(root)
            # The same stream again, over the partial shards it left.
            _append_chunked_weeks_1_2(root)
            _verify_store(root)
            assert LineWeekStore.open(root / "store").weeks == [0, 1, 2]
            shutil.rmtree(root)


def _chunks(weeks: list[int], rows: int = 5) -> list[SimpleNamespace]:
    """``weeks`` as chunk-major ``WeekBlock``-shaped chunks of ``rows``."""
    data = {week: _week(week) for week in weeks}
    return [
        SimpleNamespace(
            week=week, day=7 * week + 6, start=start,
            stop=min(start + rows, N_LINES),
            features=data[week][0][start:start + rows],
            last_ticket_day=data[week][1][start:start + rows],
        )
        for start in range(0, N_LINES, rows)
        for week in weeks
    ]


def _store_with_week_0(root: Path) -> None:
    store = LineWeekStore.create(
        root / "store", N_LINES, PopulationConfig(n_lines=N_LINES)
    )
    store.append_week(0, 6, *_week(0))


def _append_chunked_weeks_1_2(root: Path) -> None:
    LineWeekStore.open(root / "store").append_week_chunks(_chunks([1, 2]))


def _verify_store(root: Path) -> None:
    LineWeekStore.open(root / "store").verify()


def _registry_snapshot(root: Path):
    registry = ModelRegistry(root / "registry")
    events = [{k: v for k, v in e.items() if k != "at"} for e in registry.events]
    return registry.active, registry.versions, events


def _registry_check(root: Path) -> None:
    ModelRegistry(root / "registry").load()  # verifies the active bundle


class TestModelRegistry:
    @pytest.fixture()
    def bundle(self, small_predictor):
        return ModelBundle(predictor=small_predictor, meta={"week": 3})

    def test_publish(self, tmp_path, bundle):
        def build(root):
            ModelRegistry(root / "registry").publish(bundle, activate=True)

        n = crash_matrix(
            tmp_path, build,
            lambda root: ModelRegistry(root / "registry").publish(bundle),
            _registry_snapshot, _registry_check,
            lambda root: ModelRegistry(root / "registry").publish(
                bundle, activate=True
            ),
        )
        assert n == 8  # bundle and manifest: write, fsync, replace, fsync dir

    def test_activate(self, tmp_path, bundle):
        def build(root):
            registry = ModelRegistry(root / "registry")
            registry.publish(bundle, activate=True)
            registry.publish(bundle)

        crash_matrix(
            tmp_path, build,
            lambda root: ModelRegistry(root / "registry").activate("v0002"),
            _registry_snapshot, _registry_check,
            lambda root: ModelRegistry(root / "registry").publish(
                bundle, activate=True
            ),
        )

    def test_rollback(self, tmp_path, bundle):
        def build(root):
            registry = ModelRegistry(root / "registry")
            registry.publish(bundle, activate=True)
            registry.publish(bundle, activate=True)

        def next_op(root):
            registry = ModelRegistry(root / "registry")
            registry.activate("v0002" if registry.active == "v0001" else "v0001")

        crash_matrix(
            tmp_path, build,
            lambda root: ModelRegistry(root / "registry").rollback(),
            _registry_snapshot, _registry_check, next_op,
        )

    def test_publish_refuses_a_version_another_handle_committed(
        self, tmp_path, bundle
    ):
        first = ModelRegistry(tmp_path / "registry")
        stale = ModelRegistry(tmp_path / "registry")
        first.publish(bundle)
        with pytest.raises(FileExistsError):
            stale.publish(bundle)
        assert ModelRegistry(tmp_path / "registry").load("v0001")


def _log(root: Path) -> DecisionLog:
    return DecisionLog(root / DEFAULT_LOG_NAME)


class TestDecisionLog:
    def test_append(self, tmp_path):
        def build(root):
            root.mkdir()
            log = _log(root)
            log.append("bootstrap", 0, version="v0001")
            log.append("retrain", 4, version="v0002")

        def snapshot(root):
            return [(r.seq, r.action, r.week, r.details)
                    for r in _log(root).records()]

        def check(root):
            assert _log(root).verify() == []

        n = crash_matrix(
            tmp_path, build,
            lambda root: _log(root).append("promote", 8, version="v0002"),
            snapshot, check,
            lambda root: _log(root).append("hold", 9, reason="gate"),
        )
        assert n > 100  # the boundaries plus every torn prefix

    def _chain(self, tmp_path) -> Path:
        log = _log(tmp_path)
        for week, action in enumerate(["bootstrap", "retrain", "promote"]):
            log.append(action, week, version=f"v{week + 1:04d}")
        return tmp_path / DEFAULT_LOG_NAME

    def test_edited_interior_line_is_reported_not_truncated(self, tmp_path):
        path = self._chain(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"retrain"', b'"hold"')
        edited = b"".join(lines)
        path.write_bytes(edited)
        problems = _log(tmp_path).verify()
        assert problems and problems[0].startswith("record 1")
        assert path.read_bytes() == edited

    def test_unparseable_interior_line_is_reported_not_truncated(self, tmp_path):
        path = self._chain(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:40] + b"\n"
        edited = b"".join(lines)
        path.write_bytes(edited)
        log = _log(tmp_path)
        assert len(log) == 2
        assert "line 1: not a decision record" in log.verify()
        assert path.read_bytes() == edited

    def test_torn_tail_is_dropped_on_open(self, tmp_path):
        path = self._chain(tmp_path)
        intact = path.read_bytes()
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 99, "act')
        log = _log(tmp_path)
        assert len(log) == 3 and log.verify() == []
        assert path.read_bytes() == intact


def _history_snapshot(root: Path):
    return [dict(r) for r in HistoryStore(root / "h.jsonl").records()]


def _history_check(root: Path) -> None:
    store = HistoryStore(root / "h.jsonl")
    assert len(store) == len(store.records())


class TestHistoryStore:
    @staticmethod
    def build(root):
        root.mkdir()
        store = HistoryStore(root / "h.jsonl")
        for week in range(6):
            store.append("pipeline_week", {"p": week / 10}, week=week, ts=week)

    def test_append(self, tmp_path):
        crash_matrix(
            tmp_path, self.build,
            lambda root: HistoryStore(root / "h.jsonl").append(
                "serve_tick", {"requests.total": 7.0}, ts=100.0
            ),
            _history_snapshot, _history_check,
            lambda root: HistoryStore(root / "h.jsonl").append(
                "serve_tick", {"requests.total": 8.0}, ts=101.0
            ),
        )

    def test_compact(self, tmp_path):
        crash_matrix(
            tmp_path, self.build,
            lambda root: HistoryStore(root / "h.jsonl").compact(max_records=2),
            _history_snapshot, _history_check,
            lambda root: HistoryStore(root / "h.jsonl").append(
                "serve_tick", {"requests.total": 8.0}, ts=101.0
            ),
        )


class TestSaveBStump:
    def test_save_bstump(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 4))
        y = (X[:, 0] > 0.2).astype(float)
        old = BStump(BStumpConfig(n_rounds=5)).fit(X, y)
        new = BStump(BStumpConfig(n_rounds=9)).fit(X, y)

        def build(root):
            root.mkdir()
            save_bstump(old, root / "model.json")

        crash_matrix(
            tmp_path, build,
            lambda root: save_bstump(new, root / "model.json"),
            lambda root: bstump_to_dict(load_bstump(root / "model.json")),
            lambda root: load_bstump(root / "model.json"),
            lambda root: save_bstump(old, root / "model.json"),
        )


# ----- the operator's view ------------------------------------------------------


class TestLifecycleStatusExitCode:
    def test_status_exits_zero_on_intact_chain_and_one_on_a_broken_one(
        self, tmp_path, capsys
    ):
        registry_root = tmp_path / "registry"
        ModelRegistry(registry_root)
        log = DecisionLog(registry_root / DEFAULT_LOG_NAME)
        log.append("bootstrap", 0, version="v0001")
        log.append("hold", 4, reason="gate")
        with open(registry_root / DEFAULT_LOG_NAME, "ab") as fh:
            fh.write(b'{"seq": 99, "act')  # torn tail: recovered, not a break
        (registry_root / "MANIFEST.json.tmp").write_text("{")

        assert main(["lifecycle", "status", "--root", str(tmp_path)]) == 0
        assert "decision chain intact: True" in capsys.readouterr().out

        path = registry_root / DEFAULT_LOG_NAME
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[0]["week"] = 1
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["lifecycle", "status", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "decision chain intact: False" in out and "problem:" in out
