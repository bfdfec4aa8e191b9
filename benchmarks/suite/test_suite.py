"""Self-tests of the benchmark suite.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/suite -q

(``benchmarks/conftest.py`` imports the package, hence ``PYTHONPATH``.)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
sys.path[:0] = [str(SUITE), str(ROOT / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402


# ----- percentiles ------------------------------------------------------------


def test_percentile_interpolates_linearly():
    samples = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert measure.percentile(samples, 0) == 1.0
    assert measure.percentile(samples, 50) == 3.0
    assert measure.percentile(samples, 100) == 5.0
    assert measure.percentile(samples, 75) == 4.0
    assert measure.percentile([1.0, 2.0], 50) == 1.5
    with pytest.raises(ValueError):
        measure.percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (9999, 99.0), (10_000, 99.9),
])
def test_tail_needs_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n)]
    point = measure.tail(samples)
    if expected is None:
        assert point is None
        return
    q, value = point
    assert q == expected
    assert value == measure.percentile(samples, q)
    beyond = sum(1 for s in samples if s > value)
    assert beyond >= measure.TAIL_MIN_BEYOND


def test_summary_quartiles_and_spread():
    stats = measure.summary([10.0, 11.0, 12.0, 13.0, 14.0])
    assert stats["median"] == 12.0
    assert stats["spread"] == pytest.approx((stats["q3"] - stats["q1"]) / 12.0)
    assert measure.summary([5.0])["spread"] == 0.0


# ----- seeded request plan ----------------------------------------------------


def test_request_plan_is_deterministic_per_seed():
    first = serve.request_plan(7, 1_000, 29, n=2_000)
    assert first == serve.request_plan(7, 1_000, 29, n=2_000)
    assert first != serve.request_plan(8, 1_000, 29, n=2_000)
    routes = [route for route, _, _ in first]
    for route, share in serve.MIX:
        assert routes.count(route) / len(routes) == pytest.approx(share, abs=0.04)
    for route, target, line in first:
        assert target.endswith("week=29")
        assert 0 <= line < 1_000
        if route == "locate_batch":
            ids = target.split("lines=")[1].split("&")[0].split(",")
            assert len(ids) == serve.BATCH_LINES
            assert int(ids[0]) == line


# ----- remainder arithmetic ---------------------------------------------------


def _span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "parent": parent, "trace_id": "t",
            "start": start, "end": end}


def test_attribution_sums_to_the_op_total():
    spans = [
        _span("op", "op", 0.0, 10.0),
        _span("a", "layer.a", 1.0, 4.0, "op"),
        _span("b", "layer.b", 5.0, 9.0, "op"),
        _span("c", "layer.c", 6.0, 7.0, "b"),
        {"id": "p", "name": "program.x", "parent": "a", "duration": 2.5,
         "source": "program"},
        {"id": "q", "name": "program.y", "parent": "p", "duration": 1.0,
         "source": "program"},
        _span("op2", "op", 20.0, 22.0),
        _span("a2", "layer.a", 20.5, 21.0, "op2"),
    ]
    table = measure.attribute(spans, "op")
    assert table["ops"] == 2
    assert table["total"] == pytest.approx(12.0)
    assert table["layers"] == pytest.approx(
        {"layer.a": 3.5, "layer.b": 3.0, "layer.c": 1.0}
    )
    assert table["unattributed"] == pytest.approx(3.0 + 1.5)
    assert sum(table["layers"].values()) + table["unattributed"] == \
        pytest.approx(table["total"])
    # Program spans are a breakdown of their layer, not extra layers.
    assert table["program"] == {"layer.a": {"program.x": 2.5, "program.y": 1.0}}
    text = measure.format_attribution(table, "op.unattributed")
    assert "op.unattributed" in text and "62.5% attributed" in text


def test_self_time_counts_overlapping_children_once():
    parent = _span("p", "p", 0.0, 10.0)
    kids = [_span("x", "x", 1.0, 5.0, "p"), _span("y", "y", 3.0, 12.0, "p")]
    assert measure.self_time(parent, kids) == pytest.approx(1.0)


def test_span_log_nests_and_shares_the_trace_id():
    log = measure.SpanLog(True)
    with log.span("outer", trace_id="week3"):
        with log.span("inner"):
            pass
    inner, outer = log.spans
    assert inner["parent"] == outer["id"]
    assert inner["trace_id"] == outer["trace_id"] == "week3"
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    disabled = measure.SpanLog(False)
    with disabled.span("ignored") as record:
        assert record is None
    assert disabled.spans == []


# ----- failure counting -------------------------------------------------------


def test_checks_count_failures():
    checks = measure.Checks()
    assert checks.record(True, "fine")
    assert not checks.record(False, "broken")
    assert (checks.attempted, checks.failed, checks.failures) == \
        (2, 1, ["broken"])


def test_serve_output_checks_count_each_bad_answer():
    state = SimpleNamespace(
        checks=measure.Checks(), version="v0002", reference=[0.25, 0.5]
    )

    def check(route, status, payload):
        body = payload if isinstance(payload, bytes) else \
            json.dumps(payload).encode()
        serve._Serve.check(state, route, f"/{route}?line=1", status, body)

    good = {"line": 1, "p_ticket": 0.5, "model_version": "v0002"}
    check("score", 200, good)
    assert state.checks.failed == 0
    check("score", 503, good)                                # status
    check("score", 200, b"{not json")                        # JSON
    check("explain", 200, {"model_version": "v0001"})        # stale model
    check("score", 200, {**good, "p_ticket": 0.4999})        # wrong score
    assert state.checks.failed == 4
    assert state.checks.attempted == 3 + 1 + 2 + 2 + 3


# ----- BENCHMARK.json and the runner -------------------------------------------


def test_benchmark_json_matches_the_suite():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/suite/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == run.PER_LAYER


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "retrain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert "correct" not in child.stdout


#: Runs its arguments as a child subreaper (Linux), so every process the
#: run leaves behind is re-parented here; exits 99 if there were any.
_REAPER = """
import ctypes, os, subprocess, sys
if ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) != 0:
    sys.exit(98)  # PR_SET_CHILD_SUBREAPER unavailable
code = subprocess.run(sys.argv[1:]).returncode
orphans = 0
while True:
    try:
        os.waitpid(-1, 0)
    except ChildProcessError:
        break
    orphans += 1
if orphans:
    print(f"the run left {orphans} process(es) behind", file=sys.stderr)
sys.exit(99 if orphans else code)
"""


def test_smoke_run_reports_every_metric():
    if not sys.platform.startswith("linux"):
        pytest.skip("the orphan check needs PR_SET_CHILD_SUBREAPER")
    child = subprocess.run(
        [sys.executable, "-c", _REAPER,
         sys.executable, str(SUITE / "run.py"), "--workload", "weekly_cycle",
         "--smoke", "--seed", "3", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.PER_LAYER)
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert layers["scoring.score_week_s"] > 0
    assert layers["locator.fit_s"] == 0.0  # idle in this workload
    assert "cycle.unattributed" in child.stdout
