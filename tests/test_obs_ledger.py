"""Training, fit phases and the weekly step on the stage ledger.

With tracing off, a :class:`TicketPredictor` fit and ``score_week``, and
each :class:`NevermindPipeline` week, must show up in
``profile_snapshot()`` -- the registry's ``repro_stage_*`` series that
the benches' ``resources.stages`` and the flight recorder read.

With ``REPRO_TRACE`` on, the exported span trees must keep their names
and parent -> child edges.  ``tests/data/trace_edges_v1.json`` holds the
edge lists recorded before these blocks moved from a trace-only span to
``stage()``; regenerate only on purpose::

    PYTHONPATH=src python tests/test_obs_ledger.py --write
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro import PipelineConfig, PopulationConfig, PredictorConfig, SimulationConfig
from repro.core.pipeline import NevermindPipeline
from repro.core.predictor import TicketPredictor
from repro.data.splits import paper_style_split
from repro.netsim.simulator import DslSimulator
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.profile import profile_snapshot, reset_profiles
from repro.obs.tracing import Tracer, set_tracer, set_tracing
from repro.serve import ModelBundle, ScoringEngine, StoredWorld, snapshot_result
from repro.serve.scoring import score_bundles

GOLDEN = Path(__file__).resolve().parent / "data" / "trace_edges_v1.json"

_WEEKS = 16
_WARMUP = 13


def _sim_config() -> SimulationConfig:
    return SimulationConfig(
        n_weeks=_WEEKS,
        population=PopulationConfig(n_lines=300, seed=3),
        fault_rate_scale=5.0,
        seed=41,
    )


def _predictor_config(include_derived: bool) -> PredictorConfig:
    return PredictorConfig(
        capacity=15, horizon_weeks=3, train_rounds=8, selection_rounds=2,
        product_pool=4, include_derived=include_derived,
    )


def _fit_and_score() -> tuple:
    result = DslSimulator(_sim_config()).run()
    split = paper_style_split(
        _WEEKS, history=6, train=3, selection=2, test=2, horizon_weeks=3
    )
    predictor = TicketPredictor(_predictor_config(True)).fit(result, split)
    predictor.score_week(result, split.test_weeks[0])
    return result, predictor, split.test_weeks[0]


def _serve(fitted: tuple, root: Path) -> None:
    """A stored-week scoring run and a two-bundle shadow run."""
    result, predictor, week = fitted
    world = StoredWorld(snapshot_result(result, root / "store"))
    bundle = ModelBundle(predictor=predictor)
    ScoringEngine(bundle, world, shard_size=100).score_week(week)
    score_bundles({"a": bundle, "b": bundle}, world, week, shard_size=100)


def _pipeline(n_weeks: int | None = None) -> NevermindPipeline:
    pipeline = NevermindPipeline(
        _sim_config(),
        PipelineConfig(
            warmup_weeks=_WARMUP, predictor=_predictor_config(False)
        ),
    )
    pipeline.run(n_weeks)
    return pipeline


def _edges(trees: list[dict]) -> list[list[str]]:
    """Sorted unique ``[parent name, child name]`` pairs ("" for roots)."""
    found: set[tuple[str, str]] = set()

    def walk(nodes: list[dict], parent: str) -> None:
        for node in nodes:
            found.add((parent, node["name"]))
            walk(node["children"], node["name"])

    walk(trees, "")
    return [list(edge) for edge in sorted(found)]


def _traced(run) -> tuple[list[list[str]], object]:
    """Edges of the span trees ``run()`` records with tracing on, and
    what ``run()`` returned."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    set_tracing(True)
    try:
        value = run()
        return _edges(tracer.export()), value
    finally:
        set_tracing(None)
        set_tracer(previous)


def build_golden(root: Path) -> dict[str, list[list[str]]]:
    fit_edges, fitted = _traced(_fit_and_score)
    return {
        "fit_and_score": fit_edges,
        "pipeline": _traced(_pipeline)[0],
        "serve": _traced(lambda: _serve(fitted, root))[0],
    }


@pytest.fixture()
def ledger():
    """A fresh global registry, tracing forced off, stage series cleared."""
    previous = set_registry(MetricsRegistry())
    set_tracing(False)
    reset_profiles()
    try:
        yield
    finally:
        reset_profiles()
        set_tracing(None)
        set_registry(previous)


def test_fit_and_score_reach_the_ledger_with_tracing_off(ledger):
    _fit_and_score()
    stages = profile_snapshot()
    for name in (
        "predict.fit", "predict.select_base", "predict.select_derived",
        "predict.final_train", "train.fit", "train.search_setup",
        "train.boost_rounds", "predict.encode", "predict.score",
        "select.ap_scoring",
    ):
        assert stages[name]["calls"] >= 1, name
    assert stages["predict.fit"]["calls"] == 1
    assert stages["predict.score"]["calls"] == 1
    # The fit phases run inside the fit, so they cannot outlast it.
    phases = sum(
        stages[f"predict.{phase}"]["wall_seconds"]
        for phase in ("select_base", "select_derived", "final_train")
    )
    assert phases <= stages["predict.fit"]["wall_seconds"]


def test_each_pipeline_week_is_one_ledger_call(ledger):
    pipeline = _pipeline(_WARMUP - 1)  # the weeks before the first fit
    assert not pipeline.reports
    reset_profiles()
    pipeline.run(3)
    assert len(pipeline.reports) == 3
    stages = profile_snapshot()
    assert stages["pipeline.week"]["calls"] == 3
    assert stages["pipeline.score"]["calls"] == 3


def test_span_names_and_nesting_match_the_recorded_edges(tmp_path):
    assert build_golden(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_obs_ledger.py --write")
    with tempfile.TemporaryDirectory() as scratch:
        golden = build_golden(Path(scratch))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
