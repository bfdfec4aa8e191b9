"""Both simulation engines pinned byte for byte against recorded digests.

``tests/data/sim_digest_v1.json`` holds SHA-256 digests of everything a
simulation run produces, recorded before :class:`DslSimulator` and the
streaming engine were made to share one weekly block step:

* ``DslSimulator.run`` outputs -- the measurement cube and its Saturday
  days, every ticket field, the IVR calls, the per-line and group
  dispatch records, the ground-truth fault events, the traffic log and
  each group event's cleared day -- for a default ``reach`` world and the
  ``correlated_faults`` scenario (outages escalated from group events);
* a :class:`NevermindPipeline` run with triage on over a world with group
  faults, so the shared RNG is pinned through ``apply_proactive_fixes``
  and ``apply_group_fixes`` between weeks;
* ``stream_weeks`` per-week features and ``last_ticket_day`` for
  ``test_streaming.py``'s plant, unchunked and at ``STREAM_BLOCK_LINES``.

Each digest is checked separately, so a failure names the output that
moved.  Regenerate only on purpose (the file pins the engines' draw
order)::

    PYTHONPATH=src python tests/test_sim_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import NevermindPipeline, PipelineConfig
from repro.core.predictor import PredictorConfig
from repro.fleet.aggregation import TriageConfig
from repro.netsim import STREAM_BLOCK_LINES, stream_weeks
from repro.netsim.groupfaults import GroupFaultConfig
from repro.netsim.population import PopulationConfig
from repro.netsim.scenarios import scenario
from repro.netsim.simulator import DslSimulator, SimulationConfig

GOLDEN = Path(__file__).resolve().parent / "data" / "sim_digest_v1.json"


def _sha(payload) -> str:
    """SHA-256 of raw array bytes, or of a canonical JSON rendering."""
    if isinstance(payload, np.ndarray):
        data = np.ascontiguousarray(payload).tobytes()
    else:
        data = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def _result_digests(result) -> dict[str, str]:
    """One digest per output of a :class:`SimulationResult`."""
    log = result.ticket_log
    tickets = [
        [t.ticket_id, t.line_id, t.day, t.category.value, t.source.value,
         t.fault_disposition, t.fault_onset_day, t.resolved_day,
         t.recorded_disposition]
        for t in log.tickets
    ]
    ivr = [[c.line_id, c.day, c.dslam_id, c.fault_disposition]
           for c in log.ivr_calls]
    dispatches = [
        [r.ticket_id, r.line_id, r.day, r.truck_roll, r.true_disposition,
         r.recorded_disposition, r.fixed]
        for r in result.dispatcher.records
    ]
    group_dispatches = [
        [r.group_kind, r.group_id, r.n_lines, r.day, r.truck_roll,
         r.found_fault, r.fixed]
        for r in result.dispatcher.group_records
    ]
    events = [[e.line_id, e.disposition, e.onset_day, e.cleared_day,
               e.clear_cause] for e in result.fault_events]
    group_cleared = (
        [[e.level, e.group_id, e.cleared_day, e.clear_cause]
         for e in result.group_faults.schedule.events]
        if result.group_faults is not None else None
    )
    traffic = result.traffic
    return {
        "cube": _sha(result.measurements.cube),
        "saturday_day": _sha(result.measurements.saturday_day.astype(np.int64)),
        "tickets": _sha(tickets),
        "ivr_calls": _sha(ivr),
        "dispatches": _sha(dispatches),
        "group_dispatches": _sha(group_dispatches),
        "fault_events": _sha(events),
        "traffic_lines": _sha(np.asarray(traffic.line_ids, dtype=np.int64)),
        "traffic_bytes": _sha(traffic.daily_bytes),
        "group_cleared": _sha(group_cleared),
    }


def _reach_world():
    config = SimulationConfig(
        n_weeks=26,
        population=PopulationConfig(n_lines=4000, seed=5),
        fault_rate_scale=2.0,
        seed=41,
    )
    return DslSimulator(config).run()


def _correlated_world():
    config = scenario("correlated_faults", n_lines=6000, n_weeks=24, seed=27)
    return DslSimulator(config).run()


def _pipeline_world():
    simulation = SimulationConfig(
        n_weeks=18,
        population=PopulationConfig(n_lines=1200, seed=13),
        fault_rate_scale=6.0,
        group_faults=GroupFaultConfig(
            n_dslam_events=1, n_binder_events=2, seed=21,
            event_window=(0.55, 0.8),
        ),
        seed=77,
    )
    predictor = PredictorConfig(
        capacity=30, horizon_weeks=3, train_rounds=30, selection_rounds=3,
        include_derived=False,
    )
    pipeline = NevermindPipeline(
        simulation,
        PipelineConfig(warmup_weeks=13, predictor=predictor,
                       triage=TriageConfig()),
    )
    pipeline.run()
    return pipeline.simulator.result()


WORLDS = {
    "reach": _reach_world,
    "correlated_faults": _correlated_world,
    "pipeline_triage": _pipeline_world,
}


def _streaming_config() -> SimulationConfig:
    """``test_streaming.py``'s plant: group events straddle block edges."""
    return SimulationConfig(
        n_weeks=4,
        population=PopulationConfig(
            n_lines=3 * STREAM_BLOCK_LINES - 1000, seed=13
        ),
        fault_rate_scale=3.0,
        group_faults=GroupFaultConfig(
            n_dslam_events=2,
            n_binder_events=3,
            event_window=(0.0, 0.6),
            seed=29,
        ),
        seed=77,
    )


STREAM_CHUNKS = {"monolithic": None, "block": STREAM_BLOCK_LINES}


def _stream_digests(chunk_lines) -> dict[str, str]:
    """Per-week digests of the assembled streaming matrices."""
    config = _streaming_config()
    feats = [[] for _ in range(config.n_weeks)]
    lasts = [[] for _ in range(config.n_weeks)]
    for blk in stream_weeks(config, chunk_lines=chunk_lines):
        feats[blk.week].append(blk.features)
        lasts[blk.week].append(blk.last_ticket_day)
    digests = {}
    for week in range(config.n_weeks):
        digests[f"features_{week}"] = _sha(np.concatenate(feats[week], axis=0))
        digests[f"last_ticket_day_{week}"] = _sha(np.concatenate(lasts[week]))
    return digests


def build_golden() -> dict:
    return {
        "worlds": {name: _result_digests(build()) for name, build in WORLDS.items()},
        "streaming": {
            name: _stream_digests(chunk) for name, chunk in STREAM_CHUNKS.items()
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_simulator_outputs_match_digest(golden, name):
    got = _result_digests(WORLDS[name]())
    want = golden["worlds"][name]
    assert sorted(got) == sorted(want)
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"{name}: {moved} changed"


@pytest.mark.parametrize("name", sorted(STREAM_CHUNKS))
def test_streaming_outputs_match_digest(golden, name):
    got = _stream_digests(STREAM_CHUNKS[name])
    want = golden["streaming"][name]
    assert sorted(got) == sorted(want)
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"{name}: {moved} changed"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_sim_golden.py --write")
    GOLDEN.write_text(json.dumps(build_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
