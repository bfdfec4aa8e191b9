"""The harness: seeded inputs and fixture models for the workloads.

Nothing here is part of the measured system.  The simulator stands in
for the operator's line-test and ticket feeds, and the fixture models
stand in for "last week's champion".  :func:`prepare` runs the harness
in a child process, so its memory never counts toward the
measured process's peak RSS and its time is reported on its own
(``netsim.generate_s``), never inside ``setup_s``.

Files written into the work directory:

* ``week_WWWWW.npy`` / ``tickets_WWWWW.npy`` -- one Saturday campaign of
  the streamed plant (Table-2 matrix, last-ticket-day vector);
* ``bundle.json`` -- the fixture :class:`~repro.serve.ModelBundle`;
* ``harness.json`` -- what was built and how long generation took.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

import numpy as np

import child

from repro.core.locator import (
    N_DISPOSITIONS,
    N_LOCATIONS,
    CombinedLocator,
    LocatorConfig,
)
from repro.core.predictor import PredictorConfig, TicketPredictor
from repro.data.splits import paper_style_split
from repro.features.encoding import EncoderConfig, LineFeatureEncoder
from repro.ml.boostexter import BStump, BStumpConfig, WeakLearner
from repro.ml.calibration import PlattCalibrator
from repro.ml.stumps import Stump
from repro.netsim import (
    DslSimulator,
    PopulationConfig,
    SimulationConfig,
    WeekBlock,
    stream_weeks,
)
from repro.netsim.groupfaults import GroupFaultConfig
from repro.serve import ModelBundle

#: Weeks of the fixture predictor's training world and its split
#: (history 8, train 3, selection 2, test 4, horizon 4).
FIXTURE_WEEKS = 21
SPLIT = {"history": 8, "train": 3, "selection": 2, "test": 4}


def sub_seed(seed: int, tag: str) -> int:
    """A stable 31-bit seed for one named input stream of a run."""
    entropy = [seed, *tag.encode()]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0] >> 1)


def split_for(n_weeks: int):
    return paper_style_split(n_weeks, **SPLIT)


def fixture_world(seed: int, n_lines: int, fault_rate_scale: float = 3.0):
    """A ``DslSimulator`` world of ``FIXTURE_WEEKS`` weeks."""
    return DslSimulator(SimulationConfig(
        n_weeks=FIXTURE_WEEKS,
        population=PopulationConfig(
            n_lines=n_lines, seed=sub_seed(seed, "population")
        ),
        fault_rate_scale=fault_rate_scale,
        seed=sub_seed(seed, "simulation"),
    )).run()


def fixture_predictor(seed: int, n_lines: int, rounds: int, capacity: int):
    """The champion fixture: the predictor trained with ``backend="hist"``."""
    result = fixture_world(sub_seed(seed, "fixture"), n_lines)
    config = PredictorConfig(
        capacity=capacity, backend="hist", train_rounds=rounds
    )
    return TicketPredictor(config).fit(result, split_for(FIXTURE_WEEKS))


def synthetic_locator(rng, n_features: int, n_rounds: int):
    """A production-shaped combined locator without paying for a fit.

    52 disposition heads and 4 location heads of ``n_rounds`` random
    stumps over the encoded base columns, uniform Platt calibrators and
    mild Eq.-2 blends: the stacked multi-head scoring path runs exactly
    as it does for a trained locator.
    """

    def head() -> BStump:
        model = BStump(BStumpConfig(n_rounds=n_rounds, calibrate=False))
        model.n_features_ = n_features
        model.learners = [
            WeakLearner(
                stump=Stump(
                    feature=int(rng.integers(n_features)),
                    threshold=float(rng.normal(loc=10.0, scale=4.0)),
                    s_lo=float(rng.normal(scale=0.1)),
                    s_hi=float(rng.normal(scale=0.1)),
                    s_miss=float(rng.normal(scale=0.05)),
                    categorical=False,
                    z=1.0,
                ),
                round_index=r,
                z=1.0,
            )
            for r in range(n_rounds)
        ]
        model.train_z_ = [1.0] * n_rounds
        return model

    locator = CombinedLocator(LocatorConfig(n_rounds=n_rounds))
    prior = rng.random(N_DISPOSITIONS) + 0.1
    locator.flat.prior_ = prior / prior.sum()
    for code in range(N_DISPOSITIONS):
        locator.flat.models_[code] = head()
        calibrator = PlattCalibrator()
        calibrator.a, calibrator.b, calibrator.fitted_ = -1.0, 0.0, True
        locator.flat.calibrators_[code] = calibrator
        locator.blend_[code] = (1.0, 0.5, float(rng.normal(scale=0.1)))
    for loc in range(N_LOCATIONS):
        locator.location_models_[loc] = head()
    return locator


def plant_config(seed: int, n_lines: int, n_weeks: int):
    """The streamed plant: group faults on, so shared-plant events exist."""
    return SimulationConfig(
        n_weeks=n_weeks,
        population=PopulationConfig(
            n_lines=n_lines, seed=sub_seed(seed, "plant-population")
        ),
        fault_rate_scale=2.0,
        group_faults=GroupFaultConfig(
            n_dslam_events=4, n_binder_events=8, event_window=(0.0, 0.7),
            seed=sub_seed(seed, "plant-groups"),
        ),
        seed=sub_seed(seed, "plant"),
    )


def write_plant(config, out: Path) -> list[int]:
    """Stream the plant, write one file pair per week; returns the days."""
    feats: dict[int, list] = {}
    lasts: dict[int, list] = {}
    days: dict[int, int] = {}
    for block in stream_weeks(config, chunk_lines=65_536):
        feats.setdefault(block.week, []).append(block.features)
        lasts.setdefault(block.week, []).append(block.last_ticket_day)
        days[block.week] = int(block.day)
    for week in sorted(feats):
        np.save(out / f"week_{week:05d}.npy", np.concatenate(feats[week]))
        np.save(out / f"tickets_{week:05d}.npy", np.concatenate(lasts[week]))
    return [days[week] for week in sorted(days)]


def load_week(out: Path, week: int, day: int):
    """One campaign written by :func:`write_plant`, as a whole-plant block."""
    features = np.load(out / f"week_{week:05d}.npy")
    return WeekBlock(
        week=week, day=day, start=0, stop=features.shape[0],
        features=features,
        last_ticket_day=np.load(out / f"tickets_{week:05d}.npy"),
    )


def build(spec: dict, out_dir: str) -> None:
    """Child-process entry: build everything ``spec`` asks for."""
    out = Path(out_dir)
    seed = spec["seed"]
    report: dict = {}
    start = time.perf_counter()
    if spec.get("plant_lines"):
        config = plant_config(seed, spec["plant_lines"], spec["plant_weeks"])
        report["days"] = write_plant(config, out)
    report["generate_s"] = time.perf_counter() - start

    start = time.perf_counter()
    predictor = fixture_predictor(
        seed, spec["fixture_lines"], spec["fixture_rounds"], spec["capacity"]
    )
    locator = None
    if spec.get("locator_rounds"):
        rng = np.random.default_rng(sub_seed(seed, "locator"))
        width = LineFeatureEncoder(EncoderConfig()).base_feature_count()
        locator = synthetic_locator(rng, width, spec["locator_rounds"])
    bundle = ModelBundle(
        predictor=predictor, locator=locator, meta={"fixture": True, "seed": seed}
    )
    (out / "bundle.json").write_text(json.dumps(bundle.to_dict()))
    report["fixture_s"] = time.perf_counter() - start
    report["fixture_columns"] = predictor.recipes.n_columns
    (out / "harness.json").write_text(json.dumps(report))


def prepare(spec: dict, out: Path, timeout_s: float = 600.0) -> dict:
    """Run :func:`build` in a child process; returns its ``harness.json``."""
    process = child.start("harness", json.dumps(spec), out)
    try:
        code = process.wait(timeout_s)
    except subprocess.TimeoutExpired:
        raise RuntimeError("harness child timed out") from None
    finally:
        child.stop(process)
    if code != 0:
        raise RuntimeError(f"harness child failed (exit code {code})")
    # Write back the inputs now, not in the background of the timed phases.
    os.sync()
    return json.loads((out / "harness.json").read_text())


def load_bundle(out: Path):
    """The fixture bundle written by :func:`build`."""
    return ModelBundle.from_dict(json.loads((out / "bundle.json").read_text()))
