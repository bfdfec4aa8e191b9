"""The training layer pinned bit for bit: selection sweeps and predictor fits.

``tests/data/training_v1.json`` holds, as ``float.hex`` strings:

* ``sweep`` -- the test margins of both selection sweeps
  (:func:`~repro.features.sweep.sweep_chunk_margins` and
  :func:`~repro.features.sweep.hist_sweep_chunk_margins`) under both
  missing policies, with a candidate-split cap (or bin budget) of 16 and
  of 256 on a 200-row training window, so ``n + 1`` sits above the first
  cap and below the second;
* ``ap`` -- :func:`~repro.features.selection.single_feature_ap` scores
  of both sweep backends at two capacities, on the same matrix (its
  infinite test values read as missing);
* ``predictor`` -- one ``exact`` and one ``hist`` :class:`TicketPredictor`
  fit on a small seeded world: every ``selection_scores_`` family (base,
  quadratic, product) and every stump of the final model.

The edge-case matrix has NaN-heavy, all-NaN, constant, +/-inf-bearing
and heavily tied columns next to plain ones, and early stopping ends
some columns' boosting before the last round.  The assertions are
bitwise, so any change to how a boosting rule is computed shows here.

Regenerate only on purpose (the file pins the current training layer)::

    PYTHONPATH=src python tests/test_training_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    DslSimulator,
    PopulationConfig,
    PredictorConfig,
    SimulationConfig,
    TicketPredictor,
    paper_style_split,
)
from repro.features.encoding import FeatureSet
from repro.features.selection import single_feature_ap
from repro.features.sweep import hist_sweep_chunk_margins, sweep_chunk_margins
from repro.ml.binning import BinnedDataset
from repro.ml.stumps import MISSING_POLICIES

GOLDEN = Path(__file__).resolve().parent / "data" / "training_v1.json"

_TRAIN_ROWS = 200
_TEST_ROWS = 120
_SWEEP_ROUNDS = 6
_EARLY_STOP_Z = 0.995
_GRID_CAPS = (16, 256)
_AP_CAPACITIES = (7, 40)
_WEEKS = 16


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


def _edge_columns(rng, n: int) -> np.ndarray:
    """(n, 10) matrix of the regimes the sweeps special-case."""
    plain = rng.normal(size=n)
    nan_heavy = np.where(rng.random(n) < 0.8, np.nan, rng.normal(size=n))
    infs = rng.normal(size=n)
    infs[rng.random(n) < 0.05] = np.inf
    infs[rng.random(n) < 0.05] = -np.inf
    infs[rng.random(n) < 0.1] = np.nan
    ties = rng.integers(0, 4, size=n).astype(float)
    few = np.round(rng.normal(size=n) * 2)
    few[rng.random(n) < 0.2] = np.nan
    # The signal leans on this column, so its Z falls fast and early
    # stopping ends it before the last round.
    strong = rng.normal(size=n)
    return np.column_stack([
        plain,
        nan_heavy,
        np.full(n, np.nan),          # all missing
        np.full(n, 2.5),             # constant
        infs,
        ties,
        few,
        strong,
        rng.exponential(size=n),     # skewed, no ties
        np.where(rng.random(n) < 0.3, np.nan, ties * 0.5),
    ])


def _sweep_problem():
    rng = np.random.default_rng(20101130)
    n = _TRAIN_ROWS + _TEST_ROWS
    X = _edge_columns(rng, n)
    signal = 1.5 * X[:, 7] + 0.4 * np.nan_to_num(X[:, 5]) + rng.normal(size=n)
    y = (signal > 1.0).astype(float)
    return X[:_TRAIN_ROWS], y[:_TRAIN_ROWS], X[_TRAIN_ROWS:], y[_TRAIN_ROWS:]


def _sweep_margins() -> dict:
    X_train, y_train, X_test, _ = _sweep_problem()
    y_signed = np.where(y_train > 0, 1.0, -1.0)
    out = {}
    for policy in MISSING_POLICIES:
        for cap in _GRID_CAPS:
            exact = sweep_chunk_margins(
                X_train.T.copy(), y_signed, X_test.T.copy(),
                _SWEEP_ROUNDS, _EARLY_STOP_Z, policy, cap,
            )
            hist = hist_sweep_chunk_margins(
                BinnedDataset.from_matrix(X_train, max_bins=cap),
                y_signed, X_test.T.copy(),
                _SWEEP_ROUNDS, _EARLY_STOP_Z, policy,
            )
            out[f"exact-{policy}-{cap}"] = _hex(exact)
            out[f"hist-{policy}-{cap}"] = _hex(hist)
    return out


def _ap_scores() -> dict:
    X_train, y_train, X_test, y_test = _sweep_problem()
    # Infinite values stay in the training window only, as when the file
    # was written; test_selection_batched.py scores +/-inf test values.
    X_test = np.where(np.isinf(X_test), np.nan, X_test)
    F = X_train.shape[1]
    names = [f"f{j}" for j in range(F)]
    groups = ["basic"] * F
    categorical = np.zeros(F, dtype=bool)
    train = FeatureSet(X_train, names, groups, categorical)
    test = FeatureSet(X_test, names, groups, categorical)
    out = {}
    for backend in ("exact", "hist"):
        for n in _AP_CAPACITIES:
            scores = single_feature_ap(
                train, y_train, test, y_test, n,
                n_rounds=_SWEEP_ROUNDS, backend=backend,
            )
            out[f"{backend}-{n}"] = _hex(scores)
    return out


def _stump_records(model) -> list[list]:
    return [
        [
            int(s.feature),
            bool(s.categorical),
            *_hex([s.threshold, s.s_lo, s.s_hi, s.s_miss, s.z]),
        ]
        for s in (learner.stump for learner in model.learners)
    ]


def _predictor_fits() -> dict:
    world = DslSimulator(SimulationConfig(
        n_weeks=_WEEKS,
        population=PopulationConfig(n_lines=1500, seed=31),
        fault_rate_scale=4.0,
        seed=32,
    )).run()
    split = paper_style_split(
        _WEEKS, history=6, train=3, selection=2, test=2, horizon_weeks=3
    )
    out = {}
    for backend in ("exact", "hist"):
        predictor = TicketPredictor(PredictorConfig(
            capacity=40, horizon_weeks=3, train_rounds=25,
            selection_rounds=3, backend=backend,
        )).fit(world, split)
        out[backend] = {
            "selection_scores": {
                family: _hex(scores)
                for family, scores in sorted(predictor.selection_scores_.items())
            },
            "stumps": _stump_records(predictor.model),
        }
    return out


def build_golden() -> dict:
    """Run every pinned computation with the code in the working tree."""
    return {
        "sweep": _sweep_margins(),
        "ap": _ap_scores(),
        "predictor": _predictor_fits(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_edge_matrix_exercises_early_stop_and_infinities():
    X_train, y_train, X_test, _ = _sweep_problem()
    assert np.isinf(X_train[:, 4]).any() and np.isinf(X_test[:, 4]).any()
    assert np.isnan(X_train[:, 2]).all()
    assert _TRAIN_ROWS + 1 > min(_GRID_CAPS)
    assert _TRAIN_ROWS + 1 <= max(_GRID_CAPS)
    # Some column stops early: its margins then differ from a run that
    # cannot stop (early_stop_z above any reachable Z).
    y_signed = np.where(y_train > 0, 1.0, -1.0)
    args = (X_train.T.copy(), y_signed, X_test.T.copy(), _SWEEP_ROUNDS)
    stopped = sweep_chunk_margins(*args, _EARLY_STOP_Z)
    full = sweep_chunk_margins(*args, 2.0)
    differs = ~np.all(stopped == full, axis=1)
    assert differs.any() and not differs.all()


def test_sweep_margins_bitwise(golden):
    got = _sweep_margins()
    assert sorted(got) == sorted(golden["sweep"])
    for key, values in golden["sweep"].items():
        assert got[key] == values, key


def test_single_feature_ap_bitwise(golden):
    got = _ap_scores()
    assert sorted(got) == sorted(golden["ap"])
    for key, values in golden["ap"].items():
        assert got[key] == values, key


def test_predictor_fits_bitwise(golden):
    got = _predictor_fits()
    for backend in ("exact", "hist"):
        want = golden["predictor"][backend]
        have = got[backend]
        assert sorted(have["selection_scores"]) == ["base", "product", "quadratic"]
        for family, values in want["selection_scores"].items():
            assert have["selection_scores"][family] == values, (backend, family)
        assert have["stumps"] == want["stumps"], backend


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_training_golden.py --write")
    GOLDEN.write_text(json.dumps(build_golden(), separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}")
