"""The compiled-ensemble kernel pinned against its pre-slot-table output.

``tests/data/compiled_margins_v1.json`` was written by the previous
per-group kernel (one ``np.searchsorted`` per group, then an
``np.where(isnan, ...)`` pass).  It holds, as ``float.hex`` strings:

* ``v1_fixture`` -- rows fed to the ``tests/data/bundle_v1.json``
  predictor's ``decision_function`` and the margins it returned;
* ``synthetic`` -- a seeded stump list with continuous and categorical
  groups, from one key to well past the slot kernel's searchsorted
  crossover (duplicate and infinite thresholds, a feature tested both
  ways), its rows, its margins, and the stacked two-head margins of
  ``compile_multihead`` over the same stumps split in round order.

Every row set mixes NaN, +/-inf, +/-0.0, values exactly on a threshold
(or category code), their neighbouring doubles, category codes no stump
tests, and ordinary draws.  The assertions are bitwise.

Regenerate only on purpose (the file pins the *old* kernel)::

    PYTHONPATH=src python tests/test_compiled_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ml.ensemble_scoring import (
    SEARCHSORTED_MIN_KEYS,
    SLOT_ROWS_PER_KEY,
    _slots,
    compile_multihead,
    compile_stumps,
    naive_grouped_margin,
)
from repro.ml.stumps import Stump
from repro.serve import ModelBundle

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "compiled_margins_v1.json"

#: (feature, categorical, n_stumps) of the synthetic ensemble's groups.
_GROUPS = (
    (0, False, 1),
    (1, False, 2),
    (2, False, 6),
    (2, True, 3),
    (3, False, 47),
    (4, False, 64),
    (5, False, 65),
    (6, False, 130),
    (7, True, 1),
    (8, True, 9),
    (9, True, 80),
    (10, False, 3),
)
_N_FEATURES = 11


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


def _unhex(values, shape=None) -> np.ndarray:
    out = np.array([float.fromhex(v) for v in values], dtype=float)
    return out.reshape(shape) if shape is not None else out


def _synthetic_stumps(rng) -> list[Stump]:
    """Seeded stumps, group by group, then shuffled into a round order."""
    stumps = []
    for feature, categorical, count in _GROUPS:
        if categorical:
            codes = rng.choice(np.arange(200), size=count, replace=False)
            if count > 2:
                codes[1] = codes[0]  # a code tested twice
            thresholds = codes.astype(float)
        else:
            thresholds = np.round(rng.normal(size=count), 3)
            if count > 2:
                thresholds[1] = thresholds[0]  # a duplicate threshold
                thresholds[2] = 0.0
            if count > 40:
                thresholds[3] = -0.0
                thresholds[4] = -np.inf
                thresholds[5] = np.inf
        for threshold in thresholds:
            stumps.append(
                Stump(
                    feature=feature,
                    threshold=float(threshold),
                    s_lo=float(rng.normal()),
                    s_hi=float(rng.normal()),
                    s_miss=float(rng.normal()),
                    categorical=categorical,
                    z=1.0,
                )
            )
    order = rng.permutation(len(stumps))
    return [stumps[i] for i in order]


def _edge_rows(rng, stumps, n_features: int, n_rows: int) -> np.ndarray:
    """Rows whose every column hits the kernel's edge cases."""
    X = np.empty((n_rows, n_features))
    for j in range(n_features):
        keys = np.array(
            [s.threshold for s in stumps if s.feature == j], dtype=float
        )
        finite = keys[np.isfinite(keys)]
        pool = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300]
        pool += list(keys)
        pool += list(np.nextafter(finite, np.inf))
        pool += list(np.nextafter(finite, -np.inf))
        pool += [201.0, 202.0, 7.5]  # category codes no stump tests
        pool = np.array(pool, dtype=float)
        draws = pool[rng.integers(pool.size, size=n_rows)]
        ordinary = rng.random(n_rows) < 0.2
        draws[ordinary] = rng.normal(size=int(ordinary.sum()))
        X[:, j] = draws
    return X


def _stump_record(stump: Stump) -> list:
    return [
        int(stump.feature),
        bool(stump.categorical),
        *_hex([stump.threshold, stump.s_lo, stump.s_hi, stump.s_miss]),
    ]


def _stump_from_record(record) -> Stump:
    feature, categorical, threshold, s_lo, s_hi, s_miss = record
    return Stump(
        feature=feature,
        threshold=float.fromhex(threshold),
        s_lo=float.fromhex(s_lo),
        s_hi=float.fromhex(s_hi),
        s_miss=float.fromhex(s_miss),
        categorical=categorical,
        z=1.0,
    )


def _v1_model():
    payload = json.loads((DATA / "bundle_v1.json").read_text())
    return ModelBundle.from_dict(payload).predictor.model


def _two_heads(stumps):
    half = len(stumps) // 2
    return compile_multihead(
        {
            0: compile_stumps(stumps[:half], _N_FEATURES),
            2: compile_stumps(stumps[half:], _N_FEATURES),
        },
        n_heads=3,
        n_features=_N_FEATURES,
    )


def build_golden() -> dict:
    """Score the fixed rows with the kernel in the working tree."""
    rng = np.random.default_rng(20101117)
    model = _v1_model()
    stumps_v1 = [learner.stump for learner in model.learners]
    X_v1 = _edge_rows(rng, stumps_v1, model.n_features_, 96)
    stumps = _synthetic_stumps(rng)
    X = _edge_rows(rng, stumps, _N_FEATURES, 400)
    return {
        "v1_fixture": {
            "shape": list(X_v1.shape),
            "rows": _hex(X_v1),
            "margins": _hex(model.decision_function(X_v1)),
        },
        "synthetic": {
            "n_features": _N_FEATURES,
            "stumps": [_stump_record(s) for s in stumps],
            "shape": list(X.shape),
            "rows": _hex(X),
            "margins": _hex(compile_stumps(stumps, _N_FEATURES)
                            .decision_function(X)),
            "multihead_margins": _hex(_two_heads(stumps).decision_matrix(X)),
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _tiled(X: np.ndarray) -> np.ndarray:
    """``X`` repeated past one shard's rows, so the narrow slot path runs.

    A short batch takes the searchsorted path for every group (see
    ``SLOT_ROWS_PER_KEY``); margins are per row, so the tiled rows must
    reproduce the stored margins tile by tile.
    """
    reps = -(-SEARCHSORTED_MIN_KEYS * SLOT_ROWS_PER_KEY // len(X))
    return np.tile(X, (reps, 1))


def _assert_tiles(got: np.ndarray, expected: np.ndarray) -> None:
    tiles = got.reshape(-1, *expected.shape)
    for tile in tiles:
        assert np.array_equal(_bits(tile), _bits(expected))


def test_v1_fixture_margins_bitwise(golden):
    entry = golden["v1_fixture"]
    X = _unhex(entry["rows"], entry["shape"])
    expected = _unhex(entry["margins"])
    model = _v1_model()
    for rows in (X, _tiled(X)):
        _assert_tiles(model.decision_function(rows), expected)
        compiled = model.compiled()
        _assert_tiles(
            compiled.decision_function_columns(lambda j: rows[:, j], len(rows)),
            expected,
        )


def test_synthetic_margins_bitwise(golden):
    entry = golden["synthetic"]
    stumps = [_stump_from_record(r) for r in entry["stumps"]]
    X = _unhex(entry["rows"], entry["shape"])
    compiled = compile_stumps(stumps, entry["n_features"])
    expected = _unhex(entry["margins"])
    stacked = _unhex(entry["multihead_margins"], (len(X), 3))
    assert np.array_equal(
        _bits(naive_grouped_margin(stumps, X, entry["n_features"])),
        _bits(expected),
    )
    for rows in (X, _tiled(X)):
        _assert_tiles(compiled.decision_function(rows), expected)
        _assert_tiles(_two_heads(stumps).decision_matrix(rows), stacked)


def test_synthetic_groups_straddle_the_crossover(golden):
    stumps = [_stump_from_record(r) for r in golden["synthetic"]["stumps"]]
    sizes = [g.keys.size for g in compile_stumps(stumps, _N_FEATURES).groups]
    assert min(sizes) == 1
    assert max(sizes) >= SEARCHSORTED_MIN_KEYS
    assert any(size < SEARCHSORTED_MIN_KEYS for size in sizes if size > 40)


def _reference_slots(keys, categorical, col):
    """The searchsorted / equality definition the slot kernel replaces."""
    size = keys.size
    if categorical:
        idx = np.minimum(np.searchsorted(keys, col), size - 1)
        slot = np.where(keys[idx] == col, idx, size)
    else:
        slot = np.searchsorted(keys, col, side="right")
    return np.where(np.isnan(col), size + 1, slot)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the dev deps
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:
    _values = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, np.nan]),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(
            st.floats(allow_nan=False, allow_infinity=True), min_size=1,
            max_size=90,
        ),
        values=st.lists(_values, min_size=0, max_size=60),
        categorical=st.booleans(),
        reuse=st.integers(0, 8),
    )
    def test_property_slots_match_reference(keys, values, categorical, reuse):
        keys = np.unique(np.array(keys, dtype=float)) if categorical else (
            np.sort(np.array(keys, dtype=float))
        )
        # Query some keys verbatim so exact hits are common.
        col = np.array(values + list(keys[:reuse]), dtype=float)
        # The same values as a short batch and as one long enough for
        # the narrow path (when the group is narrow).
        long = np.resize(col, max(col.size, keys.size * SLOT_ROWS_PER_KEY))
        for query in (col, long):
            got = _slots(keys, categorical, query)
            assert got.dtype == np.intp
            assert np.array_equal(
                got, _reference_slots(keys, categorical, query)
            )

if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_compiled_golden.py --write")
    GOLDEN.write_text(json.dumps(build_golden(), separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}")
