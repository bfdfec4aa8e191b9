"""The histogram stump search pinned against its per-feature-bincount output.

``tests/data/hist_fits_v1.json`` was written by the previous
``HistStumpSearch`` kernel (one ``np.bincount`` per feature per round, a
masked boundary scan, one categorical search per slot).  It holds, as
``float.hex`` strings, every stump's threshold, ``s_lo``, ``s_hi``,
``s_miss`` and ``z`` (plus its feature and kind) for:

* ``bstump`` -- ``BStump(backend="hist")`` under both missing policies,
  with and without ``sample_weight``, on one edge-case matrix;
* ``locator`` -- a seeded ``CombinedLocator`` fit on the same kind of
  matrix: every flat disposition head, every location head, and the
  out-of-fold disposition and location margins.  Its 160 rows bin at
  the locator's row-count budget, 53 bins; this section was re-pinned
  when that budget replaced the fixed 256 (the kernel is unchanged).

The edge-case matrix has NaN-heavy, constant and all-NaN continuous
columns, a NaN-bearing column whose value bins fill the widest histogram
column, few-valued columns, and categorical columns of 0 (all missing),
1, 2, 5, 8, 9 and 40 categories.  Labels lean on the wide categoricals,
so categorical stumps win rounds.  The assertions are bitwise.  Each
pin is checked with the continuous features scanned as one run and as
a narrow plus a wide run, and the BStump fits also with the histogram
table split into many feature blocks at 1, 2 and 4 workers.

Regenerate only on purpose (the file pins the *old* kernel)::

    PYTHONPATH=src python tests/test_hist_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.locator import CombinedLocator, LocatorConfig
from repro.data.joins import LocatorDataset
from repro.features.encoding import FeatureSet
from repro.ml import binning as binning_mod
from repro.ml import stumps as stumps_mod
from repro.ml.binning import BinnedDataset
from repro.ml.boostexter import BStump, BStumpConfig
from repro.ml.stumps import MISSING_POLICIES
from repro.netsim.components import disposition_arrays

GOLDEN = Path(__file__).resolve().parent / "data" / "hist_fits_v1.json"

_N_CODES = 52
_BSTUMP_ROWS = 300
_BSTUMP_ROUNDS = 40
_LOCATOR_ROWS = 160
_LOCATOR_ROUNDS = 10
_CATEGORY_COUNTS = (0, 1, 2, 5, 8, 9, 40)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


def _edge_matrix(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns covering every histogram-table regime (see module doc)."""
    wide = rng.normal(size=n)
    wide[rng.random(n) < 0.1] = np.nan
    continuous = [
        wide,                                          # widest, with NaN
        np.round(rng.normal(size=n) * 2),              # heavy integer ties
        np.full(n, 3.25),                              # constant
        np.where(rng.random(n) < 0.7, np.nan,
                 rng.normal(size=n)),                  # NaN-heavy
        np.full(n, np.nan),                            # all missing
        rng.integers(0, 3, size=n).astype(float),      # three values
    ]
    categorical = []
    for count in _CATEGORY_COUNTS:
        col = np.full(n, np.nan)
        if count:
            col = rng.integers(0, count, size=n).astype(float) * 3.0 + 1.0
            col[rng.random(n) < 0.15] = np.nan
        categorical.append(col)
    # Interleave so categorical slots sit between continuous ones.
    columns, mask = [], []
    for j in range(max(len(continuous), len(categorical))):
        for group, is_cat in ((continuous, False), (categorical, True)):
            if j < len(group):
                columns.append(group[j])
                mask.append(is_cat)
    return np.column_stack(columns), np.array(mask)


def _signal(X: np.ndarray, categorical: np.ndarray) -> np.ndarray:
    """A per-row latent score leaning on the wide categoricals."""
    cats = X[:, categorical]
    wide_cats = np.nan_to_num(cats[:, -3:], nan=-1.0)  # 8, 9, 40 categories
    lean = np.sin(wide_cats).sum(axis=1)
    return lean + 0.5 * np.nan_to_num(X[:, 0]) + 0.3 * np.nan_to_num(X[:, 2])


def _bstump_problem():
    rng = np.random.default_rng(20101118)
    X, categorical = _edge_matrix(rng, _BSTUMP_ROWS)
    y = (_signal(X, categorical) + rng.normal(size=_BSTUMP_ROWS) > 0.4)
    weights = rng.random(_BSTUMP_ROWS)
    weights[rng.random(_BSTUMP_ROWS) < 0.1] = 0.0
    return X, categorical, y.astype(float), weights


def _locator_dataset() -> LocatorDataset:
    rng = np.random.default_rng(20101119)
    X, categorical = _edge_matrix(rng, _LOCATOR_ROWS)
    latent = _signal(X, categorical)
    drivers = rng.normal(size=(2, 12))
    logits = np.zeros((_LOCATOR_ROWS, _N_CODES))
    logits[:, :12] = np.column_stack(
        [latent, np.nan_to_num(X[:, 2])]
    ) @ drivers
    prior = 1.0 / (np.arange(_N_CODES) + 2.0)
    gumbel = -np.log(-np.log(rng.random((_LOCATOR_ROWS, _N_CODES))))
    disposition = np.argmax(np.log(prior) + 0.8 * logits + gumbel, axis=1)
    location = disposition_arrays().location[disposition]
    n_features = X.shape[1]
    return LocatorDataset(
        features=FeatureSet(
            matrix=X,
            names=[f"f{j}" for j in range(n_features)],
            groups=["basic"] * n_features,
            categorical=categorical,
        ),
        disposition=disposition.astype(np.int64),
        location=location.astype(np.int64),
        line_ids=np.arange(_LOCATOR_ROWS, dtype=np.int64),
        ticket_days=np.zeros(_LOCATOR_ROWS, dtype=np.int64),
    )


def _stump_records(model: BStump) -> list[list]:
    return [
        [
            int(s.feature),
            bool(s.categorical),
            *_hex([s.threshold, s.s_lo, s.s_hi, s.s_miss, s.z]),
        ]
        for s in (learner.stump for learner in model.learners)
    ]


def _bstump_fits() -> dict:
    X, categorical, y, weights = _bstump_problem()
    fits = {}
    for policy in MISSING_POLICIES:
        for weighted in (False, True):
            config = BStumpConfig(
                n_rounds=_BSTUMP_ROUNDS, calibrate=False,
                missing_policy=policy, backend="hist",
            )
            model = BStump(config).fit(
                X, y, categorical=categorical,
                sample_weight=weights if weighted else None,
            )
            key = f"{policy}-{'weighted' if weighted else 'uniform'}"
            fits[key] = _stump_records(model)
    return fits


def _locator_fit() -> dict:
    train = _locator_dataset()
    locator = CombinedLocator(
        LocatorConfig(n_rounds=_LOCATOR_ROUNDS, backend="hist")
    ).fit(train)
    flat = locator.flat
    codes = sorted(flat.models_)
    return {
        "flat": {str(c): _stump_records(flat.models_[c]) for c in codes},
        "location": {
            str(loc): _stump_records(model)
            for loc, model in sorted(locator.location_models_.items())
        },
        "oof_codes": codes,
        "oof_disposition": _hex(flat.oof_decision_[:, codes]),
        "oof_location": _hex(locator._oof_location_margins(train)),
    }


def build_golden() -> dict:
    """Fit every pinned model with the kernel in the working tree."""
    return {"bstump": _bstump_fits(), "locator": _locator_fit()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


#: Narrow-run thresholds: the default, always split, never split.
_LAYOUTS = {
    "default": binning_mod.NARROW_RUN_MIN_SAVED_CELLS,
    "split": 0,
    "single": 10**12,
}


@pytest.fixture(params=sorted(_LAYOUTS))
def layout(request, monkeypatch) -> str:
    """Scan the continuous features as one run or as narrow + wide runs."""
    monkeypatch.setattr(
        binning_mod, "NARROW_RUN_MIN_SAVED_CELLS", _LAYOUTS[request.param]
    )
    return request.param


def test_edge_matrix_covers_the_table_regimes():
    X, categorical, _, _ = _bstump_problem()
    binned = BinnedDataset.from_matrix(X, categorical)
    cats = [v.size for v, c in zip(binned.values, categorical) if c]
    assert cats == list(_CATEGORY_COUNTS)
    widest = int(np.argmax(binned.n_value_bins))
    assert not categorical[widest]
    assert np.isnan(X[:, widest]).any()
    assert binned.n_value_bins[widest] + 1 == binned.n_bins_total


def test_layouts_cover_both_run_shapes(layout):
    for X, categorical in (
        _bstump_problem()[:2],
        (_locator_dataset().features.matrix,
         _locator_dataset().features.categorical),
    ):
        narrow, wide, _ = BinnedDataset.from_matrix(
            X, categorical
        ).histogram_runs()
        assert wide.size
        assert bool(narrow.size) == (layout == "split")


def test_bstump_fits_bitwise(golden, layout):
    got = _bstump_fits()
    assert sorted(got) == sorted(golden["bstump"])
    for key, records in golden["bstump"].items():
        assert got[key] == records, key
    kinds = {r[1] for records in got.values() for r in records}
    assert kinds == {False, True}  # both stump kinds win rounds


def test_locator_fit_bitwise(golden, layout):
    assert _locator_fit() == golden["locator"]


@pytest.mark.parametrize("workers", ["1", "2", "4"])
def test_blocked_histograms_bitwise_at_every_worker_count(
    golden, monkeypatch, layout, workers
):
    # A block budget of a few rows' worth of cells splits the table into
    # many feature blocks, so the fan-out path runs even on this matrix.
    monkeypatch.setattr(stumps_mod, "_HIST_PARALLEL_MIN_CELLS", 3 * _BSTUMP_ROWS)
    monkeypatch.setenv("REPRO_WORKERS", workers)
    got = _bstump_fits()
    for key, records in golden["bstump"].items():
        assert got[key] == records, key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_hist_golden.py --write")
    GOLDEN.write_text(json.dumps(build_golden(), separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}")
