"""The locator on the shared-binning fabric (PR 6).

Covers the row-subset support in :class:`BinnedDataset`, the stacked
multi-head compiled scorer, hist-vs-exact locator parity (identical
ranked lists on NaN-heavy, categorical, and class-starved training
sets), the hoisted CV fold assignment, the shared binning's row-count
bin budget, locator serialization with
per-head backends, the vectorised ``ranks_of_truth``, and byte-identical
serve ``/locate`` responses.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import locator as locator_mod
from repro.core.locator import (
    CombinedLocator,
    FlatLocator,
    LocatorConfig,
    _fold_assignment,
    ranks_of_truth,
)
from repro.data.joins import LocatorDataset
from repro.features.encoding import FeatureSet
from repro.ml.binning import NARROW_RUN_MIN_SAVED_CELLS, BinnedDataset
from repro.ml.boostexter import BStump, BStumpConfig
from repro.ml.ensemble_scoring import (
    MULTIHEAD_TILE_ROWS,
    compile_multihead,
    compile_stumps,
)
from repro.ml.serialize import (
    _CHECKSUM_FIELD,
    combined_locator_from_dict,
    combined_locator_to_dict,
    payload_checksum,
)
from repro.ml.stumps import Stump
from repro.netsim.components import disposition_arrays

N_CODES = 52


# ----- synthetic locator datasets -----------------------------------------


def _make_dataset(
    seed: int,
    n: int = 360,
    n_features: int = 10,
    nan_frac: float = 0.0,
    categorical_slots: tuple[int, ...] = (),
    starve_code: int | None = None,
) -> LocatorDataset:
    """A small quantised LocatorDataset with feature-driven labels.

    Features take few distinct values (integer grid), so every fold
    subset sees the full value set and the hist and uncapped-exact
    candidate grids coincide -- the stump-for-stump parity regime.
    """
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(n, n_features))
    X = np.clip(np.round(latent * 1.5), -3, 3)
    cat = np.zeros(n_features, dtype=bool)
    for j in categorical_slots:
        cat[j] = True
        X[:, j] = rng.integers(0, 5, size=n).astype(float)
    if nan_frac:
        X[rng.random((n, n_features)) < nan_frac] = np.nan

    # Labels lean on the first features so heads learn real structure.
    # The signal is deliberately weak: near-perfect separation makes
    # several features tie on the exact same split partition, and a Z
    # tie between *features* is broken by ~1e-16 summation noise that
    # legitimately differs between the two backends.
    drivers = rng.normal(size=(n_features, 12))
    logits = np.zeros((n, N_CODES))
    logits[:, :12] = np.nan_to_num(X) @ drivers
    prior = 1.0 / (np.arange(N_CODES) + 2.0)
    gumbel = -np.log(-np.log(rng.random((n, N_CODES))))
    disposition = np.argmax(np.log(prior) + 0.35 * logits + gumbel, axis=1)
    if starve_code is not None:
        # Exactly two examples of the starved code: below MIN_POSITIVE,
        # so both backends must fall back to the prior for it.
        disposition[disposition == starve_code] = 0
        disposition[:2] = starve_code
    location = disposition_arrays().location[disposition]
    features = FeatureSet(
        matrix=X,
        names=[f"f{j}" for j in range(n_features)],
        groups=["basic"] * n_features,
        categorical=cat,
    )
    return LocatorDataset(
        features=features,
        disposition=disposition.astype(np.int64),
        location=location.astype(np.int64),
        line_ids=np.arange(n, dtype=np.int64),
        ticket_days=np.zeros(n, dtype=np.int64),
    )


def _config(backend: str, n: int, **kw) -> LocatorConfig:
    # max_split_points = n + 1 keeps the exact search uncapped, so its
    # candidate grid matches the per-value hist bins exactly.
    defaults = dict(
        n_rounds=12, cv_folds=2, backend=backend, max_split_points=n + 1
    )
    defaults.update(kw)
    return LocatorConfig(**defaults)


# ----- reference (pre-PR-6) implementations -------------------------------


def _reference_decision_matrix(flat: FlatLocator, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.tile(np.log(flat.prior_ / (1.0 - flat.prior_)), (X.shape[0], 1))
    for code, model in flat.models_.items():
        out[:, code] = model.decision_function(X)
    return out


def _reference_flat_proba(flat: FlatLocator, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.tile(flat.prior_, (X.shape[0], 1))
    for code, model in flat.models_.items():
        out[:, code] = flat.calibrators_[code].transform(
            model.decision_function(X)
        )
    return out


def _reference_combined_proba(model: CombinedLocator, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    f_disp = _reference_decision_matrix(model.flat, X)
    f_loc = np.zeros((X.shape[0], 4))
    for loc, head in model.location_models_.items():
        f_loc[:, loc] = head.decision_function(X)
    out = np.tile(model.flat.prior_, (X.shape[0], 1))
    for code, (g1, g2, g0) in model.blend_.items():
        z = g1 * f_disp[:, code] + g2 * f_loc[:, model._location_of[code]] + g0
        out[:, code] = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    return out


def _reference_ranks(prob_matrix: np.ndarray, truth: np.ndarray) -> np.ndarray:
    ranks = np.empty(len(truth), dtype=int)
    for i, label in enumerate(truth):
        order = np.argsort(-prob_matrix[i], kind="stable")
        ranks[i] = int(np.flatnonzero(order == label)[0]) + 1
    return ranks


# ----- BinnedDataset.rows -------------------------------------------------


class TestBinnedRows:
    def _binned(self, rng):
        X = rng.normal(size=(40, 5))
        X[rng.random((40, 5)) < 0.2] = np.nan
        return X, BinnedDataset.from_matrix(X)

    def test_mask_and_indices_agree(self, rng):
        _, binned = self._binned(rng)
        mask = rng.random(40) < 0.5
        by_mask = binned.rows(mask)
        by_idx = binned.rows(np.flatnonzero(mask))
        assert np.array_equal(by_mask.codes, by_idx.codes)
        assert by_mask.n_rows == int(mask.sum())

    def test_codes_are_column_subset(self, rng):
        _, binned = self._binned(rng)
        idx = np.array([3, 1, 7, 7])
        sub = binned.rows(idx)
        assert np.array_equal(sub.codes, binned.codes[:, idx])

    def test_parent_edges_shared(self, rng):
        X, binned = self._binned(rng)
        sub = binned.rows(np.arange(10))
        assert sub.edges[0] is binned.edges[0]
        assert sub.max_bins == binned.max_bins
        assert np.array_equal(sub.n_value_bins, binned.n_value_bins)

    def test_validation(self, rng):
        _, binned = self._binned(rng)
        with pytest.raises(ValueError):
            binned.rows(np.ones(7, dtype=bool))  # wrong mask length
        with pytest.raises(IndexError):
            binned.rows(np.array([0, 40]))
        with pytest.raises(ValueError):
            binned.rows(np.zeros((2, 2), dtype=np.int64))

    def test_histogram_key_cached_and_correct(self, rng):
        X, _ = self._binned(rng)
        X = np.column_stack([
            rng.integers(0, 3, size=40).astype(float),  # categorical
            X,
            np.full(40, np.nan),                         # empty categorical
        ])
        categorical = np.zeros(X.shape[1], dtype=bool)
        categorical[[0, -1]] = True
        binned = BinnedDataset.from_matrix(X, categorical)
        narrow, wide, cats = binned.histogram_runs()
        assert (narrow.tolist(), wide.tolist(), cats.tolist()) == (
            [], [1, 2, 3, 4, 5], [0]
        )
        features = np.concatenate([narrow, wide, cats])
        key = binned.histogram_key()
        assert key is binned.histogram_key()  # cached
        assert key.dtype == np.intp and key.shape == (6, 40)
        width = binned.n_bins_total
        for p, f in enumerate(features):
            codes = binned.codes[f].astype(np.intp)
            bins = np.where(codes == binned.n_value_bins[f], width - 1, codes)
            assert np.array_equal(key[p], p * 2 * width + bins)

    @pytest.mark.parametrize("n_binary, split", [(10, False), (12, True)])
    def test_narrow_run_only_when_it_saves_enough(self, rng, n_binary, split):
        # 200 distinct values make a 201-column table; each binary
        # feature's 3 columns then save 198 boundary cells in a narrow
        # run, so 10 of them stay under the threshold and 12 clear it.
        X = np.column_stack([
            rng.normal(size=200),
            rng.integers(0, 2, size=(200, n_binary)).astype(float),
        ])
        binned = BinnedDataset.from_matrix(X)
        assert binned.n_bins_total == 201
        narrow, wide, cats = binned.histogram_runs()
        binary = list(range(1, n_binary + 1))
        if split:
            assert n_binary * 198 >= NARROW_RUN_MIN_SAVED_CELLS
            assert (narrow.tolist(), wide.tolist()) == (binary, [0])
        else:
            assert n_binary * 198 < NARROW_RUN_MIN_SAVED_CELLS
            assert (narrow.tolist(), wide.tolist()) == ([], [0, *binary])
        assert cats.size == 0


# ----- the stacked multi-head scorer --------------------------------------


def _random_heads(rng, n_features=6, n_heads=5):
    heads = {}
    for col in range(0, n_heads, 2):  # leave gaps: not every column trained
        stumps = []
        for _ in range(rng.integers(3, 9)):
            feature = int(rng.integers(0, n_features))
            categorical = feature == 2  # feature 2 is categorical
            threshold = (
                float(rng.integers(0, 4))
                if categorical
                else float(rng.normal())
            )
            stumps.append(
                Stump(
                    feature=feature,
                    threshold=threshold,
                    categorical=categorical,
                    s_lo=float(rng.normal()),
                    s_hi=float(rng.normal()),
                    s_miss=float(rng.normal()),
                    z=0.5,
                )
            )
        heads[col] = compile_stumps(stumps, n_features)
    return heads


class TestMultiHeadEnsemble:
    def test_bit_identical_to_per_head_scoring(self, rng):
        n_features, n_heads = 6, 5
        heads = _random_heads(rng, n_features, n_heads)
        stacked = compile_multihead(heads, n_heads=n_heads, n_features=n_features)
        X = rng.normal(size=(200, n_features))
        X[:, 2] = rng.integers(0, 5, size=200).astype(float)
        X[rng.random((200, n_features)) < 0.25] = np.nan
        out = stacked.decision_matrix(X)
        assert out.shape == (200, n_heads)
        for col in range(n_heads):
            if col in heads:
                assert np.array_equal(out[:, col], heads[col].decision_function(X))
            else:
                assert np.all(out[:, col] == 0.0)

    def test_out_parameter_preserves_untrained_columns(self, rng):
        heads = _random_heads(rng)
        stacked = compile_multihead(heads, n_heads=5, n_features=6)
        X = rng.normal(size=(10, 6))
        out = np.full((10, 5), 7.5)
        result = stacked.decision_matrix(X, out=out)
        assert result is out
        for col in range(5):
            if col not in heads:
                assert np.all(out[:, col] == 7.5)

    @pytest.mark.parametrize("n_rows", [
        0, 1, MULTIHEAD_TILE_ROWS - 1, MULTIHEAD_TILE_ROWS,
        MULTIHEAD_TILE_ROWS + 1, 2 * MULTIHEAD_TILE_ROWS + 3,
    ])
    def test_tile_boundaries_bit_identical(self, rng, n_rows):
        heads = _random_heads(rng, n_features=6, n_heads=7)
        stacked = compile_multihead(heads, n_heads=7, n_features=6)
        X = rng.normal(size=(n_rows, 6))
        X[:, 2] = rng.integers(0, 5, size=n_rows).astype(float)
        X[rng.random((n_rows, 6)) < 0.2] = np.nan
        prior = np.arange(7, dtype=float) + 0.25
        out = np.tile(prior, (n_rows, 1))
        assert stacked.decision_matrix(X, out=out) is out
        fresh = stacked.decision_matrix(X)
        for col in range(7):
            if col in heads:
                solo = heads[col].decision_function(X).view(np.uint64)
                assert np.array_equal(out[:, col].view(np.uint64), solo)
                assert np.array_equal(fresh[:, col].view(np.uint64), solo)
            else:
                assert np.all(out[:, col] == prior[col])
                assert np.all(fresh[:, col] == 0.0)

    def test_validation(self, rng):
        heads = _random_heads(rng)
        stacked = compile_multihead(heads, n_heads=5, n_features=6)
        with pytest.raises(ValueError):
            stacked.decision_matrix(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            stacked.decision_matrix(np.zeros((3, 6)), out=np.zeros((3, 4)))
        with pytest.raises(ValueError):
            compile_multihead(heads, n_heads=2, n_features=6)


# ----- vectorised locator scoring parity ----------------------------------


@pytest.fixture(scope="module")
def fitted_pair():
    """One dataset fitted with both backends (shared across tests)."""
    train = _make_dataset(seed=11, n=360)
    n = train.n_examples
    exact = CombinedLocator(_config("exact", n)).fit(train)
    hist = CombinedLocator(_config("hist", n)).fit(train)
    test = _make_dataset(seed=12, n=120)
    return train, test, exact, hist


class TestVectorisedScoring:
    def test_flat_decision_matrix_bit_identical(self, fitted_pair):
        _, test, exact, _ = fitted_pair
        X = test.features.matrix
        assert np.array_equal(
            exact.flat.decision_matrix(X),
            _reference_decision_matrix(exact.flat, X),
        )

    def test_flat_proba_bit_identical(self, fitted_pair):
        _, test, exact, _ = fitted_pair
        X = test.features.matrix
        assert np.array_equal(
            exact.flat.predict_proba(X), _reference_flat_proba(exact.flat, X)
        )

    def test_combined_proba_bit_identical(self, fitted_pair):
        _, test, exact, hist = fitted_pair
        X = test.features.matrix
        for model in (exact, hist):
            assert np.array_equal(
                model.predict_proba(X), _reference_combined_proba(model, X)
            )


# ----- hist-vs-exact parity -----------------------------------------------


def _assert_locator_parity(train: LocatorDataset, test: LocatorDataset):
    n = train.n_examples
    exact = CombinedLocator(_config("exact", n)).fit(train)
    hist = CombinedLocator(_config("hist", n)).fit(train)

    assert set(exact.flat.models_) == set(hist.flat.models_)
    for code, e_model in exact.flat.models_.items():
        h_model = hist.flat.models_[code]
        assert len(e_model.learners) == len(h_model.learners)
        for e_learner, h_learner in zip(e_model.learners, h_model.learners):
            e_stump, h_stump = e_learner.stump, h_learner.stump
            assert e_stump.feature == h_stump.feature
            assert e_stump.categorical == h_stump.categorical
            assert e_stump.threshold == pytest.approx(h_stump.threshold)

    X = test.features.matrix
    # Margins within 1e-6 (per-bin weight sums group additions
    # differently from the sorted-domain prefix sums).
    e_margin = exact.flat.decision_matrix(X)
    h_margin = hist.flat.decision_matrix(X)
    assert float(np.abs(e_margin - h_margin).max()) < 1e-6

    # The hard guarantee: identical ranked disposition lists.
    e_probs = exact.predict_proba(X)
    h_probs = hist.predict_proba(X)
    assert np.array_equal(
        np.argsort(-e_probs, axis=1, kind="stable"),
        np.argsort(-h_probs, axis=1, kind="stable"),
    )
    return exact, hist


class TestHistExactParity:
    def test_plain(self):
        train = _make_dataset(seed=21, n=360)
        test = _make_dataset(seed=22, n=100)
        _assert_locator_parity(train, test)

    def test_nan_heavy(self):
        train = _make_dataset(seed=31, n=360, nan_frac=0.35)
        test = _make_dataset(seed=32, n=100, nan_frac=0.35)
        _assert_locator_parity(train, test)

    def test_categorical(self):
        train = _make_dataset(seed=41, n=360, categorical_slots=(2, 5))
        test = _make_dataset(seed=42, n=100, categorical_slots=(2, 5))
        _assert_locator_parity(train, test)

    def test_class_starved_falls_back_to_prior(self):
        starved = 37
        train = _make_dataset(seed=51, n=360, starve_code=starved)
        test = _make_dataset(seed=52, n=100)
        exact, hist = _assert_locator_parity(train, test)
        assert starved not in exact.flat.models_
        assert starved not in hist.flat.models_
        X = test.features.matrix
        # Untrained code: both backends emit the (identical) prior.
        assert np.array_equal(
            exact.predict_proba(X)[:, starved], hist.predict_proba(X)[:, starved]
        )


# ----- CV fold assignment hoisting ----------------------------------------


class TestFoldAssignment:
    def test_flat_stores_assignment(self):
        train = _make_dataset(seed=61, n=200)
        cfg = _config("hist", 200)
        flat = FlatLocator(cfg).fit(train)
        expected = _fold_assignment(
            train.n_examples, cfg.cv_folds, locator_mod.CV_SEED
        )
        assert np.array_equal(flat.fold_assignment_, expected)

    def test_combined_fit_computes_assignment_once(self, monkeypatch):
        train = _make_dataset(seed=62, n=200)
        calls = []
        original = locator_mod._fold_assignment

        def counting(n, folds, seed):
            calls.append((n, folds, seed))
            return original(n, folds, seed)

        monkeypatch.setattr(locator_mod, "_fold_assignment", counting)
        CombinedLocator(_config("hist", 200)).fit(train)
        # The Eq.-2 blend must see fold-consistent disposition and
        # location margins: one shared assignment, not one per pass.
        assert len(calls) == 1

    def test_location_margins_reuse_flat_assignment(self):
        train = _make_dataset(seed=63, n=200)
        model = CombinedLocator(_config("hist", 200)).fit(train)
        cfg = model.config
        assert np.array_equal(
            model.flat.fold_assignment_,
            _fold_assignment(
                train.n_examples, cfg.cv_folds, locator_mod.CV_SEED
            ),
        )
        # Recomputing the location OOF margins after fit reuses the
        # stored assignment and the shared binning: deterministic.
        again = model._oof_location_margins(train)
        assert np.array_equal(again, model._oof_location_margins(train))

    def test_small_n_skips_folds(self, monkeypatch):
        train = _make_dataset(seed=64, n=6)
        monkeypatch.setattr(locator_mod, "MIN_POSITIVE", 1)
        cfg = LocatorConfig(n_rounds=4, cv_folds=3, backend="hist")
        flat = FlatLocator(cfg).fit(train)
        assert flat.fold_assignment_ is None


# ----- the shared binning's row-count budget ------------------------------


def _continuous_dataset(seed: int, n: int) -> LocatorDataset:
    """``_make_dataset`` with jittered, NaN-bearing continuous features:
    every column holds about ``n`` distinct values, so the bin budget,
    not the value count, sets each column's bins."""
    train = _make_dataset(seed=seed, n=n, n_features=5, categorical_slots=(4,))
    rng = np.random.default_rng(seed + 1)
    X = train.features.matrix.copy()
    X[:, :4] += rng.normal(scale=0.2, size=(n, 4))
    X[:, :4][rng.random((n, 4)) < 0.1] = np.nan
    features = FeatureSet(
        X, train.features.names, train.features.groups,
        train.features.categorical,
    )
    return LocatorDataset(
        features=features, disposition=train.disposition,
        location=train.location, line_ids=train.line_ids,
        ticket_days=train.ticket_days,
    )


def _stumps(model: BStump) -> list[Stump]:
    return [learner.stump for learner in model.learners]


def _all_stumps(model: CombinedLocator) -> dict:
    heads = {("flat", c): m for c, m in model.flat.models_.items()}
    heads.update({("loc", c): m for c, m in model.location_models_.items()})
    return {key: _stumps(m) for key, m in heads.items()}


class TestBinBudget:
    @pytest.mark.parametrize(
        "n_rows, cap, budget",
        [(0, 256, 2), (8, 256, 2), (9, 256, 3), (160, 256, 53),
         (767, 256, 255), (768, 256, 256), (2595, 256, 256),
         (300, 64, 64), (300, 2, 2)],
    )
    def test_budget_is_the_cap_or_a_bin_per_three_rows(
        self, n_rows, cap, budget
    ):
        assert locator_mod.MIN_ROWS_PER_BIN == 3
        assert locator_mod.locator_bin_budget(n_rows, cap) == budget

    def test_shared_binning_is_built_at_the_budget(self):
        train = _continuous_dataset(seed=81, n=300)
        flat = FlatLocator(LocatorConfig(n_rounds=2, cv_folds=2)).fit(train)
        explicit = BinnedDataset.from_matrix(
            train.features.matrix, train.features.categorical, max_bins=100
        )
        assert flat.binned_.max_bins == 100
        assert np.array_equal(flat.binned_.codes, explicit.codes)
        # ~270 present values per continuous column: the budget binds.
        assert 80 < flat.binned_.n_value_bins[:4].max() <= 100

    def test_heads_record_the_budget_they_trained_on(self):
        train = _continuous_dataset(seed=81, n=300)
        model = CombinedLocator(LocatorConfig(n_rounds=2, cv_folds=2)).fit(train)
        payload = combined_locator_to_dict(model)
        assert payload["config"]["max_split_points"] == 256
        heads = [
            *payload["disposition_models"].values(),
            *payload["location_models"].values(),
        ]
        assert heads
        for head in heads:
            assert head["config"]["max_split_points"] == 100
            assert head["config"]["n_bins"] == 100
        loaded = combined_locator_from_dict(payload)
        for head in loaded.flat.models_.values():
            assert head.config.max_split_points == 100

    def test_the_cap_is_max_split_points(self):
        train = _continuous_dataset(seed=81, n=300)
        cfg = LocatorConfig(n_rounds=2, cv_folds=2, max_split_points=64)
        assert FlatLocator(cfg).fit(train).binned_.max_bins == 64

    def test_at_three_rows_per_bin_the_fit_is_the_256_bin_fit(
        self, monkeypatch
    ):
        n = locator_mod.MIN_ROWS_PER_BIN * 256
        train = _continuous_dataset(seed=82, n=n)
        cfg = LocatorConfig(n_rounds=6, cv_folds=2)
        budgeted = CombinedLocator(cfg).fit(train)
        assert budgeted.flat.binned_.max_bins == 256
        monkeypatch.setattr(
            locator_mod, "locator_bin_budget", lambda n_rows, cap: 256
        )
        fixed = CombinedLocator(cfg).fit(train)
        assert _all_stumps(budgeted) == _all_stumps(fixed)
        assert np.array_equal(
            budgeted.flat.oof_decision_, fixed.flat.oof_decision_
        )
        assert budgeted.blend_ == fixed.blend_
        # And each head is the BStump fit on an explicit 256-bin binning.
        explicit = BinnedDataset.from_matrix(
            train.features.matrix, train.features.categorical, max_bins=256
        )
        head_cfg = BStumpConfig(n_rounds=6, calibrate=False, backend="hist")
        for code, model in budgeted.flat.models_.items():
            reference = BStump(head_cfg).fit(
                train.features.matrix, (train.disposition == code).astype(float),
                categorical=train.features.categorical, binned=explicit,
            )
            assert _stumps(model) == _stumps(reference), code


# ----- serialization -------------------------------------------------------


class TestLocatorSerialization:
    def test_round_trip_preserves_per_head_backend(self):
        train = _make_dataset(seed=71, n=240)
        model = CombinedLocator(_config("hist", 240)).fit(train)
        payload = json.loads(json.dumps(combined_locator_to_dict(model)))
        loaded = combined_locator_from_dict(payload)
        assert loaded.config == model.config
        for head in loaded.flat.models_.values():
            assert head.config.backend == "hist"
        for head in loaded.location_models_.values():
            assert head.config.backend == "hist"
        X = _make_dataset(seed=72, n=60).features.matrix
        assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))

    def test_old_payload_loads_as_exact(self):
        train = _make_dataset(seed=73, n=240)
        model = CombinedLocator(_config("exact", 240)).fit(train)
        payload = combined_locator_to_dict(model)
        # Simulate a pre-PR-6 payload: no locator-level backend knobs.
        for key in ("backend", "n_bins", "max_split_points"):
            del payload["config"][key]
        payload.pop(_CHECKSUM_FIELD)
        payload[_CHECKSUM_FIELD] = payload_checksum(payload)
        loaded = combined_locator_from_dict(payload)
        assert loaded.config.backend == "exact"
        X = _make_dataset(seed=74, n=60).features.matrix
        assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))

    def test_writes_every_v1_key(self):
        train = _make_dataset(seed=75, n=240)
        model = CombinedLocator(_config("hist", 240)).fit(train)
        config = combined_locator_to_dict(model)["config"]
        assert config == {
            "n_rounds": 12, "min_positive": locator_mod.MIN_POSITIVE,
            "prior_smoothing": locator_mod.PRIOR_SMOOTHING, "cv_folds": 2,
            "cv_seed": locator_mod.CV_SEED, "backend": "hist",
            "n_bins": 241, "max_split_points": 241,
        }
        assert list(config) == [
            "n_rounds", "min_positive", "prior_smoothing", "cv_folds",
            "cv_seed", "backend", "n_bins", "max_split_points",
        ]

    @pytest.mark.parametrize("key, value", [
        ("min_positive", 1), ("prior_smoothing", 0.5), ("cv_seed", 18),
        ("n_bins", 128),
    ])
    def test_retired_key_at_another_value_is_refused(self, key, value):
        train = _make_dataset(seed=76, n=240)
        model = CombinedLocator(_config("exact", 240)).fit(train)
        payload = combined_locator_to_dict(model)
        payload["config"][key] = value
        payload.pop(_CHECKSUM_FIELD)
        payload[_CHECKSUM_FIELD] = payload_checksum(payload)
        with pytest.raises(ValueError, match=key):
            combined_locator_from_dict(payload)


# ----- vectorised ranks_of_truth ------------------------------------------


class TestRanksOfTruth:
    def test_matches_old_implementation_on_ties(self, rng):
        # Quantised probabilities force many exact ties per row.
        probs = np.round(rng.random((60, 13)) * 4) / 4
        truth = rng.integers(0, 13, size=60)
        assert np.array_equal(
            ranks_of_truth(probs, truth), _reference_ranks(probs, truth)
        )

    def test_all_tied_row(self):
        probs = np.full((3, 5), 0.2)
        truth = np.array([0, 2, 4])
        # Stable descending order keeps column order among ties.
        assert list(ranks_of_truth(probs, truth)) == [1, 3, 5]

    def test_random_matrices(self, rng):
        probs = rng.random((200, 52))
        truth = rng.integers(0, 52, size=200)
        assert np.array_equal(
            ranks_of_truth(probs, truth), _reference_ranks(probs, truth)
        )

    def test_out_of_range_truth_raises(self):
        with pytest.raises(IndexError):
            ranks_of_truth(np.random.rand(2, 3), np.array([0, 3]))
        with pytest.raises(IndexError):
            ranks_of_truth(np.random.rand(2, 3), np.array([-1, 0]))


# ----- serve /locate parity -----------------------------------------------


class TestServeLocate:
    @pytest.fixture(scope="class")
    def engine(self, small_predictor, small_store, small_locator):
        from repro.serve import ModelBundle, ScoringEngine, StoredWorld

        return ScoringEngine(
            ModelBundle(predictor=small_predictor, locator=small_locator),
            StoredWorld(small_store),
        )

    def test_locate_byte_identical_to_golden(
        self, engine, small_store, small_locator, small_predictor
    ):
        """The served ranking equals the pre-change per-code-loop path."""
        from repro.tickets.dispatch import Dispatcher

        week = small_store.latest_week
        base = engine.world.encode_week(week, small_predictor.encoder)
        for line_id in (0, 3, 17):
            probs = _reference_combined_proba(
                small_locator, base.matrix[line_id][None, :]
            )[0]
            order = np.argsort(-probs, kind="stable")[:10]
            golden = [
                {
                    "rank": rank + 1,
                    "disposition": int(code),
                    "name": Dispatcher.disposition_name(int(code)),
                    "posterior": float(probs[code]),
                }
                for rank, code in enumerate(order)
            ]
            served = engine.locate(week, line_id)
            assert json.dumps(served, sort_keys=True) == json.dumps(
                golden, sort_keys=True
            )

    def test_locate_batch_matches_single_calls(self, engine, small_store):
        week = small_store.latest_week
        ids = [5, 0, 11, 5]
        batched = engine.locate_batch(week, ids, top_k=7)
        for line_id, ranking in zip(ids, batched):
            assert ranking == engine.locate(week, line_id, top_k=7)

    def test_locate_batch_validation(self, engine, small_store):
        week = small_store.latest_week
        with pytest.raises(ValueError):
            engine.locate_batch(week, [])
        with pytest.raises(IndexError):
            engine.locate_batch(week, [0, 10**9])

    def test_service_batched_endpoint(
        self, small_store, small_predictor, small_locator, tmp_path
    ):
        from repro.serve import ModelBundle, ModelRegistry, ScoringService

        registry_root = tmp_path / "registry"
        registry = ModelRegistry(registry_root)
        registry.publish(
            ModelBundle(
                predictor=small_predictor,
                meta={"gen": 1},
                locator=small_locator,
            ),
            activate=True,
        )
        service = ScoringService(small_store.root, registry_root)
        week = small_store.latest_week

        status, single = service.dispatch_request(
            "GET", f"/locate?line=4&week={week}&top=6"
        )
        assert status == 200
        status, batched = service.dispatch_request(
            "GET", f"/locate?lines=4,0,9&week={week}&top=6"
        )
        assert status == 200
        assert batched["lines"] == [4, 0, 9]
        assert batched["rankings"][0] == single["ranking"]

        status, _ = service.dispatch_request("GET", "/locate?lines=a,b")
        assert status == 400
        status, _ = service.dispatch_request("GET", "/locate?lines=")
        assert status == 400
        status, _ = service.dispatch_request(
            "GET", f"/locate?lines=0,999999&week={week}"
        )
        assert status == 404
