"""Tests for the trouble locator (repro.core.locator)."""

import numpy as np
import pytest

# ``tests_to_locate`` is aliased so pytest does not collect it as a test.
from repro.core.locator import (
    CombinedLocator,
    ExperienceModel,
    FlatLocator,
    LocatorConfig,
    rank_improvement_by_bin,
    ranks_of_truth,
)
from repro.core.locator import tests_to_locate as locate_quantile
from repro.data.joins import build_locator_dataset


@pytest.fixture(scope="module")
def locator_data(request):
    result = request.getfixturevalue("locator_world")
    horizon = result.config.n_weeks * 7
    cut = int(horizon * 0.68)
    train = build_locator_dataset(result, first_day=30, last_day=cut)
    test = build_locator_dataset(result, first_day=cut + 1, last_day=horizon)
    return train, test


@pytest.fixture(scope="module")
def fast_config():
    return LocatorConfig(n_rounds=40)


class TestExperienceModel:
    def test_prior_is_distribution(self, locator_data, fast_config):
        train, _ = locator_data
        model = ExperienceModel(fast_config).fit(train)
        assert model.prior_.sum() == pytest.approx(1.0)
        assert np.all(model.prior_ > 0)  # smoothing covers unseen codes
        assert model.prior_.max() < 0.5  # no dominant disposition

    def test_rows_identical(self, locator_data, fast_config):
        train, test = locator_data
        model = ExperienceModel(fast_config).fit(train)
        probs = model.predict_proba(test.features.matrix[:5])
        assert np.allclose(probs, probs[0])

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ExperienceModel().predict_proba(np.zeros((1, 3)))


class TestFlatLocator:
    def test_probability_matrix_shape(self, locator_data, fast_config):
        train, test = locator_data
        model = FlatLocator(fast_config).fit(train)
        probs = model.predict_proba(test.features.matrix)
        assert probs.shape == (test.n_examples, 52)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_trains_models_for_common_dispositions(self, locator_data, fast_config):
        train, _ = locator_data
        model = FlatLocator(fast_config).fit(train)
        counts = np.bincount(train.disposition, minlength=52)
        common = np.flatnonzero(counts >= 10)
        trained = set(model.models_.keys())
        assert set(common.tolist()) <= trained

    def test_beats_experience_model(self, locator_data, fast_config):
        """Section 6.3: learned ranks beat frequency-only ranks."""
        train, test = locator_data
        experience = ExperienceModel(fast_config).fit(train)
        flat = FlatLocator(fast_config).fit(train)
        X = test.features.matrix
        basic_ranks = ranks_of_truth(experience.predict_proba(X), test.disposition)
        flat_ranks = ranks_of_truth(flat.predict_proba(X), test.disposition)
        assert flat_ranks.mean() < basic_ranks.mean()

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            FlatLocator().predict_proba(np.zeros((1, 3)))


class TestCombinedLocator:
    def test_blend_coefficients_fitted(self, locator_data, fast_config):
        train, _ = locator_data
        model = CombinedLocator(fast_config).fit(train)
        assert len(model.blend_) > 10
        assert len(model.location_models_) == 4

    def test_probability_matrix(self, locator_data, fast_config):
        train, test = locator_data
        model = CombinedLocator(fast_config).fit(train)
        probs = model.predict_proba(test.features.matrix)
        assert probs.shape == (test.n_examples, 52)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_beats_experience_model(self, locator_data, fast_config):
        train, test = locator_data
        experience = ExperienceModel(fast_config).fit(train)
        combined = CombinedLocator(fast_config).fit(train)
        X = test.features.matrix
        basic_ranks = ranks_of_truth(experience.predict_proba(X), test.disposition)
        combined_ranks = ranks_of_truth(combined.predict_proba(X), test.disposition)
        assert combined_ranks.mean() < basic_ranks.mean()

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            CombinedLocator().predict_proba(np.zeros((1, 3)))

    def test_explain_fig9_decomposition(self, locator_data, fast_config):
        train, test = locator_data
        model = CombinedLocator(fast_config).fit(train)
        code = next(iter(model.blend_))
        x = test.features.matrix[0]
        info = model.explain(x, code, top_k=4)
        # The reported posterior must be exactly Eq. 2 of the margins.
        g1, g2, g0 = info["gammas"]
        z = g1 * info["disposition_margin"] + g2 * info["location_margin"] + g0
        assert info["posterior"] == pytest.approx(1 / (1 + np.exp(-z)))
        assert len(info["disposition_contributions"]) <= 4
        # And it must agree with the batch path.
        probs = model.predict_proba(x[None, :])
        assert probs[0, code] == pytest.approx(info["posterior"], rel=1e-9)

    def test_explain_unknown_code_raises(self, locator_data, fast_config):
        train, _ = locator_data
        model = CombinedLocator(fast_config).fit(train)
        untrained = [c for c in range(52) if c not in model.blend_]
        if not untrained:
            pytest.skip("every disposition trained at this scale")
        with pytest.raises(KeyError):
            model.explain(np.zeros(train.features.n_features), untrained[0])


class TestRankMetrics:
    def test_ranks_of_truth_basic(self):
        probs = np.array([[0.1, 0.7, 0.2], [0.5, 0.3, 0.2]])
        truth = np.array([2, 0])
        assert list(ranks_of_truth(probs, truth)) == [2, 1]

    def test_ranks_shape_checked(self):
        with pytest.raises(ValueError):
            ranks_of_truth(np.zeros((2, 3)), np.zeros(3, dtype=int))

    def test_tests_to_locate_median(self):
        ranks = np.array([1, 2, 3, 4, 100])
        assert locate_quantile(ranks, 0.5) == 3
        assert locate_quantile(ranks, 1.0) == 100

    def test_tests_to_locate_validation(self):
        with pytest.raises(ValueError):
            locate_quantile(np.array([]))
        with pytest.raises(ValueError):
            locate_quantile(np.array([1]), quantile=0.0)

    def test_rank_improvement_bins(self):
        basic = np.array([2, 3, 18, 19, 20])
        model = np.array([1, 1, 10, 15, 30])
        rows = rank_improvement_by_bin(basic, model, bin_width=5)
        first = rows[0]
        assert first["bin_low"] == 1 and first["count"] == 2
        assert first["mean_rank_change"] == pytest.approx(1.5)
        deep = [r for r in rows if r["bin_low"] == 16][0]
        assert deep["count"] == 3
        assert deep["mean_rank_change"] == pytest.approx((8 + 4 - 10) / 3)

    def test_rank_improvement_alignment_checked(self):
        with pytest.raises(ValueError):
            rank_improvement_by_bin(np.array([1, 2]), np.array([1]))
