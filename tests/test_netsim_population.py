"""Unit tests for the population builder (repro.netsim.population)."""

import numpy as np
import pytest

from repro.netsim.population import PopulationConfig, build_population
from repro.netsim.profiles import PROFILES


@pytest.fixture(scope="module")
def population():
    return build_population(PopulationConfig(n_lines=4000, seed=3))


class TestBuild:
    def test_size(self, population):
        assert population.n_lines == 4000
        assert population.loop_kft.shape == (4000,)
        assert population.profile_idx.shape == (4000,)

    def test_deterministic_under_seed(self):
        a = build_population(PopulationConfig(n_lines=500, seed=8))
        b = build_population(PopulationConfig(n_lines=500, seed=8))
        assert np.array_equal(a.loop_kft, b.loop_kft)
        assert np.array_equal(a.profile_idx, b.profile_idx)

    def test_seed_changes_population(self):
        a = build_population(PopulationConfig(n_lines=500, seed=8))
        b = build_population(PopulationConfig(n_lines=500, seed=9))
        assert not np.array_equal(a.loop_kft, b.loop_kft)

    def test_loop_lengths_plausible(self, population):
        assert population.loop_kft.min() >= 0.3
        assert population.loop_kft.max() <= 22.0
        assert 3.0 < population.loop_kft.mean() < 9.0
        # Long tail past the basic 15 kft rule exists but is small.
        frac_long = np.mean(population.loop_kft > 15.0)
        assert 0.0 < frac_long < 0.15

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            build_population(PopulationConfig(n_lines=0))


class TestProvisioning:
    def test_most_lines_within_tier_reach(self, population):
        reach = np.array([p.max_loop_kft for p in PROFILES])
        ok = population.loop_kft <= reach[population.profile_idx]
        # Only the misprovisioned fraction (default 5%) may exceed reach,
        # plus loops beyond every tier's reach.
        assert np.mean(ok) > 0.9

    def test_misprovisioned_lines_exist(self, population):
        reach = np.array([p.max_loop_kft for p in PROFILES])
        assert np.any(population.loop_kft > reach[population.profile_idx])

    def test_all_tiers_used(self, population):
        assert set(np.unique(population.profile_idx)) == set(range(len(PROFILES)))


class TestTopology:
    def test_validates(self, population):
        population.topology.validate()

    def test_dslam_fill_several_tens(self, population):
        sizes = [len(d.line_ids) for d in population.topology.dslams]
        assert 8 <= min(sizes)
        assert np.mean(sizes) == pytest.approx(48, rel=0.35)

    def test_line_maps_consistent(self, population):
        topo = population.topology
        for dslam in topo.dslams[:10]:
            assert np.all(topo.line_dslam[dslam.line_ids] == dslam.dslam_id)
            assert np.all(topo.line_bras[dslam.line_ids] == dslam.bras_id)

    def test_conditions_bundle(self, population):
        cond = population.conditions()
        assert cond.n_lines == population.n_lines
        expected_down = np.array([p.down_kbps for p in PROFILES])
        assert np.array_equal(
            cond.profile_down_kbps, expected_down[population.profile_idx]
        )
