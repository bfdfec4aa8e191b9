"""Cold start: what importing and fitting load, and the scipy-free oracles.

``import repro.serve`` must not load scipy, and a locator fit (whose
Eq.-2 blend runs logistic regressions) must not load ``scipy.stats``.
The two places that used ``scipy.stats`` -- Wald P-values and triage's
binomial tails -- now call scipy kernels on first use; they are pinned
here bit for bit against the ``scipy.stats`` functions they replace.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from repro.fleet import aggregation, find_clusters
from repro.ml.logistic import LogisticRegressionResult, fit_logistic_regression

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestImportFootprint:
    def test_import_serve_loads_no_scipy(self):
        out = _run(
            "import json, sys, repro.serve\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.'))))"
        )
        assert out == []

    def test_locator_fit_loads_no_scipy_stats(self):
        out = _run(
            "import json, sys\n"
            "import repro\n"
            "from repro import (CombinedLocator, DslSimulator, LocatorConfig,\n"
            "    PopulationConfig, SimulationConfig, build_locator_dataset)\n"
            "import repro.core.locator as locator\n"
            "blends = []\n"
            "fit = locator.fit_logistic_regression\n"
            "locator.fit_logistic_regression = (\n"
            "    lambda *a, **k: blends.append(1) or fit(*a, **k))\n"
            "result = DslSimulator(SimulationConfig(n_weeks=10,\n"
            "    population=PopulationConfig(n_lines=800, seed=5),\n"
            "    fault_rate_scale=6.0, seed=3)).run()\n"
            "train = build_locator_dataset(result, 0, 70)\n"
            "CombinedLocator(LocatorConfig(n_rounds=3, cv_folds=2)).fit(train)\n"
            "print(json.dumps({'blends': len(blends), 'stats': sorted(\n"
            "    m for m in sys.modules if m.startswith('scipy.stats'))}))"
        )
        assert out["blends"] > 0  # the Eq.-2 blend did run regressions
        assert out["stats"] == []


class TestWaldPValues:
    def test_equal_to_norm_sf_on_many_z(self):
        rng = np.random.default_rng(0)
        z = np.concatenate([
            rng.normal(scale=3.0, size=50_000),
            np.exp(rng.uniform(-30.0, np.log(40.0), size=50_000)),
            [0.0, -0.0, np.inf, -np.inf, 1e-300, 8.2, 37.5, 38.5, 1e3],
        ])
        result = LogisticRegressionResult(
            coefficients=np.zeros(z.size), intercept=0.0,
            std_errors=np.ones(z.size), intercept_std_error=1.0,
            z_scores=z, intercept_z_score=float(z[0]),
            n_iter=1, converged=True, log_likelihood=0.0,
        )
        expected = 2.0 * stats.norm.sf(np.abs(z))
        assert np.array_equal(_bits(result.p_values), _bits(expected))

    def test_zero_std_error_gives_zero_p(self):
        # std == 0 makes the z-score inf, whose two-sided P-value is 0.
        result = LogisticRegressionResult(
            coefficients=np.array([1.0]), intercept=0.5,
            std_errors=np.array([0.0]), intercept_std_error=0.0,
            z_scores=np.array([np.inf]), intercept_z_score=np.inf,
            n_iter=1, converged=True, log_likelihood=0.0,
        )
        assert _bits(result.p_values) == _bits(2.0 * stats.norm.sf([np.inf]))
        assert result.intercept_p_value == float(2.0 * stats.norm.sf(np.inf))
        assert result.intercept_p_value == 0.0

    def test_fit_p_values_equal_norm_sf(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(600, 3))
        y = (X[:, 0] - 0.4 * X[:, 1] + rng.logistic(size=600) > 0).astype(int)
        fit = fit_logistic_regression(X, y)
        np.testing.assert_array_equal(
            fit.z_scores, fit.coefficients / fit.std_errors
        )
        assert np.array_equal(
            _bits(fit.p_values), _bits(2.0 * stats.norm.sf(np.abs(fit.z_scores)))
        )
        assert fit.intercept_p_value == float(
            2.0 * stats.norm.sf(abs(fit.intercept_z_score))
        )


def _scipy_tail(k, n, base_rate):
    return stats.binom.sf(k - 1, n, base_rate)


class TestBinomialTail:
    @pytest.mark.parametrize(
        "p", [1e-12, 1e-6, 1e-3, 0.01, 0.137, 0.5, 0.9, 0.999999, 1.0]
    )
    def test_equal_to_binom_sf_for_every_k(self, p):
        for n in (1, 2, 3, 7, 50, 333, 1000, 5000):
            k = np.arange(1, n + 1)
            got = aggregation._tail_p(k, np.full(n, n), p)
            assert np.array_equal(_bits(got), _bits(_scipy_tail(k, n, p))), n

    def test_find_clusters_equal_with_scipy_stats_tails(
        self, small_result, monkeypatch
    ):
        topology = small_result.population.topology
        rng = np.random.default_rng(9)
        scores = rng.standard_normal(topology.n_lines)
        hot = topology.lines_of_dslam(0)
        scores[hot[: hot.size // 2]] += 4.0
        ours = [find_clusters(scores, topology, c).to_dict() for c in (5, 25, 80)]
        monkeypatch.setattr(aggregation, "_tail_p", _scipy_tail)
        theirs = [
            find_clusters(scores, topology, c).to_dict() for c in (5, 25, 80)
        ]
        assert any(r["n_clusters"] for r in ours)
        assert json.dumps(ours) == json.dumps(theirs)
