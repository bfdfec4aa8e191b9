"""Exact attribution, technician templates, and the two-stage report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.explain import (
    assemble_model_row,
    attribute_ensemble,
    attribute_head,
    build_report,
    disposition_headline,
    no_locator_steps,
    technician_steps,
)
from repro.ml.boostexter import BStump, BStumpConfig
from repro.ml.ensemble_scoring import compile_multihead, compile_stumps
from repro.ml.stumps import Stump
from repro.netsim.components import DISPOSITIONS
from repro.serve import ModelBundle, ScoringEngine, StoredWorld


def _training_matrix(rng, n: int = 400, d: int = 8):
    """NaN-heavy synthetic data with one categorical column (index 2)."""
    X = rng.normal(size=(n, d)) * 4 + 10
    X[:, 2] = rng.integers(0, 5, size=n)
    X[rng.random((n, d)) < 0.15] = np.nan
    y = (
        np.nansum(X[:, :3], axis=1) + rng.normal(scale=2.0, size=n) > 30
    ).astype(int)
    categorical = np.zeros(d, dtype=bool)
    categorical[2] = True
    return X, y, categorical


class TestAttributionParity:
    """The vote fold must reproduce the compiled margin bit-for-bit."""

    @pytest.mark.parametrize("backend", ["exact", "hist"])
    def test_single_head_bit_identical(self, rng, backend):
        X, y, categorical = _training_matrix(rng)
        model = BStump(BStumpConfig(n_rounds=25, backend=backend)).fit(
            X, y, categorical=categorical
        )
        compiled = model.compiled()
        margins = compiled.decision_function(X[:40])
        for i in range(40):
            attribution = attribute_ensemble(compiled, X[i])
            assert attribution.margin == margins[i]
            assert attribution.reconstructed() == attribution.margin
            assert abs(
                sum(c.contribution for c in attribution.contributions)
                - attribution.margin
            ) <= 1e-12
            assert len(attribution.contributions) == len(compiled.groups)

    def test_multi_head_bit_identical(self, rng):
        X, y, categorical = _training_matrix(rng)
        heads = {}
        for head in range(3):
            labels = np.roll(y, 7 * head)
            heads[head] = (
                BStump(BStumpConfig(n_rounds=15))
                .fit(X, labels, categorical=categorical)
                .compiled()
            )
        multi = compile_multihead(heads, n_heads=4, n_features=X.shape[1])
        matrix = multi.decision_matrix(X[:25])
        for head, compiled in heads.items():
            solo = compiled.decision_function(X[:25])
            for i in range(25):
                attribution = attribute_head(multi, X[i], head)
                assert attribution.margin == matrix[i, head]
                assert attribution.margin == solo[i]
                assert attribution.reconstructed() == attribution.margin

    def test_missing_head_raises(self, rng):
        X, y, categorical = _training_matrix(rng)
        compiled = (
            BStump(BStumpConfig(n_rounds=5))
            .fit(X, y, categorical=categorical)
            .compiled()
        )
        multi = compile_multihead({0: compiled}, n_heads=4,
                                  n_features=X.shape[1])
        with pytest.raises(KeyError):
            attribute_head(multi, X[0], 3)

    def test_all_missing_row(self, rng):
        X, y, categorical = _training_matrix(rng)
        compiled = (
            BStump(BStumpConfig(n_rounds=20))
            .fit(X, y, categorical=categorical)
            .compiled()
        )
        row = np.full(X.shape[1], np.nan)
        attribution = attribute_ensemble(compiled, row)
        assert attribution.margin == compiled.decision_function(row[None])[0]
        assert all(c.missing for c in attribution.contributions)
        assert all("missing" in c.evidence for c in attribution.contributions)

    def test_vote_context_follows_the_slot(self):
        def stump(feature, threshold, categorical):
            return Stump(feature=feature, threshold=threshold, s_lo=-0.5,
                         s_hi=1.0, s_miss=0.25, categorical=categorical, z=1.0)

        compiled = compile_stumps(
            [stump(0, 1.0, False), stump(0, 3.0, False),
             stump(1, 2.0, True), stump(1, 5.0, True)],
            2,
        )

        def context(row):
            return [
                (c.thresholds_crossed, c.threshold, c.missing)
                for c in attribute_ensemble(compiled, np.array(row))
                .contributions
            ]

        assert context([3.0, 5.0]) == [(2, 3.0, False), (1, 5.0, False)]
        (cont, cont_last, _), (cat, cat_code, _) = context([0.5, 4.0])
        assert (cont, cat) == (0, 0)
        assert np.isnan(cont_last) and np.isnan(cat_code)
        assert [(c, m) for c, _, m in context([np.nan, np.nan])] == [
            (0, True), (0, True)
        ]

    def test_shape_mismatch_rejected(self, rng):
        X, y, categorical = _training_matrix(rng)
        compiled = (
            BStump(BStumpConfig(n_rounds=5))
            .fit(X, y, categorical=categorical)
            .compiled()
        )
        with pytest.raises(ValueError):
            attribute_ensemble(compiled, X[0, :4])

    def test_ranked_fills_ranks_by_magnitude(self, rng):
        X, y, categorical = _training_matrix(rng)
        compiled = (
            BStump(BStumpConfig(n_rounds=25))
            .fit(X, y, categorical=categorical)
            .compiled()
        )
        attribution = attribute_ensemble(compiled, X[0])
        ranked = attribution.ranked()
        magnitudes = [abs(c.contribution) for c in ranked]
        assert magnitudes == sorted(magnitudes, reverse=True)
        assert [c.rank for c in ranked] == list(range(1, len(ranked) + 1))
        assert len(attribution.top(3)) == min(3, len(ranked))
        with pytest.raises(ValueError):
            attribution.top(0)


class TestTemplates:
    """Every catalog disposition must render, with no hand-kept table."""

    def test_all_52_dispositions_render(self):
        assert len(DISPOSITIONS) == 52
        for code in range(len(DISPOSITIONS)):
            steps = technician_steps(code)
            assert len(steps) >= 5
            assert steps[0].startswith("Dispatch to the ")
            assert DISPOSITIONS[code].name.lower() in steps[1]
            headline = disposition_headline(code)
            assert DISPOSITIONS[code].code in headline
            assert DISPOSITIONS[code].location.name in headline

    def test_no_trouble_found(self):
        steps = technician_steps(-1)
        assert steps and "no trouble found" in " ".join(steps)
        assert "no trouble found" in disposition_headline(-1)

    def test_no_locator_fallback(self):
        steps = no_locator_steps()
        assert steps and "No locator" in steps[0]

    def test_out_of_catalog_raises(self):
        with pytest.raises(IndexError):
            technician_steps(len(DISPOSITIONS))


@pytest.fixture(scope="module")
def explain_engine(small_store, small_predictor, small_locator):
    world = StoredWorld(small_store)
    return ScoringEngine(
        ModelBundle(predictor=small_predictor, locator=small_locator),
        world,
        shard_size=500,
        model_version="vtest",
    )


class TestReport:
    """End-to-end: reports reconstruct the served scores exactly."""

    def test_assemble_matches_served_margins(
        self, explain_engine, small_store, small_predictor
    ):
        week = small_store.latest_week
        base = explain_engine.world.encode_week(week, small_predictor.encoder)
        compiled = small_predictor.model.compiled()
        sample = np.linspace(0, small_store.n_lines - 1, 30).astype(int)
        rows = np.stack([
            assemble_model_row(base.matrix[i], small_predictor.recipes)
            for i in sample
        ])
        margins = compiled.decision_function(rows)
        scored = explain_engine.score_week(week)
        calibrator = small_predictor.model.calibrator
        for pos, line in enumerate(sample):
            attribution = attribute_ensemble(compiled, rows[pos])
            assert attribution.margin == margins[pos]
            calibrated = float(
                calibrator.transform(np.array([attribution.margin]))[0]
            )
            assert calibrated == float(scored.scores[line])

    def test_row_and_column_assembly_follow_the_recipe(
        self, explain_engine, small_store, small_predictor
    ):
        base = explain_engine.world.encode_week(
            small_store.latest_week, small_predictor.encoder
        )
        recipes = small_predictor.recipes
        assert recipes.quad_indices and recipes.product_pairs
        m = base.matrix
        reference = np.column_stack(
            [m[:, i] for i in recipes.base_indices]
            + [m[:, i] ** 2 for i in recipes.quad_indices]
            + [m[:, i] * m[:, k] for i, k in recipes.product_pairs]
        ).view(np.uint64)
        columns = recipes.columns(m)
        stacked = np.column_stack(
            [columns(j) for j in range(recipes.n_columns)]
        )
        assert np.array_equal(stacked.view(np.uint64), reference)
        assert np.array_equal(columns.rows().view(np.uint64), reference)
        assert np.array_equal(
            small_predictor._assemble(base).view(np.uint64), reference
        )

    def test_report_two_stage_rendering(self, explain_engine, small_store):
        week = small_store.latest_week
        report = explain_engine.explain(week, 123, top_k=5)
        assert report.attribution_exact
        assert report.n_contributors >= 5
        assert len(report.attributions) == 5
        assert report.attributions[0]["rank"] == 1
        assert report.disposition is not None
        assert report.next_steps
        payload = report.to_dict()
        assert payload["line"] == 123 and payload["week"] == week
        rendered = report.render_text()
        assert "=== diagnostic summary ===" in rendered
        assert "=== technician next steps ===" in rendered
        assert report.disposition["headline"] in rendered

    def test_report_plant_context(
        self, explain_engine, small_store, small_result
    ):
        topology = small_result.population.topology
        report = explain_engine.explain(small_store.latest_week, 42)
        assert report.plant["dslam"] == int(topology.line_dslam[42])
        binder = int(topology.binder_of_line(42))
        expected = binder if binder >= 0 else None
        assert report.plant["binder"] == expected

    def test_report_triage_membership(
        self, explain_engine, small_store, small_result, small_predictor
    ):
        from repro.fleet import find_clusters

        week = small_store.latest_week
        scored = explain_engine.score_week(week)
        triage = find_clusters(
            scored.scores,
            small_result.population.topology,
            small_predictor.config.capacity,
        )
        inside = {
            int(i) for c in triage.clusters for i in c.line_ids
        }
        line = min(inside) if inside else 0
        report = explain_engine.explain(week, line, triage=triage)
        if inside:
            cluster = triage.cluster_of_line(line)
            assert report.plant["triage"]["level"] == cluster.level
            assert report.plant["triage"]["group_id"] == cluster.group_id
        else:
            assert report.plant["triage"] is None

    def test_no_locator_falls_back(
        self, small_store, small_predictor, small_result
    ):
        week = small_store.latest_week
        world = StoredWorld(small_store)
        engine = ScoringEngine(
            ModelBundle(predictor=small_predictor), world, shard_size=500
        )
        report = engine.explain(week, 7)
        assert report.disposition is None
        assert report.next_steps == no_locator_steps()
        assert "unavailable (no locator)" in report.render_text()

    def test_build_report_validates_top_k(
        self, explain_engine, small_store, small_predictor, small_result
    ):
        base = explain_engine.world.encode_week(
            small_store.latest_week, small_predictor.encoder
        )
        with pytest.raises(ValueError):
            build_report(
                line=0,
                week=0,
                day=6,
                model_version=None,
                predictor=small_predictor,
                base_row=base.matrix[0],
                p_ticket=0.5,
                topology=small_result.population.topology,
                top_k=0,
            )

    def test_line_out_of_range(self, explain_engine, small_store):
        with pytest.raises(IndexError):
            explain_engine.explain(small_store.latest_week, 10**6)
