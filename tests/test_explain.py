"""Exact attribution, technician templates, and the two-stage report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.explain import (
    assemble_model_row,
    attribute_ensemble,
    attribute_head,
    attribute_rows,
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


def _reference_votes(groups, tables, row):
    """Scalar left-fold reference: each group's slot by its definition,
    its vote, and the running margin, one row at a time."""
    margin, votes = 0.0, []
    for group, table in zip(groups, tables):
        value = float(row[group.feature])
        size = group.keys.size
        if np.isnan(value):
            slot = size + 1
        elif group.categorical:
            hits = np.flatnonzero(group.keys == value)
            slot = int(hits[0]) if hits.size else size
        else:
            slot = int(np.count_nonzero(group.keys <= value))
        vote = float(table[slot])
        margin += vote
        votes.append((group, value, slot, vote))
    return margin, votes


def _reference_top(votes, k):
    """``ranked()``'s rule: |vote| descending, ties in fold order."""
    order = sorted(range(len(votes)), key=lambda j: -abs(votes[j][3]))
    top = []
    for rank, j in enumerate(order[:k]):
        group, value, slot, vote = votes[j]
        size = group.keys.size
        missing = slot == size + 1
        if missing:
            crossed, threshold = 0, None
        elif group.categorical:
            crossed = int(slot < size)
            threshold = value if crossed else None
        else:
            crossed = slot
            threshold = float(group.keys[slot - 1]) if slot else None
        top.append((rank + 1, group.feature, group.categorical,
                    None if missing else value, missing, vote, crossed,
                    size, threshold))
    return top


def _as_tuples(contributions):
    keys = ("rank", "feature", "categorical", "value", "missing",
            "contribution", "thresholds_crossed", "n_thresholds",
            "threshold")
    return [tuple(c.to_dict()[key] for key in keys) for c in contributions]


class TestBatchAttribution:
    """The batch kernel against the scalar left-fold, row by row."""

    def _model(self, rng, rounds=30):
        X, y, categorical = _training_matrix(rng)
        compiled = (
            BStump(BStumpConfig(n_rounds=rounds))
            .fit(X, y, categorical=categorical)
            .compiled()
        )
        rows = np.vstack([X[:60], np.full(X.shape[1], np.nan)])
        return compiled, rows

    def test_votes_margins_and_top_match_the_scalar_fold(self, rng):
        compiled, rows = self._model(rng)
        batch = attribute_rows(compiled, rows)
        tables = [g.table for g in compiled.groups]
        n_groups = len(compiled.groups)
        assert batch.votes.shape == (len(rows), n_groups)
        assert np.array_equal(
            batch.margins.view(np.uint64),
            compiled.decision_function(rows).view(np.uint64),
        )
        tops = {k: batch.top(k) for k in (1, 3, n_groups)}
        for i, row in enumerate(rows):
            margin, votes = _reference_votes(compiled.groups, tables, row)
            assert batch.margins[i] == margin
            assert batch.reconstructed(i) == margin
            assert batch.votes[i].tolist() == [v[3] for v in votes]
            for k, top in tops.items():
                assert _as_tuples(top[i]) == _reference_top(votes, k)
            attribution = batch.attribution(i)
            assert attribution.margin == margin
            assert _as_tuples(attribution.ranked()) == _reference_top(
                votes, n_groups
            )

    def test_equal_magnitude_votes_rank_in_fold_order(self):
        def stump(feature, s_lo, s_hi):
            return Stump(feature=feature, threshold=0.0, s_lo=s_lo, s_hi=s_hi,
                         s_miss=0.0, categorical=False, z=1.0)

        compiled = compile_stumps(
            [stump(0, -0.5, 0.5), stump(1, 0.5, -0.5), stump(2, 0.25, 0.5),
             stump(3, -0.5, 0.25), stump(4, 0.5, -0.25)],
            5,
        )
        # Votes 0.5, -0.5, 0.5, -0.5, 0.5: every |vote| ties.
        rows = np.array([[1.0, 1.0, 1.0, -1.0, -1.0],
                         [-1.0, -1.0, -1.0, 1.0, 1.0]])
        batch = attribute_rows(compiled, rows)
        assert [abs(v) for v in batch.votes[0].tolist()] == [0.5] * 5
        assert [c.feature for c in batch.top(5)[0]] == [0, 1, 2, 3, 4]
        assert [c.feature for c in batch.top(2)[0]] == [0, 1]
        # Votes -0.5, 0.5, 0.25, 0.25, -0.25: ties inside each magnitude.
        assert [c.feature for c in batch.top(5)[1]] == [0, 1, 2, 3, 4]
        assert [c.feature for c in attribute_ensemble(
            compiled, rows[0]).ranked()] == [0, 1, 2, 3, 4]

    def test_k_past_the_group_count_keeps_every_vote(self, rng):
        compiled, rows = self._model(rng, rounds=10)
        n_groups = len(compiled.groups)
        for top in attribute_rows(compiled, rows[:5]).top(n_groups + 7):
            assert [c.rank for c in top] == list(range(1, n_groups + 1))
        with pytest.raises(ValueError):
            attribute_rows(compiled, rows).top(0)
        with pytest.raises(ValueError):
            attribute_rows(compiled, rows[:, :4])

    def test_attribute_head_runs_the_same_kernel(self, rng):
        X, y, categorical = _training_matrix(rng)
        heads = {
            head: BStump(BStumpConfig(n_rounds=12))
            .fit(X, np.roll(y, 11 * head), categorical=categorical)
            .compiled()
            for head in (0, 2)
        }
        multi = compile_multihead(heads, n_heads=3, n_features=X.shape[1])
        for head, compiled in heads.items():
            pos = int(np.flatnonzero(multi.head_columns == head)[0])
            groups, tables = [], []
            for group in multi.groups:
                members = np.flatnonzero(group.head_positions == pos)
                if members.size:
                    groups.append(group)
                    tables.append(group.tables[int(members[0])])
            solo = compiled.decision_function(X[:30])
            for i in range(30):
                margin, votes = _reference_votes(groups, tables, X[i])
                attribution = attribute_head(multi, X[i], head)
                assert attribution.margin == margin == solo[i]
                assert [c.contribution for c in attribution.contributions] == [
                    v[3] for v in votes
                ]
                assert _as_tuples(attribution.top(4)) == _reference_top(
                    votes, 4
                )


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
