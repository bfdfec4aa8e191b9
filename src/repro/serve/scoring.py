"""The sharded scoring engine: store + registry -> dispatch lists.

This is the Saturday hot path of the serving subsystem.  One scoring run
for week ``t``:

1. split the population into contiguous line-shards and fan them across
   :func:`repro.parallel.parallel_map` workers;
2. each shard *encodes its own rows* -- the Table-3 encoder runs on
   zero-copy row views of the stored measurements, population arrays, and
   ticket vector, so no simulation, no re-training, and no full-plant
   temporaries;
3. each shard scores with the predictor's
   :class:`~repro.ml.ensemble_scoring.CompiledEnsemble` through the
   *columnar* entry point -- derived columns (quadratics, products of the
   selected base features) are materialised lazily per shard and only for
   the columns the compiled ensemble actually reads;
4. Platt-calibrate the concatenated margins into ``P(Tkt | x)`` and cut a
   capacity-bounded :class:`~repro.tickets.dispatch.DispatchList`.

Exactness: every encoder operation is row-wise (delta, per-line
time-series statistics, profile ratios, ticket recency, modem fraction
all reduce along the week/feature axes of each line independently), so
encoding a row-slice yields exactly the rows of the full encoding;
shards are contiguous, ordered, and reduced by concatenation, and the
columnar scorer folds feature groups in the same order as the batch
scorer.  The scores -- and therefore the dispatch list -- are therefore
bit-identical to ``TicketPredictor.score_week`` on the live simulation,
at any ``REPRO_WORKERS`` count and any shard size.

The per-line reads (``locate``, ``explain``, ``attribution_payloads``)
run the same read+encode over just the lines they name, so none builds
or caches a whole-week feature matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.explain.attribution import attribute_rows
from repro.explain.report import ExplanationReport, build_report
from repro.obs.log import RateLimitedLogger, get_logger
from repro.obs.profile import stage
from repro.parallel import parallel_map, split_shards
from repro.serve.cache import ScoreCache
from repro.serve.registry import ModelBundle
from repro.serve.store import (
    DEFAULT_SHARD_SIZE,
    StoredWorld,
    _population_row_view,
    _StoredTicketView,
)
from repro.tickets.dispatch import DispatchList, Dispatcher, build_dispatch_list

__all__ = ["WeekScores", "ScoringEngine", "DEFAULT_SHARD_SIZE", "score_bundles"]

#: Shard-level logging is a hot loop (a 100K-line week is dozens of
#: shards per run, every run): sample 1-in-50 per event, not per line.
_SHARD_LOG = RateLimitedLogger(get_logger("serve.scoring"), sample_every=50)


@dataclass(frozen=True)
class WeekScores:
    """One scored campaign.

    Attributes:
        week: the scored week.
        day: absolute Saturday day of the underlying line test.
        scores: per-line calibrated ticket probabilities.
        n_shards: how many line-shards the run fanned out.
        prepare_seconds: wall time of the ``serve.prepare`` stage, the
            shared set-up before the shard fan-out (population, week
            day, ticket vector).
        score_seconds: the rest of the ``serve.score_week`` stage: the
            shard fan-out (each shard's ``serve.read``, ``serve.encode``
            and ``serve.ensemble`` stages) plus calibration.
    """

    week: int
    day: int
    scores: np.ndarray
    n_shards: int
    prepare_seconds: float
    score_seconds: float

    @property
    def lines_per_sec(self) -> float:
        total = self.prepare_seconds + self.score_seconds
        return len(self.scores) / total if total > 0 else 0.0


def _read_and_encode(world, encoder, week, day, population, last_day, rows):
    """One ``serve.read`` then ``serve.encode`` stage over ``rows``: a
    scoring shard's slice or a sorted array of unique line ids.
    ``last_day`` holds the last-ticket days of just those rows."""
    with stage("serve.read", week=week):
        measurements = world.shard_measurements(rows)
    with stage("serve.encode", week=week):
        return encoder.encode(
            measurements,
            week,
            _population_row_view(population, rows),
            _StoredTicketView(last_day, day),
        )


def _score_shards(world, encoder, week, shard_size, workers, run, models,
                  label):
    """A scoring run's ``serve.prepare`` stage and shard fan-out.

    ``serve.prepare`` holds only the per-week set-up; each shard reads
    its own rows from disk and encodes them once, then every
    ``(compiled, recipes)`` model folds it under ``serve.ensemble``.
    Returns the week's day, the prepare seconds, the shard count and
    the ``(n_models, n_lines)`` margins.
    """
    with stage("serve.prepare", week=week) as prepare:
        population = world.population()
        day = world.store.day_of(week)
        last_day = np.asarray(world.store.last_ticket_day(week))
    shards = split_shards(world.n_lines, shard_size)
    run.set_tag("shards", len(shards))

    def score_shard(shard: slice) -> np.ndarray:
        base = _read_and_encode(world, encoder, week, day, population,
                                last_day[shard], shard)
        n_rows = base.matrix.shape[0]
        _SHARD_LOG.debug(label, week=week, rows=n_rows)
        with stage("serve.ensemble", week=week):
            return np.stack([
                compiled.decision_function_columns(
                    recipes.columns(base.matrix), n_rows
                )
                for compiled, recipes in models
            ])

    per_shard = parallel_map(score_shard, shards, workers, task_label=label)
    margins = np.concatenate(per_shard, axis=1)
    return day, prepare.seconds, len(shards), margins


def score_bundles(
    bundles: dict[str, ModelBundle],
    world: StoredWorld,
    week: int,
    shard_size: int = DEFAULT_SHARD_SIZE,
    workers: int | None = None,
) -> dict[str, np.ndarray]:
    """Score several bundles over one stored week, encoding each shard once.

    This is the shadow champion--challenger path: all bundles must share
    the same encoder configuration, so the Table-3 encode -- the dominant
    cost of a scoring run -- is paid once per shard and only the cheap
    per-model column assembly + compiled-ensemble fold is repeated.  Each
    model's scores are bit-identical to a solo :class:`ScoringEngine` run
    of the same bundle (same row-wise encode, same columnar fold order).

    Returns calibrated per-line score vectors keyed like ``bundles``.
    """
    if not bundles:
        raise ValueError("need at least one bundle to score")
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    names = list(bundles)
    encoder_configs = [bundles[n].predictor.encoder.config for n in names]
    if any(cfg != encoder_configs[0] for cfg in encoder_configs[1:]):
        raise ValueError(
            "bundles use different encoder configurations; the shared-"
            "encode shadow path needs identical Table-3 encoders"
        )
    models = []
    for name in names:
        predictor = bundles[name].predictor
        if predictor.model is None or predictor.model.calibrator is None:
            raise RuntimeError(f"bundle {name!r} is not fitted/calibrated")
        models.append((predictor.model.compiled(), predictor.recipes))

    with stage("serve.score_bundles", week=week, models=len(names)) as run:
        *_, margins = _score_shards(
            world, bundles[names[0]].predictor.encoder, week, shard_size,
            workers, run, models, "serve.shadow_shard",
        )
        return {
            name: bundles[name].predictor.model.calibrator.transform(margin)
            for name, margin in zip(names, margins)
        }


class ScoringEngine:
    """Scores stored weeks with a registry bundle, shard by shard."""

    def __init__(
        self,
        bundle: ModelBundle,
        world: StoredWorld,
        shard_size: int = DEFAULT_SHARD_SIZE,
        workers: int | None = None,
        model_version: str | None = None,
        cache: ScoreCache | None = None,
    ):
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self.bundle = bundle
        self.world = world
        self.shard_size = shard_size
        self.workers = workers
        self.model_version = model_version
        self.cache = cache
        self._score_cache: dict[int, WeekScores] = {}

    # ----- scoring --------------------------------------------------------

    def is_cached(self, week: int) -> bool:
        """Whether ``score_week`` would return without a scoring run."""
        if week in self._score_cache:
            return True
        return self.cache is not None and self.cache.peek(
            "scores", week, self.model_version
        )

    def score_week(self, week: int) -> WeekScores:
        """Calibrated P(ticket) for every line at a stored week (cached).

        Two cache levels: the engine's own week dict, then the shared
        version-keyed :class:`~repro.serve.cache.ScoreCache` that
        survives reloads.  A full shard scan only runs when both miss;
        the result is immutable, so both levels serve it verbatim.
        """
        cached = self._score_cache.get(week)
        if cached is not None:
            return cached
        if self.cache is not None:
            shared = self.cache.get("scores", week, self.model_version)
            if shared is not None:
                self._score_cache[week] = shared
                return shared
        predictor = self.bundle.predictor
        model = predictor.model
        if model is None:
            raise RuntimeError("bundle predictor is not fitted")

        with stage("serve.score_week", week=week) as run:
            run.set_tag("lines", self.world.n_lines)
            day, prepare_seconds, n_shards, [margin] = _score_shards(
                self.world, predictor.encoder, week, self.shard_size,
                self.workers, run, [(model.compiled(), predictor.recipes)],
                "serve.shard",
            )
            if model.calibrator is None:
                raise RuntimeError("bundle model has no calibrator")
            with stage("serve.calibrate", week=week):
                scores = model.calibrator.transform(margin)

        result = WeekScores(
            week=week,
            day=day,
            scores=scores,
            n_shards=n_shards,
            prepare_seconds=prepare_seconds,
            score_seconds=run.seconds - prepare_seconds,
        )
        self._score_cache[week] = result
        if self.cache is not None:
            self.cache.put("scores", week, self.model_version, result)
        return result

    def dispatch(self, week: int, capacity: int | None = None) -> DispatchList:
        """The top-``capacity`` dispatch list for a stored week.

        ``capacity`` defaults to the predictor's configured ATDS capacity;
        the ranking matches ``TicketPredictor.predict_top`` exactly.
        """
        scored = self.score_week(week)
        if capacity is None:
            capacity = self.bundle.predictor.config.capacity
        return build_dispatch_list(
            scored.scores,
            capacity,
            week=week,
            day=scored.day,
            model_version=self.model_version,
        )

    # ----- per-line reads -------------------------------------------------

    def _line_ids(self, line_ids) -> np.ndarray:
        """``line_ids`` as an int array; ``IndexError`` past the plant."""
        ids = np.asarray(line_ids, dtype=np.int64).reshape(-1)
        bad = ids[(ids < 0) | (ids >= self.world.n_lines)]
        if bad.size:
            raise IndexError(f"line {int(bad[0])} out of range")
        return ids

    def _base_rows(self, week: int, ids: np.ndarray) -> np.ndarray:
        """Base-feature rows of ``ids`` at a stored week, in request order,
        each line encoded once; row-wise encoding makes them equal the
        whole-week encoding's rows bit for bit."""
        unique, inverse = np.unique(ids, return_inverse=True)
        store = self.world.store
        base = _read_and_encode(
            self.world, self.bundle.predictor.encoder, week,
            store.day_of(week), self.world.population(),
            store.read_ticket_rows(week, unique), unique,
        )
        return base.matrix[inverse]

    # ----- trouble location ----------------------------------------------

    def locate(self, week: int, line_id: int, top_k: int = 10) -> list[dict]:
        """Ranked disposition candidates for one line at a stored week.

        Uses the bundle's combined locator on the line's encoded features
        (the serving analogue of handing the technician the Section-6
        ranked list).  Raises if the bundle was published without a
        locator.
        """
        return self.locate_batch(week, [line_id], top_k=top_k)[0]

    def locate_batch(
        self, week: int, line_ids, top_k: int = 10
    ) -> list[list[dict]]:
        """Ranked disposition candidates for several lines at once.

        All requested lines are scored in one stacked multi-head locator
        pass (the 52 disposition heads and 4 location heads each read
        the gathered feature columns once), instead of N single-row
        ``predict_proba`` calls.  Per-line rankings are identical to
        :meth:`locate` and come back in request order, duplicates
        included.
        """
        if self.bundle.locator is None:
            raise RuntimeError("bundle has no trouble locator")
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        ids = self._line_ids(line_ids)
        if not ids.size:
            raise ValueError("no line ids supplied")
        return self._rankings(self._base_rows(week, ids), top_k)

    def _rankings(self, base_rows: np.ndarray, top_k: int) -> list[list[dict]]:
        probs = self.bundle.locator.predict_proba(base_rows)
        rankings: list[list[dict]] = []
        for row in probs:
            order = np.argsort(-row, kind="stable")[:top_k]
            rankings.append(
                [
                    {
                        "rank": rank + 1,
                        "disposition": int(code),
                        "name": Dispatcher.disposition_name(int(code)),
                        "posterior": float(row[code]),
                    }
                    for rank, code in enumerate(order)
                ]
            )
        return rankings

    # ----- explanation ----------------------------------------------------

    def explain(
        self, week: int, line_id: int, top_k: int = 5, triage=None
    ) -> ExplanationReport:
        """The two-stage explanation report for one scored line-week.

        Decomposes the line's served margin into exact per-feature votes
        (the attribution fold reproduces the compiled margin
        bit-identically), attaches plant context and -- when the bundle
        carries a locator -- the predicted disposition with its
        templated technician steps.  The line is encoded once and its
        row feeds both the attribution and the locator ranking; the
        served score comes from the week caches.
        """
        [line_id] = self._line_ids(line_id).tolist()
        scored = self.score_week(week)
        base_rows = self._base_rows(week, np.array([line_id]))
        ranking = None
        if self.bundle.locator is not None:
            ranking = self._rankings(base_rows, 3)[0]
        topology = self.world.population().topology
        return build_report(
            line=line_id,
            week=week,
            day=scored.day,
            model_version=self.model_version,
            predictor=self.bundle.predictor,
            base_row=base_rows[0],
            p_ticket=float(scored.scores[line_id]),
            topology=topology,
            ranking=ranking,
            triage=triage,
            top_k=top_k,
        )

    def attribution_payloads(
        self, week: int, line_ids, top_k: int = 3
    ) -> list[dict]:
        """Compact attribution payloads for a batch of lines (one per id).

        The dispatch-list enrichment path (``/dispatch?explain=1``): only
        the named lines are encoded, once each, and one batch attribution
        pass decomposes every line's margin exactly, keeping only the
        ``top_k`` votes per line.
        """
        predictor = self.bundle.predictor
        if predictor.model is None:
            raise RuntimeError("bundle predictor is not fitted")
        ids = self._line_ids(line_ids)
        if not ids.size:
            return []
        scored = self.score_week(week)
        rows = predictor.recipes.columns(self._base_rows(week, ids)).rows()
        attribution = attribute_rows(
            predictor.model.compiled(), rows, names=predictor.feature_names
        )
        return [
            {
                "line": line_id,
                "p_ticket": float(scored.scores[line_id]),
                "margin": margin,
                "contributions": [c.to_dict() for c in kept],
            }
            for line_id, margin, kept in zip(
                ids.tolist(), attribution.margins.tolist(),
                attribution.top(top_k),
            )
        ]
