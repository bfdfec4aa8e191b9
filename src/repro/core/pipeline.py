"""The closed NEVERMIND operational loop (Fig. 3, bottom box).

Runs the simulator forward week by week; after a warm-up period long
enough to train the predictor, every Saturday it

1. re-ranks all lines by ticket probability using the latest line test,
2. submits the top-``capacity`` lines to ATDS, which dispatches proactive
   fixes over the quiet weekend window (customer tickets keep priority --
   the proactive work only uses the residual capacity),
3. books the outcome: real problems found and fixed before a complaint,
   versus no-trouble-found dispatches.

This is the deployment mode the paper's conclusion says AT&T was trialing;
the offline benchmarks in :mod:`benchmarks` evaluate the components, while
this pipeline shows the end-to-end effect on the ticket stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.predictor import PredictorConfig, TicketPredictor
from repro.data.splits import TemporalSplit, paper_style_split
from repro.netsim.simulator import DslSimulator, SimulationConfig
from repro.obs.history import HistoryStore
from repro.obs.log import get_logger, kv
from repro.obs.metrics import get_registry
from repro.obs.profile import current_rss_kb, peak_rss_kb, stage

LOG = get_logger("pipeline")

if TYPE_CHECKING:  # serve/fleet imports stay out of the core import path
    from repro.fleet.aggregation import TriageConfig
    from repro.serve.registry import ModelRegistry
    from repro.serve.store import LineWeekStore

__all__ = ["PipelineConfig", "WeeklyReport", "NevermindPipeline"]


@dataclass(frozen=True)
class PipelineConfig:
    """Operational-loop parameters.

    Attributes:
        warmup_weeks: weeks of purely reactive operation before the first
            model is trained (needs history + train + selection zones).
        retrain_every: retrain cadence in weeks (0 = train once).
        fix_delay_days: days after the Saturday test when proactive
            dispatches land (2 = by Monday, the Fig-8 reference point).
        predictor: ticket-predictor configuration.
        triage: plant-triage parameters (:mod:`repro.fleet`); None keeps
            the loop purely per-line -- scoring, ranking and dispatch
            stay bit-identical to a pipeline without the triage stage.
    """

    warmup_weeks: int = 16
    retrain_every: int = 0
    fix_delay_days: int = 2
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    triage: "TriageConfig | None" = None


@dataclass
class WeeklyReport:
    """What the proactive loop did in one week.

    Attributes:
        week: the week just completed.
        submitted: line ids sent to ATDS.
        real_problems: how many submissions had an active fault.
        fixed: how many of those the dispatch actually cleared.
        no_trouble_found: dispatches on healthy lines.
        mean_top_p: mean predicted P(ticket) of the submitted lines --
            compared against the realized precision this is the live
            calibration-drift signal (no second scoring pass needed).
        clusters_found: upstream plant clusters the triage stage found
            (0 when triage is disabled -- as are the fields below).
        suppressed: per-line dispatches collapsed into group dispatches.
        backfilled: freed top-N slots refilled from the ranked list.
        group_problems_found: group dispatches that found a real shared
            fault.
        group_fixed: group dispatches that cleared the shared fault.
    """

    week: int
    submitted: np.ndarray
    real_problems: int
    fixed: int
    no_trouble_found: int
    mean_top_p: float = 0.0
    clusters_found: int = 0
    suppressed: int = 0
    backfilled: int = 0
    group_problems_found: int = 0
    group_fixed: int = 0

    @property
    def precision(self) -> float:
        """Fraction of submissions that were real problems."""
        return self.real_problems / len(self.submitted) if len(self.submitted) else 0.0


class NevermindPipeline:
    """Couples a :class:`DslSimulator` with a :class:`TicketPredictor`."""

    def __init__(
        self,
        simulation: SimulationConfig | None = None,
        config: PipelineConfig | None = None,
        store: "LineWeekStore | None" = None,
        registry: "ModelRegistry | None" = None,
        on_week_end=None,
        history: HistoryStore | None = None,
    ):
        """Args:
            simulation: plant configuration (defaults as in DslSimulator).
            config: operational-loop parameters.
            store: optional line-week store; each completed week's
                campaign is appended instead of discarded, so the serving
                subsystem can re-score it without re-simulation.
            registry: optional model registry; every (re)trained
                predictor is published and activated as a new version.
            on_week_end: optional ``callback(week, report)`` invoked at
                the end of every completed week (``report`` is None
                during warm-up).  The lifecycle controller hangs its
                scheduler off this hook instead of duplicating the
                weekly cadence; it may also be assigned after
                construction via the ``on_week_end`` attribute.
            history: optional flight recorder
                (:class:`repro.obs.history.HistoryStore`); every live
                week appends one ``pipeline_week`` record with the
                quality gauges and per-stage resource costs, so trends
                survive the process and the health detector can read
                them back.
        """
        self.config = config or PipelineConfig()
        self.simulator = DslSimulator(simulation)
        self.predictor = TicketPredictor(self.config.predictor)
        self.store = store
        self.registry = registry
        self.on_week_end = on_week_end
        self.history = history
        self.reports: list[WeeklyReport] = []
        self._trained_at: int | None = None
        registry_m = get_registry()
        self._weeks_total = registry_m.counter(
            "repro_pipeline_weeks_total", "Live proactive weeks completed"
        )
        self._submitted_total = registry_m.counter(
            "repro_pipeline_submitted_total", "Lines submitted to ATDS"
        )
        self._real_total = registry_m.counter(
            "repro_pipeline_real_problems_total",
            "Submitted lines that had an active fault",
        )
        self._fixed_total = registry_m.counter(
            "repro_pipeline_fixed_total",
            "Submitted faults cleared before a customer complaint",
        )
        self._precision_gauge = registry_m.gauge(
            "repro_pipeline_precision",
            "Precision of the most recent weekly campaign",
        )
        self._drift_gauge = registry_m.gauge(
            "repro_pipeline_calibration_drift",
            "Mean predicted P of submitted lines minus realized precision",
        )
        self._clusters_total = registry_m.counter(
            "repro_triage_clusters_total",
            "Upstream plant clusters found by weekly triage",
        )
        self._suppressed_total = registry_m.counter(
            "repro_triage_suppressed_total",
            "Per-line dispatches suppressed into group dispatches",
        )
        self._backfilled_total = registry_m.counter(
            "repro_triage_backfilled_total",
            "Freed top-N slots refilled from the ranked list",
        )
        self._clusters_gauge = registry_m.gauge(
            "repro_triage_clusters",
            "Upstream clusters in the most recent weekly triage",
        )

    def _training_split(self, week: int) -> TemporalSplit:
        """A split ending at ``week`` with the horizon fully in the past."""
        horizon = self.config.predictor.horizon_weeks
        usable = week + 1 - horizon
        history = max(2, usable - 6)
        train = min(3, usable - history - 2)
        selection = usable - history - train
        return paper_style_split(
            n_weeks=week + 1,
            history=history,
            train=train,
            selection=selection,
            test=0,
            horizon_weeks=horizon,
        )

    def _maybe_train(self, week: int) -> None:
        cfg = self.config
        if week + 1 < cfg.warmup_weeks:
            return
        due = self._trained_at is None or (
            cfg.retrain_every > 0 and week - self._trained_at >= cfg.retrain_every
        )
        if due:
            self.retrain(week)

    def retrain(self, week: int) -> None:
        """(Re)fit the serving predictor on all data up to ``week``.

        The internal cadence (``_maybe_train``) and external schedulers
        (the lifecycle controller) share this path: it refits in place,
        stamps the training week, and -- when a registry is attached --
        publishes and activates the new version.
        """
        split = self._training_split(week)
        with stage("pipeline.train", week=week):
            self.predictor.fit(self.simulator.result(), split)
        self._trained_at = week
        LOG.info(kv(
            "pipeline.train",
            week=week,
            features=len(self.predictor.feature_names),
            rounds=len(self.predictor.model.learners) if self.predictor.model else 0,
        ))
        if self.registry is not None:
            from repro.serve.registry import ModelBundle

            self.registry.publish(
                ModelBundle(
                    predictor=self.predictor,
                    meta={
                        "trained_week": week,
                        "n_lines": self.simulator.result().n_lines,
                    },
                ),
                activate=True,
            )

    def train_challenger(
        self,
        week: int,
        backend: str | None = None,
        n_bins: int | None = None,
    ) -> TicketPredictor:
        """Fit a fresh predictor on data up to ``week`` without serving it.

        The active (champion) predictor keeps scoring; the returned
        challenger is the caller's to shadow-evaluate, publish, and --
        only if it passes the promotion gate -- :meth:`adopt`.

        Args:
            week: last week of training data.
            backend: optional training-backend override ("exact" or
                "hist"); ``None`` keeps the configured predictor
                backend.  The lifecycle controller passes its
                ``challenger_backend`` here so continuous retrains use
                the fast histogram path without touching the pipeline's
                own config.
            n_bins: optional histogram bin budget override; ``None``
                keeps the configured value.
        """
        predictor_config = self.config.predictor
        overrides = {}
        if backend is not None and backend != predictor_config.backend:
            overrides["backend"] = backend
        if n_bins is not None and n_bins != predictor_config.n_bins:
            overrides["n_bins"] = n_bins
        if overrides:
            predictor_config = replace(predictor_config, **overrides)
        challenger = TicketPredictor(predictor_config)
        split = self._training_split(week)
        with stage("pipeline.train_challenger", week=week,
                   backend=predictor_config.backend):
            challenger.fit(self.simulator.result(), split)
        LOG.info(kv(
            "pipeline.train_challenger",
            week=week,
            features=len(challenger.feature_names),
            backend=predictor_config.backend,
        ))
        return challenger

    def adopt(self, predictor: TicketPredictor, week: int) -> None:
        """Swap the serving predictor (a promoted challenger) in.

        Registry bookkeeping (publish/activate) is the caller's job --
        the lifecycle gate activates through the registry and then
        adopts, so the manifest and the in-process pipeline agree.
        """
        if predictor.model is None:
            raise ValueError("cannot adopt an unfitted predictor")
        self.predictor = predictor
        self._trained_at = week
        LOG.info(kv("pipeline.adopt", week=week))

    def _persist_week(self, week: int) -> None:
        """Append this Saturday's campaign to the line-week store."""
        if self.store is None or week in self.store.weeks:
            return
        with stage("pipeline.persist", week=week):
            result = self.simulator.result()
            day = int(result.measurements.saturday_day[week])
            self.store.append_week(
                week,
                day,
                result.measurements.week_matrix(week),
                result.ticket_log.last_ticket_day_before(result.n_lines, day),
            )

    def step(self) -> WeeklyReport | None:
        """Advance one week; returns the proactive report once live."""
        week = self.simulator.step()
        with stage("pipeline.week", week=week):
            return self._step_week(week)

    def _step_week(self, week: int) -> WeeklyReport | None:
        self._persist_week(week)
        self._maybe_train(week)
        if self._trained_at is None:
            if self.on_week_end is not None:
                self.on_week_end(week, None)
            return None

        result = self.simulator.result()
        stage_costs: dict[str, stage] = {}
        with stage("pipeline.score", week=week) as score_stage:
            scores = self.predictor.score_week(result, week)
            # Stable descending sort: identical ids to predict_top, but the
            # scores are kept so calibration drift needs no second pass.
            submitted = np.argsort(-scores, kind="stable")
            submitted = submitted[: self.config.predictor.capacity]
        stage_costs["score"] = score_stage
        plan = None
        if self.config.triage is not None:
            from repro.fleet import find_clusters, plan_dispatches

            with stage("pipeline.triage", week=week) as triage_stage:
                triage = find_clusters(
                    scores, result.population.topology,
                    self.config.predictor.capacity, self.config.triage,
                )
                plan = plan_dispatches(
                    scores, self.config.predictor.capacity, triage, week=week
                )
                submitted = plan.line_ids
            stage_costs["triage"] = triage_stage
        with stage("pipeline.dispatch", week=week) as dispatch_stage:
            fix_day = (
                int(result.measurements.saturday_day[week])
                + self.config.fix_delay_days
            )
            records = self.simulator.apply_proactive_fixes(submitted, fix_day)
            group_records = (
                self.simulator.apply_group_fixes(plan.group_targets(), fix_day)
                if plan is not None and plan.group_dispatches
                else []
            )
        stage_costs["dispatch"] = dispatch_stage
        real = sum(r.true_disposition >= 0 for r in records)
        fixed = sum(r.true_disposition >= 0 and r.fixed for r in records)
        mean_top_p = float(scores[submitted].mean()) if submitted.size else 0.0
        report = WeeklyReport(
            week=week,
            submitted=submitted,
            real_problems=real,
            fixed=fixed,
            no_trouble_found=sum(r.true_disposition < 0 for r in records),
            mean_top_p=mean_top_p,
            clusters_found=len(plan.group_dispatches) if plan else 0,
            suppressed=int(plan.suppressed_line_ids.size) if plan else 0,
            backfilled=int(plan.backfilled_line_ids.size) if plan else 0,
            group_problems_found=sum(r.found_fault for r in group_records),
            group_fixed=sum(r.fixed for r in group_records),
        )
        self.reports.append(report)
        if plan is not None:
            self._clusters_total.inc(report.clusters_found)
            self._suppressed_total.inc(report.suppressed)
            self._backfilled_total.inc(report.backfilled)
            self._clusters_gauge.set(report.clusters_found)

        drift = mean_top_p - report.precision
        self._weeks_total.inc()
        self._submitted_total.inc(len(submitted))
        self._real_total.inc(real)
        self._fixed_total.inc(fixed)
        self._precision_gauge.set(report.precision)
        self._drift_gauge.set(drift)
        if self.history is not None:
            values = {
                "precision": report.precision,
                "mean_top_p": mean_top_p,
                "calibration_drift": drift,
                "submitted": float(len(submitted)),
                "real_problems": float(real),
                "fixed": float(fixed),
                "rss_kb": current_rss_kb(),
                "peak_rss_kb": peak_rss_kb(),
            }
            for key, timed in stage_costs.items():
                values[f"wall_seconds.{key}"] = timed.seconds
                values[f"cpu_seconds.{key}"] = timed.cpu_seconds
            self.history.append("pipeline_week", values, week=week)
        LOG.info(kv(
            "pipeline.week",
            week=week,
            submitted=len(submitted),
            real_problems=real,
            fixed=fixed,
            precision=round(report.precision, 4),
            mean_top_p=round(mean_top_p, 4),
            calibration_drift=round(drift, 4),
        ))
        if self.on_week_end is not None:
            self.on_week_end(week, report)
        return report

    def run(self, n_weeks: int | None = None) -> list[WeeklyReport]:
        """Run the loop for ``n_weeks`` (default: the simulation horizon)."""
        target = (
            self.simulator.config.n_weeks
            if n_weeks is None
            else min(self.simulator.config.n_weeks, self.simulator.week + n_weeks)
        )
        while self.simulator.week < target:
            self.step()
        return self.reports

    def summary(self) -> dict[str, float]:
        """Aggregate proactive performance over the live weeks."""
        if not self.reports:
            return {"weeks": 0, "submitted": 0, "real_problems": 0, "fixed": 0,
                    "precision": 0.0}
        submitted = sum(len(r.submitted) for r in self.reports)
        real = sum(r.real_problems for r in self.reports)
        summary = {
            "weeks": len(self.reports),
            "submitted": submitted,
            "real_problems": real,
            "fixed": sum(r.fixed for r in self.reports),
            "precision": real / submitted if submitted else 0.0,
        }
        if self.config.triage is not None:
            summary["clusters_found"] = sum(
                r.clusters_found for r in self.reports
            )
            summary["suppressed"] = sum(r.suppressed for r in self.reports)
            summary["backfilled"] = sum(r.backfilled for r in self.reports)
            summary["group_problems_found"] = sum(
                r.group_problems_found for r in self.reports
            )
        return summary
