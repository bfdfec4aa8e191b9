"""The lifecycle controller: the closed detect-refit-validate-deploy loop.

Hangs off :class:`~repro.core.pipeline.NevermindPipeline`'s
``on_week_end`` hook and runs the weekly operational cadence end to end:

1. **observe** -- every live week's realized precision and calibration
   drift feed :func:`repro.core.drift.live_drift_signals`;
2. **schedule** -- the :class:`~repro.lifecycle.scheduler.RetrainScheduler`
   triggers a challenger train on cadence or when drift crosses the
   configured thresholds;
3. **shadow** -- the challenger is published (inactive) and scored next
   to the champion over recent label-complete weeks through the shared-
   encode sharded serving path;
4. **gate** -- the bootstrap non-inferiority test decides promote/hold;
   a promotion activates through the registry *and* swaps the pipeline's
   serving predictor, all cited in the hash-chained decision log;
5. **watch** -- after a promotion, the watchdog compares live precision
   to the promotion-time baseline and rolls back automatically on a
   sustained regression.

Every decision lands in three places that must agree: the registry
manifest (versions + events), the obs metrics registry (counters and
shadow-delta gauges), and the signed decision log that ``/lifecycle``
and ``repro lifecycle status`` render.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.drift import live_drift_signals
from repro.core.pipeline import NevermindPipeline, WeeklyReport
from repro.lifecycle.config import LifecycleConfig
from repro.lifecycle.decisions import DEFAULT_LOG_NAME, DecisionLog
from repro.lifecycle.scheduler import RetrainDecision, RetrainScheduler
from repro.lifecycle.shadow import PromotionGate, ShadowEvaluator, ShadowReport
from repro.lifecycle.watchdog import PromotionWatchdog
from repro.obs.log import get_logger, kv
from repro.obs.metrics import get_registry
from repro.serve.registry import ModelBundle
from repro.serve.scoring import DEFAULT_SHARD_SIZE
from repro.serve.store import StoredWorld

__all__ = ["LifecycleController", "lifecycle_status", "shadow_labels"]

LOG = get_logger("lifecycle")


class LifecycleController:
    """Drives scheduled retraining, shadow gating, and auto-rollback."""

    def __init__(
        self,
        pipeline: NevermindPipeline,
        config: LifecycleConfig | None = None,
        decision_log: str | Path | None = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        workers: int | None = None,
        history=None,
    ):
        """Args:
            pipeline: a proactive loop with both a line-week ``store``
                (shadow scoring re-reads it) and a model ``registry``
                (promotion/rollback move its manifest) attached.
            config: lifecycle policy; defaults to :class:`LifecycleConfig`.
            decision_log: path of the signed decision log; defaults to
                ``LIFECYCLE.jsonl`` inside the registry root.
            shard_size / workers: shadow scoring fan-out (same semantics
                as the serving engine).
            history: optional flight recorder
                (:class:`repro.obs.history.HistoryStore`); every
                lifecycle decision appends a ``lifecycle_decision``
                record next to the signed log entry.  Defaults to the
                pipeline's own recorder so one store carries both the
                weekly and the decision series.
        """
        if pipeline.store is None or pipeline.registry is None:
            raise ValueError(
                "the lifecycle controller needs a pipeline with both a "
                "line-week store and a model registry attached"
            )
        self.pipeline = pipeline
        self.config = config or LifecycleConfig()
        self.registry = pipeline.registry
        self.log = DecisionLog(
            decision_log
            if decision_log is not None
            else self.registry.root / DEFAULT_LOG_NAME
        )
        self.world = StoredWorld(pipeline.store)
        self.shard_size = shard_size
        self.workers = workers
        self.history = history if history is not None else pipeline.history
        self.gate = PromotionGate(self.config)
        self.scheduler: RetrainScheduler | None = None
        self.watchdog: PromotionWatchdog | None = None
        self.champion_version: str | None = None
        self.champion_since: int | None = None
        self._reports_since_adoption: list[WeeklyReport] = []

        #: Override hook: a custom challenger factory
        #: (``callable(week) -> TicketPredictor``).
        self.challenger_factory: Callable[[int], Any] | None = None

        metrics = get_registry()
        self._retrains = metrics.counter(
            "repro_lifecycle_retrains_total",
            "Challenger trainings triggered, by scheduler reason",
        )
        self._promotions = metrics.counter(
            "repro_lifecycle_promotions_total",
            "Challengers promoted to champion",
        )
        self._holds = metrics.counter(
            "repro_lifecycle_holds_total",
            "Challengers held back by the promotion gate",
        )
        self._rollbacks = metrics.counter(
            "repro_lifecycle_rollbacks_total",
            "Automatic post-promotion rollbacks",
        )
        self._delta_gauge = metrics.gauge(
            "repro_lifecycle_shadow_delta",
            "Last shadow precision-at-budget delta (challenger - champion)",
        )
        self._ci_low_gauge = metrics.gauge(
            "repro_lifecycle_shadow_ci_low",
            "Lower confidence bound of the last shadow delta",
        )
        self._strikes_gauge = metrics.gauge(
            "repro_lifecycle_watchdog_strikes",
            "Consecutive sub-floor live weeks on the promoted model",
        )
        self._version_gauge = metrics.gauge(
            "repro_lifecycle_active_version",
            "Numeric tag of the active model version",
        )

        pipeline.on_week_end = self._on_week_end

    def _record(self, action: str, week: int, **values) -> None:
        """Mirror a decision into the flight recorder (when attached)."""
        if self.history is None:
            return
        self.history.append(
            "lifecycle_decision",
            {k: float(v) for k, v in values.items() if v is not None},
            week=week,
            meta={"action": action},
        )

    # ----- driving --------------------------------------------------------

    def step(self) -> WeeklyReport | None:
        """Advance the underlying pipeline (and therefore the loop) a week."""
        return self.pipeline.step()

    def run(self, n_weeks: int | None = None) -> list[WeeklyReport]:
        """Run the pipeline; lifecycle actions fire via the weekly hook."""
        return self.pipeline.run(n_weeks)

    # ----- the weekly hook ------------------------------------------------

    def _on_week_end(self, week: int, report: WeeklyReport | None) -> None:
        if report is None:
            return  # warm-up: nothing deployed yet
        if self.champion_version is None:
            self._bootstrap(week)
        self._reports_since_adoption.append(report)

        if self.watchdog is not None:
            verdict = self.watchdog.observe(report.precision)
            self._strikes_gauge.set(self.watchdog.strikes)
            if verdict.rollback:
                self._rollback(week, verdict)
                return  # the restored champion gets a clean week first

        signals = live_drift_signals(
            self._reports_since_adoption,
            baseline_window=self.config.drift_baseline_window,
            recent_window=self.config.drift_recent_window,
        )
        assert self.scheduler is not None
        decision = self.scheduler.decide(week, signals)
        if decision.due:
            self._retrain_cycle(week, decision)

    def _bootstrap(self, week: int) -> None:
        """Register the warm-up-trained champion as the loop's baseline."""
        version = self.registry.active
        if version is None:
            raise RuntimeError(
                "pipeline went live without publishing a champion -- was "
                "the registry attached before warm-up ended?"
            )
        trained_at = self.pipeline._trained_at
        self.champion_version = version
        self.champion_since = week
        self.scheduler = RetrainScheduler(
            self.config, trained_at if trained_at is not None else week
        )
        self._version_gauge.set(_version_number(version))
        self.log.append(
            "bootstrap", week,
            version=version,
            trained_week=trained_at,
            config=self.config.to_dict(),
        )
        self._record("bootstrap", week, version=_version_number(version))
        LOG.info(kv("lifecycle.bootstrap", week=week, version=version))

    # ----- retrain -> shadow -> gate --------------------------------------

    def _retrain_cycle(self, week: int, decision: RetrainDecision) -> None:
        if self.challenger_factory is not None:
            # Custom factories keep their one-argument signature and own
            # their backend choice; record what the trained model reports.
            challenger = self.challenger_factory(week)
        else:
            challenger = self.pipeline.train_challenger(
                week,
                backend=self.config.challenger_backend,
                n_bins=self.config.challenger_bins,
            )
        backend = challenger.config.backend
        n_bins = challenger.config.n_bins
        challenger_bundle = ModelBundle(
            predictor=challenger,
            meta={
                "trained_week": week,
                "trigger": decision.reason,
                "lifecycle": True,
                "backend": backend,
                "n_bins": n_bins,
            },
        )
        version = self.registry.publish(challenger_bundle, activate=False)
        self._retrains.inc(reason=decision.reason)
        self.log.append(
            "retrain", week,
            reason=decision.reason,
            detail=decision.detail,
            challenger_version=version,
            champion_version=self.champion_version,
            backend=backend,
            n_bins=n_bins,
        )
        self._record("retrain", week, challenger=_version_number(version))
        LOG.info(kv(
            "lifecycle.retrain", week=week, reason=decision.reason,
            challenger=version, backend=backend,
        ))

        shadow = self._shadow_evaluate(week, challenger_bundle)
        if shadow is None:
            self._holds.inc()
            self.log.append(
                "hold", week,
                challenger_version=version,
                reason="no_eval_weeks",
                detail="no stored week has a complete label horizon yet",
            )
            self._record("hold", week, challenger=_version_number(version))
            return
        self._delta_gauge.set(shadow.precision_delta)
        self._ci_low_gauge.set(shadow.delta_ci_low)

        verdict = self.gate.decide(shadow)
        reason, detail = verdict.reason, verdict.detail
        if verdict.promote:
            self._promote(week, version, challenger, shadow, reason, detail)
        else:
            self._holds.inc()
            self.log.append(
                "hold", week,
                challenger_version=version,
                champion_version=self.champion_version,
                reason=reason,
                detail=detail,
                shadow=shadow.to_dict(),
            )
            self._record(
                "hold", week,
                challenger=_version_number(version),
                shadow_delta=shadow.precision_delta,
                ci_low=shadow.delta_ci_low,
            )
            LOG.info(kv(
                "lifecycle.hold", week=week, challenger=version, reason=reason,
            ))

    def _shadow_evaluate(
        self, week: int, challenger_bundle: ModelBundle
    ) -> ShadowReport | None:
        horizon = self.pipeline.config.predictor.horizon_weeks
        self.world.refresh()
        eligible = [w for w in self.world.store.weeks if w <= week - horizon]
        weeks = eligible[-self.config.shadow_weeks:]
        if not weeks:
            return None
        result = self.pipeline.simulator.result()
        labels = {
            w: shadow_labels(result, self.world.store.day_of(w), horizon * 7)
            for w in weeks
        }
        champion_bundle = self.registry.load(self.champion_version)
        evaluator = ShadowEvaluator(
            self.world,
            capacity=self.pipeline.config.predictor.capacity,
            config=self.config,
            shard_size=self.shard_size,
            workers=self.workers,
        )
        return evaluator.evaluate(
            champion_bundle, challenger_bundle, weeks, labels
        )

    def _promote(
        self,
        week: int,
        version: str,
        challenger,
        shadow: ShadowReport,
        reason: str,
        detail: str,
    ) -> None:
        self.registry.activate(version)
        self.pipeline.adopt(challenger, week)
        previous = self.champion_version
        self.champion_version = version
        self.champion_since = week
        self._reports_since_adoption = []
        self.watchdog = PromotionWatchdog(
            baseline_precision=shadow.champion_precision,
            drop=self.config.watchdog_drop,
            patience=self.config.watchdog_patience,
        )
        self._strikes_gauge.set(0)
        self._promotions.inc()
        self._version_gauge.set(_version_number(version))
        self.log.append(
            "promote", week,
            version=version,
            previous_version=previous,
            reason=reason,
            detail=detail,
            shadow=shadow.to_dict(),
            watchdog=self.watchdog.state(),
        )
        self._record(
            "promote", week,
            version=_version_number(version),
            shadow_delta=shadow.precision_delta,
            ci_low=shadow.delta_ci_low,
        )
        LOG.info(kv(
            "lifecycle.promote", week=week, version=version,
            delta=round(shadow.precision_delta, 4), reason=reason,
        ))

    # ----- rollback -------------------------------------------------------

    def _rollback(self, week: int, verdict) -> None:
        failed = self.champion_version
        restored = self.registry.rollback()
        bundle = self.registry.load(restored)
        self.pipeline.adopt(bundle.predictor, week)
        self.champion_version = restored
        self.champion_since = week
        self._reports_since_adoption = []
        self.watchdog = None
        self._strikes_gauge.set(0)
        self._rollbacks.inc()
        self._version_gauge.set(_version_number(restored))
        # Cite the registry's own audit record so the two trails can be
        # cross-checked entry for entry.
        registry_event = next(
            (e for e in reversed(self.registry.events)
             if e["action"] == "rollback"),
            None,
        )
        self.log.append(
            "rollback", week,
            rolled_back=failed,
            restored=restored,
            live_precision=verdict.precision,
            floor=verdict.floor,
            registry_event=registry_event,
        )
        self._record(
            "rollback", week,
            restored=_version_number(restored),
            live_precision=verdict.precision,
            floor=verdict.floor,
        )
        LOG.warning(kv(
            "lifecycle.rollback", week=week, rolled_back=failed,
            restored=restored, precision=round(verdict.precision, 4),
        ))

    # ----- introspection --------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Live status: champion, watchdog, scheduler, decision counts."""
        actions: dict[str, int] = {}
        for record in self.log.records():
            actions[record.action] = actions.get(record.action, 0) + 1
        return {
            "active_version": self.registry.active,
            "champion_version": self.champion_version,
            "champion_since_week": self.champion_since,
            "live_weeks_on_champion": len(self._reports_since_adoption),
            "watchdog": self.watchdog.state() if self.watchdog else None,
            "scheduler": {
                "cadence_weeks": self.config.cadence_weeks,
                "last_retrain_week": (
                    self.scheduler.last_retrain_week if self.scheduler else None
                ),
            },
            "decision_counts": actions,
            "chain_valid": not self.log.verify(),
        }


def shadow_labels(result, day: int, horizon_days: int) -> np.ndarray:
    """Per-line outcome labels for a shadow week starting at ``day``.

    A line is positive when it raised a customer-edge ticket within the
    horizon -- *or* when a real fault on it was cleared by a proactive
    dispatch inside that window.  The second clause de-censors the labels:
    once the loop is live, the champion's own weekend fixes remove exactly
    the tickets its best predictions would have caused, so raw
    ticket-based labels would score every deployed model (the champion
    most of all) toward zero on post-deployment weeks.  The dispatch
    outcome is ground truth the operator also has in the real system --
    the technician either found a problem or closed no-trouble-found.
    """
    delays = result.ticket_log.first_edge_ticket_after(
        result.n_lines, day, horizon_days
    )
    positives = delays >= 0
    end = day + horizon_days
    for event in result.fault_events:
        if event.clear_cause == "proactive" and day < event.cleared_day <= end:
            positives[event.line_id] = True
    return positives


def _version_number(version: str | None) -> int:
    """``v0012`` -> 12 (0 when unknown), for the active-version gauge."""
    if not version:
        return 0
    digits = "".join(c for c in version if c.isdigit())
    return int(digits) if digits else 0


def lifecycle_status(registry_root: str | Path) -> dict[str, Any]:
    """Reconstruct lifecycle status from the serving directories alone.

    Used by ``repro lifecycle status`` and the service's ``/lifecycle``
    route: no live controller needed, just the registry manifest and the
    decision log beside it.
    """
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry(registry_root)
    log = DecisionLog(Path(registry_root) / DEFAULT_LOG_NAME)
    problems = log.verify()
    actions: dict[str, int] = {}
    for record in log.records():
        actions[record.action] = actions.get(record.action, 0) + 1
    return {
        "active_version": registry.active,
        "versions": registry.versions,
        "registry_events": registry.events,
        "decisions": log.to_dicts(),
        "decision_counts": actions,
        "chain_valid": not problems,
        "chain_problems": problems,
    }
