"""Configuration of the continuous-training loop.

One frozen dataclass carries every lifecycle knob so a whole deployment
policy -- how eagerly to retrain, how sceptically to promote, how fast to
back out -- is a single serialisable value that the decision log can
record verbatim alongside each decision it produced.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from repro.ml.boostexter import check_config

__all__ = ["CHALLENGER_BACKEND", "LifecycleConfig"]

#: Training backend of challenger retrains: they run on the weekly
#: serving path, where the histogram backend's speed matters most, and
#: the shadow gate judges the result either way.
CHALLENGER_BACKEND = "hist"


@dataclass(frozen=True)
class LifecycleConfig:
    """Knobs of the scheduler, shadow evaluator, gate, and watchdog.

    Attributes:
        cadence_weeks: retrain at least every this many weeks (the
            paper's "every Saturday" cadence generalised; 0 disables the
            cadence trigger and leaves only drift triggers).
        drift_relative_drop: trigger a retrain when live precision has
            fallen by this fraction from the deployed model's launch
            baseline (see :func:`repro.core.drift.live_drift_signals`).
        drift_calibration_threshold: trigger a retrain when the mean
            |predicted P - realized precision| over the recent window
            exceeds this.
        drift_baseline_window: live weeks forming the launch baseline.
        drift_recent_window: live weeks forming the current level.
        drift_cooldown_weeks: minimum weeks between drift-triggered
            retrains, so a noisy week cannot thrash the trainer.
        shadow_weeks: how many recent label-complete weeks the challenger
            is shadow-scored on, side by side with the champion.
        bootstrap_samples: paired bootstrap resamples behind the
            promotion gate's confidence interval.
        confidence: two-sided confidence level of that interval.
        non_inferiority_margin: the challenger is promotable when the
            lower confidence bound of (challenger - champion)
            precision-at-budget is above ``-margin``.
        watchdog_drop: post-promotion, a live week counts as a strike
            when its precision falls below ``(1 - drop)`` of the
            promotion-time baseline.
        watchdog_patience: consecutive strikes before automatic rollback.
        seed: bootstrap RNG seed (decisions must be reproducible).
    """

    cadence_weeks: int = 4
    drift_relative_drop: float = 0.25
    drift_calibration_threshold: float = 0.15
    drift_baseline_window: int = 3
    drift_recent_window: int = 2
    drift_cooldown_weeks: int = 1
    shadow_weeks: int = 3
    bootstrap_samples: int = 200
    confidence: float = 0.9
    non_inferiority_margin: float = 0.02
    watchdog_drop: float = 0.4
    watchdog_patience: int = 2
    seed: int = 2010

    def __post_init__(self) -> None:
        check_config(
            self, cadence_weeks=0, watchdog_patience=1, shadow_weeks=1,
            bootstrap_samples=1, non_inferiority_margin=0,
        )
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        if not 0 <= self.watchdog_drop < 1:
            raise ValueError("watchdog_drop must be in [0, 1)")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)
