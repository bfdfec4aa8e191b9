"""Shadow champion--challenger evaluation and the promotion gate.

Before a freshly trained challenger may serve, it is scored *in shadow*:
side by side with the active champion over the most recent weeks whose
label horizon has fully elapsed, through the same sharded serving path
real campaigns use (:func:`repro.serve.scoring.score_bundles`, which
encodes each line-shard once and folds both ensembles over it -- so
shadow mode costs far less than two full scoring runs).

Promotion is *non-inferiority* with bootstrap confidence.  With
:math:`\\Delta_w = P^{chal}_w(N) - P^{champ}_w(N)` the per-week
precision-at-budget delta, a paired bootstrap resamples the N dispatch
slots of each week (the same slot draw for both models, preserving the
pairing) and recomputes the mean delta; the challenger passes when the
lower :math:`(1-\\alpha)` percentile bound satisfies

.. math::

    \\underline{\\Delta} \\;\\ge\\; -m

for the configured margin ``m``.  A genuinely better challenger clears
this easily; a noisy tie clears it within the margin; a regression is
held back with quantified confidence instead of a point-estimate coin
flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.lifecycle.config import LifecycleConfig
from repro.ml.metrics import top_n_average_precision
from repro.obs.profile import stage
from repro.serve.registry import ModelBundle
from repro.serve.scoring import DEFAULT_SHARD_SIZE, score_bundles
from repro.serve.store import StoredWorld

__all__ = ["ShadowReport", "ShadowEvaluator", "GateDecision", "PromotionGate"]


@dataclass(frozen=True)
class ShadowReport:
    """One challenger's shadow scorecard against the champion.

    Attributes:
        weeks: evaluated weeks (each with a complete label horizon).
        capacity: the dispatch budget N the precisions are taken at.
        champion_precision / challenger_precision: mean precision@N.
        precision_delta: challenger - champion (point estimate).
        delta_ci_low / delta_ci_high: paired-bootstrap confidence bounds
            on the delta.
        champion_ap / challenger_ap: mean AP@N over the weeks.
        per_week: one dict per week with both models' precision@N/AP@N.
        shadow_seconds: wall time of the shared-encode scoring runs.
        bootstrap_samples / confidence: the gate's statistics settings.
    """

    weeks: tuple[int, ...]
    capacity: int
    champion_precision: float
    challenger_precision: float
    precision_delta: float
    delta_ci_low: float
    delta_ci_high: float
    champion_ap: float
    challenger_ap: float
    shadow_seconds: float
    bootstrap_samples: int
    confidence: float
    per_week: tuple[dict[str, Any], ...] = field(default=())

    def to_dict(self) -> dict[str, Any]:
        return {
            "weeks": list(self.weeks),
            "capacity": self.capacity,
            "champion_precision": self.champion_precision,
            "challenger_precision": self.challenger_precision,
            "precision_delta": self.precision_delta,
            "delta_ci_low": self.delta_ci_low,
            "delta_ci_high": self.delta_ci_high,
            "champion_ap": self.champion_ap,
            "challenger_ap": self.challenger_ap,
            "shadow_seconds": self.shadow_seconds,
            "bootstrap_samples": self.bootstrap_samples,
            "confidence": self.confidence,
            "per_week": [dict(w) for w in self.per_week],
        }


class ShadowEvaluator:
    """Scores challenger vs champion on stored weeks with known labels."""

    def __init__(
        self,
        world: StoredWorld,
        capacity: int,
        config: LifecycleConfig,
        shard_size: int = DEFAULT_SHARD_SIZE,
        workers: int | None = None,
    ):
        self.world = world
        self.capacity = capacity
        self.config = config
        self.shard_size = shard_size
        self.workers = workers

    def evaluate(
        self,
        champion: ModelBundle,
        challenger: ModelBundle,
        weeks: list[int],
        labels: dict[int, np.ndarray],
    ) -> ShadowReport:
        """Shadow-score both bundles and summarise the deltas.

        Args:
            champion: the active bundle.
            challenger: the candidate bundle.
            weeks: stored weeks to evaluate; every week needs an entry in
                ``labels``.
            labels: per-week boolean vectors -- did line ``i`` raise an
                edge ticket within the horizon after that week's test?
        """
        if not weeks:
            raise ValueError("need at least one shadow-evaluation week")
        missing = [w for w in weeks if w not in labels]
        if missing:
            raise ValueError(f"no labels for shadow weeks {missing}")
        capacity = min(self.capacity, self.world.n_lines)

        champ_top: list[np.ndarray] = []  # per-week top-N hit indicators
        chal_top: list[np.ndarray] = []
        per_week: list[dict[str, Any]] = []
        champ_ap: list[float] = []
        chal_ap: list[float] = []
        with stage("lifecycle.shadow", weeks=len(weeks)) as shadow:
            for week in weeks:
                scores = score_bundles(
                    {"champion": champion, "challenger": challenger},
                    self.world,
                    week,
                    shard_size=self.shard_size,
                    workers=self.workers,
                )
                hits = np.asarray(labels[week], dtype=bool)
                row: dict[str, Any] = {"week": int(week)}
                for name, top_list, ap_list in (
                    ("champion", champ_top, champ_ap),
                    ("challenger", chal_top, chal_ap),
                ):
                    ranked = np.argsort(-scores[name], kind="stable")
                    top_hits = hits[ranked[:capacity]].astype(float)
                    top_list.append(top_hits)
                    ap = top_n_average_precision(
                        hits.astype(float), capacity, scores=scores[name]
                    )
                    ap_list.append(ap)
                    row[f"{name}_precision"] = float(top_hits.mean())
                    row[f"{name}_ap"] = float(ap)
                per_week.append(row)

        champion_precision = float(np.mean([h.mean() for h in champ_top]))
        challenger_precision = float(np.mean([h.mean() for h in chal_top]))
        ci_low, ci_high = self._bootstrap_delta_ci(champ_top, chal_top)
        return ShadowReport(
            weeks=tuple(int(w) for w in weeks),
            capacity=capacity,
            champion_precision=champion_precision,
            challenger_precision=challenger_precision,
            precision_delta=challenger_precision - champion_precision,
            delta_ci_low=ci_low,
            delta_ci_high=ci_high,
            champion_ap=float(np.mean(champ_ap)),
            challenger_ap=float(np.mean(chal_ap)),
            shadow_seconds=shadow.seconds,
            bootstrap_samples=self.config.bootstrap_samples,
            confidence=self.config.confidence,
            per_week=tuple(per_week),
        )

    def _bootstrap_delta_ci(
        self, champ_top: list[np.ndarray], chal_top: list[np.ndarray]
    ) -> tuple[float, float]:
        """Paired bootstrap over dispatch slots, seeded for determinism.

        Each resample draws N slot indices per week *once* and applies
        them to both models' top-N hit vectors, so the week-level pairing
        (same plant, same Saturday) is preserved in the delta
        distribution.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        n_weeks = len(champ_top)
        deltas = np.empty(cfg.bootstrap_samples)
        for b in range(cfg.bootstrap_samples):
            total = 0.0
            for w in range(n_weeks):
                n = len(champ_top[w])
                idx = rng.integers(0, n, size=n)
                total += chal_top[w][idx].mean() - champ_top[w][idx].mean()
            deltas[b] = total / n_weeks
        alpha = 1.0 - cfg.confidence
        low = float(np.percentile(deltas, 100 * (alpha / 2)))
        high = float(np.percentile(deltas, 100 * (1 - alpha / 2)))
        return low, high


@dataclass(frozen=True)
class GateDecision:
    """The promotion gate's verdict on one shadow report.

    Attributes:
        promote: activate the challenger.
        reason: ``non_inferior`` | ``inferior``.
        detail: human-readable explanation citing the interval.
    """

    promote: bool
    reason: str
    detail: str


class PromotionGate:
    """Non-inferiority test over a :class:`ShadowReport`."""

    def __init__(self, config: LifecycleConfig):
        self.config = config

    def decide(self, report: ShadowReport) -> GateDecision:
        margin = self.config.non_inferiority_margin
        bound = (
            f"delta {report.precision_delta:+.4f}, "
            f"{report.confidence:.0%} CI "
            f"[{report.delta_ci_low:+.4f}, {report.delta_ci_high:+.4f}], "
            f"margin {margin:.4f}"
        )
        if report.delta_ci_low >= -margin:
            return GateDecision(
                promote=True, reason="non_inferior",
                detail=f"challenger is non-inferior at budget: {bound}",
            )
        return GateDecision(
            promote=False, reason="inferior",
            detail=f"challenger may regress precision at budget: {bound}",
        )
