"""Hotspot dispatch suppression and top-N capacity backfill.

Once triage names the upstream clusters, sending a technician to every
member line is waste twice over: each visit finds nothing wrong at the
premise, and each burns a top-N slot another genuinely-faulty line could
have used.  The policy here:

* **suppress** -- every top-N line behind an upstream cluster loses its
  per-line dispatch;
* **consolidate** -- each upstream cluster gets exactly one group
  dispatch (one crew to the DSLAM or the splice case), costing one top-N
  slot;
* **backfill** -- the remaining slots are refilled from the ranked list,
  skipping all upstream-cluster members, so capacity stays fully used on
  lines whose problems really are their own.

:func:`evaluate_plan` scores both policies at the same N.  A per-line
slot counts as a hit only when the line has its *own* active fault (a
visit to an upstream-degraded premise closes "no trouble found"); a
group slot counts when the shared element really has an active group
fault.  This is the precision-at-capacity comparison BENCH_triage
reports, on the week :func:`triage_eval_week` picks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fleet.aggregation import FaultCluster, TriageResult
from repro.netsim.simulator import SATURDAY_OFFSET

__all__ = [
    "TriagePlan",
    "plan_dispatches",
    "evaluate_plan",
    "triage_eval_week",
]


@dataclass
class TriagePlan:
    """One week's dispatch plan under the suppression policy.

    Attributes:
        week: prediction week (-1 if unknown).
        capacity: the ATDS top-N capacity shared by both policies.
        baseline_line_ids: the plain top-N per-line plan (ranked order).
        line_ids: per-line dispatches after suppression + backfill.
        group_dispatches: the upstream clusters, one group dispatch each.
        suppressed_line_ids: baseline lines dropped as cluster members.
        backfilled_line_ids: lines promoted into the freed slots.
    """

    week: int
    capacity: int
    baseline_line_ids: np.ndarray
    line_ids: np.ndarray
    group_dispatches: list[FaultCluster] = field(default_factory=list)
    suppressed_line_ids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=int)
    )
    backfilled_line_ids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=int)
    )

    @property
    def n_slots_used(self) -> int:
        """Top-N slots consumed (per-line + one per group dispatch)."""
        return int(self.line_ids.size) + len(self.group_dispatches)

    def group_targets(self) -> list[tuple[str, int]]:
        """The ``(level, group_id)`` pairs to hand to the simulator."""
        return [(c.level, c.group_id) for c in self.group_dispatches]

    def to_dict(self) -> dict:
        """A JSON-ready summary."""
        return {
            "week": int(self.week),
            "capacity": int(self.capacity),
            "n_group_dispatches": len(self.group_dispatches),
            "n_suppressed": int(self.suppressed_line_ids.size),
            "n_backfilled": int(self.backfilled_line_ids.size),
            "n_per_line": int(self.line_ids.size),
            "group_targets": [
                {"level": lvl, "group_id": int(gid)}
                for lvl, gid in self.group_targets()
            ],
        }


def plan_dispatches(
    scores: np.ndarray,
    capacity: int,
    triage: TriageResult,
    week: int = -1,
) -> TriagePlan:
    """Build the suppressed + backfilled plan from one week's triage.

    Uses the dispatch list's stable ranking throughout, so with zero
    upstream clusters the plan is exactly the baseline top-N.
    """
    scores = np.asarray(scores, dtype=float)
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    ranked = np.argsort(-scores, kind="stable")
    baseline = ranked[:capacity]

    upstream = triage.upstream_clusters
    if not upstream:
        return TriagePlan(
            week=week, capacity=capacity,
            baseline_line_ids=baseline, line_ids=baseline,
        )

    cluster_member = triage.upstream_line_mask()
    suppressed = baseline[cluster_member[baseline]]
    per_line_slots = max(0, capacity - len(upstream))
    eligible = ranked[~cluster_member[ranked]]
    line_ids = eligible[:per_line_slots]
    in_baseline = np.isin(line_ids, baseline)
    return TriagePlan(
        week=week,
        capacity=capacity,
        baseline_line_ids=baseline,
        line_ids=line_ids,
        group_dispatches=list(upstream),
        suppressed_line_ids=suppressed,
        backfilled_line_ids=line_ids[~in_baseline],
    )


def evaluate_plan(
    plan: TriagePlan,
    line_has_fault: np.ndarray,
    active_groups: set[tuple[str, int]] | None = None,
) -> dict:
    """Precision-at-capacity for the baseline vs the triage plan.

    Args:
        plan: the week's plan.
        line_has_fault: boolean ground truth -- the line has its own
            active per-line fault (upstream degradation does NOT count:
            a premise visit there finds nothing to fix).
        active_groups: ground-truth ``(level, group_id)`` pairs with an
            active shared fault; a group dispatch is a hit iff its
            target is in this set.

    Returns:
        A dict with baseline and triage hit counts and precisions at the
        same ``plan.capacity`` denominator.
    """
    line_has_fault = np.asarray(line_has_fault, dtype=bool)
    active_groups = active_groups or set()
    capacity = max(1, plan.capacity)

    baseline_hits = int(line_has_fault[plan.baseline_line_ids].sum())
    per_line_hits = int(line_has_fault[plan.line_ids].sum())
    group_hits = sum(
        1 for target in plan.group_targets() if target in active_groups
    )
    triage_hits = per_line_hits + group_hits
    return {
        "capacity": int(plan.capacity),
        "baseline_hits": baseline_hits,
        "baseline_precision": baseline_hits / capacity,
        "per_line_hits": per_line_hits,
        "group_hits": group_hits,
        "group_dispatches": len(plan.group_dispatches),
        "triage_hits": triage_hits,
        "triage_precision": triage_hits / capacity,
        "suppressed": int(plan.suppressed_line_ids.size),
        "backfilled": int(plan.backfilled_line_ids.size),
    }


def triage_eval_week(result) -> int:
    """The week a triage evaluation runs on for a simulated world.

    Of the last six weeks, the one whose Saturday has the most lines
    degraded by an active shared-plant fault; ties go to the later week.
    A world without a group-fault process gets its last week.
    """
    n_weeks = result.config.n_weeks
    faults = result.group_faults
    if faults is None:
        return n_weeks - 1
    counts = {
        week: int(faults.affected_lines(week * 7 + SATURDAY_OFFSET).sum())
        for week in range(max(0, n_weeks - 6), n_weeks)
    }
    return max(counts, key=lambda week: (counts[week], week))
