"""Plant-level triage: cross-line grouping and dispatch suppression.

The paper's pipeline scores and dispatches each line independently, so a
single failing DSLAM card or water-logged binder burns hundreds of top-N
slots on one upstream cause.  This package adds the cross-line layer:

* :mod:`repro.fleet.aggregation` groups a week's anomalous lines by the
  plant elements they share (DSLAM, binder) and runs a concentration test
  -- observed anomalous fraction in the group vs the population base
  rate, binomial tail -- to classify each cluster as **upstream-plant**
  (fix the shared element) vs **in-home** (keep per-line dispatch);
* :mod:`repro.fleet.suppression` collapses an upstream cluster's per-line
  dispatches into one group dispatch and backfills the freed top-N
  capacity from the ranked list, reporting precision-at-capacity with and
  without the policy on the week :func:`triage_eval_week` picks.
"""

from repro.fleet.aggregation import (
    FaultCluster,
    TriageConfig,
    TriageResult,
    find_clusters,
)
from repro.fleet.suppression import (
    TriagePlan,
    evaluate_plan,
    plan_dispatches,
    triage_eval_week,
)

__all__ = [
    "TriageConfig",
    "FaultCluster",
    "TriageResult",
    "find_clusters",
    "TriagePlan",
    "plan_dispatches",
    "evaluate_plan",
    "triage_eval_week",
]
