"""Correlated (shared-infrastructure) fault events for the simulated plant.

The per-line :class:`~repro.netsim.faults.FaultModel` draws independent
faults; real plants also fail *in groups*: a dying DSLAM line card
degrades every port it terminates, and a water-logged F1/F2 binder splice
degrades every copper pair bundled through it.  This module pre-schedules
such group events (like :class:`~repro.tickets.outage.OutageSchedule`,
so downstream consumers can see the whole story deterministically) and
turns them into per-line degradation strengths:

* each event names a **level** (``"dslam"`` or ``"binder"``), a group id,
  and a day window;
* member lines feel the degradation with **lagged onsets** -- moisture
  creeps along the sheath, a card fails port bank by port bank -- so the
  cross-line signature builds up over days instead of switching on at
  once;
* severity **ramps** from onset to full strength over ``ramp_days``;
* a proactive *group dispatch* (one truck roll to the splice case or the
  central office) can clear the event early, which is the repair action
  the :mod:`repro.fleet` triage layer issues.

DSLAM-level events optionally **escalate into real outages**: the failing
card finally dies right after its degradation window.  The simulator
derives its tickets-side :class:`~repro.tickets.outage.OutageSchedule`
from the same events via :meth:`OutageSchedule.from_group_faults`, so the
netsim and tickets views of a correlated outage are one consistent sample
instead of two independent ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.netsim.topology import Topology

__all__ = [
    "LEVEL_DSLAM",
    "LEVEL_BINDER",
    "GroupFaultConfig",
    "GroupFaultEvent",
    "GroupFaultSchedule",
    "GroupFaultModel",
]

LEVEL_DSLAM = "dslam"
LEVEL_BINDER = "binder"


@dataclass(frozen=True)
class GroupFaultConfig:
    """Correlated-fault process parameters.

    Attributes:
        n_dslam_events: DSLAM-level shared degradations to schedule.
        n_binder_events: binder-level shared degradations to schedule
            (placed on binders *outside* the chosen DSLAMs, so the two
            levels stay distinguishable in the ground truth).
        min_duration_weeks, max_duration_weeks: degradation window length.
        event_window: fraction of the horizon in which events may start;
            the default back-half placement leaves the early weeks clean
            for model training.
        onset_lag_max_days: per-line onset lag is uniform in
            ``[0, onset_lag_max_days]`` days after the event start.
        ramp_days: days from a line's onset to full severity.
        noise_db: per-line added noise at full strength (both directions:
            shared plant sits in the common path).
        cv_rate: added code-violation rate at full strength.
        dropout: added retrain/dropout probability at full strength.
        cells_drop: relative throughput loss at full strength.
        escalate_to_outage: whether DSLAM-level events end in a real
            outage (the card finally dies), from which the simulator
            derives the tickets-side outage schedule.
        outage_days: duration of the escalated outage.
        seed: generator seed for event placement and lags.
    """

    n_dslam_events: int = 1
    n_binder_events: int = 3
    min_duration_weeks: int = 3
    max_duration_weeks: int = 5
    event_window: tuple[float, float] = (0.5, 0.85)
    onset_lag_max_days: int = 10
    ramp_days: int = 14
    noise_db: float = 6.0
    cv_rate: float = 12.0
    dropout: float = 0.10
    cells_drop: float = 0.15
    escalate_to_outage: bool = True
    outage_days: int = 2
    seed: int = 31


@dataclass
class GroupFaultEvent:
    """One shared-infrastructure degradation.

    Attributes:
        event_id: index of this event in the schedule.
        level: ``"dslam"`` or ``"binder"``.
        group_id: DSLAM or binder index, per ``level``.
        line_ids: member lines of the group.
        onset_lags: per-member days after ``start_day`` until the line
            starts feeling the degradation (aligned with ``line_ids``).
        start_day: first day of the event (absolute).
        end_day: last scheduled day (inclusive) absent a repair.
        cleared_day: day a group dispatch repaired the shared plant, -1
            while unrepaired.
        clear_cause: "" until cleared, then e.g. ``"group-dispatch"``.
    """

    event_id: int
    level: str
    group_id: int
    line_ids: np.ndarray
    onset_lags: np.ndarray
    start_day: int
    end_day: int
    cleared_day: int = -1
    clear_cause: str = ""

    def active_on(self, day: int) -> bool:
        if day < self.start_day or day > self.end_day:
            return False
        return self.cleared_day < 0 or day < self.cleared_day


@dataclass
class GroupFaultSchedule:
    """All correlated fault events of a run, pre-scheduled at start."""

    config: GroupFaultConfig
    n_weeks: int
    events: list[GroupFaultEvent] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        topology: Topology,
        n_weeks: int,
        config: GroupFaultConfig | None = None,
    ) -> "GroupFaultSchedule":
        """Pre-schedule the configured DSLAM and binder events.

        Deterministic under a fixed config seed: the same topology and
        horizon always produce the same events, groups, and lags.
        """
        config = config or GroupFaultConfig()
        if n_weeks <= 0:
            raise ValueError("n_weeks must be positive")
        if config.min_duration_weeks < 1 or \
                config.max_duration_weeks < config.min_duration_weeks:
            raise ValueError("invalid group-fault duration range")
        lo_frac, hi_frac = config.event_window
        if not 0.0 <= lo_frac < hi_frac <= 1.0:
            raise ValueError("event_window must be an increasing (lo, hi) "
                             "pair of fractions in [0, 1]")
        if config.n_binder_events > 0 and not topology.has_binders:
            raise ValueError(
                "binder-level events need a topology with binder groups"
            )
        rng = np.random.default_rng(config.seed)
        lo_week = int(n_weeks * lo_frac)
        hi_week = max(lo_week + 1, int(n_weeks * hi_frac))

        n_dslam = min(config.n_dslam_events, topology.n_dslams)
        dslam_ids = rng.choice(topology.n_dslams, size=n_dslam, replace=False)
        chosen_dslams = set(int(d) for d in dslam_ids)

        binder_pool = np.array(
            [
                b.binder_id
                for b in topology.binders
                if b.dslam_id not in chosen_dslams
            ],
            dtype=int,
        )
        n_binder = min(config.n_binder_events, binder_pool.size)
        binder_ids = (
            rng.choice(binder_pool, size=n_binder, replace=False)
            if n_binder
            else np.empty(0, dtype=int)
        )

        events: list[GroupFaultEvent] = []

        def schedule(level: str, group_id: int, line_ids: np.ndarray) -> None:
            start_week = int(rng.integers(lo_week, hi_week))
            start_day = start_week * 7 + int(rng.integers(0, 7))
            duration_weeks = int(rng.integers(
                config.min_duration_weeks, config.max_duration_weeks + 1
            ))
            lags = rng.integers(
                0, config.onset_lag_max_days + 1, size=line_ids.size
            )
            events.append(
                GroupFaultEvent(
                    event_id=len(events),
                    level=level,
                    group_id=int(group_id),
                    line_ids=np.asarray(line_ids, dtype=int),
                    onset_lags=lags,
                    start_day=start_day,
                    end_day=start_day + duration_weeks * 7 - 1,
                )
            )

        for dslam_id in dslam_ids:
            schedule(LEVEL_DSLAM, int(dslam_id),
                     topology.lines_of_dslam(int(dslam_id)))
        for binder_id in binder_ids:
            schedule(LEVEL_BINDER, int(binder_id),
                     topology.lines_of_binder(int(binder_id)))
        return cls(config=config, n_weeks=n_weeks, events=events)

    def active_on(self, day: int) -> list[GroupFaultEvent]:
        """Events whose degradation window covers ``day`` and is unrepaired."""
        return [e for e in self.events if e.active_on(day)]

    def dslam_events(self) -> list[GroupFaultEvent]:
        """The DSLAM-level events (the ones that can escalate to outages)."""
        return [e for e in self.events if e.level == LEVEL_DSLAM]

    def event_counts(self) -> dict[str, int]:
        """Scheduled events per level."""
        counts = {LEVEL_DSLAM: 0, LEVEL_BINDER: 0}
        for event in self.events:
            counts[event.level] = counts.get(event.level, 0) + 1
        return counts


@dataclass
class GroupFaultModel:
    """Turns the schedule into per-line strengths and handles repairs."""

    schedule: GroupFaultSchedule
    n_lines: int

    @property
    def config(self) -> GroupFaultConfig:
        return self.schedule.config

    def line_strength(self, day: int) -> np.ndarray:
        """Per-line shared-degradation strength in [0, 1] on ``day``."""
        return self.line_strength_range(day, 0, self.n_lines)

    def line_strength_range(self, day: int, start: int, stop: int) -> np.ndarray:
        """Shared-degradation strength in [0, 1] of lines ``[start, stop)``.

        A line's strength ramps linearly from its lagged onset to full
        over ``ramp_days``; overlapping events combine by maximum.

        Each event is restricted to its members inside ``[start, stop)``
        (the member ids of a DSLAM or binder group are stored sorted, so a
        ``searchsorted`` window finds them), which keeps the cost of a
        line block proportional to the block, not the plant.  Events whose
        membership straddles a block boundary contribute to every block
        they touch.
        """
        strength = np.zeros(stop - start)
        ramp_days = max(1, self.config.ramp_days)
        for event in self.schedule.active_on(day):
            lo, hi = np.searchsorted(event.line_ids, (start, stop))
            if lo == hi:
                continue
            onset = event.start_day + event.onset_lags[lo:hi]
            felt = onset <= day
            if not np.any(felt):
                continue
            ramp = np.clip((day - onset[felt] + 1) / ramp_days, 0.0, 1.0)
            rows = event.line_ids[lo:hi][felt] - start
            strength[rows] = np.maximum(strength[rows], ramp)
        return strength

    def affected_lines(self, day: int) -> np.ndarray:
        """Boolean mask of lines feeling any shared degradation on ``day``."""
        return self.line_strength(day) > 0.0

    def find_active(self, level: str, group_id: int, day: int):
        """The active event for a (level, group) on ``day``, or None."""
        for event in self.schedule.events:
            if (event.level == level and event.group_id == group_id
                    and event.active_on(day)):
                return event
        return None

    def clear_event(
        self, event: GroupFaultEvent, day: int, cause: str = "group-dispatch"
    ) -> None:
        """Mark a shared fault repaired from ``day`` on."""
        event.cleared_day = int(day)
        event.clear_cause = cause
