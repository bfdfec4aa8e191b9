"""Trouble tickets and the ticket log.

Section 3.3: customer trouble tickets carry the reported problem, a coarse
category label assigned by the agent (customer-edge vs billing vs other),
and -- once a dispatch happens -- a disposition note from the field
technician.

The ticket *arrival-time* structure matters to the paper: tickets show a
clear weekly trend, peaking on Monday and bottoming out over the weekend,
which is why the Saturday line tests leave a quiet window for proactive
resolution (Section 3.3 and Fig. 8's urgency analysis).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TicketCategory",
    "TicketSource",
    "Ticket",
    "IvrCall",
    "TicketLog",
    "DAY_OF_WEEK_WEIGHTS",
    "day_of_week",
]

#: Report-day distribution, Monday-indexed (0 = Monday ... 6 = Sunday).
#: Peaks Monday, troughs over the weekend, per Section 3.3.
DAY_OF_WEEK_WEIGHTS: np.ndarray = np.array(
    [0.24, 0.18, 0.16, 0.14, 0.13, 0.08, 0.07]
)


def day_of_week(day: int) -> int:
    """Monday-indexed weekday of an absolute simulation day.

    Day 0 of the simulation is a Monday; the weekly line test therefore
    lands on day index 5 (Saturday) of each week.
    """
    return int(day) % 7


class TicketCategory(enum.Enum):
    """Coarse agent-assigned category label."""

    CUSTOMER_EDGE = "customer_edge"
    BILLING = "billing"
    OTHER = "other"


class TicketSource(enum.Enum):
    """Whether a ticket arrived reactively or from the ticket predictor."""

    CUSTOMER = "customer"
    NEVERMIND = "nevermind"


@dataclass
class Ticket:
    """One trouble ticket.

    Attributes:
        ticket_id: sequential identifier.
        line_id: affected subscriber line.
        day: absolute day the ticket was opened.
        category: coarse label from the agent interview.
        source: reactive (customer) or proactive (NEVERMIND).
        fault_disposition: catalog index of the true underlying fault,
            -1 when there is none (billing tickets, false predictions).
        fault_onset_day: day the underlying fault appeared, -1 if none.
        resolved_day: day the dispatch closed the ticket, -1 while open.
        recorded_disposition: technician's (noisy) disposition code,
            -1 before resolution or when no trouble was found.
    """

    ticket_id: int
    line_id: int
    day: int
    category: TicketCategory
    source: TicketSource = TicketSource.CUSTOMER
    fault_disposition: int = -1
    fault_onset_day: int = -1
    resolved_day: int = -1
    recorded_disposition: int = -1

    @property
    def week(self) -> int:
        return self.day // 7


@dataclass(frozen=True)
class IvrCall:
    """A customer call absorbed by the interactive voice response system.

    During a known outage, callers from the affected area hear an
    automated announcement and no ticket is issued (Section 5.2) -- the
    paper's first source of unmatchable correct predictions.
    """

    line_id: int
    day: int
    dslam_id: int
    fault_disposition: int


@dataclass
class TicketLog:
    """Append-only log of tickets and IVR-absorbed calls."""

    tickets: list[Ticket] = field(default_factory=list)
    ivr_calls: list[IvrCall] = field(default_factory=list)
    _next_id: int = 0

    def open_ticket(
        self,
        line_id: int,
        day: int,
        category: TicketCategory,
        source: TicketSource = TicketSource.CUSTOMER,
        fault_disposition: int = -1,
        fault_onset_day: int = -1,
    ) -> Ticket:
        """Create, record and return a new ticket."""
        ticket = Ticket(
            ticket_id=self._next_id,
            line_id=int(line_id),
            day=int(day),
            category=category,
            source=source,
            fault_disposition=int(fault_disposition),
            fault_onset_day=int(fault_onset_day),
        )
        self._next_id += 1
        self.tickets.append(ticket)
        return ticket

    def record_ivr(self, line_id: int, day: int, dslam_id: int,
                   fault_disposition: int) -> None:
        """Record a call deflected by the IVR (no ticket issued)."""
        self.ivr_calls.append(
            IvrCall(int(line_id), int(day), int(dslam_id), int(fault_disposition))
        )

    def __len__(self) -> int:
        return len(self.tickets)

    # ----- analysis views -------------------------------------------------

    def edge_tickets(self) -> list[Ticket]:
        """Customer-edge tickets only (the paper's study population)."""
        return [t for t in self.tickets if t.category is TicketCategory.CUSTOMER_EDGE]

    def first_edge_ticket_after(
        self, n_lines: int, day: int, horizon_days: int
    ) -> np.ndarray:
        """Days until each line's first edge ticket in (day, day+horizon].

        Returns an int array of length ``n_lines`` with the delay in days,
        or -1 when no ticket arrives within the horizon.  This implements
        ``NT(u, t)`` truncated at the horizon (Section 4.1).
        """
        delays = np.full(n_lines, -1, dtype=int)
        for t in self.tickets:
            if t.category is not TicketCategory.CUSTOMER_EDGE:
                continue
            if t.source is not TicketSource.CUSTOMER:
                continue
            if day < t.day <= day + horizon_days:
                delta = t.day - day
                if delays[t.line_id] < 0 or delta < delays[t.line_id]:
                    delays[t.line_id] = delta
        return delays

    def weekday_histogram(self) -> np.ndarray:
        """Ticket counts by Monday-indexed weekday (the Section-3.3 trend)."""
        counts = np.zeros(7, dtype=int)
        for t in self.tickets:
            if t.source is TicketSource.CUSTOMER:
                counts[day_of_week(t.day)] += 1
        return counts

    def last_ticket_day_before(self, n_lines: int, day: int) -> np.ndarray:
        """Most recent customer ticket day strictly before ``day`` per line.

        -1 where the line has no prior ticket.  Feeds the Table-3 "Ticket"
        customer feature (time since the most recent trouble ticket).
        """
        last = np.full(n_lines, -1, dtype=int)
        for t in self.tickets:
            if t.source is not TicketSource.CUSTOMER:
                continue
            if t.day < day and t.day > last[t.line_id]:
                last[t.line_id] = t.day
        return last
