"""Anonymizing joins producing the learning matrices.

Two shapes of dataset come out of the joined sources:

* **ticket-prediction examples** -- one row per (line, prediction week),
  features encoded from the measurement history at that week, binary label
  ``Tkt(u, t, T)``: did the customer open an edge ticket within the
  horizon (Section 4.1);
* **locator examples** -- one row per resolved truck-roll dispatch,
  features from the most recent line test before the ticket, labels the
  technician's recorded disposition and its major location (Section 6.3).

Identifiers are hashed before the join (footnote 1 of the paper) via
:func:`anonymize_ids`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.features.encoding import EncoderConfig, FeatureSet, LineFeatureEncoder
from repro.netsim.components import disposition_arrays
from repro.netsim.simulator import SimulationResult
from repro.tickets.ticketing import TicketCategory, TicketSource

__all__ = [
    "anonymize_ids",
    "LabeledDataset",
    "build_ticket_dataset",
    "LocatorDataset",
    "build_locator_dataset",
]


def anonymize_ids(line_ids: np.ndarray, salt: str = "nevermind") -> np.ndarray:
    """Hash raw subscriber identifiers into stable anonymous tokens.

    Mirrors the paper's privacy step: *"hashing each customer phone number
    to a unique anonymous identifier prior to joining these datasets"*.
    """
    out = np.empty(len(line_ids), dtype="<U16")
    for i, raw in enumerate(np.asarray(line_ids).astype(int)):
        digest = hashlib.sha256(f"{salt}:{raw}".encode()).hexdigest()
        out[i] = digest[:16]
    return out


@dataclass
class LabeledDataset:
    """Stacked ticket-prediction examples.

    Attributes:
        features: encoded feature matrix over all examples.
        y: binary label -- edge ticket within the horizon.
        line_ids: subscriber line of each example.
        weeks: prediction week of each example.
        days: prediction day (the Saturday) of each example.
        delays: days until the first edge ticket in the horizon, -1 when
            none arrived (powers the Fig-8 urgency analysis).
    """

    features: FeatureSet
    y: np.ndarray
    line_ids: np.ndarray
    weeks: np.ndarray
    days: np.ndarray
    delays: np.ndarray

    @property
    def n_examples(self) -> int:
        return len(self.y)

    def positive_rate(self) -> float:
        """Fraction of examples with a future ticket."""
        return float(np.mean(self.y)) if self.n_examples else 0.0


def build_ticket_dataset(
    result: SimulationResult,
    weeks: tuple[int, ...] | list[int],
    encoder: LineFeatureEncoder | None = None,
    horizon_weeks: int = 4,
    product_pairs: list[tuple[int, int]] | None = None,
) -> LabeledDataset:
    """Assemble (line, week) examples for the given prediction weeks.

    Every line contributes one example per prediction week; positives are
    the lines whose customer opens an edge ticket within
    ``horizon_weeks`` (Section 4.1's labelling).
    """
    if not weeks:
        raise ValueError("need at least one prediction week")
    encoder = encoder or LineFeatureEncoder(EncoderConfig())
    n = result.n_lines
    horizon_days = horizon_weeks * 7

    feature_blocks: list[FeatureSet] = []
    labels: list[np.ndarray] = []
    lines: list[np.ndarray] = []
    week_col: list[np.ndarray] = []
    day_col: list[np.ndarray] = []
    delay_col: list[np.ndarray] = []
    for week in weeks:
        fs = encoder.encode(
            result.measurements,
            int(week),
            result.population,
            result.ticket_log,
            product_pairs=product_pairs,
        )
        day = int(result.measurements.saturday_day[int(week)])
        delays = result.ticket_log.first_edge_ticket_after(n, day, horizon_days)
        feature_blocks.append(fs)
        labels.append((delays >= 0).astype(float))
        lines.append(np.arange(n))
        week_col.append(np.full(n, int(week)))
        day_col.append(np.full(n, day))
        delay_col.append(delays)

    stacked = FeatureSet(
        matrix=np.vstack([fs.matrix for fs in feature_blocks]),
        names=feature_blocks[0].names,
        groups=feature_blocks[0].groups,
        categorical=feature_blocks[0].categorical,
    )
    return LabeledDataset(
        features=stacked,
        y=np.concatenate(labels),
        line_ids=np.concatenate(lines),
        weeks=np.concatenate(week_col),
        days=np.concatenate(day_col),
        delays=np.concatenate(delay_col),
    )


@dataclass
class LocatorDataset:
    """Dispatch examples for the trouble locator.

    Attributes:
        features: line features at the most recent test before the ticket.
        disposition: technician's recorded disposition (catalog index).
        location: major location (0=HN, 1=F2, 2=F1, 3=DS) of that code.
        line_ids: dispatched line per example.
        ticket_days: ticket-open day per example.
    """

    features: FeatureSet
    disposition: np.ndarray
    location: np.ndarray
    line_ids: np.ndarray
    ticket_days: np.ndarray

    @property
    def n_examples(self) -> int:
        return len(self.disposition)



def build_locator_dataset(
    result: SimulationResult,
    first_day: int,
    last_day: int,
    encoder: LineFeatureEncoder | None = None,
    include_proactive: bool = False,
) -> LocatorDataset:
    """Assemble dispatch examples from tickets opened in [first_day, last_day].

    Only customer-edge tickets that produced a recorded disposition are
    kept (the paper's ground truth).  Features come from the most recent
    line test at or before the ticket day; tickets with no prior test are
    dropped.
    """
    encoder = encoder or LineFeatureEncoder(EncoderConfig())
    measurements = result.measurements
    saturdays = measurements.saturday_day[measurements.filled_weeks]
    filled = measurements.filled_weeks
    location_of = disposition_arrays().location

    # Group tickets by the measurement week that precedes them.
    by_week: dict[int, list] = {}
    for ticket in result.ticket_log.tickets:
        if ticket.category is not TicketCategory.CUSTOMER_EDGE:
            continue
        if not include_proactive and ticket.source is not TicketSource.CUSTOMER:
            continue
        if ticket.recorded_disposition < 0:
            continue
        if not first_day <= ticket.day <= last_day:
            continue
        prior = np.flatnonzero(saturdays <= ticket.day)
        if prior.size == 0:
            continue
        week = int(filled[prior[-1]])
        by_week.setdefault(week, []).append(ticket)

    rows: list[np.ndarray] = []
    dispositions: list[int] = []
    locations: list[int] = []
    lines: list[int] = []
    days: list[int] = []
    template: FeatureSet | None = None
    for week in sorted(by_week):
        fs = encoder.encode(
            measurements, week, result.population, result.ticket_log
        )
        template = fs
        for ticket in by_week[week]:
            rows.append(fs.matrix[ticket.line_id])
            dispositions.append(ticket.recorded_disposition)
            locations.append(int(location_of[ticket.recorded_disposition]))
            lines.append(ticket.line_id)
            days.append(ticket.day)

    if template is None:
        raise ValueError("no eligible dispatches in the requested day range")
    features = FeatureSet(
        matrix=np.vstack(rows),
        names=template.names,
        groups=template.groups,
        categorical=template.categorical,
    )
    return LocatorDataset(
        features=features,
        disposition=np.asarray(dispositions, dtype=int),
        location=np.asarray(locations, dtype=int),
        line_ids=np.asarray(lines, dtype=int),
        ticket_days=np.asarray(days, dtype=int),
    )
