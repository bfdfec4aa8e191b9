"""The week-by-week DSL plant simulation.

:class:`DslSimulator` drives everything the paper's datasets contain:

* **faults** arrive on individual lines per the disposition catalog,
  degrade or kill service, and are (eventually) noticed by customers;
* **customers** report problems with a Monday-peaked weekly pattern,
  unless they are away or the IVR absorbs the call during a known outage;
* **ATDS** resolves tickets (remote fixes or truck rolls) with noisy
  technician disposition notes and occasional failed fixes;
* **DSLAM outages** are pre-scheduled, preceded by a shared-infrastructure
  degradation window that subtly worsens every line on the DSLAM;
* every **Saturday** a line-test campaign snapshots the 25 Table-2
  features for all reachable modems;
* **traffic** byte counts are exported for the lines under a sampled set
  of BRAS servers.

Time convention: day 0 is a Monday; week ``w`` covers days
``[7w, 7w+7)`` and the line test runs on day ``7w + 5`` (Saturday).

The weekly step is written once.  :func:`build_plant_models` builds the
cross-line models (population, physics, line tester, fault catalog,
group faults, outage schedule); a :class:`PlantBlock` steps lines
``[start, stop)`` of that plant through faults, customer reports,
dispatches and the Saturday test.  :class:`DslSimulator` is the
whole-plant block on one random stream, and the streaming engine in
:mod:`repro.netsim.streaming` runs one block per fixed line range.

The simulator exposes a step API so the NEVERMIND operational pipeline can
interleave proactive fixes between weeks
(:meth:`DslSimulator.apply_proactive_fixes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.measurement.linetest import LineTestConfig, LineTester
from repro.measurement.records import MeasurementStore
from repro.netsim.faults import FaultEffects, FaultModel, FaultState
from repro.netsim.groupfaults import (
    LEVEL_BINDER,
    LEVEL_DSLAM,
    GroupFaultConfig,
    GroupFaultModel,
    GroupFaultSchedule,
)
from repro.netsim.physics import LoopConditions
from repro.netsim.population import Population, PopulationConfig, build_population
from repro.tickets.customers import CustomerBehavior, CustomerConfig, build_customers
from repro.tickets.dispatch import (
    AtdsConfig,
    DispatchRecord,
    Dispatcher,
    GroupDispatchRecord,
)
from repro.tickets.outage import OutageConfig, OutageSchedule
from repro.tickets.ticketing import (
    DAY_OF_WEEK_WEIGHTS,
    TicketCategory,
    TicketLog,
    TicketSource,
)
from repro.traffic.usage import TrafficConfig, TrafficModel

__all__ = ["SimulationConfig", "FaultEvent", "SimulationResult", "PlantModels",
           "build_plant_models", "PlantBlock", "DslSimulator",
           "SATURDAY_OFFSET", "combine_shared_effects"]

#: Day-of-week offset of the line test within each week (Saturday).
SATURDAY_OFFSET = 5


def combine_shared_effects(
    effects: FaultEffects,
    line_precursor: np.ndarray,
    group_strength: np.ndarray | None,
    outage_cfg: OutageConfig,
    group_cfg: GroupFaultConfig | None,
) -> FaultEffects:
    """Fold shared-infrastructure degradations into per-line fault effects.

    Failing shared DSLAM equipment degrades the whole transceiver path: a
    dying line card corrupts its receivers (upstream) as much as its
    transmitters (downstream), so the precursor couples into both
    directions.  Correlated group faults sit in the same shared path
    (line card or binder sheath), so they couple identically.

    Applied by :meth:`PlantBlock.step_week`, the weekly step both
    engines run; pure array math, no RNG.
    """
    has_group = group_strength is not None and np.any(group_strength)
    if not np.any(line_precursor) and not has_group:
        return effects
    noise = outage_cfg.precursor_noise_db * line_precursor
    cv = outage_cfg.precursor_cv_rate * line_precursor
    dropout = 0.1 * line_precursor
    cells_drop = 0.15 * line_precursor
    if has_group:
        noise = noise + group_cfg.noise_db * group_strength
        cv = cv + group_cfg.cv_rate * group_strength
        dropout = dropout + group_cfg.dropout * group_strength
        cells_drop = np.clip(
            cells_drop + group_cfg.cells_drop * group_strength, 0.0, 1.0
        )
    return FaultEffects(
        noise_db=effects.noise_db + noise,
        noise_db_up=effects.noise_db_up + noise,
        atten_db=effects.atten_db,
        atten_db_up=effects.atten_db_up,
        rate_factor=effects.rate_factor,
        cv_rate=effects.cv_rate + cv,
        dropout=np.clip(effects.dropout + dropout, 0.0, 1.0),
        off_prob=effects.off_prob,
        bridge_tap=effects.bridge_tap,
        crosstalk=effects.crosstalk,
        cells_factor=effects.cells_factor * (1.0 - cells_drop),
    )


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level simulation parameters (sub-configs nest the rest).

    Attributes:
        n_weeks: simulated horizon.
        fault_rate_scale: global multiplier on catalog onset rates.
        billing_ticket_rate: weekly probability per line of a non-edge
            (billing/other) ticket.
        notice_usage_floor: minimum usage multiplier on perceivability --
            even a light user eventually notices a dead line.
        precursor_report_rate: weekly probability scale that a customer
            calls about shared-infrastructure (pre-outage) degradation.
        group_faults: correlated shared-plant fault process (None keeps
            the run bit-identical to pre-group-fault simulations).  When
            set, the tickets-side outage schedule is *derived* from the
            DSLAM-level group events instead of sampled independently.
        seed: master seed for the simulation's random stream.
    """

    n_weeks: int = 30
    population: PopulationConfig = field(default_factory=PopulationConfig)
    customers: CustomerConfig = field(default_factory=CustomerConfig)
    outages: OutageConfig = field(default_factory=OutageConfig)
    atds: AtdsConfig = field(default_factory=AtdsConfig)
    linetest: LineTestConfig = field(default_factory=LineTestConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    fault_rate_scale: float = 1.0
    directional_faults: bool = True
    billing_ticket_rate: float = 0.0015
    notice_usage_floor: float = 0.35
    precursor_report_rate: float = 0.05
    group_faults: GroupFaultConfig | None = None
    seed: int = 101


@dataclass
class FaultEvent:
    """Ground-truth record of one fault's lifetime.

    Attributes:
        line_id: affected line.
        disposition: catalog index of the fault.
        onset_day: absolute day the fault appeared.
        cleared_day: absolute day it was cleared, -1 while active.
        clear_cause: "dispatch", "self", "proactive" or "" while active.
    """

    line_id: int
    disposition: int
    onset_day: int
    cleared_day: int = -1
    clear_cause: str = ""

    def active_on(self, day: int) -> bool:
        return self.onset_day <= day and (self.cleared_day < 0 or day < self.cleared_day)


@dataclass
class SimulationResult:
    """Everything a simulation run produced."""

    config: SimulationConfig
    population: Population
    customers: CustomerBehavior
    measurements: MeasurementStore
    ticket_log: TicketLog
    outages: OutageSchedule
    dispatcher: Dispatcher
    traffic: "object"  # TrafficLog; typed loosely to avoid import cycles
    fault_events: list[FaultEvent]
    group_faults: GroupFaultModel | None = None

    @property
    def n_lines(self) -> int:
        return self.population.n_lines

    def fault_active_on(self, day: int) -> np.ndarray:
        """Boolean mask of lines with a ground-truth active fault on ``day``."""
        active = np.zeros(self.n_lines, dtype=bool)
        for event in self.fault_events:
            if event.active_on(day):
                active[event.line_id] = True
        return active


@dataclass(frozen=True)
class PlantModels:
    """The cross-line models every line block of one plant shares.

    Built once per run by :func:`build_plant_models`, from their own
    config seeds, so every block of every engine sees the same population,
    line tester (and its physics), fault catalog, group-fault events and
    outage schedule.
    """

    population: Population
    conditions: LoopConditions
    tester: LineTester
    fault_model: FaultModel
    group_faults: GroupFaultModel | None
    outages: OutageSchedule


def build_plant_models(cfg: SimulationConfig) -> PlantModels:
    """Build the :class:`PlantModels` both simulation engines run on."""
    population = build_population(cfg.population)
    topology = population.topology
    group_faults = None
    if cfg.group_faults is not None:
        schedule = GroupFaultSchedule.generate(
            topology, cfg.n_weeks, cfg.group_faults
        )
        group_faults = GroupFaultModel(
            schedule=schedule, n_lines=population.n_lines
        )
    if group_faults is not None and cfg.group_faults.escalate_to_outage:
        # One consistent sample: the tickets-side outages are the
        # escalations of the netsim DSLAM group events.
        outages = OutageSchedule.from_group_faults(
            group_faults.schedule.events,
            topology.n_dslams,
            cfg.n_weeks,
            cfg.outages,
            outage_days=cfg.group_faults.outage_days,
        )
    else:
        outages = OutageSchedule.generate(
            topology.n_dslams, cfg.n_weeks, cfg.outages
        )
    return PlantModels(
        population=population,
        conditions=population.conditions(),
        tester=LineTester(config=cfg.linetest),
        fault_model=FaultModel(
            rate_scale=cfg.fault_rate_scale, directional=cfg.directional_faults
        ),
        group_faults=group_faults,
        outages=outages,
    )


class PlantBlock:
    """Lines ``[start, stop)`` of the plant, stepped one week at a time.

    The block owns its lines' fault state, customers, ticket log,
    dispatcher, random stream and ground-truth fault-event ledger, and
    :meth:`step_week` is the one implementation of the weekly plant step
    (faults, customer reports, dispatches, the Saturday line test).
    :class:`DslSimulator` is the whole plant as one block; the streaming
    engine runs one block per fixed line range.  Line ids in the block's
    state, tickets, dispatch records and fault events are relative to
    ``start``.
    """

    def __init__(
        self,
        config: SimulationConfig,
        models: PlantModels,
        start: int,
        stop: int,
        rng: np.random.Generator,
        customers: CustomerBehavior,
    ):
        n = stop - start
        self.config = config
        self.start = start
        self.stop = stop
        self.rng = rng
        self.customers = customers
        self.tester = models.tester
        self.fault_model = models.fault_model
        self.group_faults = models.group_faults
        self.outages = models.outages
        self.conditions = models.conditions.rows(start, stop)
        self._dslam_idx = models.population.dslam_idx[start:stop]
        self.state = FaultState.healthy(n)
        self.ticket_log = TicketLog()
        self.dispatcher = Dispatcher(config.atds)
        self.fault_events: list[FaultEvent] = []
        self._event_of_line = np.full(n, -1, dtype=int)
        self.week = 0

    # ----- fault-event bookkeeping -----------------------------------------

    def _open_fault_events(self, lines: np.ndarray) -> None:
        for line in lines:
            self._event_of_line[line] = len(self.fault_events)
            self.fault_events.append(
                FaultEvent(
                    line_id=int(line),
                    disposition=int(self.state.disposition[line]),
                    onset_day=int(self.state.onset_day[line]),
                )
            )

    def _close_fault_events(self, lines: np.ndarray, day: int, cause: str) -> None:
        for line in np.atleast_1d(lines):
            idx = self._event_of_line[line]
            if idx >= 0:
                self.fault_events[idx].cleared_day = int(day)
                self.fault_events[idx].clear_cause = cause
                self._event_of_line[line] = -1

    # ----- one week ---------------------------------------------------------

    def step_week(self) -> tuple[np.ndarray, FaultEffects]:
        """Simulate the block's next week.

        Returns the Saturday line-test features of the block's lines and
        the week's combined fault effects.
        """
        if self.week >= self.config.n_weeks:
            raise RuntimeError("simulation horizon exhausted")
        w = self.week
        rng = self.rng
        week_start = w * 7
        saturday = week_start + SATURDAY_OFFSET

        # 1. Evolve existing faults (growth + self-clear).
        cleared = self.fault_model.advance_week(self.state, rng)
        self._close_fault_events(cleared, week_start, "self")

        # 2. New fault onsets.
        struck = self.fault_model.sample_onsets(self.state, rng, week_start)
        self._open_fault_events(struck)

        # 3. Shared-infrastructure (pre-outage) degradation this week.
        line_precursor = self.outages.precursor_strength(w)[self._dslam_idx]
        group_strength = None
        shared_strength = line_precursor
        if self.group_faults is not None:
            group_strength = self.group_faults.line_strength_range(
                saturday, self.start, self.stop
            )
            shared_strength = np.maximum(line_precursor, group_strength)

        # 4. Customer reporting.
        clear_after_saturday: list[tuple[int, int]] = []
        self._generate_edge_tickets(w, saturday, clear_after_saturday)
        self._generate_precursor_calls(w, shared_strength)
        self._generate_billing_tickets(w)

        # 5. Saturday line-test campaign.
        effects = combine_shared_effects(
            self.fault_model.effects(self.state),
            line_precursor,
            group_strength,
            self.config.outages,
            self.group_faults.config if self.group_faults is not None else None,
        )
        dslam_down = self.outages.dslams_down_on(saturday)[self._dslam_idx]
        usage = self.customers.usage_intensity * self.customers.present(w)
        features = self.tester.run(self.conditions, effects, usage, dslam_down, rng)

        # 6. Dispatches that landed after the test clear now.
        for line, day in clear_after_saturday:
            if self.state.disposition[line] >= 0:
                self._close_fault_events(np.array([line]), day, "dispatch")
                self.state.clear(np.array([line]))

        self.week += 1
        return features, effects

    # ----- customer reporting ------------------------------------------------

    def _sample_report_days(self, week_start: int, count: int) -> np.ndarray:
        offsets = self.rng.choice(7, size=count, p=DAY_OF_WEEK_WEIGHTS)
        return week_start + offsets

    def _generate_edge_tickets(
        self,
        week: int,
        saturday: int,
        clear_after_saturday: list[tuple[int, int]],
    ) -> None:
        """Customers notice and report their line faults."""
        cfg = self.config
        rng = self.rng
        week_start = week * 7
        active = np.flatnonzero(self.state.active)
        if active.size == 0:
            return
        kinds = self.state.disposition[active]
        severity = self.state.severity[active]
        perceive = self.fault_model.arrays.perceivability[kinds]
        usage_mult = (
            cfg.notice_usage_floor
            + (1.0 - cfg.notice_usage_floor) * self.customers.usage_intensity[active]
        )
        present = self.customers.present(week)[active]
        p_report = (
            perceive
            * severity
            * usage_mult
            * self.customers.report_propensity[active]
            * present
        )
        reporters = active[rng.random(active.size) < p_report]
        if reporters.size == 0:
            return
        days = self._sample_report_days(week_start, reporters.size)
        # A fault cannot be reported before it exists.
        days = np.maximum(days, self.state.onset_day[reporters])
        days = np.minimum(days, week_start + 6)

        for line, day in zip(reporters, days):
            line = int(line)
            day = int(day)
            disposition = int(self.state.disposition[line])
            if disposition < 0:
                continue  # cleared earlier in this loop (failed-fix retries)
            dslam = int(self._dslam_idx[line])
            if self.outages.dslams_down_on(day)[dslam]:
                # Known outage in the area: the IVR answers, no ticket.
                self.ticket_log.record_ivr(line, day, dslam, disposition)
                continue
            ticket = self.ticket_log.open_ticket(
                line_id=line,
                day=day,
                category=TicketCategory.CUSTOMER_EDGE,
                source=TicketSource.CUSTOMER,
                fault_disposition=disposition,
                fault_onset_day=int(self.state.onset_day[line]),
            )
            record = self.dispatcher.resolve(
                ticket.ticket_id, line, day, disposition, rng
            )
            ticket.resolved_day = record.day
            ticket.recorded_disposition = record.recorded_disposition
            if record.fixed:
                if record.day <= saturday:
                    self._close_fault_events(np.array([line]), record.day, "dispatch")
                    self.state.clear(np.array([line]))
                else:
                    clear_after_saturday.append((line, record.day))

    def _generate_precursor_calls(self, week: int, line_precursor: np.ndarray) -> None:
        """Calls about shared-infrastructure degradation (outage-class)."""
        cfg = self.config
        rng = self.rng
        week_start = week * 7
        affected = np.flatnonzero(line_precursor > 0)
        if affected.size == 0:
            return
        p_call = (
            cfg.precursor_report_rate
            * line_precursor[affected]
            * self.customers.usage_intensity[affected]
            * self.customers.present(week)[affected]
        )
        callers = affected[rng.random(affected.size) < p_call]
        if callers.size == 0:
            return
        days = self._sample_report_days(week_start, callers.size)
        for line, day in zip(callers, days):
            dslam = int(self._dslam_idx[int(line)])
            if self.outages.dslams_down_on(int(day))[dslam]:
                self.ticket_log.record_ivr(int(line), int(day), dslam, -1)
            else:
                # Network-level problem: categorised outside customer edge.
                self.ticket_log.open_ticket(
                    line_id=int(line),
                    day=int(day),
                    category=TicketCategory.OTHER,
                    source=TicketSource.CUSTOMER,
                )

    def _generate_billing_tickets(self, week: int) -> None:
        rng = self.rng
        n = self.stop - self.start
        count = rng.binomial(n, self.config.billing_ticket_rate)
        if count == 0:
            return
        lines = rng.choice(n, size=count, replace=False)
        days = self._sample_report_days(week * 7, count)
        for line, day in zip(lines, days):
            self.ticket_log.open_ticket(
                line_id=int(line),
                day=int(day),
                category=TicketCategory.BILLING,
                source=TicketSource.CUSTOMER,
            )


class DslSimulator(PlantBlock):
    """The whole plant as one block, plus the campaign store and traffic.

    One :class:`PlantBlock` over lines ``[0, n)`` on
    ``default_rng(config.seed)`` and the config-seeded customers.  On top
    of the block's weekly step it records each Saturday campaign in a
    :class:`MeasurementStore`, exports BRAS traffic (step 7), and takes
    proactive per-line and group dispatches between weeks on the same
    random stream.
    """

    def __init__(self, config: SimulationConfig | None = None):
        config = config or SimulationConfig()
        models = build_plant_models(config)
        n = models.population.n_lines
        super().__init__(
            config, models, 0, n,
            rng=np.random.default_rng(config.seed),
            customers=build_customers(n, config.n_weeks, config.customers),
        )
        self.population = models.population
        self.physics = models.tester.physics
        self.measurements = MeasurementStore(n_lines=n, n_weeks=config.n_weeks)

        sampled_bras = list(range(min(config.traffic.sample_bras,
                                      self.population.topology.n_brases)))
        sampled_lines = np.flatnonzero(
            np.isin(self.population.bras_idx, sampled_bras)
        )
        self.traffic_model = TrafficModel(
            line_ids=sampled_lines, n_days=config.n_weeks * 7,
            config=config.traffic,
        )
        self._traffic_slots = sampled_lines

    def step(self) -> int:
        """Simulate the next week; returns the week index just completed."""
        w = self.week
        features, effects = self.step_week()
        self.measurements.add_week(w, w * 7 + SATURDAY_OFFSET, features)
        # 7. Traffic export for the sampled BRAS population.
        self._record_traffic(w, effects)
        return w

    def run(self, n_weeks: int | None = None) -> SimulationResult:
        """Run (the remainder of) the horizon and return the result bundle."""
        target = self.config.n_weeks if n_weeks is None else min(
            self.config.n_weeks, self.week + n_weeks
        )
        while self.week < target:
            self.step()
        return self.result()

    def result(self) -> SimulationResult:
        """Snapshot the current outputs (valid at any point of the run)."""
        return SimulationResult(
            config=self.config,
            population=self.population,
            customers=self.customers,
            measurements=self.measurements,
            ticket_log=self.ticket_log,
            outages=self.outages,
            dispatcher=self.dispatcher,
            traffic=self.traffic_model.finish(),
            fault_events=self.fault_events,
            group_faults=self.group_faults,
        )

    # ----- proactive interface (used by the NEVERMIND pipeline) -------------

    def apply_proactive_fixes(self, line_ids: np.ndarray, day: int) -> list[DispatchRecord]:
        """Dispatch technicians to predicted lines ahead of any complaint.

        Healthy lines close as "no trouble found"; faulty lines are fixed
        with the usual dispatch success rate.  Returns the dispatch
        records (whose ``true_disposition`` tells the caller whether the
        prediction found a real problem).

        Raises:
            IndexError: if any id is outside ``[0, n_lines)``; nothing is
                dispatched then.
        """
        lines = np.atleast_1d(np.asarray(line_ids, dtype=int))
        n = self.population.n_lines
        bad = lines[(lines < 0) | (lines >= n)]
        if bad.size:
            raise IndexError(
                f"line ids out of range [0, {n}): {bad[:5].tolist()}"
            )
        records = []
        for line in lines:
            disposition = int(self.state.disposition[line])
            ticket = self.ticket_log.open_ticket(
                line_id=int(line),
                day=day,
                category=TicketCategory.CUSTOMER_EDGE,
                source=TicketSource.NEVERMIND,
                fault_disposition=disposition,
                fault_onset_day=int(self.state.onset_day[line]),
            )
            record = self.dispatcher.resolve(
                ticket.ticket_id, int(line), day, disposition, self.rng
            )
            ticket.resolved_day = record.day
            ticket.recorded_disposition = record.recorded_disposition
            if disposition >= 0 and record.fixed:
                self._close_fault_events(np.array([line]), record.day, "proactive")
                self.state.clear(np.array([line]))
            records.append(record)
        return records

    def apply_group_fixes(
        self, groups: list[tuple[str, int]], day: int
    ) -> list[GroupDispatchRecord]:
        """Send one consolidated crew per upstream plant cluster.

        ``groups`` is a list of ``(level, group_id)`` pairs -- level
        ``"dslam"`` or ``"binder"`` -- typically the upstream clusters the
        fleet triage layer found.  If the shared plant really has an
        active group fault, the crew clears it (with the usual failed-fix
        risk); otherwise the visit closes as found-nothing.  A cleared
        DSLAM event's scheduled escalation outage still occurs (the card
        swap needs its maintenance window either way).

        Raises:
            ValueError: for a level other than ``"dslam"`` or
                ``"binder"``; nothing is dispatched then.
            IndexError: for a group id outside ``[0, n_dslams)`` or
                ``[0, n_binders)``; nothing is dispatched then.
        """
        topo = self.population.topology
        groups = [(str(level), int(group_id)) for level, group_id in groups]
        for level, group_id in groups:
            if level not in (LEVEL_DSLAM, LEVEL_BINDER):
                raise ValueError(
                    f"group level must be {LEVEL_DSLAM!r} or "
                    f"{LEVEL_BINDER!r}, got {level!r}"
                )
            n = topo.n_dslams if level == LEVEL_DSLAM else topo.n_binders
            if not 0 <= group_id < n:
                raise IndexError(
                    f"{level} id {group_id} out of range [0, {n})"
                )
        records: list[GroupDispatchRecord] = []
        for level, group_id in groups:
            line_ids = (
                topo.lines_of_dslam(group_id)
                if level == LEVEL_DSLAM
                else topo.lines_of_binder(group_id)
            )
            event = (
                self.group_faults.find_active(level, group_id, day)
                if self.group_faults is not None
                else None
            )
            record = self.dispatcher.resolve_group(
                level, group_id, int(line_ids.size), day,
                found_fault=event is not None, rng=self.rng,
            )
            if event is not None and record.fixed:
                self.group_faults.clear_event(event, record.day)
            records.append(record)
        return records

    # ----- internals ---------------------------------------------------------

    def _record_traffic(self, week: int, effects: FaultEffects) -> None:
        slots = self._traffic_slots
        if slots.size == 0:
            return
        throughput = effects.cells_factor[slots] * np.clip(
            1.0 - effects.dropout[slots], 0.0, 1.0
        )
        week_days = week * 7 + np.arange(7)
        down_by_day = np.stack(
            [self.outages.dslams_down_on(int(d)) for d in week_days], axis=1
        )  # (n_dslams, 7)
        dslam_down = down_by_day[self.population.dslam_idx[slots], :]
        self.traffic_model.record_week(
            week,
            usage_intensity=self.customers.usage_intensity[slots],
            present=self.customers.present(week)[slots],
            throughput_factor=throughput,
            dslam_down_days=dslam_down,
            rng=self.rng,
        )
