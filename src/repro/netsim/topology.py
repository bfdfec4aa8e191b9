"""Object model of the DSL access network hierarchy (Fig. 1).

The hierarchy is: BRAS -> ATM switch -> DSLAM -> dedicated copper line ->
customer home network.  The ATM layer is transparent to everything the
paper measures, so we keep BRAS and DSLAM as the two aggregation levels
(the paper's outage analysis operates on DSLAMs and the traffic analysis
on BRAS servers).

Below the DSLAM, copper pairs do not run individually to each home: they
share **binder groups** -- bundles of 10-25 pairs pulled together through
the F1/F2 plant segments (feeder and distribution cable).  A water-logged
splice case or a rodent-chewed sheath degrades *every pair in the binder*
at once, which is exactly the cross-line signature the plant-triage layer
(:mod:`repro.fleet`) groups on.  Binders are modelled as a partition of
each DSLAM's lines: ``binder_of_line`` / ``lines_of_binder`` give the
id-level lookups, mirroring the DSLAM-level ones.

The heavy per-line state lives in :class:`repro.netsim.population.Population`
as parallel numpy arrays; this module provides the id-and-membership view
used for grouping, reporting and the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Line", "Dslam", "Binder", "Bras", "Topology"]


@dataclass(frozen=True)
class Line:
    """A dedicated subscriber loop.

    Attributes:
        line_id: index of this line in all population arrays.
        dslam_id: serving DSLAM index.
        bras_id: upstream BRAS index.
        loop_kft: working loop length in kilofeet.
        profile: service-tier name.
    """

    line_id: int
    dslam_id: int
    bras_id: int
    loop_kft: float
    profile: str


@dataclass(frozen=True)
class Dslam:
    """A DSL access multiplexer terminating several tens of lines.

    Attributes:
        dslam_id: index of this DSLAM.
        bras_id: upstream BRAS index.
        geo: coarse geolocation bucket (used only for reporting).
        line_ids: indices of the lines this DSLAM serves.
    """

    dslam_id: int
    bras_id: int
    geo: int
    line_ids: np.ndarray


@dataclass(frozen=True)
class Binder:
    """A shared F1/F2 binder segment: copper pairs bundled in one sheath.

    Attributes:
        binder_id: index of this binder.
        dslam_id: the DSLAM whose lines run through this binder (binders
            are modelled as sub-bundles of one DSLAM's plant).
        line_ids: indices of the lines sharing the binder.
    """

    binder_id: int
    dslam_id: int
    line_ids: np.ndarray


@dataclass(frozen=True)
class Bras:
    """A broadband remote access server aggregating many DSLAMs."""

    bras_id: int
    dslam_ids: np.ndarray


@dataclass
class Topology:
    """The assembled hierarchy with id-based lookups.

    ``binders`` / ``line_binder`` are optional (older hand-built
    topologies may omit them); when present they must partition the lines
    exactly like the DSLAM membership does.
    """

    brases: list[Bras] = field(default_factory=list)
    dslams: list[Dslam] = field(default_factory=list)
    line_dslam: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    line_bras: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    binders: list[Binder] = field(default_factory=list)
    line_binder: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def n_lines(self) -> int:
        return len(self.line_dslam)

    @property
    def n_dslams(self) -> int:
        return len(self.dslams)

    @property
    def n_brases(self) -> int:
        return len(self.brases)

    @property
    def n_binders(self) -> int:
        return len(self.binders)

    @property
    def has_binders(self) -> bool:
        """Whether this topology carries the binder-group layer."""
        return len(self.binders) > 0

    def lines_of_dslam(self, dslam_id: int) -> np.ndarray:
        """Line indices served by a DSLAM."""
        return self.dslams[dslam_id].line_ids

    def binder_of_line(self, line_id: int) -> int:
        """Binder index of a line (-1 when the topology has no binders)."""
        if not self.has_binders:
            return -1
        return int(self.line_binder[line_id])

    def lines_of_binder(self, binder_id: int) -> np.ndarray:
        """Line indices sharing a binder segment."""
        return self.binders[binder_id].line_ids

    def dslam_of_binder(self, binder_id: int) -> int:
        """The DSLAM whose plant a binder belongs to."""
        return self.binders[binder_id].dslam_id

    def validate(self) -> None:
        """Check referential integrity; raises ValueError on any breakage."""
        n = self.n_lines
        if len(self.line_bras) != n:
            raise ValueError("line_bras and line_dslam cover different lines")
        seen = np.zeros(n, dtype=bool)
        for dslam in self.dslams:
            if dslam.bras_id < 0 or dslam.bras_id >= self.n_brases:
                raise ValueError(f"DSLAM {dslam.dslam_id} references bad BRAS")
            if dslam.line_ids.size == 0:
                raise ValueError(f"DSLAM {dslam.dslam_id} serves no lines")
            if np.any(dslam.line_ids < 0) or np.any(dslam.line_ids >= n):
                raise ValueError(
                    f"DSLAM {dslam.dslam_id} references out-of-range lines"
                )
            if np.any(seen[dslam.line_ids]):
                raise ValueError("a line is served by two DSLAMs")
            seen[dslam.line_ids] = True
            if np.any(self.line_dslam[dslam.line_ids] != dslam.dslam_id):
                raise ValueError("line_dslam disagrees with DSLAM membership")
            if np.any(self.line_bras[dslam.line_ids] != dslam.bras_id):
                raise ValueError("line_bras disagrees with the DSLAM uplink")
        if not np.all(seen):
            raise ValueError("some lines are not served by any DSLAM")
        for bras in self.brases:
            for d in bras.dslam_ids:
                if d < 0 or d >= self.n_dslams:
                    raise ValueError(
                        f"BRAS {bras.bras_id} references out-of-range DSLAM"
                    )
                if self.dslams[int(d)].bras_id != bras.bras_id:
                    raise ValueError("BRAS membership disagrees with DSLAM uplink")
        if self.has_binders:
            self._validate_binders(n)
        elif self.line_binder.size:
            raise ValueError("line_binder set but no binders defined")

    def _validate_binders(self, n: int) -> None:
        if len(self.line_binder) != n:
            raise ValueError("line_binder does not cover every line")
        in_binder = np.zeros(n, dtype=bool)
        for index, binder in enumerate(self.binders):
            if binder.binder_id != index:
                raise ValueError("binder ids must match their list position")
            if binder.dslam_id < 0 or binder.dslam_id >= self.n_dslams:
                raise ValueError(
                    f"binder {binder.binder_id} references bad DSLAM"
                )
            if binder.line_ids.size == 0:
                raise ValueError(f"binder {binder.binder_id} holds no lines")
            if np.any(in_binder[binder.line_ids]):
                raise ValueError("a line runs through two binders")
            in_binder[binder.line_ids] = True
            if np.any(self.line_dslam[binder.line_ids] != binder.dslam_id):
                raise ValueError(
                    "binder members are not all served by the binder's DSLAM"
                )
            if np.any(self.line_binder[binder.line_ids] != binder.binder_id):
                raise ValueError("line_binder disagrees with binder membership")
        if not np.all(in_binder):
            raise ValueError("some lines run through no binder")
