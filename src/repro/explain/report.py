"""The two-stage explanation report: diagnostic summary + next steps.

Stage one is the *diagnostic summary*: what the model saw -- calibrated
ticket probability, the exact margin, the top-K feature votes with their
measured evidence, and the line's plant context (DSLAM, binder, and any
fleet triage cluster it sits in).  Stage two is the *technician view*:
the locator's predicted disposition and the templated next steps for it
(:mod:`repro.explain.templates`).  Everything is assembled from model
state and the disposition catalog; no text is generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.explain.attribution import assemble_model_row, attribute_rows
from repro.explain.templates import (
    disposition_headline,
    no_locator_steps,
    technician_steps,
)
from repro.netsim.components import DISPOSITIONS, Location, disposition_arrays

__all__ = ["ExplanationReport", "build_report"]


@dataclass
class ExplanationReport:
    """One line-week explanation, ready to serialize or render.

    Attributes:
        line, week, day: the scored line-week (day = absolute test day).
        model_version: registry version that produced the score, if any.
        p_ticket: served calibrated ticket probability.
        margin: the exact ensemble margin behind it.
        attribution_exact: whether the vote fold reproduced the margin
            bit-for-bit (always True by construction; serialized so a
            consumer can assert it).
        n_contributors: how many feature groups voted.
        attributions: top-K votes as JSON-ready dicts, rank order.
        plant: DSLAM/binder membership and optional triage cluster.
        disposition: the locator's top candidate (None without a locator).
        ranking: the locator's top candidates beyond the first.
        next_steps: templated technician steps for the top disposition.
    """

    line: int
    week: int
    day: int
    model_version: str | None
    p_ticket: float
    margin: float
    attribution_exact: bool
    n_contributors: int
    attributions: list[dict]
    plant: dict
    disposition: dict | None
    ranking: list[dict] = field(default_factory=list)
    next_steps: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """A JSON-ready representation."""
        return {
            "line": int(self.line),
            "week": int(self.week),
            "day": int(self.day),
            "model_version": self.model_version,
            "p_ticket": float(self.p_ticket),
            "margin": float(self.margin),
            "attribution_exact": bool(self.attribution_exact),
            "n_contributors": int(self.n_contributors),
            "attributions": list(self.attributions),
            "plant": dict(self.plant),
            "disposition": self.disposition,
            "ranking": list(self.ranking),
            "next_steps": list(self.next_steps),
        }

    def render_text(self) -> str:
        """The two-stage plain-text report."""
        lines = [
            "=== diagnostic summary ===",
            (
                f"line {self.line} | week {self.week} (day {self.day})"
                f" | model {self.model_version or 'unversioned'}"
            ),
            (
                f"P(ticket within horizon) = {self.p_ticket:.4f}; "
                f"margin {self.margin:+.6f} from "
                f"{self.n_contributors} voting features"
            ),
            f"top {len(self.attributions)} contributions:",
        ]
        for a in self.attributions:
            value = "missing" if a["missing"] else f"{a['value']:g}"
            name = a["name"] or f"feature {a['feature']}"
            lines.append(
                f"  {a['rank']}. [{a['contribution']:+.4f}] {name} "
                f"= {value} -- {a['evidence']}"
            )
        lines.append(_plant_line(self.plant))
        triage = self.plant.get("triage")
        if triage is not None:
            lines.append(
                f"triage: member of a {triage['classification']} "
                f"{triage['level']} cluster "
                f"(id {triage['group_id']}, p={triage['p_value']:.2e}, "
                f"{triage['n_anomalous']}/{triage['n_lines']} lines anomalous)"
            )
        lines.append("")
        lines.append("=== technician next steps ===")
        if self.disposition is None:
            lines.append("predicted disposition: unavailable (no locator)")
        else:
            d = self.disposition
            lines.append(
                f"predicted disposition: {d['headline']} "
                f"(posterior {d['posterior']:.3f})"
            )
            for r in self.ranking[1:]:
                lines.append(
                    f"  runner-up {r['rank']}: {r['name']} "
                    f"(posterior {r['posterior']:.3f})"
                )
        for i, step in enumerate(self.next_steps, start=1):
            lines.append(f"  {i}. {step}")
        return "\n".join(lines) + "\n"


def _plant_line(plant: dict) -> str:
    parts = [f"plant: DSLAM {plant['dslam']} ({plant['dslam_lines']} lines)"]
    if plant.get("binder") is not None:
        parts.append(
            f"binder {plant['binder']} ({plant['binder_lines']} lines)"
        )
    return ", ".join(parts)


def _plant_context(line: int, topology, triage) -> dict:
    dslam = int(topology.line_dslam[line])
    plant: dict = {
        "dslam": dslam,
        "dslam_lines": int(topology.lines_of_dslam(dslam).size),
        "binder": None,
        "binder_lines": None,
        "triage": None,
    }
    binder = topology.binder_of_line(line)
    if binder >= 0:
        plant["binder"] = int(binder)
        plant["binder_lines"] = int(topology.lines_of_binder(binder).size)
    if triage is not None:
        cluster = triage.cluster_of_line(line)
        if cluster is not None:
            plant["triage"] = {
                "level": cluster.level,
                "group_id": int(cluster.group_id),
                "classification": cluster.classification,
                "p_value": float(cluster.p_value),
                "n_lines": cluster.n_lines,
                "n_anomalous": cluster.n_anomalous,
            }
    return plant


def _disposition_context(ranking: list[dict] | None) -> tuple[dict | None, list[str]]:
    """(top-candidate payload, next steps) from a locate ranking."""
    if not ranking:
        return None, no_locator_steps()
    top = ranking[0]
    code = int(top["disposition"])
    location = Location(int(disposition_arrays().location[code]))
    payload = {
        "code": code,
        "id": DISPOSITIONS[code].code,
        "name": top["name"],
        "location": location.name,
        "location_description": location.description,
        "posterior": float(top["posterior"]),
        "headline": disposition_headline(code),
    }
    return payload, technician_steps(code)


def build_report(
    *,
    line: int,
    week: int,
    day: int,
    model_version: str | None,
    predictor,
    base_row: np.ndarray,
    p_ticket: float,
    topology,
    ranking: list[dict] | None = None,
    triage=None,
    top_k: int = 5,
) -> ExplanationReport:
    """Assemble the two-stage report for one scored line-week.

    Args:
        line, week, day: the line-week being explained.
        model_version: registry version behind the score, if served.
        predictor: the fitted :class:`~repro.core.predictor.TicketPredictor`
            whose compiled ensemble produced the margin.
        base_row: the line's encoded base-feature row for ``week``.
        p_ticket: the served calibrated score (reported verbatim).
        topology: plant hierarchy for the DSLAM/binder context.
        ranking: locator candidates as produced by
            ``ScoringEngine.locate`` (None when no locator is published).
        triage: optional :class:`~repro.fleet.aggregation.TriageResult`
            for the same week's scores.
        top_k: attributions to keep in the summary.
    """
    if predictor.model is None:
        raise RuntimeError("predictor is not fitted")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    row = assemble_model_row(base_row, predictor.recipes)
    attribution = attribute_rows(
        predictor.model.compiled(), row[None, :], names=predictor.feature_names
    )
    disposition, next_steps = _disposition_context(ranking)
    return ExplanationReport(
        line=int(line),
        week=int(week),
        day=int(day),
        model_version=model_version,
        p_ticket=float(p_ticket),
        margin=float(attribution.margins[0]),
        attribution_exact=(
            attribution.reconstructed(0) == attribution.margins[0]
        ),
        n_contributors=len(attribution.groups),
        attributions=[c.to_dict() for c in attribution.top(top_k)[0]],
        plant=_plant_context(int(line), topology, triage),
        disposition=disposition,
        ranking=list(ranking or []),
        next_steps=next_steps,
    )
