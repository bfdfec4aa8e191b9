"""Explanation subsystem: exact attributions + technician reports.

Stump ensembles are additive, so every served margin decomposes into
exact per-feature votes (:mod:`repro.explain.attribution`); the votes,
their measured evidence, the line's plant context and the locator's
predicted disposition render into a two-stage templated report
(:mod:`repro.explain.report`, :mod:`repro.explain.templates`) -- the
diagnostic-summary -> next-steps shape the paper hands to technicians.
"""

from repro.explain.attribution import (
    BatchAttribution,
    FeatureContribution,
    MarginAttribution,
    assemble_model_row,
    attribute_ensemble,
    attribute_head,
    attribute_rows,
)
from repro.explain.report import ExplanationReport, build_report
from repro.explain.templates import (
    disposition_headline,
    no_locator_steps,
    technician_steps,
)

__all__ = [
    "BatchAttribution",
    "FeatureContribution",
    "MarginAttribution",
    "assemble_model_row",
    "attribute_ensemble",
    "attribute_head",
    "attribute_rows",
    "ExplanationReport",
    "build_report",
    "disposition_headline",
    "no_locator_steps",
    "technician_steps",
]
