"""NEVERMIND: the paper's contribution, built on the substrates.

* :mod:`repro.core.predictor` -- the ticket predictor (Section 4): Table-3
  encoding -> top-N AP feature selection -> BStump -> calibrated ranking
  of all lines by P(ticket within T).
* :mod:`repro.core.locator` -- the trouble locator (Section 6): the
  experience-model baseline, the flat one-vs-rest model, and the combined
  hierarchical model of Eq. 2.
* :mod:`repro.core.analysis` -- the Section-5 evaluations: accuracy@N
  curves, the Fig-8 urgency CDF, the Table-5 outage/IVR explanation of
  incorrect predictions, and the not-on-site traffic analysis.
* :mod:`repro.core.pipeline` -- the closed operational loop of Fig. 3
  (bottom box): predict every Saturday, submit the top-N to ATDS, fix
  problems before customers call.
"""

from repro.core.analysis import (
    OutageExplanation,
    PredictionOutcome,
    accuracy_curve,
    evaluate_predictions,
    explain_incorrect_by_absence,
    explain_incorrect_by_outage,
    ground_truth_problem_fraction,
    missed_ticket_fraction,
    urgency_cdf,
)
from repro.core.locator import (
    CombinedLocator,
    ExperienceModel,
    FlatLocator,
    LocatorConfig,
    rank_improvement_by_bin,
    ranks_of_truth,
    tests_to_locate,
)
from repro.core.pipeline import NevermindPipeline, PipelineConfig, WeeklyReport
from repro.core.predictor import PredictorConfig, TicketPredictor

__all__ = [
    "OutageExplanation",
    "PredictionOutcome",
    "accuracy_curve",
    "evaluate_predictions",
    "explain_incorrect_by_absence",
    "explain_incorrect_by_outage",
    "ground_truth_problem_fraction",
    "missed_ticket_fraction",
    "urgency_cdf",
    "CombinedLocator",
    "ExperienceModel",
    "FlatLocator",
    "LocatorConfig",
    "rank_improvement_by_bin",
    "ranks_of_truth",
    "tests_to_locate",
    "NevermindPipeline",
    "PipelineConfig",
    "WeeklyReport",
    "PredictorConfig",
    "TicketPredictor",
]
