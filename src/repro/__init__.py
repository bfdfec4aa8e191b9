"""NEVERMIND reproduction: proactive DSL trouble detection and location.

A from-scratch Python reimplementation of *"NEVERMIND, the Problem Is
Already Fixed: Proactively Detecting and Troubleshooting Customer DSL
Problems"* (Jin, Duffield, Gerber, Haffner, Sen, Zhang -- ACM CoNEXT
2010), including the DSL access-network and customer-care simulator that
stands in for the paper's proprietary ISP data.

Quick start::

    from repro import (
        DslSimulator, SimulationConfig, PopulationConfig,
        TicketPredictor, PredictorConfig, paper_style_split,
        evaluate_predictions,
    )

    sim = DslSimulator(SimulationConfig(
        n_weeks=22, population=PopulationConfig(n_lines=6000),
        fault_rate_scale=3.0,
    ))
    result = sim.run()
    split = paper_style_split(22, history=8, train=3, selection=2, test=1)
    predictor = TicketPredictor(PredictorConfig(capacity=150)).fit(result, split)
    week = split.test_weeks[0]
    outcome = evaluate_predictions(result, predictor.rank_week(result, week), week)
    print("accuracy@150:", outcome.accuracy_at(150))

Package map (see DESIGN.md for the experiment index):

* :mod:`repro.netsim` -- plant simulator (topology, physics, faults);
* :mod:`repro.measurement` -- weekly Table-2 line tests;
* :mod:`repro.tickets` -- customers, tickets, outages/IVR, ATDS;
* :mod:`repro.traffic` -- per-customer BRAS byte counts;
* :mod:`repro.data` -- temporal splits and labeled joins;
* :mod:`repro.ml` -- BStump boosting, calibration, logistic regression,
  PCA and ranking metrics, all from scratch;
* :mod:`repro.features` -- Table-3 encoding and top-N AP selection;
* :mod:`repro.core` -- the ticket predictor, trouble locator, Section-5
  analyses, and the closed operational loop;
* :mod:`repro.parallel` -- the ``parallel_map`` fabric (``REPRO_WORKERS``)
  the locator and the feature-selection sweep fan out over;
* :mod:`repro.serve` -- the serving subsystem: versioned model registry,
  append-only line-week store, sharded scoring engine, and the stdlib
  HTTP scoring service (``python -m repro serve``);
* :mod:`repro.fleet` -- plant-level triage: cross-line fault grouping,
  network-vs-premise classification, and hotspot dispatch suppression
  (``python -m repro triage``).
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
from repro.data.export import export_all
from repro.data.joins import (
    LabeledDataset,
    LocatorDataset,
    anonymize_ids,
    build_locator_dataset,
    build_ticket_dataset,
)
from repro.data.splits import TemporalSplit, paper_style_split
from repro.features.encoding import EncoderConfig, FeatureSet, LineFeatureEncoder
from repro.netsim.population import Population, PopulationConfig, build_population
from repro.parallel import parallel_map, worker_count
from repro.netsim.scenarios import scenario, scenario_names
from repro.netsim.simulator import (
    DslSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.fleet import (
    FaultCluster,
    TriageConfig,
    TriagePlan,
    TriageResult,
    evaluate_plan,
    find_clusters,
    plan_dispatches,
)
from repro.netsim.groupfaults import (
    GroupFaultConfig,
    GroupFaultModel,
    GroupFaultSchedule,
)
from repro.tickets.churn import ChurnConfig, ChurnReport, estimate_churn
from repro.serve import (
    LineWeekStore,
    ModelBundle,
    ModelRegistry,
    ScoringEngine,
    ScoringService,
    StoredWorld,
    snapshot_result,
)

__version__ = "1.0.0"

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
    "LabeledDataset",
    "LocatorDataset",
    "anonymize_ids",
    "build_locator_dataset",
    "build_ticket_dataset",
    "TemporalSplit",
    "paper_style_split",
    "EncoderConfig",
    "FeatureSet",
    "LineFeatureEncoder",
    "Population",
    "PopulationConfig",
    "build_population",
    "DslSimulator",
    "SimulationConfig",
    "SimulationResult",
    "export_all",
    "scenario",
    "scenario_names",
    "ChurnConfig",
    "ChurnReport",
    "estimate_churn",
    "GroupFaultConfig",
    "GroupFaultModel",
    "GroupFaultSchedule",
    "TriageConfig",
    "FaultCluster",
    "TriageResult",
    "TriagePlan",
    "find_clusters",
    "plan_dispatches",
    "evaluate_plan",
    "parallel_map",
    "worker_count",
    "LineWeekStore",
    "ModelBundle",
    "ModelRegistry",
    "ScoringEngine",
    "ScoringService",
    "StoredWorld",
    "snapshot_result",
    "__version__",
]
