"""DSL access-network simulator: the substrate the paper's data came from.

The paper evaluates NEVERMIND on a year of proprietary data from a major US
DSL provider.  This package replaces that plant with a generative model of
the same architecture (Fig. 1 of the paper):

    customer home network -> dedicated copper loop -> DSLAM -> ATM -> BRAS

* :mod:`repro.netsim.profiles` -- subscriber service profiles and their
  expected line-feature values.
* :mod:`repro.netsim.components` -- the catalog of customer-edge
  dispositions across the four major locations HN / F2 / F1 / DS
  (Table 1 / Fig 2), with onset rates, severity dynamics, perceivability
  and physical-effect signatures.
* :mod:`repro.netsim.physics` -- simplified twisted-pair loop physics that
  maps (loop length, profile, fault effects) to the Table-2 line features.
* :mod:`repro.netsim.topology` -- the BRAS/ATM/DSLAM/line object model.
* :mod:`repro.netsim.population` -- builds a subscriber population.
* :mod:`repro.netsim.faults` -- vectorised fault state and dynamics.
* :mod:`repro.netsim.simulator` -- the week-by-week simulation loop that
  emits line measurements, customer tickets, outages, dispatches and
  per-customer traffic.  Its :class:`~repro.netsim.simulator.PlantBlock`
  holds the one weekly step; :class:`DslSimulator` runs it over the
  whole plant.
* :mod:`repro.netsim.streaming` -- the same step over fixed line blocks
  with per-block random substreams, streamed chunk by chunk for
  paper-scale plants.
"""

from repro.netsim.components import (
    DISPOSITIONS,
    Disposition,
    EffectSignature,
    Location,
    dispositions_at,
)
from repro.netsim.faults import FaultModel, FaultState
from repro.netsim.physics import LinePhysics, LoopConditions
from repro.netsim.population import Population, PopulationConfig, build_population
from repro.netsim.profiles import PROFILES, ServiceProfile, profile_by_name
from repro.netsim.simulator import DslSimulator, SimulationConfig, SimulationResult
from repro.netsim.streaming import (
    STREAM_BLOCK_LINES,
    StreamingSimulator,
    WeekBlock,
    stream_weeks,
)
from repro.netsim.topology import Bras, Dslam, Line, Topology

__all__ = [
    "DISPOSITIONS",
    "Disposition",
    "EffectSignature",
    "Location",
    "dispositions_at",
    "FaultModel",
    "FaultState",
    "LinePhysics",
    "LoopConditions",
    "Population",
    "PopulationConfig",
    "build_population",
    "PROFILES",
    "ServiceProfile",
    "profile_by_name",
    "DslSimulator",
    "SimulationConfig",
    "SimulationResult",
    "STREAM_BLOCK_LINES",
    "StreamingSimulator",
    "WeekBlock",
    "stream_weeks",
    "Bras",
    "Dslam",
    "Line",
    "Topology",
]
