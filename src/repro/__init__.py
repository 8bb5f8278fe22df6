"""repro — probabilistic consensus reliability toolkit.

Reproduction of *"Real Life Is Uncertain. Consensus Should Be Too!"*
(HotOS 2025): fault curves, per-configuration safety/liveness predicates
for Raft and PBFT, exact and sampled probability aggregation, storage-style
Markov metrics, probability-native planning tools, a discrete-event
consensus simulator for empirical validation, and a declarative fault-plan
subsystem (:mod:`repro.injection`) that replays outages and Byzantine
attacks through seeded simulation campaigns.

Quickstart
----------
The front door is the Query/Engine API: describe each deployment as a
:class:`Scenario`, submit one with ``run_query`` or a batch (a
:class:`ScenarioSet`, a mixed :class:`QuerySet`) with ``run``, and the
:class:`ReliabilityEngine` picks estimators, shares DP sweeps, caches
repeats and replies with an :class:`AnswerSet`:

>>> from repro import RaftSpec, Scenario, default_engine, uniform_fleet
>>> scenario = Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01))
>>> round(default_engine().run_query(scenario).value.safe_and_live.value, 6)
0.999702
"""

from repro.engine import (
    AnswerSet,
    AvailabilityQuery,
    MTTFQuery,
    QuerySet,
    ReliabilityEngine,
    ReliabilityQuery,
    Scenario,
    ScenarioSet,
    SimulationQuery,
    default_engine,
    register_backend,
)
from repro.analysis import (
    Estimate,
    FailureConfig,
    FaultKind,
    ReliabilityResult,
    counting_reliability,
    exact_reliability,
    format_probability,
    from_nines,
    monte_carlo_reliability,
    nines,
    predicate_probability,
)
from repro.faults import (
    BathtubCurve,
    ConstantHazard,
    FaultCurve,
    Fleet,
    NodeModel,
    WeibullCurve,
    byzantine_fleet,
    heterogeneous_fleet,
    uniform_fleet,
)
from repro.protocols import (
    BenOrSpec,
    PBFTSpec,
    ProtocolSpec,
    RaftSpec,
    ReliabilityAwareRaftSpec,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # engine
    "Scenario",
    "ScenarioSet",
    "QuerySet",
    "ReliabilityQuery",
    "AvailabilityQuery",
    "MTTFQuery",
    "SimulationQuery",
    "ReliabilityEngine",
    "AnswerSet",
    "default_engine",
    "register_backend",
    # analysis
    "counting_reliability",
    "exact_reliability",
    "monte_carlo_reliability",
    "predicate_probability",
    "Estimate",
    "ReliabilityResult",
    "FailureConfig",
    "FaultKind",
    "nines",
    "from_nines",
    "format_probability",
    # faults
    "FaultCurve",
    "ConstantHazard",
    "WeibullCurve",
    "BathtubCurve",
    "NodeModel",
    "Fleet",
    "uniform_fleet",
    "heterogeneous_fleet",
    "byzantine_fleet",
    # protocols
    "ProtocolSpec",
    "RaftSpec",
    "PBFTSpec",
    "BenOrSpec",
    "ReliabilityAwareRaftSpec",
]
