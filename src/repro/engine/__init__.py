"""Query/Engine API: the one front door to reliability analysis.

The paper's pitch is that consensus deployments should report guarantees
the way S3 reports durability — nines computed from explicit failure
scenarios.  This package makes the *question* the first-class object: a
:class:`Scenario` pins a deployment (spec, fleet, estimator budget), a
:class:`Query` couples it with a question kind, and every submission —
one scenario, a sweep, a mixed JSON query file — goes through
:meth:`ReliabilityEngine.run` and comes back as an :class:`AnswerSet`:

>>> from repro.engine import Scenario, default_engine
>>> from repro import RaftSpec, uniform_fleet
>>> answer = default_engine().run_query(
...     Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01)))
>>> round(answer.value.safe_and_live.value, 6)
0.999702
>>> answer.provenance.describe()
'reliability:counting/solo'

A bare :class:`Scenario` is a :class:`ReliabilityQuery`; a
:class:`ScenarioSet` — built by hand, from the :meth:`ScenarioSet.grid`
builder, or from JSON — is a batch of them.  The engine answers each row
through one memo path — probe its bounded LRU memo under the row's own
:meth:`Query.cache_key`, fold in-batch duplicates, compute the distinct
misses, store — and only the misses reach the backend registered for the
kind, which returns one :class:`Answer` per row and never reads or writes
the memo.  A kind is registered once: :func:`register_backend` takes the
:class:`Query` subclass, and that one decorator makes the kind parseable
from JSON rows (:func:`query_from_dict`) and answerable
(:func:`registered_kinds` lists them):
``reliability`` is the scenario planner (shared counting-DP sweeps for
same-size symmetric scenarios, one call per row into the fixed
:data:`ESTIMATORS` table for everything else);
:class:`AvailabilityQuery` and :class:`MTTFQuery` batch same-chain CTMC
questions; :class:`SimulationQuery` campaigns fan seeded replicas across the
:class:`ExecutionPolicy` pool and accept a declarative
:class:`repro.injection.FaultPlan` (``faults=``) describing outages,
partitions, bursts and Byzantine adversary mixes.  Every consumer in this
repository (the planner, committee search, horizon sweeps, the CLI's
queries, the daemon) routes through here, and each answer's
:class:`Provenance` records backend, estimator, batch and shard counts.

Every shard fan-out goes through one dispatcher,
:func:`repro.runtime.run_supervised` (re-exported here), and campaign
execution is fault-tolerant: an :class:`ExecutionPolicy`'s supervision
knobs (``timeout``, ``retries``, ``on_shard_failure``,
``checkpoint_dir``) add per-shard timeouts, retries that re-execute the
same spawned stream bit-identically, worker-loss recovery, graceful
degradation with ``degraded`` provenance, and checkpoint/resume journals
(:class:`~repro.runtime.CampaignCheckpoint`).
:mod:`repro.engine.chaos` injects deterministic worker faults to prove
every recovery path in CI.
"""

from repro.engine.chaos import (
    ChaosInjectedError,
    ChaosPlan,
    ShardFault,
    chaos_from_fault_plan,
)
from repro.engine.engine import ReliabilityEngine, default_engine
from repro.engine.execution import ExecutionPolicy
from repro.engine.query import (
    AvailabilityQuery,
    MTTFQuery,
    Query,
    QuerySet,
    ReliabilityQuery,
    SimulationQuery,
    query_from_dict,
)
from repro.engine.registry import (
    ESTIMATORS,
    get_backend,
    get_estimator,
    register_backend,
    registered_kinds,
)
from repro.engine.result import (
    Answer,
    AnswerSet,
    AvailabilityAnswer,
    MTTFAnswer,
    Provenance,
    SimulationAnswer,
)
from repro.engine.scenario import (
    Scenario,
    ScenarioSet,
    SpecCodec,
    register_spec_codec,
    spec_from_dict,
    spec_to_dict,
)
from repro.runtime import (
    CampaignCheckpoint,
    RunReport,
    Supervision,
    run_supervised,
)

__all__ = [
    "Scenario",
    "ScenarioSet",
    "Query",
    "QuerySet",
    "ReliabilityQuery",
    "AvailabilityQuery",
    "MTTFQuery",
    "SimulationQuery",
    "ReliabilityEngine",
    "ExecutionPolicy",
    "Supervision",
    "RunReport",
    "CampaignCheckpoint",
    "run_supervised",
    "ChaosPlan",
    "ShardFault",
    "ChaosInjectedError",
    "chaos_from_fault_plan",
    "Answer",
    "AnswerSet",
    "AvailabilityAnswer",
    "MTTFAnswer",
    "SimulationAnswer",
    "Provenance",
    "default_engine",
    "ESTIMATORS",
    "get_estimator",
    "register_backend",
    "get_backend",
    "registered_kinds",
    "query_from_dict",
    "SpecCodec",
    "register_spec_codec",
    "spec_to_dict",
    "spec_from_dict",
]
