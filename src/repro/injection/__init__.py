"""Declarative fault injection: the adversary & outage layer of campaigns.

The paper's validation loop only closes if protocol executions suffer the
*same* fault universe the analysis layer reasons about — crash,
crash-recovery, correlated bursts, partitions and Byzantine behaviour.
This package packages that universe as one pluggable subsystem:

* :class:`FaultPlan` — a frozen, JSON-embeddable specification: typed
  :class:`FaultEvent` rows (:class:`CrashStop`, :class:`PartitionEvent`,
  :class:`LossBurst`, :class:`DelayBurst`, :class:`CorrelatedBurst`) plus
  an :class:`Adversary` mix for Byzantine outcomes;
  :func:`plan_from_curves` builds one from per-node fault curves;
* :func:`compile_faults` — per-replica compilation from
  ``SeedSequence.spawn`` streams (campaign answers stay jobs-invariant)
  into :class:`CompiledFaults`, the one schedule a cluster applies;
* :func:`run_replica` — the full compile → inject → execute → audit
  pipeline the engine's simulation backend fans across workers;
* :func:`register_behaviour` — the registry resolving behaviour names
  (``"double-vote"``, ``"equivocate"``, ``"silent"``, …) into runnable
  misbehaving node classes per protocol family.

Fault plans ride inside :class:`repro.engine.SimulationQuery` via its
``faults`` field, so one JSON query file can describe an entire outage or
attack campaign.
"""

from repro.injection.behaviours import (
    behaviour_build,
    behaviour_factory,
    register_behaviour,
    registered_behaviours,
    supports_byzantine,
)
from repro.injection.campaign import (
    CompiledFaults,
    FaultSchedule,
    ReplicaVerdict,
    compile_faults,
    run_replica,
)
from repro.injection.plan import (
    DEFAULT_PLAN,
    FAULT_EVENTS,
    Adversary,
    CorrelatedBurst,
    CrashStop,
    DelayBurst,
    FaultEvent,
    FaultPlan,
    LossBurst,
    PartitionEvent,
    fault_event_from_dict,
    plan_from_curves,
)

__all__ = [
    "FaultPlan",
    "FaultEvent",
    "CrashStop",
    "PartitionEvent",
    "LossBurst",
    "DelayBurst",
    "CorrelatedBurst",
    "Adversary",
    "DEFAULT_PLAN",
    "plan_from_curves",
    "FAULT_EVENTS",
    "fault_event_from_dict",
    "register_behaviour",
    "registered_behaviours",
    "behaviour_factory",
    "behaviour_build",
    "supports_byzantine",
    "compile_faults",
    "run_replica",
    "CompiledFaults",
    "FaultSchedule",
    "ReplicaVerdict",
]
