"""Discrete-event consensus simulator (validation substrate).

Deterministic seeded executions of full Raft and PBFT state machines with
trace-level agreement and completion audits.  Faults reach a cluster
only as the :class:`repro.injection.CompiledFaults` that
:func:`repro.injection.compile_faults` makes of a fault plan; this
package imports nothing from the analysis, fault-model, injection or
engine layers.  Exists to validate the analysis layer: predicate
verdicts (§3 theorems) must match what actual protocol runs exhibit.
"""

from repro.sim.checker import (
    AgreementViolation,
    LivenessVerdict,
    RunVerdict,
    SafetyVerdict,
    audit_run,
    check_agreement,
    check_completion,
)
from repro.sim.cluster import Cluster, run_scenario
from repro.sim.events import EventScheduler
from repro.sim.network import (
    FixedLatency,
    LogNormalLatency,
    Network,
    UniformLatency,
)
from repro.sim.node import Process
from repro.sim.stats import (
    LatencySummary,
    LeadershipStats,
    commit_latencies,
    latency_summary,
    leadership_stats,
    unavailable_windows,
)
from repro.sim.trace import TraceRecorder, merge_traces
from repro.sim.workloads import (
    WorkloadEvent,
    apply_workload,
    bursty_workload,
    interleave,
    poisson_workload,
    steady_workload,
    workload_values,
)

__all__ = [
    "EventScheduler",
    "Network",
    "FixedLatency",
    "UniformLatency",
    "LogNormalLatency",
    "Process",
    "Cluster",
    "run_scenario",
    "TraceRecorder",
    "LatencySummary",
    "LeadershipStats",
    "commit_latencies",
    "latency_summary",
    "leadership_stats",
    "unavailable_windows",
    "WorkloadEvent",
    "steady_workload",
    "poisson_workload",
    "bursty_workload",
    "apply_workload",
    "workload_values",
    "interleave",
    "merge_traces",
    "audit_run",
    "check_agreement",
    "check_completion",
    "RunVerdict",
    "SafetyVerdict",
    "LivenessVerdict",
    "AgreementViolation",
]
