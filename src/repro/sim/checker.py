"""Trace auditing: did a run uphold agreement and progress?

The analysis layer (§3) classifies failure *configurations* as safe/live;
the checker classifies concrete *executions*.  Safety here is slot-wise
agreement among correct nodes (no two correct nodes decide different values
for the same slot).  Liveness is completion: every submitted command is
decided by every node that was correct for the whole run.

Running many seeded executions per configuration and comparing checker
verdicts against predicate verdicts is the validation loop of
``benchmarks/bench_sim_validation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.sim.trace import TraceRecorder


@dataclass(frozen=True)
class AgreementViolation:
    """Two decisions of one slot differ — two correct nodes', or one node's own."""

    slot: int
    node_a: int
    value_a: object
    node_b: int
    value_b: object


@dataclass(frozen=True)
class SafetyVerdict:
    """Result of the agreement audit."""

    holds: bool
    violations: tuple[AgreementViolation, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class LivenessVerdict:
    """Result of the completion audit.

    ``partition_era`` is the subset of ``missing`` whose command was
    submitted while a declared network partition was in force — an
    attribution by *timing*, not causality: it separates stalls the
    injected partition plausibly explains from clear-network ones, but a
    concurrent quorum-destroying crash can also stall a partition-era
    command.  ``holds`` still demands *every* command complete;
    :attr:`holds_outside_partitions` is the softer question ("was every
    command submitted on a whole network decided?").
    """

    holds: bool
    missing: tuple[tuple[int, object], ...] = field(default_factory=tuple)  # (node, value)
    partition_era: tuple[tuple[int, object], ...] = field(default_factory=tuple)

    @property
    def holds_outside_partitions(self) -> bool:
        return set(self.missing) <= set(self.partition_era)


def check_agreement(
    trace: TraceRecorder, *, correct_nodes: Iterable[int] | None = None
) -> SafetyVerdict:
    """Slot-wise agreement across (correct) nodes.

    With ``correct_nodes`` given, only their commits are audited — Byzantine
    nodes may claim anything; consensus only promises agreement among the
    correct.  Every commit record counts, not a node's last word per slot:
    a node that decides two different values for one slot violates
    agreement with itself (``node_a == node_b``), while a recovered node
    deciding the same value again is legal.
    """
    audited = None if correct_nodes is None else set(correct_nodes)
    decided: dict[int, dict[int, list[object]]] = {}  # node -> slot -> distinct values
    for record in trace.commits:
        if audited is None or record.node_id in audited:
            values = decided.setdefault(record.node_id, {}).setdefault(record.slot, [])
            if record.value not in values:
                values.append(record.value)
    canonical: dict[int, tuple[int, object]] = {}  # slot -> (first node, value)
    violations: list[AgreementViolation] = []
    for node_id in sorted(decided):
        for slot, values in sorted(decided[node_id].items()):
            for value in values:
                first_node, first_value = canonical.setdefault(slot, (node_id, value))
                if first_value != value:
                    violations.append(
                        AgreementViolation(
                            slot=slot,
                            node_a=first_node,
                            value_a=first_value,
                            node_b=node_id,
                            value_b=value,
                        )
                    )
    return SafetyVerdict(holds=not violations, violations=tuple(violations))


def check_completion(
    trace: TraceRecorder,
    submitted: Sequence[object],
    *,
    correct_nodes: Iterable[int],
    partition_windows: Sequence[tuple[float, float]] = (),
    submit_times: Mapping[object, float] | None = None,
) -> LivenessVerdict:
    """Every submitted value decided by every always-correct node.

    With ``partition_windows`` (half-open ``[start, heal)`` intervals) and
    ``submit_times`` given, missing commands submitted inside a window are
    additionally reported as ``partition_era`` — a timing-based
    attribution separating stalls the injected partition plausibly
    explains from clear-network ones.
    """
    committed = trace.committed_by_node()
    missing: list[tuple[int, object]] = []
    partition_era: list[tuple[int, object]] = []
    for node_id in sorted(set(correct_nodes)):
        decided = set(committed.get(node_id, {}).values())
        for value in submitted:
            if value not in decided:
                missing.append((node_id, value))
                if partition_windows and submit_times is not None:
                    at = submit_times.get(value)
                    if at is not None and any(
                        start <= at < heal for start, heal in partition_windows
                    ):
                        partition_era.append((node_id, value))
    return LivenessVerdict(
        holds=not missing,
        missing=tuple(missing),
        partition_era=tuple(partition_era),
    )


@dataclass(frozen=True)
class RunVerdict:
    """Combined audit of one simulated execution."""

    safety: SafetyVerdict
    liveness: LivenessVerdict

    @property
    def safe(self) -> bool:
        return self.safety.holds

    @property
    def live(self) -> bool:
        return self.liveness.holds


def audit_run(
    trace: TraceRecorder,
    submitted: Sequence[object],
    *,
    correct_nodes: Iterable[int],
    partition_windows: Sequence[tuple[float, float]] = (),
    submit_times: Mapping[object, float] | None = None,
) -> RunVerdict:
    """Safety + liveness audit for one run.

    Agreement is always audited over correct replicas only (Byzantine
    nodes may claim anything).  ``partition_windows``/``submit_times``
    make the liveness verdict report partition-era stalls separately —
    see :func:`check_completion`.
    """
    correct = list(correct_nodes)
    return RunVerdict(
        safety=check_agreement(trace, correct_nodes=correct),
        liveness=check_completion(
            trace,
            submitted,
            correct_nodes=correct,
            partition_windows=partition_windows,
            submit_times=submit_times,
        ),
    )
