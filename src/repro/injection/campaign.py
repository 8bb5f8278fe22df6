"""Fault-plan compilation and per-replica campaign execution.

:func:`compile_faults` turns a declarative :class:`~repro.injection.plan.FaultPlan`
into one replica's concrete :class:`CompiledFaults` — window outcomes,
crash/recovery schedule, Byzantine behaviour assignments and network
operations — drawing every stochastic choice from that replica's private
spawned stream.  :func:`run_replica` then executes the replica end to end
(build cluster, inject, drive the workload, audit) and returns the
verdict tuple the simulation backend aggregates — or, when the campaign
already ran an equal realisation in a run that read no random stream,
returns that run's verdict without executing anything.

**Stream contract.**  The default plan consumes the replica stream in the
exact order the pre-fault-plan backend did — one window-configuration
draw, then one crash-time uniform per sampled crash, then the cluster's
``spawn(n + 1)`` — so crash-only campaigns reproduce historical answers
bit-for-bit (pinned by ``tests/test_golden_injection.py``).  Plan
features only *append* draws (MTTR exponentials after each crash uniform,
event draws after the sampled schedule), and uniform draws and
``SeedSequence.spawn`` advance independent counters, so reordering one
never perturbs the other.

**Execution.**  The simulation backend fans replicas across workers and,
under a supervising :class:`~repro.engine.ExecutionPolicy`, through the
fault-tolerant runtime (:mod:`repro.runtime`): a crashed or hung
shard of replicas retries on generators rebuilt from the same spawned
children — sound precisely because of the stream contract above — and
:func:`repro.engine.chaos.chaos_from_fault_plan` turns a
:class:`~repro.injection.plan.FaultPlan` loose on the runtime itself for
its self-tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Hashable, MutableMapping, Sequence

import numpy as np

from repro.analysis.config import FailureConfig, FaultKind
from repro.errors import InvalidConfigurationError
from repro.injection.behaviours import behaviour_factory
from repro.injection.plan import (
    DEFAULT_ADVERSARY,
    DEFAULT_PLAN,
    FaultPlan,
    draw_repair_time,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.correlation import CorrelationModel
    from repro.faults.mixture import Fleet
    from repro.protocols.base import ProtocolSpec
    from repro.sim.cluster import Cluster, NodeFactory


#: One scheduled network operation: ``(kind, at, value, closing)`` where
#: kind is "partition" (value=groups), "heal" (value=None), "drop"
#: (value=probability or None for baseline) or "delay" (value=seconds).
#: ``closing`` marks ops that end a declared window (heals, restores); at
#: a shared boundary they are applied before the next window's opening op.
NetworkOp = tuple


@dataclass
class FaultSchedule:
    """Mutable build target the plan's events compile onto.

    Per-node downtime is a *union of intervals*: each cause contributes a
    ``[crash, recover)`` interval (``recover=None`` = down for good) and
    :meth:`outages` merges overlapping contributions — a node is down
    whenever any declared cause has it down, and two disjoint intervals
    (crash, recover, crash again later) schedule two separate outages.
    """

    n: int
    duration: float
    intervals: dict[int, list[tuple[float, float | None]]] = field(
        default_factory=dict
    )
    network_ops: list[NetworkOp] = field(default_factory=list)
    partition_windows: list[tuple[float, float]] = field(default_factory=list)

    def crash(self, node: int, at: float, *, recover_at: float | None = None) -> None:
        # Crashing exactly at t=0 races node start.
        at = max(float(at), 1e-9)
        recover = None if recover_at is None else float(recover_at)
        self.intervals.setdefault(node, []).append((at, recover))

    def outages(self) -> tuple[tuple[int, float, float | None], ...]:
        """Merged ``(node, crash, recover)`` rows, node-major, time-sorted.

        Overlapping or touching intervals union (a repair mid-way through
        another cause's outage never revives the node); disjoint ones stay
        separate outages.
        """
        rows: list[tuple[int, float, float | None]] = []
        for node in sorted(self.intervals):
            # Terminal intervals (recover=None) sort as infinite recoveries;
            # plain sorted() would compare None with float and raise.
            spans = sorted(
                self.intervals[node],
                key=lambda span: (
                    span[0],
                    float("inf") if span[1] is None else span[1],
                ),
            )
            start, end = spans[0]
            for next_start, next_end in spans[1:]:
                if end is None or next_start <= end:
                    if end is not None:
                        end = None if next_end is None else max(end, next_end)
                else:
                    rows.append((node, start, end))
                    start, end = next_start, next_end
            rows.append((node, start, end))
        return tuple(rows)

    def partition(self, groups, at: float, heal_at: float) -> None:
        self.network_ops.append(("partition", float(at), groups, False))
        if heal_at < self.duration:
            self.network_ops.append(("heal", float(heal_at), None, True))
        self.partition_windows.append((float(at), float(heal_at)))

    def network_op(self, kind: str, at: float, value, *, closing: bool = False) -> None:
        self.network_ops.append((kind, float(at), value, closing))


@dataclass(frozen=True, eq=False)
class CompiledFaults:
    """One replica's concrete fault realisation.

    ``config`` is the window-outcome view the §3 predicates and the trace
    audit consume: every node the schedule ever crashes is CRASH (even if
    it later recovers — it was not correct for the whole run) and every
    adversary node is BYZANTINE.  ``outages`` are merged
    ``(node, crash, recover)`` downtime intervals (``recover=None`` =
    terminal); ``behaviours`` maps Byzantine node ids to registry
    behaviour names.

    Two realisations are equal, and hash alike, when their
    :meth:`realisation_key` is — every field, since every field reaches
    the cluster or the audit.
    """

    config: FailureConfig
    outages: tuple[tuple[int, float, float | None], ...]
    behaviours: dict[int, str]
    network_ops: tuple[NetworkOp, ...]
    partition_windows: tuple[tuple[float, float], ...]

    def realisation_key(self) -> tuple:
        """All five fields as one tuple, ``behaviours`` as sorted pairs.

        Network ops keep their declaration order: it breaks ties between
        same-instant ops in :meth:`apply_network`.  Hashable whenever the
        plan's events put only hashable values into their network ops
        (every built-in event does).
        """
        return (
            self.config,
            self.outages,
            tuple(sorted(self.behaviours.items())),
            self.network_ops,
            self.partition_windows,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledFaults):
            return NotImplemented
        return self.realisation_key() == other.realisation_key()

    def __hash__(self) -> int:
        return hash(self.realisation_key())

    def crashed_nodes(self) -> frozenset[int]:
        return frozenset(node for node, _, _ in self.outages)

    def apply(self, cluster: "Cluster") -> None:
        """Schedule the compiled outages on a cluster.

        Crashes first, then recoveries, node-major — the order the
        pre-fault-plan injector applied them in, so the default plan
        schedules its events in the historical order.
        """
        for node, crash_time, _ in self.outages:
            cluster.crash_at(node, crash_time)
        for node, _, recover_time in self.outages:
            if recover_time is not None:
                cluster.recover_at(node, recover_time)

    def apply_network(self, cluster: "Cluster") -> None:
        """Schedule the compiled partition/heal and burst operations.

        Ops are applied time-sorted with window-*closing* ops (heals,
        baseline restores) ahead of same-instant openers: the scheduler
        runs equal-time events in insertion order, so back-to-back windows
        — one healing at the exact instant the next starts, in any
        declaration order — always end up with the new window in force.
        """
        for op in sorted(self.network_ops, key=lambda op: (op[1], not op[3])):
            kind = op[0]
            if kind == "partition":
                cluster.partition_at(op[2], op[1])
            elif kind == "heal":
                cluster.heal_partition_at(op[1])
            elif kind == "drop":
                cluster.set_drop_probability_at(op[2], op[1])
            elif kind == "delay":
                cluster.set_extra_delay_at(op[2], op[1])
            else:  # pragma: no cover - schedule() only emits the four kinds
                raise InvalidConfigurationError(f"unknown network op {kind!r}")


def _sampled_config(
    fleet: "Fleet",
    correlation: "CorrelationModel | None",
    failure_kind: FaultKind,
    rng: np.random.Generator,
) -> FailureConfig:
    """Draw one window configuration — correlated when the model is given."""
    from repro.analysis.montecarlo import sample_configuration

    if correlation is None:
        return sample_configuration(fleet, rng)
    failed = correlation.sample(rng)
    return FailureConfig(
        tuple(failure_kind if bool(hit) else FaultKind.CORRECT for hit in failed)
    )


def compile_faults(
    plan: FaultPlan | None,
    *,
    fleet: "Fleet",
    duration: float,
    crash_window: tuple[float, float],
    correlation: "CorrelationModel | None" = None,
    failure_kind: FaultKind = FaultKind.CRASH,
    rng: np.random.Generator,
) -> CompiledFaults:
    """Compile ``plan`` for one replica, drawing from its private stream."""
    if duration <= 0:
        raise InvalidConfigurationError("duration must be positive")
    if not 0.0 <= crash_window[0] < crash_window[1] <= duration:
        raise InvalidConfigurationError(f"invalid crash window {crash_window}")
    if plan is None:
        plan = DEFAULT_PLAN
    n = fleet.n
    plan.validate(n, duration)

    # 1. Window outcomes (fleet trinomial, or the correlation model).
    if plan.sample_faults:
        config = _sampled_config(fleet, correlation, failure_kind, rng)
    else:
        config = FailureConfig.all_correct(n)

    # 2. Declared adversary nodes are Byzantine regardless of the draw
    #    (and therefore never fail-stop via the sampled schedule).
    adversary = plan.adversary
    if adversary is not None:
        for node in adversary.nodes:
            if config[node] is not FaultKind.BYZANTINE:
                config = config.with_kind(node, FaultKind.BYZANTINE)

    # 3. Sampled crash-stop (or crash-recovery) schedule: per CRASH node,
    #    in index order, one crash-time uniform, then its repair draw.
    schedule = FaultSchedule(n=n, duration=duration)
    mttr = plan.mean_time_to_repair
    for node, kind in enumerate(config.kinds):
        if kind is FaultKind.CRASH:
            at = float(rng.uniform(*crash_window))
            recover = (
                None if mttr is None else draw_repair_time(at, mttr, duration, rng)
            )
            schedule.crash(node, at, recover_at=recover)

    # 4. Plan events, in declaration order.
    for event in plan.events:
        event.schedule(schedule, rng)

    # 5. Any node the events crashed was not correct for the window.
    for node in schedule.intervals:
        if config[node] is FaultKind.CORRECT:
            config = config.with_kind(node, FaultKind.CRASH)

    mix = adversary if adversary is not None else DEFAULT_ADVERSARY
    behaviours = {
        node: mix.behaviour_for(node) for node in sorted(config.byzantine_indices)
    }

    return CompiledFaults(
        config=config,
        outages=schedule.outages(),
        behaviours=behaviours,
        network_ops=tuple(schedule.network_ops),
        partition_windows=tuple(schedule.partition_windows),
    )


#: Most verdicts one campaign's reuse table holds.  A full table stops
#: storing (what is in it keeps serving): a million replicas with a sampled
#: crash time each are a million distinct realisations, none worth keeping.
REUSE_TABLE_CAP = 1024


@dataclass(frozen=True)
class ReplicaRun:
    """How much of a replica was simulated — observability, never an answer.

    ``messages`` counts the messages nodes sent (the network's
    ``messages_sent``) and ``checkpoints`` the frozen-log certificate's
    evaluations (:meth:`repro.sim.cluster.Cluster.run_to_verdict`).
    ``reused`` marks a replica that was not simulated at all: its verdict
    is the stored one of an equal realisation of the same campaign.
    ``rounds_skipped`` counts the quiet Raft heartbeat rounds run in
    closed form (:attr:`repro.sim.cluster.Cluster.rounds_skipped`): their
    events are in ``events`` all the same.
    """

    sim_seconds: float
    events: int
    messages: int
    checkpoints: int
    reused: bool = False
    rounds_skipped: int = field(default=0, compare=False)


_REUSED = ReplicaRun(sim_seconds=0.0, events=0, messages=0, checkpoints=0, reused=True)


@dataclass(frozen=True)
class ReplicaVerdict:
    """Audited outcome of one replica run (the backend's tally unit).

    ``run`` rides along for tracing only: it is excluded from equality and
    not journalled, so restored, reused and fresh verdicts compare equal.
    """

    unsafe: bool
    stalled: bool
    predicate_mismatch: bool
    partition_era_only: bool
    run: ReplicaRun | None = field(default=None, compare=False, repr=False)


def run_replica(
    spec: "ProtocolSpec",
    fleet: "Fleet",
    *,
    node_factory: "NodeFactory",
    duration: float,
    commands: Sequence[tuple[object, float]],
    crash_window: tuple[float, float],
    rng: np.random.Generator,
    plan: FaultPlan | None = None,
    correlation: "CorrelationModel | None" = None,
    failure_kind: FaultKind = FaultKind.CRASH,
    reuse: MutableMapping[Hashable, ReplicaVerdict] | None = None,
) -> ReplicaVerdict:
    """One seeded replica: compile faults, run the cluster, audit the trace.

    Everything stochastic draws from ``rng`` — the replica's private
    spawned stream — so the verdict depends only on that stream.
    ``commands`` is the ``(value, submit_time)`` workload schedule.

    ``duration`` is a *horizon*, not a budget to burn: from the last
    command's submit the cluster runs until its frozen-log certificate
    holds (:meth:`repro.sim.cluster.Cluster.run_to_verdict`, which owns
    the checkpoint schedule; :meth:`~repro.sim.cluster.Cluster.verdict_final`
    carries the proof) — every node that can still run holds the same log
    with every command in it, every running node has applied all of it,
    and nothing sent before the previous checkpoint is still in flight.  A
    replica whose logs froze stops two delay bounds after the checkpoint
    that first saw them frozen.  From there the audit below cannot
    change, so the verdict is the one the full horizon would give.  Only
    nodes that make the promise (Raft) ever certify; PBFT, Byzantine
    overrides and third-party nodes run to ``duration`` in one slice, as
    does a replica under an unbounded latency model, and a replica whose
    certificate never holds (a stalled one) runs there too.

    **A replica is sampled always and simulated once per distinct run.**
    ``reuse`` is the table of *one campaign* — replicas that share
    ``spec``, ``fleet``, ``node_factory``, ``duration`` and ``commands``
    and differ only in ``rng`` (absent: a campaign of this one replica).
    The faults are compiled first, draw for draw, whatever the table
    holds: the replica's own stream decides its realisation.  A verdict
    stored under an equal :meth:`CompiledFaults.realisation_key` is then
    returned as this replica's (``run.reused``); otherwise the replica is
    built, run and audited as above, and its verdict is stored only if
    :meth:`repro.sim.cluster.Cluster.drew_randomness` is False afterwards.

    *Proof that a reused verdict is the one the replica would compute.*
    A run is a deterministic program of the node and behaviour factories,
    ``n``, the compiled realisation, the command schedule, ``duration``,
    the latency model and the cluster's ``n + 1`` streams — the
    scheduler orders events by ``(time, insertion)`` and no simulator
    module reads a clock or an ambient generator (``wall-clock``,
    ``rng-discipline``: the one thing this rests on).  Let replica A have
    stored under key *k*.  Its streams stood, after the audit, where they
    stood at construction, so no event of A read a stream: A's trace is a
    function of the other inputs alone.  Replica B of the same campaign
    with key *k* has those inputs equal — the key is every field of the
    realisation, the rest is the campaign's — so B's first event is A's,
    reads no stream either, and by induction so does every later one: B
    executes A's events, stops at A's checkpoint, and its audit, over an
    equal trace and an equal ``config``, gives A's four flags.  Raft
    (random election timeouts), a loss burst in force and
    ``UniformLatency`` / ``LogNormalLatency`` all draw, so they never
    store; they pay the ``n + 1`` comparisons and nothing else.

    A key that cannot be hashed (a third-party event putting a list into
    a network op) is a realisation that is never reused, not an error.
    """
    from repro.sim.checker import audit_run
    from repro.sim.cluster import Cluster

    compiled = compile_faults(
        plan,
        fleet=fleet,
        duration=duration,
        crash_window=crash_window,
        correlation=correlation,
        failure_kind=failure_kind,
        rng=rng,
    )
    if reuse is None:
        reuse = {}
    key = compiled.realisation_key()
    try:
        stored = reuse.get(key)
    except TypeError:
        key = stored = None
    if stored is not None:
        return replace(stored, run=_REUSED)

    overrides = {
        node: behaviour_factory(name, spec)
        for node, name in compiled.behaviours.items()
    }
    cluster = Cluster(
        fleet.n, node_factory, seed=rng, node_overrides=overrides or None
    )
    compiled.apply(cluster)
    compiled.apply_network(cluster)
    cluster.start()
    for value, at in commands:
        cluster.submit(value, at=at)
    stopped = cluster.run_to_verdict(
        max((at for _, at in commands), default=0.0), duration
    )

    config = compiled.config
    correct = sorted(set(range(fleet.n)) - set(config.failed_indices))
    verdict = audit_run(
        cluster.trace,
        [value for value, _ in commands],
        correct_nodes=correct,
        partition_windows=compiled.partition_windows,
        submit_times={value: at for value, at in commands},
    )
    result = ReplicaVerdict(
        unsafe=not verdict.safe,
        stalled=not verdict.live,
        predicate_mismatch=verdict.live != spec.is_live(config),
        partition_era_only=(
            not verdict.live and verdict.liveness.holds_outside_partitions
        ),
        run=ReplicaRun(
            sim_seconds=stopped,
            events=cluster.scheduler.processed_events,
            messages=cluster.network.messages_sent,
            checkpoints=cluster.checkpoints,
            rounds_skipped=cluster.rounds_skipped,
        ),
    )
    # The one store: behind the stream check, so only a run that is a
    # function of its key is ever served to another replica.
    if (
        key is not None
        and len(reuse) < REUSE_TABLE_CAP
        and not cluster.drew_randomness()
    ):
        reuse[key] = result
    return result
