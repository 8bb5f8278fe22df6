"""Simulation harness: nodes + network + scheduler + trace in one object.

``Cluster`` owns the deterministic event loop and exposes the operations
experiments need: start the protocol, submit client commands, crash or
recover nodes at chosen times, partition and degrade the network on a
schedule, run to a virtual deadline, and hand the trace to the checker.
``node_overrides`` swaps individual nodes' factories — the hook the
fault-plan subsystem uses to activate Byzantine behaviours — without
perturbing any other node's seeded stream.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro._rng import SeedLike, as_generator, spawn, stream_position
from repro.errors import InvalidConfigurationError, SimulationError
from repro.sim.events import EventScheduler
from repro.sim.network import LatencyModel, Network
from repro.sim.node import Process
from repro.sim.trace import TraceRecorder

#: Livelock guard: the most events one run may execute (see ``run_until``).
MAX_EVENTS = 2_000_000

#: Virtual seconds between the checkpoints of :meth:`Cluster.run_to_verdict`
#: while clause (1) of the frozen-log certificate fails — the stride of the
#: search for the instant the logs freeze.  Once clause (1) holds, the next
#: checkpoint is not on this grid: it is the earliest one clause (3) accepts.
CHECKPOINT_INTERVAL = 0.05

#: Builds protocol node ``i`` of ``n``; receives its own RNG stream.
NodeFactory = Callable[[int, int, EventScheduler, Network, np.random.Generator, TraceRecorder], Process]


class Cluster:
    """A deterministic simulated deployment of ``n`` protocol nodes."""

    def __init__(
        self,
        n: int,
        node_factory: NodeFactory,
        *,
        latency: LatencyModel | None = None,
        drop_probability: float = 0.0,
        seed: SeedLike = None,
        node_overrides: Mapping[int, NodeFactory] | None = None,
    ):
        if n <= 0:
            raise InvalidConfigurationError(f"cluster size must be positive, got {n}")
        overrides = dict(node_overrides or {})
        for node_id in overrides:
            if not 0 <= node_id < n:
                raise InvalidConfigurationError(
                    f"node override id {node_id} outside cluster of {n}"
                )
        root = as_generator(seed)
        network_rng, *node_rngs = streams = spawn(root, n + 1)
        #: Every stream the run can read, with where it stood when handed out.
        self._streams = [(rng, stream_position(rng)) for rng in streams]
        self.scheduler = EventScheduler()
        self.trace = TraceRecorder()
        self.network = Network(
            self.scheduler,
            latency=latency,
            drop_probability=drop_probability,
            seed=network_rng,
        )
        self.nodes: list[Process] = []
        for node_id in range(n):
            factory = overrides.get(node_id, node_factory)
            process = factory(
                node_id, n, self.scheduler, self.network, node_rngs[node_id], self.trace
            )
            self.network.attach(process)
            self.nodes.append(process)
        self._overridden = bool(overrides)
        #: Every value handed to :meth:`submit`, fired yet or not.
        self._commands: list[object] = []
        #: Every scheduled recovery per node, ascending (absent = none).
        self._recoveries: dict[int, list[float]] = {}
        #: ``(time, token)`` of the last :meth:`verdict_final` checkpoint.
        self._checkpoint: tuple[float, object] | None = None
        #: How many times :meth:`verdict_final` has been evaluated.
        self.checkpoints = 0

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def now(self) -> float:
        return self.scheduler.now

    @property
    def rounds_skipped(self) -> int:
        """Heartbeat rounds the nodes ran in closed form (observability)."""
        return sum(getattr(process, "rounds_skipped", 0) for process in self.nodes)

    # ------------------------------------------------------------------
    # Execution control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot every node at t=0."""
        for process in self.nodes:
            process.start()

    def run_until(self, t_end: float, *, max_events: int = MAX_EVENTS) -> None:
        self.scheduler.run_until(t_end, max_events=max_events)

    def run_to_verdict(self, start: float, horizon: float) -> float:
        """Run to ``start``, then on until the verdict is final or ``horizon``.

        Returns the virtual time the run stopped at.  ``start`` is the last
        client submit: the first checkpoint.  :meth:`verdict_final` is
        evaluated at each checkpoint, and the schedule of checkpoints is
        derived from it.  While clause (1) fails, the next checkpoint is
        :data:`CHECKPOINT_INTERVAL` later.  Once it holds, the next is the
        first one clause (3) accepts: ``max(now + 2 * delay_bound,
        nextafter(now))`` — twice the bound clears it whatever the floats
        round to, and ``nextafter`` still advances when the bound is 0 — so
        a replica whose logs froze stops one confirmation later, not on the
        next point of a fixed grid.  Where the checkpoints fall changes
        nothing else: slicing a run never moves an event, and the proof in
        :meth:`verdict_final` holds for any two checkpoints.

        A cluster that can never certify runs to ``horizon`` in one slice
        and evaluates the certificate zero times: an overridden node, a node
        class that keeps :meth:`Process.frozen_log`'s "no promise" (PBFT),
        or an unbounded latency model.  The livelock guard
        (:data:`MAX_EVENTS`) bounds the whole run, not each slice.
        """
        scheduler = self.scheduler
        checkpoint = min(start, horizon) if self._may_certify() else horizon
        while True:
            self.run_until(
                checkpoint, max_events=MAX_EVENTS - scheduler.processed_events
            )
            if checkpoint >= horizon or self.verdict_final():
                return checkpoint
            if self._checkpoint[1] is None:
                checkpoint = self._next_grid_checkpoint(checkpoint, horizon)
            else:
                checkpoint = max(
                    checkpoint + 2 * self.network.delay_bound(),
                    math.nextafter(checkpoint, math.inf),
                )
            checkpoint = min(checkpoint, horizon)

    def _next_grid_checkpoint(self, checkpoint: float, horizon: float) -> float:
        """The next checkpoint on the grid after one where clause (1) failed.

        ``checkpoint + CHECKPOINT_INTERVAL``, walked on by the same float
        additions past every grid point before the next recovery of a
        crashed node whose :meth:`Process.frozen_log` answer is ``None``
        (the latest such recovery, and never past ``horizon``).  Such a node
        is live at each of those points and, by the promise, answers
        ``None`` until it recovers, so clause (1) fails at every one of
        them: evaluating them would change nothing but :attr:`checkpoints`
        (each failed checkpoint only records ``(now, None)``, and the next
        comparison with a ``None`` token fails alike), and slicing the run
        there moves no event.
        """
        checkpoint += CHECKPOINT_INTERVAL
        now = self.now
        blocked = -math.inf
        for process in self.nodes:
            if process.is_crashed:
                recovery = self._next_recovery(process.node_id, now)
                if (
                    recovery is not None
                    and recovery > blocked
                    and process.frozen_log(self._commands) is None
                ):
                    blocked = recovery
        blocked = min(blocked, horizon)
        while checkpoint < blocked:
            checkpoint += CHECKPOINT_INTERVAL
        return checkpoint

    def _next_recovery(self, node_id: int, now: float) -> float | None:
        """The first recovery of ``node_id`` scheduled after ``now``, if any."""
        recoveries = self._recoveries.get(node_id, ())
        index = bisect.bisect_right(recoveries, now)
        return recoveries[index] if index < len(recoveries) else None

    def _may_certify(self) -> bool:
        """Can :meth:`verdict_final` ever hold on this cluster?"""
        return (
            not self._overridden
            and self.network.delay_bound() < math.inf
            and all(
                type(process).frozen_log is not Process.frozen_log
                for process in self.nodes
            )
        )

    def verdict_final(self) -> bool:
        """One checkpoint of :meth:`run_to_verdict`: can the audit still change?

        The *frozen-log certificate*.  Call a node **live** if it is
        running or still has a recovery scheduled; any other node never
        runs again.  This returns True when

        1. no node was overridden, every live node makes the
           :meth:`Process.frozen_log` promise for the values ever handed
           to :meth:`submit` (fired yet or not), and the logs they return
           are all equal — call that log *L*;
        2. the previous checkpoint satisfied (1) with the same token — the
           live nodes and their log versions, so no live log was written
           in between; and
        3. that checkpoint lies more than :meth:`Network.delay_bound` in
           the past (never, under an unbounded latency model).

        Then no node that has never crashed records another commit,
        whatever crashes, recoveries, partitions, loss, delay bursts or
        elections are still to come: :func:`repro.sim.checker.audit_run`
        over never-crashed nodes — what ``run_replica`` audits — gives the
        same verdict on the trace so far as at any later horizon.  (It
        assumes what every caller here does: commands enter through
        :meth:`submit` and nothing is scheduled on the cluster from
        outside after the run starts.)

        *Proof.*  Let T0 < T1 be the two checkpoints.  The live set only
        shrinks, so by (2) every node live at T1 held *L* throughout
        [T0, T1].  A message sent before T0 was delayed by at most the
        bound, so by (3) it has landed: everything in flight at T1, and
        everything sent later, comes from a node that held *L* when it
        sent.  Suppose a live node writes its log after T1, and take the
        first such write.  Until then every running node holds *L*, so by
        the nodes' promise the write is neither a proposal (*L* holds
        every client value) nor the effect of a message (its sender held
        *L*) — a contradiction.  Logs therefore stay *L* for ever; a
        running node has decided all of *L* and decides a slot once, so it
        records nothing more.  A node that restarts later decides the same
        *L* again, but it has crashed, and dropped or delayed messages only
        remove deliveries.
        """
        self.checkpoints += 1
        token = self._frozen_log_token()
        previous, self._checkpoint = self._checkpoint, (self.now, token)
        return (
            token is not None
            and previous is not None
            and previous[1] == token
            and self.now - previous[0] > self.network.delay_bound()
        )

    def drew_randomness(self) -> bool:
        """Has the network or any node read its stream since construction?

        The cluster hands out ``n + 1`` spawned streams — the network's and
        one per node, overridden nodes included — and nothing else in a run
        holds a source of randomness (``rng-discipline``).  Each is compared
        with its position at construction, so the answer is observed, not
        promised: fixed timeouts, a constant latency model and a loss-free
        network leave every stream where it was, and one election timeout,
        one loss draw or one sampled delay moves one.  False means the trace
        so far is a function of what the cluster was built and scheduled
        with alone (:func:`repro.injection.run_replica` carries the proof
        and the use).
        """
        return any(stream_position(rng) != start for rng, start in self._streams)

    def _frozen_log_token(self) -> tuple[tuple[int, int], ...] | None:
        """Clause (1) of :meth:`verdict_final`: live ``(node, version)`` pairs."""
        if self._overridden:
            return None
        now = self.now
        common = None
        token = []
        for process in self.nodes:
            node_id = process.node_id
            if process.is_crashed and self._next_recovery(node_id, now) is None:
                continue  # down for good: no recovery still to come
            promise = process.frozen_log(self._commands)
            if promise is None:
                return None
            version, log = promise
            if common is None:
                common = log
            elif log != common:
                return None
            token.append((node_id, version))
        return tuple(token)

    # ------------------------------------------------------------------
    # Failure control
    # ------------------------------------------------------------------
    def crash_at(self, node_id: int, time: float) -> None:
        """Schedule a fail-stop crash of ``node_id`` at virtual ``time``."""
        process = self._node(node_id)

        def do_crash() -> None:
            if not process.is_crashed:
                process.crash()
                self.trace.record_event(self.scheduler.now, node_id, "crash")

        self.scheduler.schedule_at(time, do_crash)

    def recover_at(self, node_id: int, time: float) -> None:
        """Schedule recovery of ``node_id`` at virtual ``time``."""
        process = self._node(node_id)

        def do_recover() -> None:
            if process.is_crashed:
                process.recover()
                self.trace.record_event(self.scheduler.now, node_id, "recover")

        self.scheduler.schedule_at(time, do_recover)
        bisect.insort(self._recoveries.setdefault(node_id, []), time)

    # ------------------------------------------------------------------
    # Network control (partitions and degradation bursts)
    # ------------------------------------------------------------------
    def partition_at(self, groups: Iterable[Iterable[int]], time: float) -> None:
        """Schedule a network split at virtual ``time`` (trace kind ``partition``)."""
        normalized = tuple(tuple(group) for group in groups)

        def do_partition() -> None:
            self.network.set_partition(normalized)
            self.trace.record_event(
                self.scheduler.now, -1, "partition", detail=repr(normalized)
            )

        self.scheduler.schedule_at(time, do_partition)

    def heal_partition_at(self, time: float) -> None:
        """Schedule the partition's heal at virtual ``time`` (kind ``heal``)."""

        def do_heal() -> None:
            self.network.heal_partition()
            self.trace.record_event(self.scheduler.now, -1, "heal")

        self.scheduler.schedule_at(time, do_heal)

    def set_drop_probability_at(self, probability: float | None, time: float) -> None:
        """Schedule a message-loss change (``None`` restores the baseline)."""

        def do_set() -> None:
            self.network.set_drop_probability(probability)
            self.trace.record_event(
                self.scheduler.now, -1, "net-loss", detail=f"p={probability}"
            )

        self.scheduler.schedule_at(time, do_set)

    def set_extra_delay_at(self, seconds: float, time: float) -> None:
        """Schedule a constant added delay on every message (0 clears it)."""

        def do_set() -> None:
            self.network.set_extra_delay(seconds)
            self.trace.record_event(
                self.scheduler.now, -1, "net-delay", detail=f"extra={seconds:g}"
            )

        self.scheduler.schedule_at(time, do_set)

    def crashed_node_ids(self) -> frozenset[int]:
        return frozenset(p.node_id for p in self.nodes if p.is_crashed)

    def correct_node_ids(self) -> frozenset[int]:
        return frozenset(p.node_id for p in self.nodes if not p.is_crashed)

    # ------------------------------------------------------------------
    # Client interaction
    # ------------------------------------------------------------------
    def submit(self, value: object, *, at: float | None = None) -> None:
        """Inject a client command into the cluster.

        Delivery model: the command is handed to every running node via its
        ``on_client_request`` hook (nodes that are not leader ignore or
        forward it, mirroring clients that broadcast/retry until they find
        the leader).
        """
        self._commands.append(value)

        def do_submit() -> None:
            for process in self.nodes:
                handler = getattr(process, "on_client_request", None)
                if handler is not None and process.is_running:
                    handler(value)

        if at is None:
            do_submit()
        else:
            self.scheduler.schedule_at(at, do_submit)

    def _node(self, node_id: int) -> Process:
        if not 0 <= node_id < len(self.nodes):
            raise SimulationError(f"unknown node id {node_id}")
        return self.nodes[node_id]


def run_scenario(
    cluster: Cluster,
    *,
    commands: Sequence[object],
    duration: float,
    command_interval: float = 0.05,
    commands_start: float = 0.5,
) -> TraceRecorder:
    """Convenience driver: start, feed commands on a cadence, run, return trace."""
    if duration <= 0:
        raise InvalidConfigurationError("duration must be positive")
    cluster.start()
    at = commands_start
    for command in commands:
        cluster.submit(command, at=at)
        at += command_interval
    cluster.run_until(duration)
    return cluster.trace
