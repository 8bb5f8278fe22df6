"""Sampled-quorum replication — §4's "radical" design, executable.

"In practice, sampling from much smaller subsets of nodes can guarantee
intersection with high enough probability."  This module implements the
simplest protocol that leans fully into that idea so it can be measured:

* a fixed leader (node 0) assigns slots;
* for each slot the leader draws a uniform *sampled quorum* of ``k`` of
  the ``n`` replicas and sends ``Append`` **only to those members** —
  the cost win over majority replication is exactly ``k`` copies;
* the slot commits once every sampled member has durably stored it;
* a ``CommitNotice`` tells all replicas the decision, but the *payload*
  stays only on the sampled holders (witness-style placement).

There is no view change: the protocol trades leader fault tolerance for
the cleanest possible durability experiment.  Its durability claim is the
paper's §4 arithmetic — committed data is lost only when all ``k``
sampled holders fail, probability ``p^k`` per slot — and liveness per
slot requires every sampled member to be alive, probability
``(1-p)^k``.  ``benchmarks/bench_sampled_quorums.py`` checks protocol
executions against both closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidConfigurationError
from repro.sim.cluster import NodeFactory
from repro.sim.events import EventScheduler
from repro.sim.network import Network
from repro.sim.node import Process
from repro.sim.trace import TraceRecorder


@dataclass(frozen=True)
class Append:
    """Leader asks a sampled member to durably store ``value`` for ``slot``."""

    slot: int
    value: object


@dataclass(frozen=True)
class Ack:
    """Sampled member confirms durable storage of ``slot``."""

    slot: int
    replica_id: int


@dataclass(frozen=True)
class CommitNotice:
    """Leader announces that ``slot`` is committed (decision only, no payload)."""

    slot: int
    value: object


class SampledQuorumReplica(Process):
    """Replica: durably stores appends it receives; learns decisions."""

    def __init__(self, node_id, n, scheduler, network, rng, trace):  # type: ignore[no-untyped-def]
        super().__init__(node_id, scheduler, network, rng)
        self.n = n
        self._trace = trace
        #: Durable payload store — only ever populated via Append.
        self.store: dict[int, object] = {}
        #: Learned decisions (slot -> value) — the agreement-audit view.
        self.learned: dict[int, object] = {}

    def on_start(self) -> None:
        pass

    def on_message(self, src: int, payload: object) -> None:
        if isinstance(payload, Append):
            self.store[payload.slot] = payload.value
            self.send(src, Ack(slot=payload.slot, replica_id=self.node_id))
        elif isinstance(payload, CommitNotice):
            if payload.slot not in self.learned:
                self.learned[payload.slot] = payload.value
                self._trace.record_commit(self.now, self.node_id, payload.slot, payload.value)

    def holds(self, slot: int) -> bool:
        """Durability probe: does this replica durably hold the payload?"""
        return slot in self.store


class SampledQuorumLeader(SampledQuorumReplica):
    """Fixed leader: samples a k-subset per slot and waits for its acks."""

    RETRY_INTERVAL = 0.05

    def __init__(self, node_id, n, scheduler, network, rng, trace, *, quorum_size):  # type: ignore[no-untyped-def]
        super().__init__(node_id, n, scheduler, network, rng, trace)
        if not 0 < quorum_size <= n:
            raise InvalidConfigurationError(f"quorum_size={quorum_size} outside (0, {n}]")
        self.quorum_size = quorum_size
        self.next_slot = 1
        self.sampled_quorums: dict[int, frozenset[int]] = {}
        self.acks: dict[int, set[int]] = {}
        self.pending_values: dict[int, object] = {}  # volatile until committed
        self.committed: dict[int, object] = {}

    def on_timer(self, name: str) -> None:
        if name == "retry":
            for slot in self.pending_values:
                self._replicate(slot)
            self.set_timer("retry", self.RETRY_INTERVAL)

    def on_client_request(self, value: object) -> None:
        if value in self.pending_values.values() or value in self.committed.values():
            return
        slot = self.next_slot
        self.next_slot += 1
        self.pending_values[slot] = value
        members = frozenset(
            int(i) for i in self._rng.choice(self.n, size=self.quorum_size, replace=False)
        )
        self.sampled_quorums[slot] = members
        self.acks[slot] = set()
        if self.node_id in members:
            # The leader is itself a sampled holder: store durably.
            self.store[slot] = value
            self.acks[slot].add(self.node_id)
        self._replicate(slot)
        self._maybe_commit(slot)
        # ``retry`` runs only while some slot awaits its acks.
        if self.pending_values and not self.has_timer("retry"):
            self.set_timer("retry", self.RETRY_INTERVAL)

    def _replicate(self, slot: int) -> None:
        value = self.pending_values[slot]
        for member in sorted(self.sampled_quorums[slot]):
            if member != self.node_id and member not in self.acks[slot]:
                self.send(member, Append(slot=slot, value=value))

    def on_message(self, src: int, payload: object) -> None:
        if isinstance(payload, Ack):
            quorum = self.sampled_quorums.get(payload.slot, frozenset())
            if payload.replica_id in quorum:
                self.acks[payload.slot].add(payload.replica_id)
                self._maybe_commit(payload.slot)
        else:
            super().on_message(src, payload)

    def _maybe_commit(self, slot: int) -> None:
        if slot in self.committed or self.acks[slot] < self.sampled_quorums[slot]:
            return
        value = self.pending_values.pop(slot)
        if not self.pending_values:
            self.cancel_timer("retry")
        self.committed[slot] = value
        self.learned[slot] = value
        self._trace.record_commit(self.now, self.node_id, slot, value)
        self._trace.record_event(
            self.now,
            self.node_id,
            "sampled-commit",
            f"slot={slot} quorum={sorted(self.sampled_quorums[slot])}",
        )
        self.broadcast(CommitNotice(slot=slot, value=value))


def sampled_quorum_factory(quorum_size: int) -> NodeFactory:
    """Cluster factory: node 0 leads, the rest replicate."""

    def build(
        node_id: int,
        n: int,
        scheduler: EventScheduler,
        network: Network,
        rng: np.random.Generator,
        trace: TraceRecorder,
    ) -> SampledQuorumReplica:
        if node_id == 0:
            return SampledQuorumLeader(
                node_id, n, scheduler, network, rng, trace, quorum_size=quorum_size
            )
        return SampledQuorumReplica(node_id, n, scheduler, network, rng, trace)

    return build


def slot_survivors(cluster, slot: int) -> frozenset[int]:  # type: ignore[no-untyped-def]
    """Durability probe: correct replicas durably holding ``slot``."""
    holders = []
    for process in cluster.nodes:
        if not process.is_crashed and isinstance(process, SampledQuorumReplica):
            if process.holds(slot):
                holders.append(process.node_id)
    return frozenset(holders)
