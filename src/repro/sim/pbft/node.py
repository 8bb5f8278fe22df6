"""PBFT replica state machine for the discrete-event simulator.

A three-phase PBFT (pre-prepare / prepare / commit) with view changes,
checkpoint-free and with values as their own digests.  Quorum sizes are
parameterised to match :class:`repro.protocols.pbft.PBFTSpec`:

* ``q_eq``   — prepare votes needed to *prepare* (non-equivocation);
* ``q_per``  — commit votes needed to *commit* (persistence);
* ``q_vc``   — view-change votes the new primary needs to install a view;
* ``q_vc_t`` — view-change votes that make a replica join the view change.

Byzantine behaviours live in :mod:`repro.sim.pbft.byzantine` as subclasses
overriding the honest methods.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.protocols.pbft import pbft_fault_threshold, pbft_quorum
from repro.sim.cluster import NodeFactory
from repro.sim.events import EventScheduler
from repro.sim.network import Network
from repro.sim.node import Process
from repro.sim.pbft.messages import (
    Commit,
    NewView,
    Prepare,
    PreparedProof,
    PrePrepare,
    Status,
    ViewChange,
)
from repro.sim.trace import TraceRecorder


class PBFTNode(Process):
    """One (honest) PBFT replica.

    Retransmission schedule.  Every vote (prepare, commit) is broadcast
    once.  The ``retry`` timer is armed only while the replica has
    unfinished work — a pending request, or an accepted slot of its view
    it has not executed; a replica with nothing to wait for schedules
    nothing.  Each firing re-examines the pending requests and broadcasts
    a :class:`~repro.sim.pbft.messages.Status`; every replica that gets it
    (the sender too) re-sends the sender its own pre-prepare, prepare and
    commit for the slots the sender has not executed, so a lost commit is
    re-sent even by a peer that executed the slot long ago.  While the
    work stays unfinished the delay between firings doubles from
    ``RETRY_INTERVAL`` up to ``PROGRESS_TIMEOUT``; progress — a new
    pending value, the first acceptance of a slot, an execution, entering
    a view, recovery — restarts it at ``RETRY_INTERVAL``.
    """

    PROGRESS_TIMEOUT = 0.5  # seconds without progress before view change
    RETRY_INTERVAL = 0.05  # first retransmission delay after progress

    def __init__(
        self,
        node_id: int,
        n: int,
        scheduler: EventScheduler,
        network: Network,
        rng: np.random.Generator,
        trace: TraceRecorder,
        *,
        q_eq: int | None = None,
        q_per: int | None = None,
        q_vc: int | None = None,
        q_vc_t: int | None = None,
    ):
        super().__init__(node_id, scheduler, network, rng)
        self.n = n
        default_quorum = pbft_quorum(n)
        self.q_eq = default_quorum if q_eq is None else q_eq
        self.q_per = default_quorum if q_per is None else q_per
        self.q_vc = default_quorum if q_vc is None else q_vc
        self.q_vc_t = (pbft_fault_threshold(n) + 1) if q_vc_t is None else q_vc_t
        self._trace = trace
        # Protocol state
        self.view = 0
        self.next_seq = 1  # primary's sequence counter
        self.preprepared: dict[tuple[int, int], object] = {}  # (view, seq) -> digest
        self.prepare_votes: dict[tuple[int, int, object], set[int]] = defaultdict(set)
        self.commit_votes: dict[tuple[int, int, object], set[int]] = defaultdict(set)
        self.prepared_certs: dict[int, PreparedProof] = {}  # seq -> newest proof
        self.prepared_local: set[tuple[int, int, object]] = set()  # (view, seq, digest)
        self.executed: dict[int, object] = {}  # seq -> value
        self.pending: list[object] = []
        self.view_change_votes: dict[int, dict[int, ViewChange]] = defaultdict(dict)
        self._proposed_values: set[object] = set()  # primary-side dedup
        #: Votes already broadcast: (message class, view, seq, digest).
        self._votes_sent: set[tuple[type, int, int, object]] = set()
        self._retry_delay = self.RETRY_INTERVAL  # current retransmission back-off

    # ------------------------------------------------------------------
    # Roles and lifecycle
    # ------------------------------------------------------------------
    def primary_of(self, view: int) -> int:
        return view % self.n

    @property
    def is_primary(self) -> bool:
        return self.primary_of(self.view) == self.node_id

    def on_start(self) -> None:
        pass  # nothing to retry yet: ``retry`` is armed by the first request

    def on_recover(self) -> None:
        # PBFT replicas persist their message log; the simulator keeps the
        # in-memory state and merely resumes retransmission.
        self._restart_retry()

    def on_timer(self, name: str) -> None:
        if name == "progress":
            self._start_view_change(self.view + 1)
        elif name == "retry":
            self._drive_pending()
            self._retransmit()
            if self._has_outstanding_work():
                self._retry_delay = min(2 * self._retry_delay, self.PROGRESS_TIMEOUT)
                self.set_timer("retry", self._retry_delay)

    def _has_outstanding_work(self) -> bool:
        """A pending request, or an accepted slot of this view not yet executed."""
        if self.pending:
            return True
        return any(
            view == self.view and seq not in self.executed
            for view, seq in self.preprepared
        )

    def _restart_retry(self) -> None:
        """Progress was made: retransmit at the shortest interval again."""
        self._retry_delay = self.RETRY_INTERVAL
        if self._has_outstanding_work():
            self.set_timer("retry", self.RETRY_INTERVAL)
        else:
            self.cancel_timer("retry")

    def _retransmit(self) -> None:
        """Ask every replica, this one included, to re-send what it lacks.

        A sender cannot tell which of its messages a peer lost, and a peer
        that executed a slot no longer retries it; so the replica with
        unfinished work says what it has executed and each receiver
        answers with its own messages for the other slots of the view
        (:meth:`_handle_status`).  The copy to itself recovers votes lost
        on the loop-back path.
        """
        self.broadcast(
            Status(view=self.view, executed=frozenset(self.executed), node_id=self.node_id),
            include_self=True,
        )

    def _handle_status(self, msg: Status) -> None:
        """Re-send ``msg.node_id`` this replica's messages for its open slots."""
        if msg.view != self.view:
            return
        for (view, seq), digest in self.preprepared.items():
            if view != msg.view or seq in msg.executed:
                continue
            if self.is_primary:
                self.send(msg.node_id, PrePrepare(view=view, seq=seq, value=digest))
            self.emit_prepare(view, seq, digest, to=msg.node_id)
            if (Commit, view, seq, digest) in self._votes_sent:
                self.emit_commit(view, seq, digest, to=msg.node_id)

    # ------------------------------------------------------------------
    # Client interface
    # ------------------------------------------------------------------
    def on_client_request(self, value: object) -> None:
        if value in self.executed.values():
            return
        if value not in self.pending:
            self.pending.append(value)
            self._restart_retry()
        self._drive_pending()
        if not self.has_timer("progress"):
            self.set_timer("progress", self.PROGRESS_TIMEOUT)

    def _drive_pending(self) -> None:
        if not self.is_primary:
            return
        for value in list(self.pending):
            if value in self._proposed_values or value in self.executed.values():
                continue
            self._propose(value)

    def _propose(self, value: object) -> None:
        seq = self.next_seq
        self.next_seq += 1
        self._proposed_values.add(value)
        # The primary holds its own assignment from the start, so it can
        # re-send the pre-prepare (to itself too) if the first copy is lost.
        self.preprepared[(self.view, seq)] = value
        message = PrePrepare(view=self.view, seq=seq, value=value)
        self.send_preprepare(message)

    def send_preprepare(self, message: PrePrepare) -> None:
        """Disseminate a pre-prepare (override point for Byzantine primaries)."""
        self.broadcast(message, include_self=True)

    # ------------------------------------------------------------------
    # Three-phase agreement
    # ------------------------------------------------------------------
    def on_message(self, src: int, payload: object) -> None:
        if isinstance(payload, PrePrepare):
            self._handle_preprepare(src, payload)
        elif isinstance(payload, Prepare):
            self._handle_prepare(payload)
        elif isinstance(payload, Commit):
            self._handle_commit(payload)
        elif isinstance(payload, ViewChange):
            self._handle_view_change(payload)
        elif isinstance(payload, NewView):
            self._handle_new_view(src, payload)
        elif isinstance(payload, Status):
            self._handle_status(payload)

    def _handle_preprepare(self, src: int, msg: PrePrepare) -> None:
        if msg.view != self.view or src != self.primary_of(msg.view):
            return
        key = (msg.view, msg.seq)
        if key in self.preprepared and self.preprepared[key] != msg.value:
            return  # equivocation detected: refuse the second assignment
        self._accept_preprepare(key, msg.value)

    def _accept_preprepare(self, key: tuple[int, int], value: object) -> None:
        first = key not in self.preprepared
        self.preprepared[key] = value
        if first:
            self._restart_retry()
        self.emit_prepare(key[0], key[1], value)

    def emit_prepare(
        self, view: int, seq: int, digest: object, to: int | None = None
    ) -> None:
        """Send this replica's prepare vote (Byzantine override point)."""
        self._send_vote(Prepare, view, seq, digest, to)

    def _send_vote(
        self,
        kind: type[Prepare] | type[Commit],
        view: int,
        seq: int,
        digest: object,
        to: int | None,
    ) -> None:
        """Broadcast a vote (self included) unless that was done before.

        Each vote is broadcast once, however many duplicate pre-prepares,
        late prepares and echoed commits ask for it again; a copy lost on
        the way is re-sent to the peer that reports unfinished work
        (``to``, see :meth:`_handle_status`).
        """
        if to is not None:
            self.send(to, kind(view, seq, digest, self.node_id))
            return
        key = (kind, view, seq, digest)
        if key not in self._votes_sent:
            self._votes_sent.add(key)
            self.broadcast(kind(view, seq, digest, self.node_id), include_self=True)

    def _handle_prepare(self, msg: Prepare) -> None:
        if msg.view != self.view:
            return
        key = (msg.view, msg.seq, msg.digest)
        votes = self.prepare_votes[key]
        votes.add(msg.node_id)
        preprepare_known = self.preprepared.get((msg.view, msg.seq)) == msg.digest
        if preprepare_known and len(votes) >= self.q_eq:
            proof = PreparedProof(view=msg.view, seq=msg.seq, digest=msg.digest)
            existing = self.prepared_certs.get(msg.seq)
            if existing is None or existing.view <= msg.view:
                self.prepared_certs[msg.seq] = proof
            self.prepared_local.add((msg.view, msg.seq, msg.digest))
            self.emit_commit(msg.view, msg.seq, msg.digest)
            self._try_execute(msg.view, msg.seq, msg.digest)

    def emit_commit(
        self, view: int, seq: int, digest: object, to: int | None = None
    ) -> None:
        """Send this replica's commit vote (Byzantine override point)."""
        self._send_vote(Commit, view, seq, digest, to)

    def _handle_commit(self, msg: Commit) -> None:
        if msg.view != self.view:
            return
        key = (msg.view, msg.seq, msg.digest)
        votes = self.commit_votes[key]
        votes.add(msg.node_id)
        self._try_execute(msg.view, msg.seq, msg.digest)

    def _try_execute(self, view: int, seq: int, digest: object) -> None:
        """Execute when committed-local: prepared here + q_per commit votes.

        Requiring the local prepared certificate (not just the vote count)
        is Castro–Liskov's committed-local predicate; it is what confines a
        replica to the fork it actually prepared.
        """
        if seq in self.executed:
            return
        if (view, seq, digest) not in self.prepared_local:
            return
        if len(self.commit_votes[(view, seq, digest)]) >= self.q_per:
            self._execute(seq, digest)

    def _execute(self, seq: int, value: object) -> None:
        self.executed[seq] = value
        self._trace.record_commit(self.now, self.node_id, seq, value)
        if value in self.pending:
            self.pending.remove(value)
        if self.pending:
            self.set_timer("progress", self.PROGRESS_TIMEOUT)
        else:
            self.cancel_timer("progress")
        self._restart_retry()

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------
    def _start_view_change(self, new_view: int) -> None:
        if new_view <= self.view:
            return
        self._trace.record_event(self.now, self.node_id, "view-change", f"to={new_view}")
        message = ViewChange(
            new_view=new_view,
            prepared=tuple(self.prepared_certs.values()),
            node_id=self.node_id,
        )
        self.broadcast(message, include_self=True)
        self.set_timer("progress", self.PROGRESS_TIMEOUT * 2)

    def _handle_view_change(self, msg: ViewChange) -> None:
        if msg.new_view <= self.view:
            return
        votes = self.view_change_votes[msg.new_view]
        votes[msg.node_id] = msg
        # Join the view change once q_vc_t distinct replicas attest to it
        # (the paper's view-change *trigger* quorum).
        if len(votes) >= self.q_vc_t and self.node_id not in votes:
            self._start_view_change(msg.new_view)
            votes = self.view_change_votes[msg.new_view]
        # The incoming primary installs the view with q_vc votes.
        if (
            self.primary_of(msg.new_view) == self.node_id
            and len(votes) >= self.q_vc
        ):
            self._install_view(msg.new_view)

    def _install_view(self, new_view: int) -> None:
        votes = self.view_change_votes[new_view]
        carried: dict[int, PreparedProof] = {}
        for vote in votes.values():
            for proof in vote.prepared:
                existing = carried.get(proof.seq)
                if existing is None or existing.view < proof.view:
                    carried[proof.seq] = proof
        preprepares = tuple(
            PrePrepare(view=new_view, seq=seq, value=proof.digest)
            for seq, proof in sorted(carried.items())
        )
        self._enter_view(new_view)
        self.next_seq = max((p.seq for p in preprepares), default=0) + 1
        self._proposed_values = {p.value for p in preprepares}
        self._trace.record_event(self.now, self.node_id, "new-view", f"view={new_view}")
        self.broadcast(NewView(new_view=new_view, preprepares=preprepares), include_self=True)

    def _enter_view(self, view: int) -> None:
        self.view = view
        self._restart_retry()

    def _handle_new_view(self, src: int, msg: NewView) -> None:
        if msg.new_view < self.view or src != self.primary_of(msg.new_view):
            return
        self._enter_view(msg.new_view)
        for preprepare in msg.preprepares:
            self._handle_preprepare(src, preprepare)
        # Give the new primary a chance before suspecting it too.
        if self.pending:
            self.set_timer("progress", self.PROGRESS_TIMEOUT)
        self._drive_pending()


def pbft_node_factory(
    *,
    q_eq: int | None = None,
    q_per: int | None = None,
    q_vc: int | None = None,
    q_vc_t: int | None = None,
) -> NodeFactory:
    """Honest-replica factory for :class:`repro.sim.cluster.Cluster`."""

    def build(
        node_id: int,
        n: int,
        scheduler: EventScheduler,
        network: Network,
        rng: np.random.Generator,
        trace: TraceRecorder,
    ) -> PBFTNode:
        return PBFTNode(
            node_id,
            n,
            scheduler,
            network,
            rng,
            trace,
            q_eq=q_eq,
            q_per=q_per,
            q_vc=q_vc,
            q_vc_t=q_vc_t,
        )

    return build
