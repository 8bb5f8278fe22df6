"""Raft node state machine for the discrete-event simulator.

A faithful (checkpoint- and snapshot-free) Raft: randomized election
timeouts, RequestVote with the §5.4.1 up-to-date check, AppendEntries with
conflict truncation, commit via quorum match indices, and the
current-term-only commit rule (§5.4.2).  Quorum sizes are parameterised
(``q_vc`` votes to win an election, ``q_per`` match indices to commit) so
flexible-quorum deployments can be simulated with the same node.

Crash/recover honours Raft's persistence split: ``current_term``,
``voted_for`` and the log survive; role, commit index and leader state
reset.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.sim.cluster import NodeFactory
from repro.sim.events import EventScheduler
from repro.sim.network import Network
from repro.sim.node import Process
from repro.sim.raft.log import LogEntry, RaftLog
from repro.sim.raft.messages import AppendEntries, AppendResponse, RequestVote, VoteResponse
from repro.sim.trace import TraceRecorder


class Role(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


class RaftNode(Process):
    """One Raft participant."""

    ELECTION_TIMEOUT = (0.15, 0.30)  # seconds, uniformly sampled per arm
    HEARTBEAT_INTERVAL = 0.03

    def __init__(
        self,
        node_id: int,
        n: int,
        scheduler: EventScheduler,
        network: Network,
        rng: np.random.Generator,
        trace: TraceRecorder,
        *,
        q_per: int | None = None,
        q_vc: int | None = None,
    ):
        super().__init__(node_id, scheduler, network, rng)
        self.n = n
        self.q_per = (n // 2 + 1) if q_per is None else q_per
        self.q_vc = (n // 2 + 1) if q_vc is None else q_vc
        self._peers = tuple(peer for peer in range(n) if peer != node_id)
        self._trace = trace
        # Persistent state
        self.current_term = 0
        self.voted_for: int | None = None
        self.log = RaftLog()
        # Volatile state
        self.role = Role.FOLLOWER
        self.commit_index = 0
        self.leader_id: int | None = None
        self._votes: set[int] = set()
        self._next_index: dict[int, int] = {}
        self._match_index: dict[int, int] = {}
        self._pending: list[object] = []  # client values awaiting a leader
        self._recorded_commit = 0  # high-water mark of trace records

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._arm_election_timer()

    def on_recover(self) -> None:
        # Persistent state (term, vote, log) survives; volatile resets.
        self.role = Role.FOLLOWER
        self.commit_index = 0
        self.leader_id = None
        self._votes.clear()
        self._next_index.clear()
        self._match_index.clear()
        self._recorded_commit = 0
        self._arm_election_timer()

    def frozen_log(self, commands):
        """See :meth:`Process.frozen_log`.  Why Raft can promise it:

        the log is written in two places only.  ``_leader_append`` dedups
        against the log, and the values it is ever called with are client
        values (``on_client_request`` directly, or ``_pending`` on winning
        an election) — all of them already in a log that holds
        ``commands``.  ``overwrite_from`` installs a leader's suffix, which
        is a no-op when the leader's log equals this one.  A running node
        with ``_recorded_commit == commit_index == last_index`` has
        recorded every slot, and ``commit_index`` never exceeds
        ``last_index`` again once the log stops changing.
        """
        log = self.log
        if self.is_running and not (
            self._recorded_commit == self.commit_index == log.last_index
        ):
            return None
        if not all(log.contains_value(value) for value in commands):
            return None
        return log.version, log.entries_from(1)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _arm_election_timer(self) -> None:
        low, high = self.ELECTION_TIMEOUT
        # Bit-identical to ``float(rng.uniform(low, high))``, one draw each.
        self.set_timer("election", low + (high - low) * self._rng.random())

    def on_timer(self, name: str) -> None:
        if name == "election":
            self._start_election()
        elif name == "heartbeat" and self.role is Role.LEADER:
            self._broadcast_append_entries()
            self.set_timer("heartbeat", self.HEARTBEAT_INTERVAL)

    # ------------------------------------------------------------------
    # Elections
    # ------------------------------------------------------------------
    def _start_election(self) -> None:
        self.role = Role.CANDIDATE
        self.current_term += 1
        self.voted_for = self.node_id
        self.leader_id = None
        self._votes = {self.node_id}
        self._trace.record_event(self.now, self.node_id, "election", f"term={self.current_term}")
        self._arm_election_timer()
        request = RequestVote(
            self.current_term, self.node_id, self.log.last_index, self.log.last_term
        )
        self.broadcast(request)
        self._maybe_win_election()

    def _maybe_win_election(self) -> None:
        if self.role is Role.CANDIDATE and len(self._votes) >= self.q_vc:
            self._become_leader()

    def _become_leader(self) -> None:
        self.role = Role.LEADER
        self.leader_id = self.node_id
        self.cancel_timer("election")
        self._next_index = {peer: self.log.last_index + 1 for peer in range(self.n)}
        self._match_index = {peer: 0 for peer in range(self.n)}
        self._match_index[self.node_id] = self.log.last_index
        self._trace.record_event(self.now, self.node_id, "leader", f"term={self.current_term}")
        for value in self._pending:
            self._leader_append(value)
        self._broadcast_append_entries()
        self.set_timer("heartbeat", self.HEARTBEAT_INTERVAL)

    def _step_down(self, term: int) -> None:
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
        self.role = Role.FOLLOWER
        self.cancel_timer("heartbeat")
        self._votes.clear()
        self._arm_election_timer()

    # ------------------------------------------------------------------
    # Client interface
    # ------------------------------------------------------------------
    def on_client_request(self, value: object) -> None:
        """Accept a client command (cluster hands commands to every node)."""
        if self.role is Role.LEADER:
            self._leader_append(value)
        else:
            self._pending.append(value)

    def _leader_append(self, value: object) -> None:
        if self.log.contains_value(value):
            return  # session dedup: value already proposed
        index = self.log.append(LogEntry(term=self.current_term, value=value))
        self._match_index[self.node_id] = index
        self._advance_commit_index()

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    # Only a leader replicates, and a leader holds a next index for every
    # peer (``_become_leader``).
    def _broadcast_append_entries(self) -> None:
        # Peers with the same next index get the same immutable message: one
        # heartbeat is built for every caught-up follower in a row.
        message = None
        next_indices = self._next_index
        for peer in self._peers:
            prev_index = next_indices[peer] - 1
            if message is None or message.prev_log_index != prev_index:
                message = self._append_entries(prev_index)
            self.send(peer, message)

    def _send_append_entries(self, peer: int) -> None:
        self.send(peer, self._append_entries(self._next_index[peer] - 1))

    def _append_entries(self, prev_index: int) -> AppendEntries:
        prev_term, entries = self.log.after(prev_index)
        return AppendEntries(
            self.current_term,
            self.node_id,
            prev_index,
            prev_term,
            entries,
            self.commit_index,
        )

    def _advance_commit_index(self) -> None:
        # Commit the highest index replicated on q_per nodes whose entry is
        # from the current term (§5.4.2).
        for index in range(self.log.last_index, self.commit_index, -1):
            if self.log.term_at(index) != self.current_term:
                break
            replicas = sum(1 for match in self._match_index.values() if match >= index)
            if replicas >= self.q_per:
                self.commit_index = index
                self._apply_committed()
                break

    def _apply_committed(self) -> None:
        while self._recorded_commit < self.commit_index:
            self._recorded_commit += 1
            entry = self.log.entry_at(self._recorded_commit)
            self._trace.record_commit(self.now, self.node_id, self._recorded_commit, entry.value)
            if entry.value in self._pending:
                self._pending.remove(entry.value)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, src: int, payload: object) -> None:
        handler = self._HANDLERS.get(type(payload))
        if handler is not None:
            handler(self, payload)

    def _handle_request_vote(self, msg: RequestVote) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
        granted = (
            msg.term == self.current_term
            and self.voted_for in (None, msg.candidate_id)
            and self.log.is_up_to_date(msg.last_log_index, msg.last_log_term)
        )
        if granted:
            self.voted_for = msg.candidate_id
            self._arm_election_timer()
        self.send(msg.candidate_id, VoteResponse(self.current_term, self.node_id, granted))

    def _handle_vote_response(self, msg: VoteResponse) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.role is Role.CANDIDATE and msg.term == self.current_term and msg.granted:
            self._votes.add(msg.voter_id)
            self._maybe_win_election()

    def _handle_append_entries(self, msg: AppendEntries) -> None:
        term = msg.term
        if term > self.current_term or (
            term == self.current_term and self.role is not Role.FOLLOWER
        ):
            self._step_down(term)
        if term < self.current_term:
            self.send(msg.leader_id, AppendResponse(self.current_term, self.node_id, False, 0))
            return
        self.leader_id = msg.leader_id
        self._arm_election_timer()
        log = self.log
        if not log.matches(msg.prev_log_index, msg.prev_log_term):
            self.send(msg.leader_id, AppendResponse(term, self.node_id, False, 0))
            return
        entries = msg.entries
        if entries:
            log.overwrite_from(msg.prev_log_index, entries)
        if msg.leader_commit > self.commit_index:
            self.commit_index = min(msg.leader_commit, log.last_index)
            self._apply_committed()
        self.send(
            msg.leader_id,
            AppendResponse(term, self.node_id, True, msg.prev_log_index + len(entries)),
        )

    def _handle_append_response(self, msg: AppendResponse) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.role is not Role.LEADER or msg.term != self.current_term:
            return
        if msg.success:
            self._match_index[msg.follower_id] = max(
                self._match_index.get(msg.follower_id, 0), msg.match_index
            )
            self._next_index[msg.follower_id] = self._match_index[msg.follower_id] + 1
            self._advance_commit_index()
        else:
            # Back off and retry immediately with an earlier prefix.
            self._next_index[msg.follower_id] = max(
                1, self._next_index.get(msg.follower_id, 1) - 1
            )
            self._send_append_entries(msg.follower_id)

    #: Exact payload type -> handler; a payload of any other type is ignored.
    _HANDLERS = {
        RequestVote: _handle_request_vote,
        VoteResponse: _handle_vote_response,
        AppendEntries: _handle_append_entries,
        AppendResponse: _handle_append_response,
    }


def raft_node_factory(*, q_per: int | None = None, q_vc: int | None = None) -> NodeFactory:
    """Node factory for :class:`repro.sim.cluster.Cluster` with fixed quorums."""

    def build(
        node_id: int,
        n: int,
        scheduler: EventScheduler,
        network: Network,
        rng: np.random.Generator,
        trace: TraceRecorder,
    ) -> RaftNode:
        return RaftNode(
            node_id, n, scheduler, network, rng, trace, q_per=q_per, q_vc=q_vc
        )

    return build
