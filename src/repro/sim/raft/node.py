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
        #: Heartbeat rounds this node led in closed form (observability).
        self.rounds_skipped = 0

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
        ``last_index`` again once the log stops changing.  A crashed node
        receives nothing (deliveries to it are dropped, its timers were
        cancelled, clients reach running nodes only), so its log, and with
        it this answer, stays as it is until it recovers.
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
            if self._skip_quiet_rounds():
                return
            self._broadcast_append_entries()
            self.set_timer("heartbeat", self.HEARTBEAT_INTERVAL)

    # ------------------------------------------------------------------
    # Quiet heartbeat rounds in closed form
    # ------------------------------------------------------------------
    def _skip_quiet_rounds(self) -> bool:
        """Run this heartbeat and the next ones at once while they change nothing.

        Called as the heartbeat fires at ``t0 = now``.  The stretch is
        **quiet** when all of these hold:

        * every node is exactly a :class:`RaftNode` (no override, no
          subclass); this leader's log is all committed
          (``commit_index == last_index``) and it holds no pending client
          value;
        * :meth:`Network.fixed_delay` gives a delay ``d`` (no loss, extra
          delay or partition in force, a :class:`FixedLatency` model);
        * every running peer is a follower of this term and this leader,
          its log has the leader's length and last term, its commit index
          is the leader's, and the leader's next and match index for it are
          ``last_index + 1`` and ``last_index``.

        Then let ``t[k+1] = t[k] + HEARTBEAT_INTERVAL`` (the float
        :meth:`set_timer` computes), ``s[k] = t[k] + d`` and
        ``r[k] = s[k] + d``, and take the most rounds ``K`` with ``t[K]``
        no later than the slice end (:meth:`EventScheduler.reach`) nor than
        the first live event that is not a running follower's election
        wake-up (:meth:`EventScheduler.next_event_time`), and with the
        events of ``K`` rounds — ``K * (1 + (n - 1) + R) - 1`` (this
        heartbeat already counted; ``R`` running followers) plus at most
        ``R * (K + 1)`` wake-ups — within the events the slice may still
        run.  Each follower draws its ``K`` timeouts with one
        ``rng.random(K)`` (the doubles of ``K`` scalar draws, in order),
        and :meth:`Process.emulate_timer` replays its election timer over
        the arrivals ``s`` up to ``t[K]``.  Then, if every round has
        ``t[k] < s[k] < r[k] < t[k+1]``, no follower's timer fires, and no
        two new wake-ups, nor one and ``t[K]``, fall at one instant, this
        installs what ``K`` eager rounds leave — counters, streams, timers,
        the next heartbeat at ``t[K]`` — and returns True.  Otherwise it
        puts the followers' streams back and returns False: the heartbeat
        runs as usual.

        *Proof.*  Until the event that runs ``t[K]``'s heartbeat, the only
        events are this heartbeat and its successors at ``t[k]``, each
        running follower's delivery at ``s[k]`` and its answer at ``r[k]``,
        each silent (not running) peer's delivery at ``s[k]``, and the
        followers' early wake-ups: every other live event is due at or
        after ``t[K]`` and was queued before all of these, and these
        queue nothing else — provided each leaves the state above as it
        found it, which it does, by induction.  A heartbeat sends ``n - 1``
        copies of one empty ``AppendEntries`` (no stream read: the fabric
        cannot change before a scheduled event runs).  A follower takes it
        without stepping down (same term, follower), keeps ``leader_id``,
        matches the leader's last entry, writes nothing (no entries),
        commits nothing (equal commit index) and answers success at
        ``last_index``; its one change is the election re-arm, one draw.
        A silent peer's copy is dropped on arrival.  The leader takes each
        answer without a change: its match index already is
        ``last_index``, so the commit loop runs over an empty range.  No
        message is in flight at ``t[k+1]`` (``r[k] < t[k+1]``), so every
        round starts like the first, and no trace record is written.

        The followers' timers and streams are their own, the counters are
        sums, and nothing else changes, so the order of these events
        within the stretch is immaterial — except a follower's wake-up
        against its own re-arm at ``s[k]``.  **Tie rule**: a wake-up due at
        exactly ``s[k]`` runs first.  It was queued before the heartbeat
        at ``t[k]`` queued that delivery: by a re-arm at some
        ``s[j] < t[k]``, before ``t0``, or by an early wake-up re-posting
        itself at the deadline then in force — and a deadline at or before
        ``s[k]`` at the re-arm is a timer that fires, which
        ``emulate_timer`` refuses.  So ``emulate_timer`` gives each
        follower's early wake-ups, queued wake-up and deadline, and no
        election starts.  Counts: each round runs ``1 + (n - 1) + R``
        events, sends ``(n - 1) + R`` messages, delivers ``2 R`` and drops
        ``n - 1 - R``; the wake-ups are events too, and the guard of
        :meth:`EventScheduler.run_until` counts them all alike.

        What is left queued at the cut: every event queued before ``t0``
        as it was, the heartbeat at ``t[K]`` and the followers' new
        wake-ups, all after every event of the stretch.  The eager run
        queues the same, later than everything queued before ``t0``, as
        this does; and among themselves no two share an instant, so the
        heap pops both in the same order for ever.  Every event of the
        stretch is due before ``t[K]``, itself inside the slice, so a
        checkpoint at the slice end sees the same state.
        """
        log = self.log
        last_index = log.last_index
        if type(self) is not RaftNode or self._pending or self.commit_index != last_index:
            return False
        scheduler = self._scheduler
        t_end, events_left = scheduler.reach()
        interval = self.HEARTBEAT_INTERVAL
        if self.now + interval > t_end:
            return False  # not one round fits the slice
        network = self._network
        delay = network.fixed_delay()
        if delay is None:
            return False
        term, last_term = self.current_term, log.last_term
        followers = []
        for peer_id in self._peers:
            peer = network.process(peer_id)
            if type(peer) is not RaftNode:
                return False
            if not peer.is_running:
                continue
            peer_log = peer.log
            if not (
                peer.role is Role.FOLLOWER
                and peer.current_term == term
                and peer.leader_id == self.node_id
                and peer_log.last_index == last_index
                and peer_log.matches(last_index, last_term)
                and peer.commit_index == self.commit_index
                and self._next_index[peer_id] == last_index + 1
                and self._match_index[peer_id] == last_index
            ):
                return False
            followers.append(peer)

        end = min(
            t_end,
            scheduler.next_event_time({peer.wake_up("election") for peer in followers}),
        )
        peers, running = len(self._peers), len(followers)
        # Rounds whose events (and the followers' wake-ups) fit the budget.
        most = (events_left + 1 - running) // (1 + peers + 2 * running)
        beats = [self.now]  # t[0], ..., t[K]
        arrivals = []  # s[k]
        while len(arrivals) < most:
            beat = beats[-1]
            following = beat + interval
            if following > end:
                break
            arrival = beat + delay
            if not beat < arrival < arrival + delay < following:
                return False
            beats.append(following)
            arrivals.append(arrival)
        rounds = len(arrivals)
        if not rounds:
            return False

        cut = beats[-1]
        streams = [peer._rng.bit_generator for peer in followers]
        saved = [stream.state for stream in streams]
        at = np.array(arrivals)
        plans = [peer._heard_quietly(arrivals, at, cut) for peer in followers]
        # New wake-ups: none may share an instant with another or with t[K].
        wakes = [plan[1] for plan, _ in plans if plan is not None and plan[1] is not None]
        if any(plan is None for plan, _ in plans) or len(set(wakes) | {cut}) <= len(wakes):
            for stream, state in zip(streams, saved):
                stream.state = state
            return False

        self.settle_timer("heartbeat", cut, cut)
        wake_ups = 0
        for peer, ((woken, wake), deadline) in zip(followers, plans):
            peer.settle_timer("election", wake, deadline)
            wake_ups += woken
        network.count_messages(
            rounds * (peers + running), rounds * 2 * running, rounds * (peers - running)
        )
        scheduler.count_events(rounds * (1 + peers + running) - 1 + wake_ups)
        self.rounds_skipped += rounds
        return True

    def _heard_quietly(self, arrivals: list[float], at: np.ndarray, until: float):
        """Draw this follower's election timeouts for heartbeats arriving at
        ``arrivals`` (``at`` as an array) — one ``rng.random(len(arrivals))``,
        the doubles of that many :meth:`_arm_election_timer` draws, turned
        into deadlines by the same float operations — and emulate its timer
        up to ``until``: ``(emulate_timer(...), last deadline)``."""
        low, high = self.ELECTION_TIMEOUT
        deadlines = (at + (low + (high - low) * self._rng.random(len(arrivals)))).tolist()
        return self.emulate_timer("election", arrivals, deadlines, until), deadlines[-1]

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
