"""Raft wire messages (Ongaro & Ousterhout, simulator dialect).

Immutable named tuples, built positionally on the hot path: a field
cannot be assigned and no attribute can be added.  ``entries`` travel as
tuples, so a message can never alias a node's live log.  Being tuples,
two messages with equal fields compare equal whatever their class; a node
tells them apart by exact type (``RaftNode.on_message``), never by value.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.sim.raft.log import LogEntry


class RequestVote(NamedTuple):
    """Candidate solicits a vote for ``term``."""

    term: int
    candidate_id: int
    last_log_index: int
    last_log_term: int


class VoteResponse(NamedTuple):
    """Reply to :class:`RequestVote`."""

    term: int
    voter_id: int
    granted: bool


class AppendEntries(NamedTuple):
    """Leader replicates ``entries`` after (``prev_log_index``, ``prev_log_term``).

    Also the heartbeat when ``entries`` is empty.
    """

    term: int
    leader_id: int
    prev_log_index: int
    prev_log_term: int
    entries: tuple[LogEntry, ...]
    leader_commit: int


class AppendResponse(NamedTuple):
    """Reply to :class:`AppendEntries`."""

    term: int
    follower_id: int
    success: bool
    match_index: int
