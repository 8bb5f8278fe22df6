"""PBFT wire messages (Castro & Liskov, simulator dialect).

Digests are the values themselves (the simulator trusts hashability, not
cryptography); ``PreparedProof`` carries the prepared-certificate summary a
view change needs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PrePrepare:
    """Primary assigns ``value`` to ``seq`` within ``view`` (Step 1, §3.1)."""

    view: int
    seq: int
    value: object


@dataclass(frozen=True)
class Prepare:
    """Replica echoes a pre-prepare (non-equivocation quorum Q_eq)."""

    view: int
    seq: int
    digest: object
    node_id: int


@dataclass(frozen=True)
class Commit:
    """Replica votes to commit (persistence quorum Q_per)."""

    view: int
    seq: int
    digest: object
    node_id: int


@dataclass(frozen=True)
class PreparedProof:
    """Evidence that (seq, digest) prepared in ``view`` — carried in view changes."""

    view: int
    seq: int
    digest: object


@dataclass(frozen=True)
class ViewChange:
    """Vote to move to ``new_view`` with the sender's prepared certificates (Q_vc)."""

    new_view: int
    prepared: tuple[PreparedProof, ...]
    node_id: int


@dataclass(frozen=True)
class NewView:
    """New primary's installation message: the pre-prepares to re-run."""

    new_view: int
    preprepares: tuple[PrePrepare, ...]


@dataclass(frozen=True)
class Status:
    """Retransmission request: ``node_id`` has unfinished work in ``view``.

    ``executed`` are the sequence numbers it has executed; a receiver
    re-sends its own messages for the other slots of that view.
    """

    view: int
    executed: frozenset[int]
    node_id: int
