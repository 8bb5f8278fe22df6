"""Byzantine replica behaviours (paper §2 point 4; validation of Thm 3.1).

Concrete attacks used by the validation suite:

* :class:`EquivocatingPrimary` — proposes *different* values for the same
  sequence number to the two halves of the cluster (the attack the
  non-equivocation quorum Q_eq exists to stop);
* :class:`DoubleVoter` — echoes prepares/commits for *every* digest it
  sees, lending quorum mass to both sides of an equivocation;
* :class:`SilentByzantine` — participates in nothing (indistinguishable
  from a crash, but counted as Byzantine by the experiment harness).

Composing an equivocating primary with enough double-voters is exactly the
scenario where PBFT's safety conditions tip over (|Byz| ≥ 2|Q_eq| − N), so
the simulator can demonstrate both sides of the predicate.
"""

from __future__ import annotations

from repro.sim.cluster import NodeFactory
from repro.sim.pbft.messages import Commit, Prepare, PrePrepare, Status
from repro.sim.pbft.node import PBFTNode


class EquivocatingPrimary(PBFTNode):
    """Sends value to one half of the replicas and a forged twin to the other."""

    def send_preprepare(self, message: PrePrepare) -> None:
        twin = PrePrepare(
            view=message.view,
            seq=message.seq,
            value=f"evil({message.value})",
        )
        half = self.n // 2
        for node_id in range(self.n):
            chosen = message if node_id < half else twin
            self.send(node_id, chosen)
        # The primary itself processes the honest value.
        self.on_message(self.node_id, message)


class DoubleVoter(PBFTNode):
    """Votes for every digest it hears about, honest or forged."""

    def _handle_preprepare(self, src: int, msg: PrePrepare) -> None:
        if msg.view != self.view or src != self.primary_of(msg.view):
            return
        # No equivocation refusal: prepare for whatever arrives.
        self._accept_preprepare((msg.view, msg.seq), msg.value)

    def _handle_prepare(self, msg: Prepare) -> None:
        if msg.view != self.view:
            return
        votes = self.prepare_votes[(msg.view, msg.seq, msg.digest)]
        votes.add(msg.node_id)
        # Echo a prepare for any digest with any support, amplifying both sides.
        if self.node_id not in votes:
            self.emit_prepare(msg.view, msg.seq, msg.digest)
        if len(votes) >= self.q_eq:
            self.emit_commit(msg.view, msg.seq, msg.digest)

    def _handle_commit(self, msg: Commit) -> None:
        if msg.view != self.view:
            return
        votes = self.commit_votes[(msg.view, msg.seq, msg.digest)]
        votes.add(msg.node_id)
        if self.node_id not in votes:
            self.emit_commit(msg.view, msg.seq, msg.digest)
        # Byzantine nodes do not execute: their state is irrelevant to the
        # agreement check, which only audits correct replicas.


class EquivocatingDoubleVoter(EquivocatingPrimary, DoubleVoter):
    """Primary that equivocates *and* lends votes to both forks.

    With one accomplice :class:`DoubleVoter` in a 4-node cluster this
    realises the |Byz| ≥ 2|Q_eq| − N safety violation of Theorem 3.1: each
    fork gathers one correct node plus both Byzantine voters, so two
    conflicting quorums of 3 form and the correct nodes commit different
    values for the same slot.
    """


class SilentByzantine(PBFTNode):
    """Sends nothing at all — a fail-stop disguised as Byzantine."""

    def send_preprepare(self, message: PrePrepare) -> None:
        pass

    def emit_prepare(
        self, view: int, seq: int, digest: object, to: int | None = None
    ) -> None:
        pass

    def emit_commit(
        self, view: int, seq: int, digest: object, to: int | None = None
    ) -> None:
        pass

    def _retransmit(self) -> None:
        pass

    def _handle_status(self, msg: Status) -> None:
        pass

    def _start_view_change(self, new_view: int) -> None:
        pass


def mixed_pbft_factory(
    byzantine_ids: frozenset[int],
    byzantine_class: type[PBFTNode] = DoubleVoter,
    *,
    primary_class: type[PBFTNode] | None = None,
    q_eq: int | None = None,
    q_per: int | None = None,
    q_vc: int | None = None,
    q_vc_t: int | None = None,
) -> NodeFactory:
    """Factory producing honest replicas except the listed Byzantine ids.

    ``primary_class`` (default: the byzantine_class) is used for node 0 if
    it is Byzantine — letting tests pair an :class:`EquivocatingPrimary`
    with :class:`DoubleVoter` accomplices.
    """

    def build(node_id, n, scheduler, network, rng, trace):  # type: ignore[no-untyped-def]
        kwargs = dict(q_eq=q_eq, q_per=q_per, q_vc=q_vc, q_vc_t=q_vc_t)
        if node_id in byzantine_ids:
            cls = byzantine_class
            if node_id == 0 and primary_class is not None:
                cls = primary_class
            return cls(node_id, n, scheduler, network, rng, trace, **kwargs)
        return PBFTNode(node_id, n, scheduler, network, rng, trace, **kwargs)

    return build
