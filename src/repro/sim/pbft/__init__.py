"""Simulated PBFT (three-phase agreement, view changes, Byzantine attacks)."""

from repro.sim.pbft.byzantine import (
    EquivocatingDoubleVoter,
    DoubleVoter,
    EquivocatingPrimary,
    SilentByzantine,
    mixed_pbft_factory,
)
from repro.sim.pbft.messages import (
    Commit,
    NewView,
    Prepare,
    PreparedProof,
    PrePrepare,
    Status,
    ViewChange,
)
from repro.sim.pbft.node import PBFTNode, pbft_node_factory

__all__ = [
    "PBFTNode",
    "pbft_node_factory",
    "EquivocatingPrimary",
    "EquivocatingDoubleVoter",
    "DoubleVoter",
    "SilentByzantine",
    "mixed_pbft_factory",
    "PrePrepare",
    "Prepare",
    "Commit",
    "ViewChange",
    "NewView",
    "Status",
    "PreparedProof",
]
