"""Per-node crash/Byzantine mixtures and fleet construction (paper §2 point 4).

The paper observes that real nodes mostly crash but occasionally misbehave
arbitrarily (mercurial cores, TEE compromises), so a node's failure model
within an analysis window is a pair of probabilities:

* ``p_crash`` — the node fail-stops during the window,
* ``p_byzantine`` — the node deviates arbitrarily during the window.

A :class:`Fleet` is an ordered collection of :class:`NodeModel`; it is the
standard "deployment description" consumed by :mod:`repro.analysis`,
:mod:`repro.planner` and :mod:`repro.sim`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import InvalidConfigurationError, InvalidProbabilityError
from repro.faults.curves import FaultCurve


@dataclass(frozen=True)
class NodeModel:
    """Failure behaviour of one node over the analysis window.

    The two probabilities are for *disjoint* outcomes: with probability
    ``p_crash`` the node crashes, with ``p_byzantine`` it turns Byzantine,
    and with ``1 - p_crash - p_byzantine`` it stays correct.  Optional
    ``label`` and ``cost_per_hour`` carry deployment metadata used by the
    planner (they do not participate in equality-sensitive maths).
    """

    p_crash: float
    p_byzantine: float = 0.0
    label: str = ""
    cost_per_hour: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("p_crash", self.p_crash), ("p_byzantine", self.p_byzantine)):
            if not 0.0 <= value <= 1.0:
                raise InvalidProbabilityError(f"{name} must be in [0, 1], got {value}")
        if self.p_crash + self.p_byzantine > 1.0 + 1e-12:
            raise InvalidProbabilityError(
                f"p_crash + p_byzantine = {self.p_crash + self.p_byzantine} exceeds 1"
            )
        if self.cost_per_hour < 0:
            raise InvalidConfigurationError("cost_per_hour must be non-negative")

    @property
    def p_fail(self) -> float:
        """Probability the node fails in *any* way during the window."""
        return self.p_crash + self.p_byzantine

    @property
    def p_correct(self) -> float:
        """Probability the node stays correct for the whole window."""
        return max(0.0, 1.0 - self.p_fail)

    def as_byzantine(self) -> "NodeModel":
        """Worst-case reinterpretation: every failure counts as Byzantine.

        This is how the paper's Table 1 treats PBFT faults.
        """
        return NodeModel(0.0, self.p_fail, label=self.label, cost_per_hour=self.cost_per_hour)

    def as_crash_only(self) -> "NodeModel":
        """Optimistic reinterpretation: every failure counts as a crash."""
        return NodeModel(self.p_fail, 0.0, label=self.label, cost_per_hour=self.cost_per_hour)

    @classmethod
    def from_curves(
        cls,
        crash_curve: FaultCurve,
        window_hours: float,
        byzantine_curve: FaultCurve | None = None,
        *,
        start_hours: float = 0.0,
        label: str = "",
        cost_per_hour: float = 0.0,
    ) -> "NodeModel":
        """Project fault curves onto a single analysis window.

        Crash and Byzantine processes are treated as competing risks: the
        window failure probabilities are split proportionally to each
        process's cumulative hazard so they remain disjoint outcomes.
        """
        h_crash = crash_curve.cumulative_hazard(start_hours, start_hours + window_hours)
        h_byz = (
            byzantine_curve.cumulative_hazard(start_hours, start_hours + window_hours)
            if byzantine_curve is not None
            else 0.0
        )
        total = h_crash + h_byz
        if total == 0.0:
            return cls(0.0, 0.0, label=label, cost_per_hour=cost_per_hour)
        import math

        p_any = -math.expm1(-total)
        return cls(
            p_crash=p_any * h_crash / total,
            p_byzantine=p_any * h_byz / total,
            label=label,
            cost_per_hour=cost_per_hour,
        )


class HashedKey:
    """A tuple of hashables as a dict key whose hash is computed once.

    Equal to, and hashing the same as, the plain tuple it wraps
    (:attr:`items`), so a dict entry stored under either is found by
    the other.  A dict operation on a plain tuple rehashes every element;
    on this key it reads one stored integer.  Slotted, so a key costs two
    pointers and its hash, not a ``__dict__``.
    """

    __slots__ = ("items", "_hash")

    def __init__(self, items: tuple):
        self.items = items
        self._hash = hash(items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if type(other) is HashedKey:
            return other is self or (
                self._hash == other._hash and self.items == other.items
            )
        if isinstance(other, tuple):
            return self.items == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"HashedKey({self.items!r})"


@dataclass(frozen=True)
class Fleet:
    """An ordered deployment of nodes, indexed 0..n-1.

    Fleets are immutable; combinators return new fleets.  Node order is
    significant because protocol specs may treat indices asymmetrically
    (e.g. reliability-aware quorums pin specific indices).
    """

    nodes: tuple[NodeModel, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # isinstance over every node at C speed: every parsed fleet runs it.
        if not all(map(NodeModel.__instancecheck__, self.nodes)):
            raise InvalidConfigurationError("Fleet nodes must be NodeModel instances")

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[NodeModel]:
        return iter(self.nodes)

    def __getitem__(self, index: int) -> NodeModel:
        return self.nodes[index]

    # -- derived vectors ----------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes in the deployment."""
        return len(self.nodes)

    @cached_property
    def probability_key(self) -> tuple[tuple[float, float], ...]:
        """Per-node ``(p_crash, p_byzantine)`` pairs: what every estimator
        reads of the fleet (labels and costs left out).

        Built once per fleet, since fleets are frozen; the cached tuple
        stays out of equality, hashing and the pickled state.  Fleets are
        mostly runs of one shared :class:`NodeModel` (``uniform_fleet``,
        the JSON parser), so a run shares one pair: the key lives as long
        as its fleet and should cost little more than ``n`` pointers.
        """
        key = []
        previous = pair = None
        for node in self.nodes:
            if node is not previous:
                pair = (node.p_crash, node.p_byzantine)
                previous = node
            key.append(pair)
        return tuple(key)

    @cached_property
    def hashed_key(self) -> HashedKey:
        """:attr:`probability_key` with its hash computed once per fleet.

        The fleet's part of every memo key and the counting sweep's fleet
        index: equal to, and hashing the same as, the plain tuple of
        pairs.  Cached like :attr:`probability_key`, and like it kept out
        of equality, hashing and the pickled state.
        """
        return HashedKey(self.probability_key)

    @cached_property
    def probability_array(self) -> np.ndarray:
        """:attr:`probability_key` as a read-only ``(n, 2)`` float array:
        column 0 is ``p_crash``, column 1 ``p_byzantine``.

        The array form the kernels stack and compare against.  Cached like
        :attr:`probability_key`, and like it kept out of equality, hashing
        and the pickled state.
        """
        pairs = itertools.chain.from_iterable(self.probability_key)
        array = np.fromiter(pairs, float, 2 * self.n).reshape(self.n, 2)
        array.setflags(write=False)
        return array

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in ("probability_key", "hashed_key", "probability_array"):
            state.pop(name, None)
        return state

    @property
    def crash_probabilities(self) -> tuple[float, ...]:
        return tuple(node.p_crash for node in self.nodes)

    @property
    def byzantine_probabilities(self) -> tuple[float, ...]:
        return tuple(node.p_byzantine for node in self.nodes)

    @property
    def failure_probabilities(self) -> tuple[float, ...]:
        return tuple(node.p_fail for node in self.nodes)

    @property
    def is_crash_only(self) -> bool:
        """True when no node has Byzantine mass (a CFT deployment)."""
        return all(node.p_byzantine == 0.0 for node in self.nodes)

    @property
    def is_homogeneous(self) -> bool:
        """True when every node has identical failure probabilities."""
        if not self.nodes:
            return True
        first = (self.nodes[0].p_crash, self.nodes[0].p_byzantine)
        return all((n.p_crash, n.p_byzantine) == first for n in self.nodes)

    @property
    def hourly_cost(self) -> float:
        """Total fleet cost per hour (sum of node costs)."""
        return sum(node.cost_per_hour for node in self.nodes)

    # -- combinators ----------------------------------------------------------
    def replace(self, index: int, node: NodeModel) -> "Fleet":
        """Return a fleet with node ``index`` swapped for ``node``."""
        if not 0 <= index < self.n:
            raise InvalidConfigurationError(f"node index {index} out of range for n={self.n}")
        nodes = list(self.nodes)
        nodes[index] = node
        return Fleet(tuple(nodes))

    def extend(self, extra: Iterable[NodeModel]) -> "Fleet":
        """Return a fleet with additional nodes appended."""
        return Fleet(self.nodes + tuple(extra))

    def as_byzantine(self) -> "Fleet":
        """Worst-case fleet where every failure is Byzantine (Table 1 model)."""
        return Fleet(tuple(node.as_byzantine() for node in self.nodes))

    def as_crash_only(self) -> "Fleet":
        """Optimistic fleet where every failure is a crash."""
        return Fleet(tuple(node.as_crash_only() for node in self.nodes))

    def sorted_by_reliability(self) -> tuple[int, ...]:
        """Node indices sorted most-reliable first (ties keep fleet order)."""
        return tuple(sorted(range(self.n), key=lambda i: (self.nodes[i].p_fail, i)))


def uniform_fleet(
    n: int,
    p_fail: float,
    *,
    byzantine_fraction: float = 0.0,
    label: str = "",
    cost_per_hour: float = 0.0,
) -> Fleet:
    """Fleet of ``n`` identical nodes failing with probability ``p_fail``.

    ``byzantine_fraction`` splits the failure mass: each node turns
    Byzantine with ``p_fail * byzantine_fraction`` and crashes with the
    remainder.  The paper's Table 2 uses ``byzantine_fraction=0``.
    """
    if n < 0:
        raise InvalidConfigurationError(f"fleet size must be non-negative, got {n}")
    if not 0.0 <= byzantine_fraction <= 1.0:
        raise InvalidProbabilityError(f"byzantine_fraction must be in [0,1], got {byzantine_fraction}")
    node = NodeModel(
        p_crash=p_fail * (1.0 - byzantine_fraction),
        p_byzantine=p_fail * byzantine_fraction,
        label=label,
        cost_per_hour=cost_per_hour,
    )
    return Fleet((node,) * n)


def byzantine_fleet(n: int, p_fail: float, *, label: str = "", cost_per_hour: float = 0.0) -> Fleet:
    """Fleet of ``n`` nodes whose every failure is Byzantine (Table 1 model)."""
    return uniform_fleet(n, p_fail, byzantine_fraction=1.0, label=label, cost_per_hour=cost_per_hour)


def heterogeneous_fleet(groups: Sequence[tuple[int, NodeModel]]) -> Fleet:
    """Fleet built from ``(count, node_model)`` groups, in order.

    Example: the paper's §3 mixed cluster is
    ``heterogeneous_fleet([(4, NodeModel(0.08)), (3, NodeModel(0.01))])``.
    """
    nodes: list[NodeModel] = []
    for count, model in groups:
        if count < 0:
            raise InvalidConfigurationError(f"group count must be non-negative, got {count}")
        nodes.extend([model] * count)
    return Fleet(tuple(nodes))


def fleet_from_curves(
    curves: Sequence[FaultCurve],
    window_hours: float,
    *,
    byzantine_curves: Sequence[FaultCurve | None] | None = None,
    start_hours: float = 0.0,
) -> Fleet:
    """Project per-node fault curves onto a window and build a fleet."""
    if byzantine_curves is None:
        byzantine_curves = [None] * len(curves)
    if len(byzantine_curves) != len(curves):
        raise InvalidConfigurationError("byzantine_curves must match curves in length")
    nodes = tuple(
        NodeModel.from_curves(crash, window_hours, byz, start_hours=start_hours)
        for crash, byz in zip(curves, byzantine_curves)
    )
    return Fleet(nodes)
