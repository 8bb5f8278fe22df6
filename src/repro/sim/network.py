"""Simulated message-passing network.

Point-to-point delivery with pluggable latency distributions, independent
message loss, and named partitions.  Delivery to crashed nodes is dropped;
partitioned pairs cannot communicate until the partition heals.  Loss and
delay can be degraded mid-run (:meth:`Network.set_drop_probability`,
:meth:`Network.set_extra_delay`) — the hooks fault-plan bursts drive.  All
randomness flows from a single seeded generator for reproducibility.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.errors import InvalidConfigurationError, SimulationError
from repro.sim.events import EventScheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.node import Process


class LatencyModel(ABC):
    """Distribution of one-way message delays (seconds)."""

    #: Largest delay :meth:`sample` can return; ``inf`` = no bound known
    #: (the default, so a third-party model never lets a run stop early).
    upper_bound: float = math.inf

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one delay."""


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Constant delay — useful for deterministic protocol tests."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise InvalidConfigurationError("delay must be non-negative")

    @property
    def upper_bound(self) -> float:
        return self.delay

    def sample(self, rng: np.random.Generator) -> float:
        return self.delay


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Uniform delay on [low, high]."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise InvalidConfigurationError(f"invalid latency range [{self.low}, {self.high}]")

    @property
    def upper_bound(self) -> float:
        return self.high

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True)
class LogNormalLatency(LatencyModel):
    """Heavy-tailed delay — the realistic datacenter shape.

    ``median`` sets the scale; ``sigma`` the tail weight.
    """

    median: float
    sigma: float = 0.5

    def __post_init__(self) -> None:
        if self.median <= 0 or self.sigma <= 0:
            raise InvalidConfigurationError("median and sigma must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(mean=math.log(self.median), sigma=self.sigma))


class Network:
    """Message fabric connecting :class:`repro.sim.node.Process` instances."""

    def __init__(
        self,
        scheduler: EventScheduler,
        *,
        latency: LatencyModel | None = None,
        drop_probability: float = 0.0,
        seed: SeedLike = None,
    ):
        if not 0.0 <= drop_probability < 1.0:
            raise InvalidConfigurationError("drop_probability must be in [0, 1)")
        self._scheduler = scheduler
        self._latency = latency if latency is not None else FixedLatency(0.001)
        self._drop_probability = drop_probability
        #: Construction-time drop probability; bursts restore to this.
        self.base_drop_probability = drop_probability
        self._extra_delay = 0.0
        self._max_extra_delay = 0.0
        self._rng = as_generator(seed)
        self._processes: dict[int, "Process"] = {}
        #: Attached node ids in ascending order — the broadcast order.
        self._node_ids: tuple[int, ...] = ()
        self._partition: Optional[tuple[frozenset[int], ...]] = None
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def attach(self, process: "Process") -> None:
        if process.node_id in self._processes:
            raise SimulationError(f"node id {process.node_id} already attached")
        self._processes[process.node_id] = process
        self._node_ids = tuple(sorted(self._processes))

    def set_partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Split the network; only same-group pairs can communicate."""
        normalized = tuple(frozenset(group) for group in groups)
        seen: set[int] = set()
        for group in normalized:
            if group & seen:
                raise InvalidConfigurationError("partition groups must be disjoint")
            seen |= group
        self._partition = normalized

    def heal_partition(self) -> None:
        self._partition = None

    # ------------------------------------------------------------------
    # Degradation hooks (delay/loss bursts)
    # ------------------------------------------------------------------
    def set_drop_probability(self, probability: float | None) -> None:
        """Change the independent message-loss rate mid-run.

        ``None`` restores the construction-time baseline — the shape the
        fault-plan loss bursts use to end a burst.
        """
        if probability is None:
            probability = self.base_drop_probability
        if not 0.0 <= probability < 1.0:
            raise InvalidConfigurationError("drop_probability must be in [0, 1)")
        self._drop_probability = probability

    def set_extra_delay(self, seconds: float) -> None:
        """Add a constant to every sampled delay (congestion burst); 0 clears."""
        if seconds < 0:
            raise InvalidConfigurationError("extra delay must be non-negative")
        self._extra_delay = seconds
        self._max_extra_delay = max(self._max_extra_delay, seconds)

    def delay_bound(self) -> float:
        """Upper bound on the delay of every message sent *so far*.

        The latency model's bound plus the largest extra delay that has
        been in force; ``inf`` for an unbounded model.  Later bursts may
        raise it — it bounds what is already in flight, not the future.
        """
        return self._latency.upper_bound + self._max_extra_delay

    def fixed_delay(self) -> float | None:
        """The delay of every message sent now, if the fabric is steady.

        Steady means deterministic and lossless right now: a
        :class:`FixedLatency` model (exactly — a subclass may sample),
        no loss probability, no extra delay and no partition in force.
        Then :meth:`send` reads no stream and every message is delivered
        ``delay`` after it was sent unless its destination is down; a
        scheduled burst or partition changes that only when its event
        runs.  ``None`` when any of the four does not hold.
        """
        latency = self._latency
        if (
            type(latency) is FixedLatency
            and self._drop_probability == 0.0
            and self._extra_delay == 0.0
            and self._partition is None
        ):
            return latency.delay
        return None

    def process(self, node_id: int) -> "Process":
        """The attached process with id ``node_id``."""
        return self._processes[node_id]

    def _partitioned(self, src: int, dst: int) -> bool:
        """Whether the installed partition separates ``src`` from ``dst``."""
        for group in self._partition:
            if src in group:
                return dst not in group
        # Nodes outside any named group are isolated from grouped nodes.
        return any(dst in group for group in self._partition)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: object) -> None:
        """Queue a message for delivery (may be dropped or partitioned away)."""
        if dst not in self._processes:
            raise SimulationError(f"unknown destination node {dst}")
        self.messages_sent += 1
        if self._partition is not None and self._partitioned(src, dst):
            self.messages_dropped += 1
            return
        if self._drop_probability > 0.0 and self._rng.random() < self._drop_probability:
            self.messages_dropped += 1
            return
        delay = self._latency.sample(self._rng) + self._extra_delay
        self._scheduler.post_after(delay, partial(self._deliver, src, dst, payload))

    def broadcast(self, src: int, payload: object, *, include_self: bool = False) -> None:
        """Send ``payload`` to every attached node (optionally including src)."""
        for node_id in self._node_ids:
            if node_id == src and not include_self:
                continue
            self.send(src, node_id, payload)

    def count_messages(self, sent: int, delivered: int, dropped: int) -> None:
        """Count messages a node ran in closed form, as :meth:`send` and
        delivery would have (see :meth:`fixed_delay`)."""
        self.messages_sent += sent
        self.messages_delivered += delivered
        self.messages_dropped += dropped

    def _deliver(self, src: int, dst: int, payload: object) -> None:
        process = self._processes[dst]
        if not process.is_running:
            self.messages_dropped += 1
            return
        # Re-check the partition at delivery time: a partition that formed
        # mid-flight cuts the message off, matching real fabric behaviour.
        if self._partition is not None and self._partitioned(src, dst):
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        process.on_message(src, payload)
