"""Declarative fault plans: typed events + adversary mix, JSON-embeddable.

A :class:`FaultPlan` is the one way faults reach a simulated cluster:
the per-replica window draw (sampled fail-stops, optionally repaired),
then an ordered tuple of typed :class:`FaultEvent` rows (crash-stop,
crash-recovery, partition/heal, delay/loss bursts, correlated bursts)
plus an :class:`Adversary` section mapping Byzantine outcomes to
registered misbehaviour classes.  Plans are frozen values with dict/JSON
codecs, so they embed directly in scenario/query files and hash into the
engine's campaign cache keys; :func:`plan_from_curves` builds one from
per-node fault curves.

Plans are *specifications*, not schedules: anything stochastic (sampled
window outcomes, MTTR repair delays, burst lethality) is drawn at
compile time from the per-replica spawned stream — see
:func:`repro.injection.campaign.compile_faults` — which is what keeps
campaign answers invariant to worker counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Mapping, Sequence, Type

from repro._codec import decode_fields, encode_fields, require_mapping
from repro._rng import SeedLike, as_generator
from repro.errors import InvalidConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.faults.curves import FaultCurve


def _freeze(value):
    """Canonical hashable form of a codec payload (for cache keys)."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


# ---------------------------------------------------------------------------
# Typed fault events
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """Base class: one declarative fault with a ``kind`` codec tag.

    Subclasses add their parameters as dataclass fields (round-tripped by
    :meth:`to_dict` / :func:`fault_event_from_dict` automatically) and
    implement :meth:`validate` (bounds against the deployment) plus
    :meth:`schedule` (compilation onto a :class:`FaultSchedule`, drawing
    any randomness from the replica's stream).
    """

    #: Codec tag; also the ``"kind"`` field of the dict form.
    kind: ClassVar[str] = ""

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {"kind": self.kind, **encode_fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultEvent":
        """Rebuild an event from its dict form; on the base class, the
        row's ``kind`` picks the event class from :data:`FAULT_EVENTS`."""
        if cls is FaultEvent:
            return fault_event_from_dict(data)
        return decode_fields(cls, data, f"{cls.kind} event", tag="kind")

    # -- compilation -------------------------------------------------------
    def validate(self, n: int, duration: float) -> None:
        """Check the event fits an ``n``-node run of ``duration`` seconds."""

    def schedule(self, schedule, rng) -> None:  # pragma: no cover - interface
        """Compile onto a :class:`FaultSchedule` using the replica stream."""
        raise NotImplementedError


def fault_event_from_dict(data: Mapping) -> FaultEvent:
    """Rebuild any built-in fault event from its dict form."""
    kind = require_mapping("fault event", data).get("kind")
    if kind is None:
        raise InvalidConfigurationError("fault event dict needs a 'kind' field")
    cls = FAULT_EVENTS.get(str(kind))
    if cls is None:
        raise InvalidConfigurationError(
            f"unknown fault event kind {kind!r}; registered: {sorted(FAULT_EVENTS)}"
        )
    return cls.from_dict(data)


def _check_node(node: int, n: int) -> None:
    if not 0 <= node < n:
        raise InvalidConfigurationError(
            f"fault event references node {node} outside fleet of {n}"
        )


def _check_time(name: str, value: float, duration: float) -> None:
    if not 0.0 <= value < duration:
        raise InvalidConfigurationError(
            f"fault event {name}={value:g} outside run [0, {duration:g})"
        )


def draw_repair_time(
    crash_time: float,
    mean_time_to_repair: float,
    duration: float,
    rng: "np.random.Generator",
) -> float | None:
    """One exponential repair draw, or ``None`` when it lands past the run.

    The single definition of the crash-recovery draw shared by the
    sampled schedule of :func:`repro.injection.compile_faults` and the
    :class:`CrashStop` and :class:`CorrelatedBurst` events, so the
    drop-late-repairs guard cannot drift between them.
    """
    recover_time = crash_time + float(rng.exponential(mean_time_to_repair))
    return recover_time if recover_time < duration else None


@dataclass(frozen=True)
class CrashStop(FaultEvent):
    """Fail-stop one node at ``at``; optionally recover it.

    ``recover_at`` schedules a deterministic repair; ``mean_time_to_repair``
    instead draws an exponential repair delay from the replica stream
    (crash-recovery, the MTTR model of :attr:`FaultPlan.mean_time_to_repair`
    and :func:`plan_from_curves`).  Repairs landing past the run's duration
    are dropped — the node stays down, matching the analysis model where
    an unrepaired window failure is terminal.
    """

    kind: ClassVar[str] = "crash"

    node: int = 0
    at: float = 0.0
    recover_at: float | None = None
    mean_time_to_repair: float | None = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise InvalidConfigurationError(f"node must be non-negative, got {self.node}")
        if self.at < 0:
            raise InvalidConfigurationError(f"crash time must be non-negative, got {self.at}")
        if self.recover_at is not None and self.mean_time_to_repair is not None:
            raise InvalidConfigurationError(
                "crash event takes recover_at or mean_time_to_repair, not both"
            )
        if self.recover_at is not None and self.recover_at <= self.at:
            raise InvalidConfigurationError(
                f"recovery at {self.recover_at:g} precedes the crash at {self.at:g}"
            )
        if self.mean_time_to_repair is not None and self.mean_time_to_repair <= 0:
            raise InvalidConfigurationError("mean_time_to_repair must be positive")

    def validate(self, n: int, duration: float) -> None:
        _check_node(self.node, n)
        _check_time("at", self.at, duration)

    def schedule(self, schedule, rng) -> None:
        recover = self.recover_at
        if self.mean_time_to_repair is not None:
            recover = draw_repair_time(
                self.at, self.mean_time_to_repair, schedule.duration, rng
            )
        elif recover is not None and recover >= schedule.duration:
            recover = None
        schedule.crash(self.node, self.at, recover_at=recover)


@dataclass(frozen=True)
class PartitionEvent(FaultEvent):
    """Split the network into ``groups`` at ``at``; heal at ``heal_at``.

    ``heal_at=None`` leaves the partition in place to the end of the run.
    Nodes outside every group are isolated from grouped nodes (the
    :meth:`repro.sim.network.Network.set_partition` semantics).
    """

    kind: ClassVar[str] = "partition"

    groups: tuple[tuple[int, ...], ...] = ()
    at: float = 0.0
    heal_at: float | None = None

    def __post_init__(self) -> None:
        groups = tuple(tuple(int(node) for node in group) for group in self.groups)
        object.__setattr__(self, "groups", groups)
        if not groups:
            raise InvalidConfigurationError("partition event needs at least one group")
        seen: set[int] = set()
        for group in groups:
            if set(group) & seen:
                raise InvalidConfigurationError("partition groups must be disjoint")
            seen |= set(group)
        if self.at < 0:
            raise InvalidConfigurationError("partition time must be non-negative")
        if self.heal_at is not None and self.heal_at <= self.at:
            raise InvalidConfigurationError(
                f"heal at {self.heal_at:g} precedes the partition at {self.at:g}"
            )

    def validate(self, n: int, duration: float) -> None:
        for group in self.groups:
            for node in group:
                _check_node(node, n)
        _check_time("at", self.at, duration)

    def schedule(self, schedule, rng) -> None:
        heal = self.heal_at if self.heal_at is not None else schedule.duration
        schedule.partition(self.groups, self.at, min(heal, schedule.duration))


@dataclass(frozen=True)
class LossBurst(FaultEvent):
    """Raise the network's message-drop probability to ``drop_probability``
    over ``[at, until)``, then restore the baseline."""

    kind: ClassVar[str] = "loss-burst"

    at: float = 0.0
    until: float = 0.0
    drop_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0 or self.until <= self.at:
            raise InvalidConfigurationError(
                f"loss burst needs 0 <= at < until, got [{self.at:g}, {self.until:g})"
            )
        if not 0.0 <= self.drop_probability < 1.0:
            raise InvalidConfigurationError("drop_probability must be in [0, 1)")

    def validate(self, n: int, duration: float) -> None:
        _check_time("at", self.at, duration)

    def schedule(self, schedule, rng) -> None:
        schedule.network_op("drop", self.at, self.drop_probability)
        if self.until < schedule.duration:
            # None = restore the baseline; closing ops yield to any burst
            # opening at the same instant.
            schedule.network_op("drop", self.until, None, closing=True)


@dataclass(frozen=True)
class DelayBurst(FaultEvent):
    """Add ``extra_delay`` seconds to every message over ``[at, until)``
    (a congestion/gray-failure burst), then restore the baseline."""

    kind: ClassVar[str] = "delay-burst"

    at: float = 0.0
    until: float = 0.0
    extra_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0 or self.until <= self.at:
            raise InvalidConfigurationError(
                f"delay burst needs 0 <= at < until, got [{self.at:g}, {self.until:g})"
            )
        if self.extra_delay < 0:
            raise InvalidConfigurationError("extra_delay must be non-negative")

    def validate(self, n: int, duration: float) -> None:
        _check_time("at", self.at, duration)

    def schedule(self, schedule, rng) -> None:
        schedule.network_op("delay", self.at, self.extra_delay)
        if self.until < schedule.duration:
            schedule.network_op("delay", self.until, 0.0, closing=True)


@dataclass(frozen=True)
class CorrelatedBurst(FaultEvent):
    """A correlated group outage at ``at``, drawn per replica via
    :class:`repro.faults.correlation.CommonShockModel`.

    With probability ``probability`` the burst fires, killing each member
    independently with probability ``lethality`` (the Marshall–Olkin shock
    of §2).  ``mean_time_to_repair`` draws an exponential repair delay per
    victim; without it victims stay down.  The draws come from the replica
    stream, so which replicas suffer the burst is seeded and
    jobs-invariant.
    """

    kind: ClassVar[str] = "correlated-burst"

    members: tuple[int, ...] = ()
    at: float = 0.0
    probability: float = 1.0
    lethality: float = 1.0
    mean_time_to_repair: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(int(m) for m in self.members))
        if not self.members:
            raise InvalidConfigurationError("correlated burst needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise InvalidConfigurationError("correlated burst has duplicate members")
        if self.at < 0:
            raise InvalidConfigurationError("burst time must be non-negative")
        if not 0.0 <= self.probability <= 1.0:
            raise InvalidConfigurationError("burst probability must be in [0, 1]")
        if not 0.0 <= self.lethality <= 1.0:
            raise InvalidConfigurationError("burst lethality must be in [0, 1]")
        if self.mean_time_to_repair is not None and self.mean_time_to_repair <= 0:
            raise InvalidConfigurationError("mean_time_to_repair must be positive")

    def validate(self, n: int, duration: float) -> None:
        for node in self.members:
            _check_node(node, n)
        _check_time("at", self.at, duration)

    def _shock_model(self, n: int):
        """The burst's :class:`CommonShockModel`, memoised per fleet size.

        ``schedule`` runs once per replica; the model depends only on the
        event's frozen fields and ``n``, so build it once (the same
        frozen-dataclass memo pattern as :meth:`FaultPlan.validate`).
        """
        cache = getattr(self, "_models", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_models", cache)
        model = cache.get(n)
        if model is None:
            from repro.faults.correlation import CommonShockModel, ShockGroup
            from repro.faults.mixture import uniform_fleet

            shock = ShockGroup(
                self.members, self.probability, self.lethality, name="burst"
            )
            model = CommonShockModel(uniform_fleet(n, 0.0), (shock,))
            cache[n] = model
        return model

    def schedule(self, schedule, rng) -> None:
        import numpy as np

        victims = np.flatnonzero(self._shock_model(schedule.n).sample(rng))
        for node in victims:
            recover = None
            if self.mean_time_to_repair is not None:
                recover = draw_repair_time(
                    self.at, self.mean_time_to_repair, schedule.duration, rng
                )
            schedule.crash(int(node), self.at, recover_at=recover)


#: Every fault event class by its :attr:`~FaultEvent.kind`: what
#: :func:`fault_event_from_dict` (and so a JSON fault-plan section) reads.
FAULT_EVENTS: Mapping[str, Type[FaultEvent]] = {
    cls.kind: cls for cls in (CrashStop, PartitionEvent, LossBurst, DelayBurst, CorrelatedBurst)
}


# ---------------------------------------------------------------------------
# Adversary mix
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Adversary:
    """How Byzantine outcomes become running misbehaviour classes.

    ``nodes`` pins an always-Byzantine set (on top of any window outcomes
    sampled from the fleet/correlation model); behaviours are names from
    the :mod:`repro.injection.behaviours` registry.  Node 0 — the initial
    PBFT primary — runs ``primary_behaviour`` when Byzantine, every other
    Byzantine node runs ``behaviour`` (the
    :func:`repro.sim.pbft.byzantine.mixed_pbft_factory` convention).  The
    defaults compose the paper's Theorem 3.1 attack: an equivocating,
    double-voting primary with double-voting accomplices.
    """

    nodes: tuple[int, ...] = ()
    behaviour: str = "double-vote"
    primary_behaviour: str = "equivocate+double-vote"

    def __post_init__(self) -> None:
        nodes = tuple(int(node) for node in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if len(set(nodes)) != len(nodes):
            raise InvalidConfigurationError("adversary has duplicate nodes")
        if any(node < 0 for node in nodes):
            raise InvalidConfigurationError("adversary nodes must be non-negative")
        if not self.behaviour or not self.primary_behaviour:
            raise InvalidConfigurationError("adversary behaviours must be non-empty")

    def behaviour_for(self, node: int) -> str:
        """The behaviour ``node`` runs when Byzantine — keyed on the node's
        id, not on its role.

        ``primary_behaviour`` goes to *node 0*, the primary of view 0
        only.  After a view change the primary is another node, and a
        Byzantine one leads with the accomplice ``behaviour``: with
        ``nodes=(1, 2)`` the first primary is honest and views 1 and 2 are
        led by double-voters that never equivocate
        (``tests/test_golden_injection.py`` pins that campaign).
        """
        return self.primary_behaviour if node == 0 else self.behaviour

    def to_dict(self) -> dict:
        return encode_fields(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "Adversary":
        return decode_fields(cls, data, "adversary")


#: Default behaviour mix for fleets that sample Byzantine outcomes without
#: declaring an adversary section.
DEFAULT_ADVERSARY = Adversary()


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """One replica-independent fault specification for a campaign.

    ``sample_faults`` keeps the historical per-replica window draw (from
    the scenario's fleet, or its correlation model when present);
    ``mean_time_to_repair`` turns those sampled crash-stops into
    crash-recoveries (exponential repair, sim-seconds).  ``events`` add
    deterministic or stochastic scheduled faults on top, in order, and
    ``adversary`` maps Byzantine outcomes to behaviour classes.  The
    default plan — no events, no adversary, sampling on — compiles to the
    exact pre-fault-plan campaign behaviour, stream draw for stream draw.
    """

    events: tuple[FaultEvent, ...] = ()
    adversary: Adversary | None = None
    sample_faults: bool = True
    mean_time_to_repair: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if not all(isinstance(event, FaultEvent) for event in self.events):
            raise InvalidConfigurationError("plan events must be FaultEvent instances")
        if self.adversary is not None and not isinstance(self.adversary, Adversary):
            raise InvalidConfigurationError("adversary must be an Adversary instance")
        if self.mean_time_to_repair is not None and self.mean_time_to_repair <= 0:
            raise InvalidConfigurationError("mean_time_to_repair must be positive")

    def validate(self, n: int, duration: float) -> None:
        """Check every event (and the adversary set) fits the deployment.

        Memoised per ``(n, duration)``: the plan is frozen, so a campaign
        that validated at query-parse time costs nothing per replica.
        """
        memo = getattr(self, "_validated", None)
        if memo is None:
            memo = set()
            object.__setattr__(self, "_validated", memo)
        if (n, duration) in memo:
            return
        for event in self.events:
            event.validate(n, duration)
        if self.adversary is not None:
            for node in self.adversary.nodes:
                _check_node(node, n)
        # The network holds one partition, one drop probability and one
        # extra delay at a time: a second same-kind window opening before
        # the first closes would silently overwrite it, and the first
        # window's close would restore the baseline mid-burst (or heal the
        # standing partition early), under-reporting the declared
        # degradation.  Reject the overlap at parse time.
        def window(event) -> tuple[float, float]:
            if isinstance(event, PartitionEvent):
                return (event.at, duration if event.heal_at is None else event.heal_at)
            return (event.at, event.until)

        for cls, what, advice in (
            (PartitionEvent, "partition", "heal the first before declaring the next"),
            (LossBurst, "loss-burst", "end the first burst before the next starts"),
            (DelayBurst, "delay-burst", "end the first burst before the next starts"),
        ):
            windows = sorted(
                window(event) for event in self.events if isinstance(event, cls)
            )
            for (start_a, end_a), (start_b, _) in zip(windows, windows[1:]):
                if start_b < end_a:
                    raise InvalidConfigurationError(
                        f"{what} events overlap: [{start_a:g}, {end_a:g}) and one "
                        f"starting at {start_b:g} — the network holds one "
                        f"{what} at a time; {advice}"
                    )
        memo.add((n, duration))

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return encode_fields(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        return decode_fields(cls, data, "fault-plan")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, Mapping):
            raise InvalidConfigurationError("fault-plan JSON must be an object")
        return cls.from_dict(data)

    def cache_key(self) -> tuple:
        """Canonical hashable identity (campaign memo-cache component).

        Built from the codec form *plus the concrete event classes*: two
        plans that serialize identically share cache entries only when
        their events are the same implementations, so a subclass of a
        built-in event never serves the answers its parent computed.
        """
        return (
            _freeze(self.to_dict()),
            tuple(type(event) for event in self.events),
        )


#: The plan a ``SimulationQuery`` without a ``faults`` section runs.
DEFAULT_PLAN = FaultPlan()


def plan_from_curves(
    curves: Sequence["FaultCurve"],
    *,
    duration: float,
    hours_per_sim_second: float = 1.0,
    mean_time_to_repair: float | None = None,
    seed: SeedLike = None,
) -> FaultPlan:
    """The crash-stops that per-node fault curves sample for one run.

    Each node ``i`` draws one failure time from ``curves[i]`` (hours,
    mapped to sim seconds by ``hours_per_sim_second``); a node failing
    inside the run becomes a :class:`CrashStop` there, and with
    ``mean_time_to_repair`` (hours) set it then draws one exponential
    repair delay.  A repair at or after ``duration`` is dropped — the
    node stays down.  Everything is drawn here, so the result is a plain
    deterministic plan (``sample_faults=False``) that embeds in a
    :class:`repro.engine.SimulationQuery` like any other.
    """
    if duration <= 0:
        raise InvalidConfigurationError("duration must be positive")
    if hours_per_sim_second <= 0:
        raise InvalidConfigurationError("hours_per_sim_second must be positive")
    if mean_time_to_repair is not None and mean_time_to_repair <= 0:
        raise InvalidConfigurationError("mean_time_to_repair must be positive")
    rng = as_generator(seed)
    horizon_hours = duration * hours_per_sim_second
    events = []
    for node, curve in enumerate(curves):
        failure_hours = curve.sample_failure_time(rng, horizon=horizon_hours)
        at = failure_hours / hours_per_sim_second
        if not (failure_hours < horizon_hours and at < duration):
            continue  # survives the run (``inf``: never fails)
        # Crashing exactly at t=0 races node start.
        at = max(at, 1e-9)
        recover = None
        if mean_time_to_repair is not None:
            repair_hours = float(rng.exponential(mean_time_to_repair))
            recover = (failure_hours + repair_hours) / hours_per_sim_second
            if not at < recover < duration:
                recover = None
        events.append(CrashStop(node=node, at=at, recover_at=recover))
    return FaultPlan(events=tuple(events), sample_faults=False)
