"""Scenario objects: one reliability question, fully specified.

The paper's front door is a question of the form *"what Safe/Live nines
does this deployment give me?"*.  A :class:`Scenario` pins everything that
question needs — protocol spec, fleet, estimator choice and budget, and
optionally a correlated-failure model or the horizon window the fleet was
projected for — into one frozen value that can be hashed (for the engine's
memo cache), grouped (for batched execution) and serialized (for the CLI's
JSON scenario files).

:class:`ScenarioSet` is an ordered batch of scenarios —
:class:`repro.engine.ReliabilityEngine` answers each as a reliability
query — with a :meth:`ScenarioSet.grid` builder for the
sizes × probabilities × protocols sweeps every consumer of this library
ends up writing.

Serialization covers the protocol-zoo specs registered via
:func:`register_spec_codec` (Raft, FlexRaft, Ben-Or, Byzantine Ben-Or and
PBFT out of the box; third parties can register their own).  Scenarios
carrying a live :class:`~repro.faults.correlation.CorrelationModel` are
*not* serializable — correlation structures are process-local objects.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro._codec import decode_fields, one_key, require_mapping
from repro._rng import SeedLike
from repro.analysis.config import FaultKind
from repro.engine.registry import ESTIMATORS
from repro.errors import InvalidConfigurationError, UnknownMethodError
from repro.faults.correlation import CorrelationModel
from repro.faults.mixture import (
    Fleet,
    HashedKey,
    NodeModel,
    byzantine_fleet,
    uniform_fleet,
)
from repro.protocols.base import ProtocolSpec
from repro.protocols.benor import BenOrSpec, ByzantineBenOrSpec
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import FlexibleRaftSpec, RaftSpec

#: Above this configuration count, auto selection stops considering
#: enumeration.
EXACT_BUDGET = 1 << 20

#: The methods a scenario accepts: ``"auto"`` and every estimator's name.
METHODS = frozenset(("auto", *ESTIMATORS))


# ---------------------------------------------------------------------------
# Spec codecs: (de)serialization of the protocol zoo
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SpecCodec:
    """How one protocol family round-trips through dicts/JSON."""

    name: str
    spec_type: type
    build: Callable[..., ProtocolSpec]
    params: Callable[[ProtocolSpec], dict]


_SPEC_CODECS: dict[str, SpecCodec] = {}
_SPEC_CODECS_BY_TYPE: dict[type, SpecCodec] = {}


def register_spec_codec(
    name: str,
    spec_type: type,
    build: Callable[..., ProtocolSpec] | None = None,
    params: Callable[[ProtocolSpec], dict] | None = None,
) -> SpecCodec:
    """Register a protocol family for scenario (de)serialization.

    ``build(**params)`` must reconstruct a spec whose predicates are
    identical to the one ``params`` was read from; the JSON parameters are
    read by ``build``'s annotations (:mod:`repro._codec`), an unannotated
    one as given, and an unknown one is refused.  ``build`` defaults to
    ``spec_type`` itself, and ``params`` to the spec's attributes named by
    ``build``'s parameters, in order.  Registration is idempotent per name
    (last registration wins), so downstream packages can override the
    built-ins.
    """
    if build is None:
        build = spec_type
    if params is None:
        names = tuple(inspect.signature(build).parameters)

        def params(spec: ProtocolSpec) -> dict:
            return {param: getattr(spec, param) for param in names}

    codec = SpecCodec(name=name, spec_type=spec_type, build=build, params=params)
    _SPEC_CODECS[name] = codec
    _SPEC_CODECS_BY_TYPE[spec_type] = codec
    return codec


# The built-in families build from their typed constructors, so the codec
# reads every parameter as an integer (a quorum override may be null).
register_spec_codec("raft", RaftSpec)
register_spec_codec("flexraft", FlexibleRaftSpec)
register_spec_codec("benor", BenOrSpec)
register_spec_codec("byz-benor", ByzantineBenOrSpec)
register_spec_codec("pbft", PBFTSpec)


def spec_to_dict(spec: ProtocolSpec) -> dict:
    """Serializable form of a registered protocol spec."""
    codec = _SPEC_CODECS_BY_TYPE.get(type(spec))
    if codec is None:
        raise InvalidConfigurationError(
            f"no scenario codec registered for {type(spec).__qualname__}; "
            "use register_spec_codec() to add one"
        )
    return {"protocol": codec.name, **codec.params(spec)}


def spec_from_dict(data: Mapping) -> ProtocolSpec:
    """Rebuild a protocol spec from its dict form: the codec's ``build``
    reads each parameter by its annotation, and an unknown one is refused
    by name."""
    if type(data) is not dict:
        require_mapping("spec", data)
    name = data.get("protocol")
    if name is None:
        raise InvalidConfigurationError("spec dict needs a 'protocol' field")
    codec = _SPEC_CODECS.get(name) if isinstance(name, str) else None
    if codec is None:
        raise InvalidConfigurationError(
            f"unknown protocol {name!r}; registered: {sorted(_SPEC_CODECS)}"
        )
    return decode_fields(codec.build, data, f"{name} spec", tag="protocol")


# ---------------------------------------------------------------------------
# Fleet codec: a list of node rows, or a uniform spec
# ---------------------------------------------------------------------------
def _fleet_to_dict(fleet: Fleet) -> dict:
    return {
        "nodes": [
            {"p_crash": node.p_crash, "p_byzantine": node.p_byzantine}
            for node in fleet
        ]
    }


def _node(p_crash: float = 0.0, p_byzantine: float = 0.0) -> NodeModel:
    """One row of a fleet's ``nodes`` list."""
    return NodeModel(p_crash, p_byzantine)


def _uniform(n: int, p_fail: float, byzantine_fraction: float = 0.0) -> Fleet:
    """A fleet's ``uniform`` spec."""
    return uniform_fleet(n, p_fail, byzantine_fraction=byzantine_fraction)


_is_float = float.__instancecheck__


def _nodes(rows) -> Fleet:
    """A ``nodes`` list, each row read by :func:`_node`'s signature.

    Fleets are mostly runs of equal nodes, so a row of floats equal to the
    one before it shares that row's frozen :class:`NodeModel` instead of
    being read again (any other row is read: ``true == 1.0``).  The first
    row of every run is read, so a malformed or out-of-range row is
    refused wherever its run starts.
    """
    if not isinstance(rows, (list, tuple)):
        raise InvalidConfigurationError(
            f"nodes must be a list of node objects, got {type(rows).__name__}"
        )
    nodes: list[NodeModel] = []
    previous = model = None
    for row in rows:
        if model is None or row != previous or not all(map(_is_float, row.values())):
            model = decode_fields(_node, row, "fleet node")
            previous = row
        nodes.append(model)
    return Fleet(tuple(nodes))


_FLEET_FORMS = {
    "nodes": _nodes,
    "uniform": lambda spec: decode_fields(_uniform, spec, "uniform fleet"),
}


def _fleet_from_dict(data: Mapping) -> Fleet:
    """A fleet object: exactly one of ``nodes`` or ``uniform``."""
    form, value = one_key("fleet", data, _FLEET_FORMS)
    return _FLEET_FORMS[form](value)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One reliability question: a (spec, fleet) pair plus estimator budget.

    ``method`` is one of :data:`METHODS`: an estimator name from
    :data:`~repro.engine.registry.ESTIMATORS`, or ``"auto"``, which
    resolves to Monte-Carlo under a correlation model, else the counting
    DP for symmetric specs, exact enumeration for asymmetric fleets of at
    most :data:`EXACT_BUDGET` configurations, Monte-Carlo beyond that
    (see :meth:`resolved_method`).  ``trials``/``seed`` budget the
    sampling estimators.  ``correlation`` is a correlated-failure model
    that replaces the fleet's independent draws, every failure taking
    ``failure_kind``: only Monte-Carlo (``"auto"`` resolves to it) can
    honour one, so pairing it with ``counting``, ``exact`` or
    ``importance`` is refused — they would answer for independent
    failures.  ``window_hours`` and ``label`` are provenance-only
    metadata (horizon sweeps stamp the window each scenario was projected
    for).  A fleet whose size is not the spec's, or an unknown
    ``method``, is refused when the scenario is built.
    """

    spec: ProtocolSpec = field(metadata={"decode": spec_from_dict})
    fleet: Fleet = field(metadata={"decode": _fleet_from_dict})
    method: str = "auto"
    trials: int = 100_000
    seed: SeedLike = None
    correlation: CorrelationModel | None = None
    failure_kind: FaultKind = FaultKind.CRASH
    window_hours: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        # trials is deliberately not validated here: only the sampling
        # estimators read it, and they raise at estimation time exactly as
        # the pre-engine free functions did (exact paths ignore it).
        if self.method not in METHODS:
            raise UnknownMethodError(f"unknown analysis method {self.method!r}")
        if isinstance(self.seed, np.integer):
            # The memo key reads int(seed); the canonical key must too.
            object.__setattr__(self, "seed", int(self.seed))
        if isinstance(self.seed, int) and self.seed < 0:
            raise InvalidConfigurationError(
                f"seed must be a non-negative integer, got {self.seed}"
            )
        if self.fleet.n != self.spec.n:
            raise InvalidConfigurationError(
                f"fleet has {self.fleet.n} nodes but spec expects {self.spec.n}"
            )
        if self.correlation is None:
            return
        if self.correlation.n != self.spec.n:
            raise InvalidConfigurationError(
                f"correlation model has {self.correlation.n} nodes "
                f"but spec expects {self.spec.n}"
            )
        if self.method in ("counting", "exact", "importance"):
            raise InvalidConfigurationError(
                f"method {self.method!r} assumes independent failures and would "
                "ignore the correlation model; use 'monte-carlo' or 'auto'"
            )

    @property
    def n(self) -> int:
        return self.fleet.n

    def resolved_method(self) -> str:
        """The concrete estimator name ``method`` stands for.

        ``"auto"`` picks Monte-Carlo under a correlation model, the
        counting DP for symmetric specs, enumeration while the fleet has
        at most :data:`EXACT_BUDGET` configurations, Monte-Carlo beyond
        that.
        """
        if self.method != "auto":
            return self.method
        if self.correlation is not None:
            return "monte-carlo"
        if self.spec.symmetric:
            return "counting"
        from repro.analysis.exact import configuration_count

        if configuration_count(self.fleet) <= EXACT_BUDGET:
            return "exact"
        return "monte-carlo"

    def fleet_key(self) -> HashedKey:
        """Hashable identity of the fleet's failure probabilities.

        The primitive ``(p_crash, p_byzantine)`` pairs: node labels and
        costs do not participate (they never influence estimator output).
        This key sits on the engine's per-row hot path — every row's memo
        key holds it, and a row takes several dict operations — so the
        fleet builds it once and hashes it once
        (:attr:`Fleet.hashed_key <repro.faults.mixture.Fleet.hashed_key>`,
        equal to the plain tuple of pairs).
        """
        return self.fleet.hashed_key

    def cache_key(self, resolved_method: str) -> tuple | None:
        """Memo-cache key, or ``None`` when the outcome is not reusable.

        Deterministic estimations (counting/exact, and sampling runs with
        an explicit *value* seed) are cacheable.  Unseeded sampling,
        generator-object seeds (stateful: every historical call advanced
        the stream) and correlated scenarios are not.  ``resolved_method``
        is :meth:`resolved_method`'s answer.

        This *is* the key a reliability row is memoised under:
        :meth:`ReliabilityQuery.cache_key
        <repro.engine.query.ReliabilityQuery.cache_key>` appends only what
        the engine side owns — for seeded sampling, the policy's
        ``shard_trials``.  Its third element is ``resolved_method``, which
        the planner reads back rather than resolving the method a second
        time.
        """
        if self.correlation is not None:
            return None
        base = (self.spec.grouping_key(), self.fleet_key(), resolved_method)
        if resolved_method in ("counting", "exact"):
            # Exact answers are budget-independent: any trials/seed hits.
            return base
        if not isinstance(self.seed, (int, np.integer)):
            return None
        return base + (self.trials, int(self.seed), self.failure_kind)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready form; raises for process-local correlation models."""
        if self.correlation is not None:
            raise InvalidConfigurationError(
                "scenarios with a live correlation model are not serializable"
            )
        data: dict = {
            "spec": spec_to_dict(self.spec),
            "fleet": _fleet_to_dict(self.fleet),
            "method": self.method,
        }
        if self.trials != 100_000:
            data["trials"] = self.trials
        if self.seed is not None:
            data["seed"] = self.seed
        if self.failure_kind is not FaultKind.CRASH:
            data["failure_kind"] = self.failure_kind.name.lower()
        if self.window_hours is not None:
            data["window_hours"] = self.window_hours
        if self.label:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        """Rebuild a scenario from its dict form, every field read by its
        declared type (:mod:`repro._codec`): ``seed`` is an integer or
        ``null``, ``failure_kind`` a kind name, and a ``correlation``
        model cannot be given."""
        return decode_fields(cls, data, "scenario")


# ---------------------------------------------------------------------------
# ScenarioSet
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSet:
    """An ordered batch of scenarios (each one a reliability query)."""

    scenarios: tuple[Scenario, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not all(isinstance(s, Scenario) for s in self.scenarios):
            raise InvalidConfigurationError("ScenarioSet entries must be Scenario instances")

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def __getitem__(self, index: int) -> Scenario:
        return self.scenarios[index]

    def extend(self, extra: Iterable[Scenario]) -> "ScenarioSet":
        return ScenarioSet(self.scenarios + tuple(extra))

    # -- builders ----------------------------------------------------------
    @classmethod
    def build(cls, scenarios: Iterable[Scenario]) -> "ScenarioSet":
        return cls(tuple(scenarios))

    @classmethod
    def grid(
        cls,
        protocols: Sequence[str] = ("raft",),
        sizes: Iterable[int] = (3, 5, 7),
        probabilities: Iterable[float] = (0.01,),
        *,
        byzantine_fraction: float | None = None,
        method: str = "auto",
        trials: int = 100_000,
        seed: SeedLike = None,
    ) -> "ScenarioSet":
        """Cross-product builder: protocols × sizes × probabilities.

        Protocol names resolve through the spec-codec registry with default
        quorum parameters.  With ``byzantine_fraction`` unset, each
        protocol gets its conventional fleet: PBFT the paper's Table-1
        worst case (every failure Byzantine), everything else a crash-only
        uniform fleet.  Setting ``byzantine_fraction`` gives **every
        protocol the same mixed-fault fleet** per grid cell — the "same
        deployment, every protocol" question — which lets the engine share
        one joint-count DP per fleet across all protocols of that size.
        Scenario labels encode the grid cell.
        """
        scenarios = []
        sizes = tuple(sizes)
        probabilities = tuple(probabilities)
        mixed = 0.0 if byzantine_fraction is None else byzantine_fraction
        codecs = []
        for name in protocols:
            codec = _SPEC_CODECS.get(name)
            if codec is None:
                raise InvalidConfigurationError(
                    f"unknown protocol {name!r}; registered: {sorted(_SPEC_CODECS)}"
                )
            codecs.append((name, codec))
        for n in sizes:
            specs = [(name, codec.build(n)) for name, codec in codecs]
            for p in probabilities:
                # One fleet object per distinct fleet of the cell, shared by
                # its specs: equal keys then match by identity downstream.
                fleets: dict[bool, Fleet] = {}
                for name, spec in specs:
                    pbft = byzantine_fraction is None and isinstance(spec, PBFTSpec)
                    fleet = fleets.get(pbft)
                    if fleet is None:
                        fleet = fleets[pbft] = (
                            byzantine_fleet(n, p)
                            if pbft
                            else uniform_fleet(n, p, byzantine_fraction=mixed)
                        )
                    scenarios.append(
                        Scenario(
                            spec=spec,
                            fleet=fleet,
                            method=method,
                            trials=trials,
                            seed=seed,
                            label=f"{name}/n={n}/p={p:g}",
                        )
                    )
        return cls(tuple(scenarios))

    # -- serialization -----------------------------------------------------
    def to_dicts(self) -> list[dict]:
        return [scenario.to_dict() for scenario in self.scenarios]

    @classmethod
    def from_dicts(cls, rows: Iterable[Mapping]) -> "ScenarioSet":
        return cls(tuple(Scenario.from_dict(row) for row in rows))

    def to_json(self) -> str:
        return json.dumps({"scenarios": self.to_dicts()}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSet":
        """Parse a scenario file: a grid description or explicit scenarios.

        Accepted shapes (:func:`read_file` states the grammar)::

            {"scenarios": [{...}, {...}]}
            [{...}, {...}]
            {"grid": {"protocols": ["raft", "pbft"], "sizes": [3, 5],
                      "probabilities": [0.01, 0.05]}}
        """
        return read_file(text, cls.from_dicts)


def read_file(text: str, read_rows: Callable[[list], object], rows: str = "scenarios"):
    """Parse a query or scenario file: the one statement of its grammar.

    The body is a list of rows, or an object with exactly one of ``rows``,
    ``"scenarios"`` and ``"grid"``: ``rows`` and ``scenarios`` are lists,
    ``grid`` is :meth:`ScenarioSet.grid`'s parameters.  Any other key, or a
    second one, is refused by name.  ``read_rows`` reads a list of rows;
    ``scenarios`` and ``grid`` read as a :class:`ScenarioSet`.
    """
    data = json.loads(text)
    if type(data) is list:
        return read_rows(data)
    key, value = one_key("query file", data, (rows, "scenarios", "grid"))
    if key == "grid":
        return decode_fields(ScenarioSet.grid, value, "grid")
    if type(value) is not list:
        raise InvalidConfigurationError(
            f"{key} must be a list, got {type(value).__name__}"
        )
    return read_rows(value) if key == rows else ScenarioSet.from_dicts(value)
