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
:func:`register_spec_codec` (Raft, FlexRaft, PBFT out of the box; third
parties can register their own).  Scenarios carrying a live
:class:`~repro.faults.correlation.CorrelationModel` are *not*
serializable — correlation structures are process-local objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro._codec import decode_fields, finite_int, require_mapping
from repro._rng import SeedLike
from repro.analysis.config import FaultKind
from repro.errors import InvalidConfigurationError
from repro.faults.correlation import CorrelationModel
from repro.faults.mixture import Fleet, NodeModel, byzantine_fleet, uniform_fleet
from repro.protocols.base import ProtocolSpec
from repro.protocols.benor import BenOrSpec, ByzantineBenOrSpec
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import FlexibleRaftSpec, RaftSpec

#: Above this configuration count, auto selection stops considering
#: enumeration.
EXACT_BUDGET = 1 << 20


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
    build: Callable[..., ProtocolSpec],
    params: Callable[[ProtocolSpec], dict],
) -> SpecCodec:
    """Register a protocol family for scenario (de)serialization.

    ``build(**params)`` must reconstruct a spec whose predicates are
    identical to the one ``params`` was read from; the JSON parameters are
    read by ``build``'s annotations (:mod:`repro._codec`), an unannotated
    one as given, and an unknown one is refused.  Registration is
    idempotent per name (last registration wins), so downstream packages
    can override the built-ins.
    """
    codec = SpecCodec(name=name, spec_type=spec_type, build=build, params=params)
    _SPEC_CODECS[name] = codec
    _SPEC_CODECS_BY_TYPE[spec_type] = codec
    return codec


# The built-in families build from their typed constructors, so the codec
# reads every parameter as an integer (a quorum override may be null).
register_spec_codec(
    "raft",
    RaftSpec,
    RaftSpec,
    lambda spec: {"n": spec.n, "q_per": spec.q_per, "q_vc": spec.q_vc},
)
register_spec_codec(
    "flexraft",
    FlexibleRaftSpec,
    FlexibleRaftSpec,
    lambda spec: {"n": spec.n, "q_per": spec.q_per, "q_vc": spec.q_vc},
)
register_spec_codec("benor", BenOrSpec, BenOrSpec, lambda spec: {"n": spec.n})
register_spec_codec(
    "byz-benor", ByzantineBenOrSpec, ByzantineBenOrSpec, lambda spec: {"n": spec.n}
)
register_spec_codec(
    "pbft",
    PBFTSpec,
    PBFTSpec,
    lambda spec: {
        "n": spec.n,
        "q_eq": spec.q_eq,
        "q_per": spec.q_per,
        "q_vc": spec.q_vc,
        "q_vc_t": spec.q_vc_t,
    },
)


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
    name = require_mapping("spec", data).get("protocol")
    if name is None:
        raise InvalidConfigurationError("spec dict needs a 'protocol' field")
    codec = _SPEC_CODECS.get(name) if isinstance(name, str) else None
    if codec is None:
        raise InvalidConfigurationError(
            f"unknown protocol {name!r}; registered: {sorted(_SPEC_CODECS)}"
        )
    return decode_fields(codec.build, data, f"{name} spec", tag="protocol")


def _fleet_to_dict(fleet: Fleet) -> dict:
    return {
        "nodes": [
            {"p_crash": node.p_crash, "p_byzantine": node.p_byzantine}
            for node in fleet
        ]
    }


def _fleet_from_dict(data: Mapping) -> Fleet:
    if "nodes" in require_mapping("fleet", data):
        # Fleets are mostly runs of equal nodes: build one frozen NodeModel
        # per run and share it.  The first of every run is validated, so
        # NaN and out-of-range input is rejected exactly as before.
        nodes: list[NodeModel] = []
        previous = model = None
        for node in data["nodes"]:
            require_mapping("fleet node", node)
            pair = (node.get("p_crash", 0.0), node.get("p_byzantine", 0.0))
            if pair != previous:
                model = NodeModel(p_crash=float(pair[0]), p_byzantine=float(pair[1]))
                previous = pair
            nodes.append(model)
        return Fleet(tuple(nodes))
    if "uniform" in data:
        spec = require_mapping("uniform fleet", data["uniform"])
        return uniform_fleet(
            finite_int("n", spec["n"]),
            float(spec["p_fail"]),
            byzantine_fraction=float(spec.get("byzantine_fraction", 0.0)),
        )
    raise InvalidConfigurationError("fleet dict needs a 'nodes' list or a 'uniform' spec")


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One reliability question: a (spec, fleet) pair plus estimator budget.

    ``method`` is an estimator name from the engine registry (``"auto"``
    resolves to Monte-Carlo under a correlation model, else the counting
    DP for symmetric specs, exact enumeration for asymmetric fleets of at
    most :data:`EXACT_BUDGET` configurations, Monte-Carlo beyond that;
    see :meth:`resolved_method`).  ``trials``/``seed`` budget
    the sampling estimators.  ``correlation`` is a correlated-failure
    model that replaces the fleet's independent draws, every failure
    taking ``failure_kind``: only Monte-Carlo (``"auto"`` resolves to it)
    and third-party estimators can honour one, so pairing it with
    ``counting``, ``exact`` or ``importance`` is refused — they would
    answer for independent failures.  ``window_hours``
    and ``label`` are provenance-only metadata (horizon sweeps stamp the
    window each scenario was projected for).
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
        if isinstance(self.seed, (int, np.integer)) and self.seed < 0:
            raise InvalidConfigurationError(
                f"seed must be a non-negative integer, got {self.seed}"
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

    def fleet_key(self) -> tuple:
        """Hashable identity of the fleet's failure probabilities.

        A tuple of primitive ``(p_crash, p_byzantine)`` pairs: node labels
        and costs do not participate (they never influence estimator
        output), and primitive tuples hash at C speed — this key sits on
        the engine's per-scenario hot path, so the fleet builds it once
        (:attr:`Fleet.probability_key <repro.faults.mixture.Fleet.probability_key>`).
        """
        return self.fleet.probability_key

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
        the engine side owns — the resolved estimator function and, for
        seeded sampling, the policy's ``shard_trials``.
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
                shared = (
                    uniform_fleet(n, p, byzantine_fraction=byzantine_fraction)
                    if byzantine_fraction is not None
                    else None
                )
                for name, spec in specs:
                    if shared is not None:
                        fleet = shared
                    elif isinstance(spec, PBFTSpec):
                        fleet = byzantine_fleet(n, p)
                    else:
                        fleet = uniform_fleet(n, p)
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

        Accepted shapes::

            {"scenarios": [{...}, {...}]}
            [{...}, {...}]
            {"grid": {"protocols": ["raft", "pbft"], "sizes": [3, 5],
                      "probabilities": [0.01, 0.05]}}
        """
        data = json.loads(text)
        if isinstance(data, list):
            return cls.from_dicts(data)
        if isinstance(data, Mapping):
            if "grid" in data:
                return decode_fields(cls.grid, data["grid"], "grid")
            if "scenarios" in data:
                return cls.from_dicts(data["scenarios"])
        raise InvalidConfigurationError(
            "scenario JSON must be a list, {'scenarios': [...]} or {'grid': {...}}"
        )
