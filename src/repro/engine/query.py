"""Typed queries: a scenario plus the *question* being asked of it.

PR 2 made the :class:`~repro.engine.Scenario` the unit of work, but the
engine could only answer one question shape — point reliability of a spec
over a fleet within one window.  The time-domain questions the paper pairs
with it (MTTF/MTTDL and steady-state availability from
:mod:`repro.markov`, trace-driven safety/liveness campaigns from
:mod:`repro.sim`) lived behind free-function side doors with ad-hoc result
types and none of the engine's batching, caching, sharding or provenance.

A :class:`Query` couples a scenario with a question kind:

``ReliabilityQuery``
    Today's behaviour, unchanged — the scenario's estimator answers it.
``AvailabilityQuery``
    Steady-state availability (and optional window unavailability) of the
    repairable cluster, from the CTMC builders.
``MTTFQuery``
    Mean time to losing liveness (MTTF) and to losing data (MTTDL).
``SimulationQuery``
    ``replicas`` seeded discrete-event protocol executions audited by
    :func:`repro.sim.checker.audit_run`, reported as violation rates with
    Wilson bounds.

:class:`QuerySet` is the mixed-kind batch the engine executes; it carries
the same dict/JSON codecs as :class:`~repro.engine.ScenarioSet`, so one
``scenarios.json`` file can mix reliability, availability, MTTF and
simulation questions.  A kind is wired once:
:func:`repro.engine.registry.register_backend` takes the query class, and
the same table entry is what :func:`query_from_dict` parses rows with and
what the engine routes them to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Mapping

import numpy as np

from repro._codec import decode_fields, encode_fields, require_mapping
from repro.errors import InvalidConfigurationError
from repro.faults.afr import afr_to_hourly_rate
from repro.faults.mixture import uniform_fleet
from repro.engine.registry import _KINDS
from repro.engine.scenario import Scenario, ScenarioSet, read_file
from repro.injection.plan import FaultPlan
from repro.protocols.raft import RaftSpec, majority

#: Client-command schedule the simulation backend uses for every replica:
#: first submit at ``_COMMANDS_START`` sim-seconds, one every
#: ``_COMMAND_INTERVAL`` after that (the bench_sim_validation cadence).
_COMMANDS_START = 1.0
_COMMAND_INTERVAL = 0.1


# ---------------------------------------------------------------------------
# Query kinds
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Query:
    """Base class: one scenario plus a question kind.

    Subclasses set :attr:`kind` (the kind-table key) and add their
    question parameters as dataclass fields; those fields round-trip
    through :meth:`to_dict` / :func:`query_from_dict` automatically.
    """

    scenario: Scenario

    #: Kind-table key; also the ``"kind"`` field of the dict form.
    kind: ClassVar[str] = ""

    @property
    def n(self) -> int:
        return self.scenario.n

    @property
    def label(self) -> str:
        return self.scenario.label

    def cache_key(self, shard_trials: int | None) -> tuple | None:
        """The engine's memo key for this question, or ``None``.

        Each kind builds its key here, in one place, from its own fields
        plus the one thing only the engine side knows, which
        :meth:`~repro.engine.ReliabilityEngine.run` passes in: the
        policy's ``shard_trials`` (seeded sampling depends on the shard
        plan — and on nothing else about the policy).
        ``None`` means the answer is not reusable: the row is computed
        every time and never stored.  That is the default — a kind opts
        into the memo by overriding this.  Kinds other than
        ``reliability`` start their keys with the kind; reliability keys
        start with a spec grouping tuple, so kinds never collide.
        """
        return None

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready form: ``kind`` + scenario + question parameters."""
        return {"kind": self.kind, **encode_fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Query":
        """Rebuild a query of this class from its dict form, every field
        read by its declared type (:mod:`repro._codec`)."""
        return decode_fields(cls, data, f"{cls.kind or cls.__name__} query", tag="kind")


def canonical_query_key(query: Query) -> str:
    """The process-independent identity of a query: its canonical JSON form.

    Two queries with equal dict forms compile to bit-identical work, so
    one execution can serve both: the dict form carries every field —
    :func:`repro._codec.encode_fields` writes each one not at its default
    (the cache-key-coverage contract checks ``to_dict`` goes through it)
    and :func:`repro._codec.decode_fields` reads each back by its
    declared type.  Unlike the in-process memo keys of
    :meth:`Query.cache_key` — which may carry process-local objects (a
    campaign's resolved behaviour builds, a correlation model), and on
    which the daemon single-flights — this string means the same thing in
    every interpreter: campaign checkpoint journals are named by its digest
    (``tests/test_codec.py`` pins it for every kind).
    """
    return json.dumps(query.to_dict(), sort_keys=True, default=repr)


def query_from_dict(data: Mapping) -> Query:
    """Rebuild any registered query from its dict form.

    A dict without a ``"kind"`` field is treated as a bare scenario dict
    (or ``{"scenario": {...}}`` wrapper) and becomes a
    :class:`ReliabilityQuery` — the shape every pre-query scenario file
    already used.
    """
    if type(data) is not dict:
        require_mapping("query row", data)
    if "kind" not in data:
        scenario_data = data.get("scenario", data)
        return ReliabilityQuery(Scenario.from_dict(scenario_data))
    kind = str(data["kind"])
    entry = _KINDS.get(kind)
    if entry is None:
        raise InvalidConfigurationError(
            f"unknown query kind {kind!r}; registered: {sorted(_KINDS)}"
        )
    return entry[0].from_dict(data)


@dataclass(frozen=True)
class ReliabilityQuery(Query):
    """Point reliability of the scenario — the engine's historical question.

    Carries no parameters of its own: the scenario's ``method``, ``trials``
    and ``seed`` already pin the estimator and its budget.  Submitting a
    bare :class:`~repro.engine.Scenario` to the engine is equivalent to
    wrapping it in one of these.
    """

    kind: ClassVar[str] = "reliability"

    def cache_key(self, shard_trials: int | None) -> tuple | None:
        """:meth:`Scenario.cache_key` of the resolved method, plus
        ``shard_trials`` when the estimator samples."""
        method = self.scenario.resolved_method()
        key = self.scenario.cache_key(method)
        if key is None or method == "counting" or method == "exact":
            return key
        return key + (shard_trials,)


@dataclass(frozen=True)
class _MarkovQuery(Query):
    """Shared fields of the CTMC-backed questions.

    The cluster model is the birth–death chain of
    :class:`repro.markov.builders.ClusterMarkovModel`: per-replica hazard
    ``failure_rate_per_hour`` (λ), per-repair-slot rate
    ``repair_rate_per_hour`` (μ), and ``repair_slots`` concurrent repairs.
    Queries sharing :meth:`chain_key` share one closed-form pass inside the
    engine's Markov backends.
    """

    failure_rate_per_hour: float = 0.0
    repair_rate_per_hour: float = 0.0
    repair_slots: int = 1
    quorum_size: int | None = None

    def __post_init__(self) -> None:
        if self.failure_rate_per_hour < 0 or self.repair_rate_per_hour < 0:
            raise InvalidConfigurationError("rates must be non-negative")
        if self.repair_slots < 0:
            raise InvalidConfigurationError("repair_slots must be non-negative")
        quorum = self.resolved_quorum
        if not 0 < quorum <= self.n:
            raise InvalidConfigurationError(
                f"quorum {quorum} outside (0, {self.n}]"
            )

    @property
    def resolved_quorum(self) -> int:
        """Quorum the question is about (majority of the fleet by default)."""
        return majority(self.n) if self.quorum_size is None else self.quorum_size

    def chain_key(self) -> tuple:
        """Chains with equal keys are the same CTMC — solved once per batch."""
        return (
            self.n,
            self.failure_rate_per_hour,
            self.repair_rate_per_hour,
            self.repair_slots,
        )

    @classmethod
    def from_afr(
        cls,
        scenario: Scenario,
        *,
        afr: float,
        mttr_hours: float,
        **params,
    ) -> "_MarkovQuery":
        """Operator-friendly constructor: annual failure rate + MTTR.

        Performs exactly the conversions the legacy callers performed
        (:func:`repro.faults.afr.afr_to_hourly_rate` and ``1 / MTTR``), so
        answers are bit-identical to the historical direct-builder calls.
        """
        if mttr_hours <= 0:
            raise InvalidConfigurationError("mttr_hours must be positive")
        return cls(
            scenario=scenario,
            failure_rate_per_hour=afr_to_hourly_rate(afr),
            repair_rate_per_hour=1.0 / mttr_hours,
            **params,
        )

    @classmethod
    def for_cluster(
        cls, n: int, *, afr: float, mttr_hours: float, label: str = "", **params
    ) -> "_MarkovQuery":
        """Spec-free constructor for questions posed directly about an
        ``n``-replica cluster (the CLI ``mttf`` / SLO-report shape).

        The Markov backends read only the rates, ``n`` and the quorum, but
        every query carries a scenario for labeling and serialization; this
        synthesizes the neutral carrier in one place — majority-quorum
        RaftSpec over a zero-probability fleet — so callers don't each
        invent a fleet whose ``p_fail`` misstates the AFR as a per-window
        probability.
        """
        if n <= 0:
            raise InvalidConfigurationError(f"n must be positive, got {n}")
        scenario = Scenario(
            spec=RaftSpec(n),
            fleet=uniform_fleet(n, 0.0),
            label=label or f"cluster/n={n}",
        )
        return cls.from_afr(scenario, afr=afr, mttr_hours=mttr_hours, **params)


@dataclass(frozen=True)
class AvailabilityQuery(_MarkovQuery):
    """Steady-state availability of a ``resolved_quorum`` quorum under repair.

    With ``window_hours`` set the answer additionally carries the
    no-mid-window-repair unavailability of that window — the diagnostic
    linking the Markov view to the paper's per-window probabilities.
    """

    kind: ClassVar[str] = "availability"

    window_hours: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        # Steady-state availability is undefined without repair; failing
        # here (at parse time for JSON query files) beats the same error
        # surfacing as a backend traceback mid-run.
        if self.repair_rate_per_hour <= 0:
            raise InvalidConfigurationError("availability under repair needs μ > 0")
        if self.window_hours is not None and self.window_hours <= 0:
            raise InvalidConfigurationError("window_hours must be positive")

    def cache_key(self, shard_trials: int | None) -> tuple:
        return (self.kind, self.chain_key(), self.resolved_quorum, self.window_hours)


@dataclass(frozen=True)
class MTTFQuery(_MarkovQuery):
    """Mean time to losing liveness (MTTF) and to losing data (MTTDL).

    Liveness is lost when fewer than ``resolved_quorum`` replicas remain;
    data is lost when ``persistence_quorum`` replicas (default: the same
    quorum) are simultaneously down — the adversarial durability model of
    :meth:`repro.markov.builders.ClusterMarkovModel.mttdl`.
    """

    kind: ClassVar[str] = "mttf"

    persistence_quorum: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        pq = self.resolved_persistence_quorum
        if not 0 < pq <= self.n:
            raise InvalidConfigurationError(
                f"persistence_quorum={pq} outside (0, {self.n}]"
            )

    @property
    def resolved_persistence_quorum(self) -> int:
        return (
            self.resolved_quorum
            if self.persistence_quorum is None
            else self.persistence_quorum
        )

    def cache_key(self, shard_trials: int | None) -> tuple:
        return (
            self.kind,
            self.chain_key(),
            self.resolved_quorum,
            self.resolved_persistence_quorum,
        )


@dataclass(frozen=True)
class SimulationQuery(Query):
    """A campaign of seeded discrete-event protocol executions.

    Each replica compiles the query's fault plan against the scenario —
    window outcomes sampled from the fleet (or its correlation model),
    crash/recovery schedules, partitions, bursts, and Byzantine behaviour
    activation via :mod:`repro.injection` — runs the resulting
    :class:`repro.sim.cluster.Cluster`, feeds ``commands`` client
    commands, and audits the trace with
    :func:`repro.sim.checker.audit_run`.  The answer reports safety and
    liveness violation rates with Wilson bounds, how often the run
    verdict disagreed with the §3 liveness predicate, and how many
    stalled runs were stalled *only* by partition-era commands.

    ``faults=None`` runs the default crash-only plan — behaviourally (and
    bit-for-bit) the pre-fault-plan campaign.  Replica ``i`` draws from
    child ``i`` of the scenario seed's ``SeedSequence`` (PR 3's
    spawned-stream contract), so answers depend only on
    ``(replicas, seed)`` — never on the
    :class:`~repro.engine.ExecutionPolicy` worker count or shard size.

    ``duration`` is the *horizon* of each replica in virtual seconds — the
    instant its verdict is read — not an amount of simulation to burn: a
    replica stops at the first checkpoint where the frozen-log certificate
    (:meth:`repro.sim.cluster.Cluster.verdict_final`) proves the verdict
    can no longer change, which is the verdict at ``duration``.

    ``replicas`` counts sampled fault realisations, not simulations:
    every replica compiles its own faults, and one whose realisation
    equals that of an earlier replica of this campaign whose run read no
    random stream takes that run's verdict instead of repeating it
    (:func:`repro.injection.run_replica` states the rule and the proof).
    The tallies are those of ``replicas`` independent runs either way.
    """

    kind: ClassVar[str] = "simulation"

    replicas: int = 20
    duration: float = 12.0
    commands: int = 4
    crash_window: tuple[float, float] = (0.0, 0.4)
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise InvalidConfigurationError(
                "faults must be a repro.injection.FaultPlan (or None for the "
                "default crash-only plan)"
            )
        self._check_byzantine_support()
        if self.replicas <= 0:
            raise InvalidConfigurationError(
                f"replicas must be positive, got {self.replicas}"
            )
        if self.duration <= 0:
            raise InvalidConfigurationError("duration must be positive")
        if self.commands < 0:
            raise InvalidConfigurationError("commands must be non-negative")
        if self.commands > 0:
            last_submit = _COMMANDS_START + _COMMAND_INTERVAL * (self.commands - 1)
            if last_submit >= self.duration:
                raise InvalidConfigurationError(
                    f"{self.commands} commands submit until t={last_submit:g} "
                    f"but the run ends at duration={self.duration:g}; commands "
                    "submitted after the end are never decided and would "
                    "read as a 100% liveness-violation rate"
                )
        window = tuple(float(edge) for edge in self.crash_window)
        if len(window) != 2 or not 0.0 <= window[0] < window[1] <= self.duration:
            raise InvalidConfigurationError(
                f"invalid crash window {self.crash_window} for duration {self.duration}"
            )
        object.__setattr__(self, "crash_window", window)
        if self.faults is not None:
            # Parse-time bounds check: a JSON fault plan referencing nodes
            # outside the fleet or times outside the run fails here, not as
            # a backend traceback mid-campaign.
            self.faults.validate(self.n, self.duration)

    def _byzantine_slots(self) -> tuple[bool, bool]:
        """Which behaviour slots can materialise: ``(node 0, any other)``.

        Node 0 runs the mix's ``primary_behaviour``, every other Byzantine
        node its ``behaviour`` — only slots some replica can actually fill
        need a resolvable name, so a non-PBFT family with (say) only an
        accomplice behaviour registered can still declare an adversary
        that avoids node 0.
        """
        from repro.analysis.config import FaultKind

        plan = self.faults
        declared = (
            set(plan.adversary.nodes)
            if plan is not None and plan.adversary is not None
            else set()
        )
        primary = 0 in declared
        others = bool(declared - {0})
        if plan is None or plan.sample_faults:
            if self.scenario.correlation is not None:
                if self.scenario.failure_kind is FaultKind.BYZANTINE:
                    marginals = self.scenario.correlation.marginal_probabilities()
                    primary = primary or float(marginals[0]) > 0.0
                    others = others or any(float(p) > 0.0 for p in marginals[1:])
            else:
                # An empty fleet (``"nodes": []``) has no Byzantine node.
                probabilities = [node.p_byzantine for node in self.scenario.fleet] or [0.0]
                primary = primary or probabilities[0] > 0.0
                others = others or any(p > 0.0 for p in probabilities[1:])
        return primary, others

    @property
    def byzantine_possible(self) -> bool:
        """Whether any compiled replica can contain a Byzantine node."""
        primary, others = self._byzantine_slots()
        return primary or others

    @property
    def adversary_mix(self):
        """The behaviour mix Byzantine outcomes run (declared or default)."""
        from repro.injection.plan import DEFAULT_ADVERSARY

        plan = self.faults
        if plan is not None and plan.adversary is not None:
            return plan.adversary
        return DEFAULT_ADVERSARY

    def _check_byzantine_support(self) -> None:
        """Byzantine outcomes need a registered, resolvable behaviour.

        Without one, a sampled "Byzantine" node would run honest code while
        the audit and the §3 predicate count it as faulty — the silent
        safety misreport the pre-fault-plan backend rejected wholesale.
        Both the family registration *and* the adversary mix's behaviour
        names resolve here, at parse time, not as a worker traceback
        mid-campaign.
        """
        from repro.injection import supports_byzantine

        if not self.byzantine_possible:
            return
        if not supports_byzantine(self.scenario.spec):
            raise InvalidConfigurationError(
                "this scenario can produce Byzantine nodes but no Byzantine "
                f"behaviour is registered for {type(self.scenario.spec).__qualname__}; "
                "simulation campaigns activate behaviours through fault plans "
                "(repro.injection: built-ins cover PBFTSpec; "
                "register_behaviour() adds other protocol families)"
            )
        self.behaviour_key()  # resolves the mix's names; raises for unknown

    def behaviour_key(self) -> tuple | None:
        """Resolved behaviour *implementations* (campaign cache component).

        ``None`` when no replica can contain a Byzantine node; each slot
        resolves only when it can materialise (see :meth:`_byzantine_slots`).
        Keys carry the registered build callables, not the names, so
        shadowing a behaviour via :func:`repro.injection.register_behaviour`
        naturally invalidates cached campaign answers.
        """
        from repro.injection import behaviour_build

        primary, others = self._byzantine_slots()
        if not (primary or others):
            return None
        mix = self.adversary_mix
        spec = self.scenario.spec
        return (
            behaviour_build(mix.behaviour, spec) if others else None,
            behaviour_build(mix.primary_behaviour, spec) if primary else None,
        )

    def fault_key(self) -> tuple:
        """Hashable identity of the fault plan (campaign cache component).

        ``faults=None`` keys as the default plan it runs, so a bare query
        and one carrying an explicit all-default ``FaultPlan()`` — which
        compile to bit-identical campaigns — share one memo entry.
        """
        from repro.injection.plan import DEFAULT_PLAN

        return (DEFAULT_PLAN if self.faults is None else self.faults).cache_key()

    def cache_key(self, shard_trials: int | None) -> tuple | None:
        """Memo key for a seeded campaign, or ``None`` when not reusable.

        The key distinguishes everything that changes compiled faults: the
        fault plan's canonical form, the *resolved* Byzantine behaviour
        implementations (so re-registering a behaviour invalidates answers
        computed with the old one), the correlation model (hashable frozen
        models only — a third-party unhashable model simply opts the
        campaign out of the memo) and the sampled-outcome kind, alongside
        spec, fleet, budget and seed.  Replica ``i`` draws from child ``i``
        of the seed, so ``shard_trials`` does not matter: verdicts do not
        depend on the shard plan.
        """
        scenario = self.scenario
        seed = scenario.seed
        if not isinstance(seed, (int, np.integer)):
            return None
        correlation = scenario.correlation
        if correlation is not None:
            try:
                hash(correlation)
            except TypeError:
                return None
        return (
            self.kind,
            scenario.spec.grouping_key(),
            scenario.fleet_key(),
            self.replicas,
            self.duration,
            self.commands,
            self.crash_window,
            int(seed),
            self.fault_key(),
            self.behaviour_key(),
            correlation,
            scenario.failure_kind,
        )


# ---------------------------------------------------------------------------
# QuerySet
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class QuerySet:
    """An ordered, possibly mixed-kind batch of queries.

    The engine's time-domain unit of work: submitting one of these to
    :meth:`repro.engine.ReliabilityEngine.run` answers every row, routing
    each kind to its backend and batching within kinds (shared DP sweeps
    for reliability, shared CTMC models for Markov questions, sharded
    replica fan-out for simulation campaigns).
    """

    queries: tuple[Query, ...] = ()

    def __post_init__(self) -> None:
        for query in self.queries:
            if not isinstance(query, Query):
                raise InvalidConfigurationError("QuerySet entries must be Query instances")

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def __getitem__(self, index: int) -> Query:
        return self.queries[index]

    def extend(self, extra: Iterable[Query]) -> "QuerySet":
        return QuerySet(self.queries + tuple(extra))

    # -- builders ----------------------------------------------------------
    @classmethod
    def build(cls, queries: Iterable[Query]) -> "QuerySet":
        return cls(tuple(queries))

    @classmethod
    def from_scenarios(cls, scenarios: ScenarioSet | Iterable[Scenario]) -> "QuerySet":
        """Wrap every scenario in a :class:`ReliabilityQuery` (legacy shape)."""
        return cls(tuple(ReliabilityQuery(scenario) for scenario in scenarios))

    # -- serialization -----------------------------------------------------
    def to_dicts(self) -> list[dict]:
        return [query.to_dict() for query in self.queries]

    @classmethod
    def from_dicts(cls, rows: Iterable[Mapping]) -> "QuerySet":
        return cls(tuple(map(query_from_dict, rows)))

    def to_json(self) -> str:
        return json.dumps({"queries": self.to_dicts()}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "QuerySet":
        """Parse a query file — a superset of the scenario-file grammar
        (:func:`~repro.engine.scenario.read_file` states it once).

        Accepted shapes (an object holds exactly one key)::

            {"queries": [{...}, {...}]}          # mixed query dicts
            [{...}, {...}]                       # query or bare scenario dicts
            {"scenarios": [{...}]}               # ScenarioSet shape -> reliability
            {"grid": {...}}                      # grid shorthand -> reliability

        Rows without a ``"kind"`` field are bare scenario dicts and become
        :class:`ReliabilityQuery` rows, so every existing scenario file is
        a valid query file.
        """
        read = read_file(text, cls.from_dicts, rows="queries")
        return read if isinstance(read, QuerySet) else cls.from_scenarios(read)


def coerce_query(item) -> Query:
    """Accept a :class:`Query` or a bare :class:`Scenario` (→ reliability)."""
    if isinstance(item, Query):
        return item
    if isinstance(item, Scenario):
        return ReliabilityQuery(item)
    raise InvalidConfigurationError(
        f"expected Query or Scenario, got {type(item).__name__}"
    )
