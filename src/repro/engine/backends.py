"""Built-in time-domain query backends: availability, MTTF, simulation.

Each backend computes one same-kind batch of *distinct* questions — the
rows of a single :meth:`~repro.engine.ReliabilityEngine.run` call that the
engine could not answer from its memo — and returns one
:class:`~repro.engine.result.Answer` per row, in order; it never reads or
writes the memo (the ``reliability`` backend — the scenario planner —
lives in :mod:`repro.engine.planner`):

``availability`` / ``mttf``
    CTMC questions batched *per chain*: queries whose
    :meth:`~repro.engine.query._MarkovQuery.chain_key` matches share one
    :class:`~repro.markov.builders.ClusterMarkovModel` and its closed
    forms (one product-form π and one prefix pass over it for
    availability; one first-passage pass for every MTTF/MTTDL threshold),
    so no generator is built; every per-query value is produced by the
    same builder methods a direct caller would use — so answers are
    bit-identical to :mod:`repro.markov.builders`.
``simulation``
    Seeded discrete-event campaigns: replica ``i`` draws from child ``i``
    of the query seed's ``SeedSequence`` (the PR 3 spawned-stream
    contract) and replicas are fanned across the
    :class:`~repro.engine.ExecutionPolicy` pool in
    :func:`~repro.analysis.kernels.plan_shards` chunks, so the audited
    verdict counts depend only on ``(replicas, seed)`` — never on the
    worker count or executor mode.  Each replica's faults — sampled or
    correlated window outcomes, crash-recovery, partitions, bursts and
    Byzantine behaviours — are compiled from the query's
    :class:`repro.injection.FaultPlan` by :func:`repro.injection.run_replica`.
    ``replicas`` counts sampled fault realisations, not simulations: a
    replica whose realisation equals one the campaign already ran, in a
    run that read no random stream, takes that run's verdict
    (``run_replica`` carries the proof).  The table of such verdicts lives
    exactly as long as the campaign and is never journalled.

    Campaigns are *not* all-or-nothing: the fan-out always goes through
    :func:`repro.runtime.run_supervised` under the policy's supervision
    knobs (``timeout``, ``retries``, ``on_shard_failure``,
    ``checkpoint_dir``) — failed shards retry on generators rebuilt from
    the same spawned children (bit-identical), a broken pool requeues
    only the in-flight shards, ``on_shard_failure="degrade"`` returns a
    partial answer over the surviving replicas with ``degraded``
    provenance instead of raising, and ``checkpoint_dir`` journals
    completed shards so an interrupted campaign resumes bit-identically.
    The engine never stores a ``degraded`` answer (a later run may
    complete the campaign).

Which answers are reusable is the query classes' business
(:meth:`~repro.engine.query.Query.cache_key`: Markov always; simulation
when the scenario seed is an ``int``), and serving repeated questions
from the memo is the engine's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.engine.query import (
    AvailabilityQuery,
    MTTFQuery,
    Query,
    SimulationQuery,
    canonical_query_key,
)
from repro.engine.registry import register_backend
from repro.engine.result import (
    Answer,
    AvailabilityAnswer,
    MTTFAnswer,
    Provenance,
    SimulationAnswer,
)
from repro.errors import EstimationError
from repro.obs.trace import current_tracer, resolve_context
from repro.runtime import CampaignCheckpoint, run_supervised

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.execution import ExecutionPolicy
    from repro.protocols.base import ProtocolSpec


# ---------------------------------------------------------------------------
# Markov backends: one closed-form pass per chain
# ---------------------------------------------------------------------------
def _cluster_model(query):
    from repro.markov.builders import ClusterMarkovModel

    return ClusterMarkovModel(
        query.n,
        query.failure_rate_per_hour,
        query.repair_rate_per_hour,
        repair_slots=query.repair_slots,
    )


def _run_markov_kind(queries: Sequence[Query], *, kind: str, answer_chain) -> list[Answer]:
    """Shared per-chain scaffolding of the two CTMC backends.

    Groups queries by :meth:`~repro.engine.query._MarkovQuery.chain_key`
    and hands each chain's queries to ``answer_chain`` — which reads them
    all off one model and returns one value per query, in order.
    """
    answers: list[Answer | None] = [None] * len(queries)
    chains: dict[tuple, list[int]] = {}
    for index, query in enumerate(queries):
        chains.setdefault(query.chain_key(), []).append(index)
    for indices in chains.values():
        values = answer_chain([queries[index] for index in indices])
        provenance = Provenance(
            estimator="ctmc",
            batched=len(indices) > 1,
            batch_size=len(indices),
            backend=kind,
        )
        for index, value in zip(indices, values):
            answers[index] = Answer(queries[index], value, provenance)
    return answers  # type: ignore[return-value]


@register_backend(AvailabilityQuery)
def availability_backend(
    queries: Sequence[AvailabilityQuery],
    policy: "ExecutionPolicy",
) -> list[Answer]:
    def answer_chain(chain: Sequence[AvailabilityQuery]):
        model = _cluster_model(chain[0])
        # One π and one prefix pass over it for the whole chain.
        availabilities = model.steady_state_availabilities(
            [query.resolved_quorum for query in chain]
        )
        return [
            AvailabilityAnswer(
                quorum_size=query.resolved_quorum,
                availability=availability,
                window_hours=query.window_hours,
                window_unavailability=(
                    None
                    if query.window_hours is None
                    else model.window_unavailability(
                        query.resolved_quorum, query.window_hours
                    )
                ),
            )
            for query, availability in zip(chain, availabilities)
        ]

    return _run_markov_kind(queries, kind="availability", answer_chain=answer_chain)


@register_backend(MTTFQuery)
def mttf_backend(
    queries: Sequence[MTTFQuery],
    policy: "ExecutionPolicy",
) -> list[Answer]:
    def answer_chain(chain: Sequence[MTTFQuery]):
        model = _cluster_model(chain[0])  # one first-passage pass

        def mean_hours(threshold: int) -> float:
            # MTTF with an unreachable threshold is 0.0 by the same
            # convention as ClusterMarkovModel.mttf_liveness.
            return model.mean_time_to_failure_count(threshold) if threshold > 0 else 0.0

        return [
            MTTFAnswer(
                quorum_size=query.resolved_quorum,
                persistence_quorum=query.resolved_persistence_quorum,
                mttf_hours=mean_hours(query.n - query.resolved_quorum + 1),
                mttdl_hours=mean_hours(query.resolved_persistence_quorum),
            )
            for query in chain
        ]

    return _run_markov_kind(queries, kind="mttf", answer_chain=answer_chain)


# ---------------------------------------------------------------------------
# Simulation backend: sharded seeded campaigns
# ---------------------------------------------------------------------------
def _node_factory_for(spec: "ProtocolSpec"):
    """The simulator node factory whose nodes realise ``spec``'s quorum
    rules; :class:`~repro.protocols.raft.FlexibleRaftSpec` rides the
    :class:`~repro.protocols.raft.RaftSpec` branch."""
    from repro.protocols.pbft import PBFTSpec
    from repro.protocols.raft import RaftSpec

    if isinstance(spec, PBFTSpec):
        from repro.sim.pbft import pbft_node_factory

        return pbft_node_factory(
            q_eq=spec.q_eq, q_per=spec.q_per, q_vc=spec.q_vc, q_vc_t=spec.q_vc_t
        )
    if isinstance(spec, RaftSpec):
        from repro.sim.raft import raft_node_factory

        return raft_node_factory(q_per=spec.q_per, q_vc=spec.q_vc)
    raise EstimationError(
        f"no simulation node factory for {type(spec).__qualname__}; "
        "simulation campaigns run Raft and PBFT specs"
    )


#: Target chunk count when fanning a campaign's replicas across workers.
_SIM_SHARD_GRAIN = 16


def _command_schedule(commands: int) -> list[tuple[str, float]]:
    """The fixed client cadence every campaign replica replays.

    Submit times *accumulate* (``at += interval``) exactly as the
    pre-fault-plan loop computed them: the closed form differs by float
    ulps from the third command on, and the DES scheduler breaks
    equal-time ties by insertion order, so the accumulation is part of the
    bit-for-bit PR 4 reproduction contract.
    """
    from repro.engine.query import _COMMAND_INTERVAL, _COMMANDS_START

    schedule = []
    at = _COMMANDS_START
    for i in range(commands):
        schedule.append((f"cmd-{i}", at))
        at += _COMMAND_INTERVAL
    return schedule


def _campaign_chunk(payload):
    """Worker entry point: one shard of replicas, verdicts in replica order.

    Each replica's faults are compiled from its private spawned stream by
    :func:`repro.injection.run_replica`, so the verdicts depend only on
    the per-replica streams — never on how replicas are chunked.

    The payload's third element is the campaign's span context (or
    ``None``): thread-pool workers re-attach to the live tracer and
    record their chunk as a worker-track slice; process-pool children
    degrade to the no-op tracer (see
    :func:`repro.obs.trace.resolve_context`).  Tracing never touches the
    generators, so verdicts are bit-identical with tracing on or off.  The
    span carries ``sim_seconds`` / ``horizon_seconds`` / ``early_exits`` /
    ``events`` — how much virtual time the chunk actually simulated —
    ``messages`` sent and certificate ``checkpoints`` evaluated in it, and
    ``reused``, the replicas it did not simulate at all.  A chunk that ran
    quiet Raft heartbeat rounds in closed form (their events are in
    ``events``) carries one ``closed_form`` event with their sum,
    ``rounds_skipped``.

    The fourth is the campaign's reuse table (see ``run_replica``): one
    dict for every shard of the campaign in serial and thread mode, a
    pickled copy per payload in process mode.  A payload without one is a
    campaign of this one chunk.
    """
    from repro.injection import run_replica

    query, rngs, span_context, *table = payload
    reuse = table[0] if table else {}
    tracer, parent = resolve_context(span_context)
    scenario = query.scenario
    node_factory = _node_factory_for(scenario.spec)
    commands = _command_schedule(query.commands)
    with tracer.span(
        "campaign.chunk", parent=parent, track="workers", replicas=len(rngs)
    ) as span:
        verdicts = [
            run_replica(
                scenario.spec,
                scenario.fleet,
                node_factory=node_factory,
                duration=query.duration,
                commands=commands,
                crash_window=query.crash_window,
                rng=rng,
                plan=query.faults,
                correlation=scenario.correlation,
                failure_kind=scenario.failure_kind,
                reuse=reuse,
            )
            for rng in rngs
        ]
        # How much of the horizon the chunk had to simulate (a replica stops
        # when its verdict is final, and is not run at all when the campaign
        # already holds it) — on the span, never in the answer.
        runs = [verdict.run for verdict in verdicts]
        simulated = [run for run in runs if not run.reused]
        span.set("horizon_seconds", query.duration * len(runs))
        span.set("reused", len(runs) - len(simulated))
        span.set("sim_seconds", sum(run.sim_seconds for run in simulated))
        span.set(
            "early_exits", sum(run.sim_seconds < query.duration for run in simulated)
        )
        span.set("events", sum(run.events for run in simulated))
        span.set("messages", sum(run.messages for run in simulated))
        span.set("checkpoints", sum(run.checkpoints for run in simulated))
        rounds_skipped = sum(run.rounds_skipped for run in simulated)
        if rounds_skipped:
            span.event("closed_form", rounds_skipped=rounds_skipped)
        return verdicts


def _encode_verdicts(verdicts) -> list[list[bool]]:
    """Checkpoint form of one shard's verdict list (4 bools per replica)."""
    return [
        [v.unsafe, v.stalled, v.predicate_mismatch, v.partition_era_only]
        for v in verdicts
    ]


def _decode_verdicts(rows):
    from repro.injection.campaign import ReplicaVerdict

    return [ReplicaVerdict(*(bool(flag) for flag in row)) for row in rows]


def _campaign_checkpoint(policy: "ExecutionPolicy", query: SimulationQuery, shards: int):
    """The campaign's checkpoint journal, or ``None`` when not resumable.

    A journal must be found again by a *later process*, so it is named by
    a digest of the query's canonical JSON form, never by the memo key,
    whose resolved behaviour functions ``repr`` to a memory address.
    Resuming therefore needs a policy ``checkpoint_dir``, a repeatable
    campaign (int seed) and a serializable one: correlation models are
    process-local objects.
    """
    if (
        policy.checkpoint_dir is None
        or not isinstance(query.scenario.seed, (int, np.integer))
        or query.scenario.correlation is not None
    ):
        return None
    from pathlib import Path

    digest = CampaignCheckpoint.digest(canonical_query_key(query))
    return CampaignCheckpoint(
        Path(policy.checkpoint_dir) / f"campaign-{digest}",
        key=digest,
        shards=shards,
        encode=_encode_verdicts,
        decode=_decode_verdicts,
    )


@register_backend(SimulationQuery)
def simulation_backend(
    queries: Sequence[SimulationQuery],
    policy: "ExecutionPolicy",
) -> list[Answer]:
    from repro.analysis.kernels import (
        plan_shards,
        rebuild_shard_generators,
        spawn_shard_sequences,
    )
    from repro.analysis.montecarlo import estimate_from_counts

    answers: list[Answer] = []
    tracer = current_tracer()
    for query in queries:
        with tracer.span(
            "campaign",
            label=query.label or "",
            replicas=query.replicas,
        ) as campaign_span:
            # One spawned stream per *replica* (not per shard): replica i's
            # verdict depends only on (seed, i), making the campaign invariant
            # to worker count AND chunking.  plan_shards then merely groups
            # replicas into pool-sized work items.  Keeping the spawned
            # *children* (not generators) is what makes retries and resumes
            # bit-identical: a shard's payload can be rebuilt from the same
            # children at any time.
            children = spawn_shard_sequences(query.scenario.seed, query.replicas)
            chunk = policy.shard_trials or max(
                1, -(-query.replicas // _SIM_SHARD_GRAIN)
            )
            plan = plan_shards(query.replicas, chunk)
            campaign_span.set("shards", plan.num_shards)
            slices = []
            offset = 0
            for shard in plan.shards:
                slices.append((offset, offset + shard))
                offset += shard

            # The span context rides every payload so worker chunks can
            # re-attach to this trace across the pool hop (None when
            # tracing is disabled — payload shape is identical either way).
            span_context = campaign_span.context()

            # This campaign's verdicts of runs that read no random stream,
            # by fault realisation (see run_replica).  It rides every
            # payload — the default plan is one replica a shard, so a table
            # per shard would never hit — and is dropped with the campaign.
            # Unlocked on purpose: a worker's write is one dict store of a
            # finished verdict, and two workers racing on a key store equal
            # verdicts (the verdict is a function of the key), so a lost
            # update costs one repeated run and never an answer.
            # repro: allow[lock-guard] -- racing writers store equal values
            reuse: dict = {}

            def build_payload(
                bounds,
                query=query,
                children=children,
                span_context=span_context,
                reuse=reuse,
            ):
                low, high = bounds
                return (
                    query,
                    rebuild_shard_generators(children[low:high]),
                    span_context,
                    reuse,
                )

            chunks, report = run_supervised(
                _campaign_chunk,
                [build_payload(bounds) for bounds in slices],
                jobs=policy.jobs,
                mode=policy.mode,
                supervision=policy.supervision,
                rebuild=lambda index, slices=slices, build=build_payload: build(
                    slices[index]
                ),
                checkpoint=_campaign_checkpoint(policy, query, plan.num_shards),
                chaos=policy.chaos,
            )
            verdicts = [
                verdict
                for chunk_result in chunks
                if chunk_result is not None
                for verdict in chunk_result
            ]
            # Runs executed now: restored shards carry no run, reused
            # replicas did not have one.
            campaign_span.set(
                "distinct_runs",
                sum(v.run is not None and not v.run.reused for v in verdicts),
            )
        degraded = report.degraded
        effective = len(verdicts)
        if degraded and not effective:
            raise EstimationError(
                f"campaign for {query.label or query.scenario.spec!r} degraded "
                "to zero surviving replicas; nothing to aggregate"
            )
        unsafe = sum(1 for v in verdicts if v.unsafe)
        stalled = sum(1 for v in verdicts if v.stalled)
        mismatched = sum(1 for v in verdicts if v.predicate_mismatch)
        partition_era = sum(1 for v in verdicts if v.partition_era_only)
        value = SimulationAnswer(
            replicas=effective,
            safety_violations=unsafe,
            liveness_violations=stalled,
            predicate_mismatches=mismatched,
            safety_violation_rate=estimate_from_counts(unsafe, effective),
            liveness_violation_rate=estimate_from_counts(stalled, effective),
            partition_era_liveness_violations=partition_era,
        )
        # A degraded answer is a partial view of the campaign: its
        # provenance says so (the engine therefore never stores it) and
        # carries the dropped shard ids and the effective replica count.
        answers.append(
            Answer(
                query,
                value,
                Provenance(
                    estimator="des",
                    shards=plan.num_shards,
                    backend="simulation",
                    degraded=degraded,
                    dropped_shards=report.dropped if degraded else (),
                    effective_trials=effective if degraded else None,
                    report=report,
                ),
            )
        )
    return answers
