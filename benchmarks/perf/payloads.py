"""Seeded inputs of the five workloads.

The seed drives only what is asked (probabilities, rates, campaign
seeds); the shape of each workload — how many queries of which kind and
size — is fixed, so two seeds cost the same and differ only in values.
The program under test sees nothing but the generated payload text.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.engine import (
    AvailabilityQuery,
    MTTFQuery,
    Query,
    QuerySet,
    ReliabilityQuery,
    Scenario,
    ScenarioSet,
    SimulationQuery,
)
from repro.faults.mixture import uniform_fleet
from repro.injection import (
    Adversary,
    CorrelatedBurst,
    FaultPlan,
    LossBurst,
    PartitionEvent,
)
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import RaftSpec

#: Campaign shape shared by every deployment (benchmarks/bench_injection.py).
REPLICAS = 16
DURATION = 6.0
COMMANDS = 2
DEPLOYMENTS = ("crash_raft", "crash_pbft", "adv_pbft", "outage_raft")


@dataclass(frozen=True)
class Payload:
    """One request body and the query objects it encodes."""

    text: str
    queries: tuple[Query, ...]


def _stream(seed: int, name: str) -> random.Random:
    return random.Random(f"perf/{seed}/{name}")


def encode(queries) -> str:
    """Compact request body, as a client library would send it."""
    return json.dumps(
        {"queries": [query.to_dict() for query in queries]}, separators=(",", ":")
    )


def _payload(*queries: Query) -> Payload:
    return Payload(encode(queries), tuple(queries))


def _probabilities(rng: random.Random, count: int) -> list[float]:
    return [round(rng.uniform(0.005, 0.2), 6) for _ in range(count)]


def _markov(cls, rng: random.Random, n: int, label: str, **params):
    return cls.for_cluster(
        n,
        afr=round(rng.uniform(0.02, 0.2), 5),
        mttr_hours=round(rng.uniform(6.0, 72.0), 3),
        label=label,
        **params,
    )


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------
def cli_file(seed: int) -> Payload:
    """The 12-row query file: 8 counting, 2 availability, 2 mttf."""
    rng = _stream(seed, "cli_cold")
    rows: list[Query] = list(
        QuerySet.from_scenarios(
            ScenarioSet.grid(("raft", "pbft"), (5, 7, 9, 11), _probabilities(rng, 1))
        )
    )
    rows += [_markov(AvailabilityQuery, rng, n, f"avail/n={n}") for n in (5, 9)]
    rows += [_markov(MTTFQuery, rng, n, f"mttf/n={n}") for n in (5, 9)]
    return _payload(*rows)


# ---------------------------------------------------------------------------
# serve_warm_hit
# ---------------------------------------------------------------------------
def warm_working_set(seed: int) -> list[Payload]:
    """64 single-query payloads: 32 counting, 8 exact, 8+8 Markov, 8 campaigns."""
    rng = _stream(seed, "serve_warm_hit")
    sizes = (5, 7, 9, 11)
    queries: list[Query] = list(
        QuerySet.from_scenarios(
            ScenarioSet.grid(("raft", "pbft"), sizes, _probabilities(rng, 4))
        )
    )
    queries += QuerySet.from_scenarios(
        ScenarioSet.grid(("raft", "pbft"), (7,), _probabilities(rng, 4), method="exact")
    )
    for cls, name in ((AvailabilityQuery, "avail"), (MTTFQuery, "mttf")):
        queries += [
            _markov(cls, rng, n, f"{name}/n={n}/{i}") for i in range(2) for n in sizes
        ]
    base = rng.randrange(1 << 30)
    queries += [
        SimulationQuery(
            Scenario(
                spec=RaftSpec(3),
                fleet=uniform_fleet(3, 0.05),
                seed=base + i,
                label=f"small-campaign/{i}",
            ),
            replicas=4,
            duration=3.0,
            commands=2,
        )
        for i in range(8)
    ]
    payloads = [_payload(query) for query in queries]
    rng.shuffle(payloads)  # kinds interleave in the round-robin
    return payloads


# ---------------------------------------------------------------------------
# serve_cold_analytic
# ---------------------------------------------------------------------------
_COLD_KINDS = ("reliability",) * 6 + ("availability", "mttf")
_COLD_SIZES = (5, 9, 13, 17)


def cold_analytic_pool(seed: int, name: str, count: int) -> list[str]:
    """``count`` never-repeating analytic request bodies (text only).

    Kinds rotate 6 counting : 1 availability : 1 mttf over n in
    {5, 9, 13, 17}; each body draws its own probability or rates, so no
    memo key repeats.  Bodies use the ``uniform`` fleet shorthand of the
    query grammar, which keeps generating tens of thousands of them cheap.
    """
    rng = _stream(seed, f"serve_cold_analytic/{name}")
    pool = []
    for index in range(count):
        kind = _COLD_KINDS[index % len(_COLD_KINDS)]
        n = _COLD_SIZES[(index // len(_COLD_KINDS) + index) % len(_COLD_SIZES)]
        if kind == "reliability":
            pbft = index % 2 == 1
            fleet = {"n": n, "p_fail": rng.uniform(0.005, 0.2)}
            if pbft:
                fleet["byzantine_fraction"] = 1.0
            row = {
                "kind": kind,
                "scenario": {
                    "spec": {"protocol": "pbft" if pbft else "raft", "n": n},
                    "fleet": {"uniform": fleet},
                    "label": f"{name}/{index}",
                },
            }
        else:
            row = {
                "kind": kind,
                "scenario": {
                    "spec": {"protocol": "raft", "n": n},
                    "fleet": {"uniform": {"n": n, "p_fail": 0.0}},
                    "label": f"{name}/{index}",
                },
                "failure_rate_per_hour": rng.uniform(1e-6, 3e-5),
                "repair_rate_per_hour": rng.uniform(0.01, 0.2),
            }
        pool.append(json.dumps({"queries": [row]}, separators=(",", ":")))
    return pool


# ---------------------------------------------------------------------------
# serve_cold_campaign
# ---------------------------------------------------------------------------
_OUTAGE_PLAN = FaultPlan(
    events=(
        PartitionEvent(groups=((0, 1), (2, 3, 4)), at=2.0, heal_at=3.0),
        LossBurst(at=3.5, until=4.5, drop_probability=0.2),
        CorrelatedBurst(members=(0, 1), at=4.0, probability=0.5, mean_time_to_repair=1.0),
    ),
    mean_time_to_repair=2.0,
)
_ADVERSARY_PLAN = FaultPlan(adversary=Adversary(nodes=(0, 2)))


def campaign_round(campaign_seed: int) -> dict[str, Payload]:
    """The four deployments of one round, all on one fresh campaign seed."""
    raft = Scenario(
        spec=RaftSpec(5), fleet=uniform_fleet(5, 0.15), seed=campaign_seed, label="raft-5"
    )
    pbft = Scenario(
        spec=PBFTSpec(4), fleet=uniform_fleet(4, 0.1), seed=campaign_seed, label="pbft-4"
    )
    common = dict(replicas=REPLICAS, duration=DURATION, commands=COMMANDS)
    queries = {
        "crash_raft": SimulationQuery(raft, **common),
        "crash_pbft": SimulationQuery(pbft, **common),
        "adv_pbft": SimulationQuery(pbft, faults=_ADVERSARY_PLAN, **common),
        "outage_raft": SimulationQuery(raft, faults=_OUTAGE_PLAN, **common),
    }
    return {name: _payload(queries[name]) for name in DEPLOYMENTS}


def campaign_rounds(seed: int, name: str, count: int) -> list[dict[str, Payload]]:
    base = _stream(seed, f"serve_cold_campaign/{name}").randrange(1 << 30)
    return [campaign_round(base + index) for index in range(count)]


# ---------------------------------------------------------------------------
# engine_cold_sweep
# ---------------------------------------------------------------------------
SWEEP_COUNTING_SIZES = (11, 13, 15, 17, 25, 41)
SWEEP_EXACT_SIZES = (7, 9, 11)
SWEEP_MC_TRIALS = 100_000
SWEEP_MARKOV_N = 79


def sweep_parts(seed: int) -> dict[str, QuerySet]:
    """The sweep's four sub-batches, keyed by the kernel that answers them.

    The exact rows reuse the first 20 of the counting rows' 40
    probabilities, so raft/pbft at n=11 are answered both ways and the
    gate can hold counting to exact within 5e-13.
    """
    rng = _stream(seed, "engine_cold_sweep")
    probabilities = _probabilities(rng, 40)
    counting = QuerySet.from_scenarios(
        ScenarioSet.grid(
            ("raft", "pbft", "benor", "byz-benor"), SWEEP_COUNTING_SIZES, probabilities
        )
    )
    exact = QuerySet.from_scenarios(
        ScenarioSet.grid(
            ("raft", "pbft"), SWEEP_EXACT_SIZES, probabilities[:20], method="exact"
        )
    )
    mc = QuerySet.build(
        ReliabilityQuery(
            Scenario(
                spec=RaftSpec(25),
                fleet=uniform_fleet(25, probabilities[i]),
                method="monte-carlo",
                trials=SWEEP_MC_TRIALS,
                seed=rng.randrange(1 << 30),
                label=f"mc/{i}",
            )
        )
        for i in range(4)
    )
    markov: list[Query] = []
    for chain in range(4):
        afr = round(rng.uniform(0.02, 0.2), 5)
        mttr = round(rng.uniform(6.0, 72.0), 3)
        for quorum in range(40, 80):
            markov.append(
                AvailabilityQuery.for_cluster(
                    SWEEP_MARKOV_N,
                    afr=afr,
                    mttr_hours=mttr,
                    quorum_size=quorum,
                    label=f"avail/chain={chain}/q={quorum}",
                )
            )
        for quorum in range(40, 46):
            markov.append(
                MTTFQuery.for_cluster(
                    SWEEP_MARKOV_N,
                    afr=afr,
                    mttr_hours=mttr,
                    quorum_size=quorum,
                    label=f"mttf/chain={chain}/q={quorum}",
                )
            )
    return {
        "counting": counting,
        "exact": exact,
        "mc": mc,
        "markov": QuerySet.build(markov),
    }


def sweep_query_set(parts: dict[str, QuerySet]) -> QuerySet:
    return QuerySet.build(query for part in parts.values() for query in part)

