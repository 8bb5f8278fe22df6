"""Q1 — Query/Answer throughput: engine backends vs legacy per-call loops.

Two workloads from the time-domain front door:

* **Batched Markov solves** — a block of ``AvailabilityQuery`` rows over a
  handful of distinct chains (many quorum/window questions per chain)
  through :meth:`ReliabilityEngine.run`, against the legacy loop that
  called :meth:`ClusterMarkovModel.steady_state_availability` once per
  question (one CTMC solve *each*).  The engine solves each chain once
  and answers every question of that chain from the shared π —
  bit-identical by assertion.  A resubmission measures the memo cache.
* **Sharded simulation campaigns** — a seeded ``SimulationQuery`` fanned
  across ``ExecutionPolicy`` workers, against the hand-written loop every
  consumer wrote before: build a cluster, inject sampled faults, run,
  audit, per replica.  Verdict counts are asserted identical at every
  worker count (the CI container is single-core, so the parallel ratio is
  recorded, not asserted).

Emits ``BENCH_queries.json`` at the repo root.  Run as pytest
(``pytest benchmarks/bench_queries.py -s``) or directly
(``python benchmarks/bench_queries.py``); both write the JSON.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.engine import (
    AvailabilityQuery,
    ExecutionPolicy,
    QuerySet,
    ReliabilityEngine,
    Scenario,
    SimulationQuery,
)
from repro.faults.mixture import uniform_fleet
from repro.markov.builders import ClusterMarkovModel
from repro.protocols.raft import RaftSpec

from conftest import print_table

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_queries.json"

REPEATS = 3

#: Markov workload: chains × quorum questions per chain.
CHAIN_N = 79
CHAIN_RATES = (1e-5, 2e-5, 4e-5, 8e-5)
QUORUMS = tuple(range(CHAIN_N // 2 + 1, CHAIN_N + 1))  # 40 quorums per chain

#: Simulation workload.
SIM_REPLICAS = 24
SIM_DURATION = 6.0
SIM_COMMANDS = 2
SIM_SEED = 2025


def _best(fn, repeats: int = REPEATS):
    best_seconds, result = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds, result = elapsed, value
    return best_seconds, result


def build_markov_queries() -> QuerySet:
    scenario = Scenario(
        spec=RaftSpec(CHAIN_N), fleet=uniform_fleet(CHAIN_N, 0.01), label="markov"
    )
    queries = []
    for rate in CHAIN_RATES:
        for quorum in QUORUMS:
            queries.append(
                AvailabilityQuery(
                    scenario,
                    failure_rate_per_hour=rate,
                    repair_rate_per_hour=1.0 / 24.0,
                    quorum_size=quorum,
                )
            )
    return QuerySet.build(queries)


def measure_markov() -> dict:
    queries = build_markov_queries()

    def legacy_loop():
        values = []
        for query in queries:
            model = ClusterMarkovModel(
                query.n,
                query.failure_rate_per_hour,
                query.repair_rate_per_hour,
                repair_slots=query.repair_slots,
            )
            values.append(model.steady_state_availability(query.resolved_quorum))
        return values

    def engine_run():
        answers = ReliabilityEngine().run(queries)
        return [answer.value.availability for answer in answers]

    legacy_seconds, legacy_values = _best(legacy_loop)
    engine_seconds, engine_values = _best(engine_run)
    assert engine_values == legacy_values, (
        "engine availability answers must be bit-identical to the builder loop"
    )

    engine = ReliabilityEngine(cache_size=4096)
    engine.run(queries)
    start = time.perf_counter()
    cached = engine.run(queries)
    cached_seconds = time.perf_counter() - start
    assert cached.cache_hits == len(queries)
    assert [answer.value.availability for answer in cached] == engine_values

    return {
        "queries": len(queries),
        "chains": len(CHAIN_RATES),
        "chain_states": CHAIN_N + 1,
        "legacy_seconds": legacy_seconds,
        "legacy_queries_per_sec": len(queries) / legacy_seconds,
        "engine_seconds": engine_seconds,
        "engine_queries_per_sec": len(queries) / engine_seconds,
        "speedup_vs_legacy_loop": legacy_seconds / engine_seconds,
        "cached_rerun_seconds": cached_seconds,
        "cached_rerun_queries_per_sec": len(queries) / cached_seconds,
        "bit_identical": True,
    }


def _campaign_query() -> SimulationQuery:
    return SimulationQuery(
        Scenario(
            spec=RaftSpec(3),
            fleet=uniform_fleet(3, 0.2),
            seed=SIM_SEED,
            label="campaign",
        ),
        replicas=SIM_REPLICAS,
        duration=SIM_DURATION,
        commands=SIM_COMMANDS,
    )


def _legacy_campaign() -> tuple[int, int]:
    """The pre-query idiom: a hand-rolled per-replica loop (one shared
    spawned-stream family, same as the backend, so counts line up)."""
    from repro.analysis.kernels import spawn_shard_generators
    from repro.injection import compile_faults
    from repro.sim import Cluster, audit_run
    from repro.sim.raft import raft_node_factory

    query = _campaign_query()
    scenario = query.scenario
    unsafe = stalled = 0
    for rng in spawn_shard_generators(scenario.seed, query.replicas):
        # The window outcome is drawn from the fleet, then the crash times.
        compiled = compile_faults(
            None,
            fleet=scenario.fleet,
            duration=query.duration,
            crash_window=query.crash_window,
            rng=rng,
        )
        config = compiled.config
        cluster = Cluster(scenario.fleet.n, raft_node_factory(), seed=rng)
        compiled.apply(cluster)
        cluster.start()
        commands = [f"cmd-{i}" for i in range(query.commands)]
        at = 1.0
        for command in commands:
            cluster.submit(command, at=at)
            at += 0.1
        cluster.run_until(query.duration)
        correct = sorted(set(range(scenario.fleet.n)) - set(config.failed_indices))
        verdict = audit_run(cluster.trace, commands, correct_nodes=correct)
        unsafe += not verdict.safe
        stalled += not verdict.live
    return unsafe, stalled


def measure_simulation() -> dict:
    legacy_seconds, legacy_counts = _best(_legacy_campaign, repeats=1)

    def engine_serial():
        answer = ReliabilityEngine(cache_size=0).run_query(_campaign_query())
        return answer.value

    def engine_threads():
        answer = ReliabilityEngine(cache_size=0).run_query(
            _campaign_query(), policy=ExecutionPolicy(mode="thread", jobs=4)
        )
        return answer.value

    serial_seconds, serial_value = _best(engine_serial, repeats=1)
    thread_seconds, thread_value = _best(engine_threads, repeats=1)

    serial_counts = (serial_value.safety_violations, serial_value.liveness_violations)
    thread_counts = (thread_value.safety_violations, thread_value.liveness_violations)
    assert serial_counts == thread_counts == legacy_counts, (
        "campaign verdict counts must not depend on the execution path"
    )

    return {
        "replicas": SIM_REPLICAS,
        "duration": SIM_DURATION,
        "cpu_count": os.cpu_count(),
        "legacy_seconds": legacy_seconds,
        "legacy_replicas_per_sec": SIM_REPLICAS / legacy_seconds,
        "engine_serial_seconds": serial_seconds,
        "engine_serial_replicas_per_sec": SIM_REPLICAS / serial_seconds,
        "engine_thread_jobs4_seconds": thread_seconds,
        "engine_thread_jobs4_replicas_per_sec": SIM_REPLICAS / thread_seconds,
        "thread_speedup_vs_serial": serial_seconds / thread_seconds,
        "counts_identical_across_paths": True,
        "safety_violations": legacy_counts[0],
        "liveness_violations": legacy_counts[1],
    }


def _merge_json(section: str, payload: dict) -> None:
    data = {}
    if JSON_PATH.exists():
        data = json.loads(JSON_PATH.read_text())
    data[section] = payload
    JSON_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.mark.bench
def test_markov_query_batching():
    result = measure_markov()
    _merge_json("markov_availability", result)
    print_table(
        f"Q1a: {result['queries']} availability queries over "
        f"{result['chains']} chains ({result['chain_states']} states each)",
        ["path", "queries/sec"],
        [
            ["builder per-call loop", f"{result['legacy_queries_per_sec']:,.0f}"],
            ["engine batched run", f"{result['engine_queries_per_sec']:,.0f}"],
            ["engine cached rerun", f"{result['cached_rerun_queries_per_sec']:,.0f}"],
            ["speedup vs loop", f"{result['speedup_vs_legacy_loop']:.1f}x"],
        ],
    )
    assert result["speedup_vs_legacy_loop"] >= 2.0, (
        f"batched Markov solves only {result['speedup_vs_legacy_loop']:.1f}x "
        "over the per-call loop"
    )


@pytest.mark.bench
def test_simulation_campaign_sharding():
    result = measure_simulation()
    _merge_json("simulation_campaign", result)
    print_table(
        f"Q1b: {result['replicas']}-replica seeded campaign (raft n=3)",
        ["path", "replicas/sec"],
        [
            ["hand-rolled loop", f"{result['legacy_replicas_per_sec']:,.1f}"],
            ["engine serial", f"{result['engine_serial_replicas_per_sec']:,.1f}"],
            ["engine thread jobs=4", f"{result['engine_thread_jobs4_replicas_per_sec']:,.1f}"],
            ["thread speedup", f"{result['thread_speedup_vs_serial']:.2f}x"],
        ],
    )
    # Single-core CI cannot show wall-clock scaling; the determinism
    # contract (identical counts on every path) is asserted inside.


def main() -> None:
    _merge_json("markov_availability", measure_markov())
    _merge_json("simulation_campaign", measure_simulation())
    print(json.dumps(json.loads(JSON_PATH.read_text()), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
