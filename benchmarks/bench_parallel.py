"""P1 — multi-core sharded Monte-Carlo: worker scaling and determinism.

Times the spawned-stream sharded Monte-Carlo path with ``jobs=`` set
against the same shards run in the calling thread (``jobs`` unset) on a
small benchmark grid (Raft n=25 at three failure probabilities), from 1
to ``MAX_JOBS`` workers over both thread and process pools, plus the
engine-level :class:`ExecutionPolicy` path on a mixed Monte-Carlo scenario
set.  Beyond throughput it pins the determinism contract: results are
asserted identical with ``jobs`` unset and across every worker count and
executor mode (the shard plan depends only on the trial budget).

Emits ``BENCH_parallel.json`` at the repo root, recording ``cpu_count``:
the ≥2x scaling expectation only applies on multi-core hosts, and the
JSON says so explicitly (``cpu_limited``) when the container has fewer
than 4 CPUs and physics rules the speedup out.

Run as pytest (``pytest benchmarks/bench_parallel.py -s``) or directly
(``python benchmarks/bench_parallel.py``); both write the JSON.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis.montecarlo import monte_carlo_reliability
from repro.engine import ExecutionPolicy, ReliabilityEngine, Scenario, ScenarioSet
from repro.faults.mixture import uniform_fleet
from repro.protocols.raft import RaftSpec

from conftest import print_table

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_parallel.json"

N = 25
PROBABILITIES = (0.02, 0.05, 0.08)
TRIALS = 300_000
SEED = 20250730
MAX_JOBS = 4
REPEATS = 3


def _best(fn, repeats: int = REPEATS):
    best_seconds, result = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds, result = elapsed, value
    return best_seconds, result


def _grid_cells():
    spec = RaftSpec(N)
    return [(spec, uniform_fleet(N, p)) for p in PROBABILITIES]


def measure_monte_carlo() -> dict:
    cells = _grid_cells()
    total_trials = TRIALS * len(cells)

    def run_unset():
        return [
            monte_carlo_reliability(spec, fleet, trials=TRIALS, seed=SEED)
            for spec, fleet in cells
        ]

    def run_jobs(jobs: int, pool: str):
        return [
            monte_carlo_reliability(
                spec, fleet, trials=TRIALS, seed=SEED, jobs=jobs, pool=pool
            )
            for spec, fleet in cells
        ]

    # Warm NumPy dispatch + verdict masks off the clock.
    monte_carlo_reliability(cells[0][0], cells[0][1], trials=1000, seed=0)

    serial_seconds, serial_results = _best(run_unset)

    scaling = []
    for pool in ("thread", "process"):
        for jobs in range(1, MAX_JOBS + 1):
            seconds, results = _best(lambda j=jobs, p=pool: run_jobs(j, p))
            assert results == serial_results, (
                f"results changed from jobs unset at jobs={jobs} pool={pool}"
            )
            scaling.append(
                {
                    "jobs": jobs,
                    "pool": pool,
                    "seconds": seconds,
                    "trials_per_sec": total_trials / seconds,
                    "speedup_vs_serial": serial_seconds / seconds,
                }
            )

    best_jobs4 = max(
        (row for row in scaling if row["jobs"] == MAX_JOBS),
        key=lambda row: row["trials_per_sec"],
    )
    return {
        "n": N,
        "probabilities": list(PROBABILITIES),
        "trials_per_cell": TRIALS,
        "cells": len(cells),
        "seed": SEED,
        "serial_trials_per_sec": total_trials / serial_seconds,
        "serial_seconds": serial_seconds,
        "scaling": scaling,
        "speedup_jobs4_vs_serial": best_jobs4["speedup_vs_serial"],
        "best_jobs4_pool": best_jobs4["pool"],
        "deterministic_across_jobs_and_pools": True,
    }


def measure_engine() -> dict:
    scenarios = ScenarioSet.build(
        Scenario(
            spec=RaftSpec(N),
            fleet=uniform_fleet(N, p),
            method="monte-carlo",
            trials=100_000,
            seed=seed,
            label=f"p={p:g}/seed={seed}",
        )
        for p in PROBABILITIES
        for seed in (1, 2, 3, 4)
    )

    def run_with(policy: ExecutionPolicy | None):
        engine = ReliabilityEngine(cache_size=0)
        if policy is None:
            return engine.run(scenarios).values
        return engine.run(scenarios, policy=policy).values

    serial_seconds, serial_results = _best(lambda: run_with(None))
    thread1 = run_with(ExecutionPolicy(mode="thread", jobs=1))
    thread4_seconds, thread4 = _best(
        lambda: run_with(ExecutionPolicy(mode="thread", jobs=MAX_JOBS))
    )
    process4_seconds, process4 = _best(
        lambda: run_with(ExecutionPolicy(mode="process", jobs=MAX_JOBS))
    )
    assert serial_results == thread1 == thread4 == process4, (
        "AnswerSet values must not depend on worker count or pool mode"
    )
    return {
        "scenarios": len(scenarios),
        "serial_seconds": serial_seconds,
        "serial_scenarios_per_sec": len(scenarios) / serial_seconds,
        "thread_jobs4_seconds": thread4_seconds,
        "thread_jobs4_scenarios_per_sec": len(scenarios) / thread4_seconds,
        "process_jobs4_seconds": process4_seconds,
        "process_jobs4_scenarios_per_sec": len(scenarios) / process4_seconds,
        "policy_deterministic_across_jobs": True,
    }


def measure_all() -> dict:
    cpu_count = os.cpu_count() or 1
    payload = {
        "cpu_count": cpu_count,
        "cpu_limited": cpu_count < MAX_JOBS,
        "monte_carlo": measure_monte_carlo(),
        "engine": measure_engine(),
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _print_report(payload: dict) -> None:
    mc = payload["monte_carlo"]
    rows = [
        ["calling thread", "unset", "-", f"{mc['serial_trials_per_sec']:,.0f}", "1.00x"],
    ]
    for row in mc["scaling"]:
        rows.append(
            [
                "worker pool",
                str(row["jobs"]),
                row["pool"],
                f"{row['trials_per_sec']:,.0f}",
                f"{row['speedup_vs_serial']:.2f}x",
            ]
        )
    print_table(
        f"P1: sharded Monte-Carlo, Raft n={N}, {mc['cells']}x{mc['trials_per_cell']:,} "
        f"trials ({payload['cpu_count']} CPUs visible)",
        ["path", "jobs", "pool", "trials/sec", "speedup"],
        rows,
    )
    eng = payload["engine"]
    print_table(
        f"P1: engine ExecutionPolicy, {eng['scenarios']} Monte-Carlo scenarios",
        ["policy", "scenarios/sec"],
        [
            ["serial", f"{eng['serial_scenarios_per_sec']:.2f}"],
            [f"thread jobs={MAX_JOBS}", f"{eng['thread_jobs4_scenarios_per_sec']:.2f}"],
            [f"process jobs={MAX_JOBS}", f"{eng['process_jobs4_scenarios_per_sec']:.2f}"],
        ],
    )


@pytest.mark.bench
def test_parallel_scaling():
    payload = measure_all()
    _print_report(payload)
    mc = payload["monte_carlo"]
    assert mc["deterministic_across_jobs_and_pools"]
    assert payload["engine"]["policy_deterministic_across_jobs"]
    if payload["cpu_count"] >= MAX_JOBS:
        assert mc["speedup_jobs4_vs_serial"] >= 2.0, (
            f"jobs={MAX_JOBS} only {mc['speedup_jobs4_vs_serial']:.2f}x over serial "
            f"on {payload['cpu_count']} CPUs"
        )
    else:
        # A single-core container cannot exhibit parallel speedup; the JSON
        # records cpu_limited=true so downstream readers know why.
        assert payload["cpu_limited"]


def main() -> None:
    payload = measure_all()
    _print_report(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
