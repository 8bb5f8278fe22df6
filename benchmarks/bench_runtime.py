"""P6 — supervised campaign runtime: dispatch overhead and recovery latency.

Times the one shard dispatcher (:mod:`repro.runtime`) against an inline
loop over the same shards on a crash-free campaign — the supervised loop
adds deadline tracking, retry bookkeeping and result journal hooks, and
the target is ≤5% overhead when nothing fails — and measures how quickly
a supervised process pool recovers from injected worker kills (chaos
``kill`` faults, the ``BrokenProcessPool`` requeue path).

Bit-identity is asserted throughout: the supervised tally must equal the
inline loop's, and kill-recovered campaign results must equal the clean run.

Emits ``BENCH_runtime.json`` at the repo root, recording ``cpu_count``
and ``cpu_limited`` (recovery latency on a single-core container includes
serialized re-execution, so absolute numbers are only comparable on
similar hosts).

Run as pytest (``pytest benchmarks/bench_runtime.py -s``) or directly
(``python benchmarks/bench_runtime.py``); both write the JSON.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from repro.analysis.kernels import (
    merge_tallies,
    monte_carlo_tally,
    monte_carlo_tally_sharded,
    plan_shards,
    spawn_shard_generators,
)
from repro.engine import ChaosPlan, ShardFault, Supervision
from repro.faults.mixture import uniform_fleet
from repro.protocols.raft import RaftSpec

from conftest import print_table

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_runtime.json"

N = 25
P_FAIL = 0.05
TRIALS = 400_000
SHARD_TRIALS = 25_000  # 16 shards
SEED = 20250808
REPEATS = 5
OVERHEAD_TARGET = 0.05

SPEC = RaftSpec(N)
FLEET = uniform_fleet(N, P_FAIL)


def _best(fn, repeats: int = REPEATS):
    best_seconds, result = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds, result = elapsed, value
    return best_seconds, result


def _tally(mode: str, jobs: int, supervision: Supervision | None = None, chaos=None):
    tally, _ = monte_carlo_tally_sharded(
        SPEC,
        FLEET,
        TRIALS,
        SEED,
        jobs=jobs,
        shard_trials=SHARD_TRIALS,
        mode=mode,
        supervision=supervision,
        chaos=chaos,
    )
    return tally


def _inline_tally():
    """The same shards with no dispatcher at all: the overhead comparand."""
    plan = plan_shards(TRIALS, SHARD_TRIALS)
    rngs = spawn_shard_generators(SEED, plan.num_shards)
    return merge_tallies(
        [
            monte_carlo_tally(SPEC, FLEET, shard, rng)
            for shard, rng in zip(plan.shards, rngs)
        ]
    )


def measure_overhead() -> dict:
    """Supervised dispatch vs an inline loop, crash-free (the ≤5% gate)."""
    # Warm NumPy dispatch and the verdict-mask cache off the clock.
    _tally("serial", 1)

    bare_seconds, bare = _best(_inline_tally)
    supervised_seconds, supervised = _best(
        lambda: _tally("serial", 1, supervision=Supervision(retries=2, timeout=60.0))
    )
    assert supervised == bare, "supervised tally diverged from the inline loop"
    rows = [
        {
            "mode": "serial",
            "jobs": 1,
            "bare_seconds": bare_seconds,
            "supervised_seconds": supervised_seconds,
            "overhead_fraction": supervised_seconds / bare_seconds - 1.0,
        }
    ]
    return {
        "trials": TRIALS,
        "shard_trials": SHARD_TRIALS,
        "shards": TRIALS // SHARD_TRIALS,
        "seed": SEED,
        "target_overhead_fraction": OVERHEAD_TARGET,
        "paths": rows,
        "max_overhead_fraction": max(row["overhead_fraction"] for row in rows),
        "supervised_bit_identical_to_bare": True,
    }


def measure_recovery() -> dict:
    """Wall-clock cost of surviving injected worker kills (process pool)."""
    clean_seconds, clean = _best(
        lambda: _tally("process", 2, supervision=Supervision(retries=2)),
        repeats=3,
    )

    def killed_run():
        with tempfile.TemporaryDirectory() as state:
            chaos = ChaosPlan(
                faults=((0, ShardFault("kill", times=1)),), state_dir=state
            )
            return _tally(
                "process", 2, supervision=Supervision(retries=2), chaos=chaos
            )

    killed_seconds, killed = _best(killed_run, repeats=3)
    assert killed == clean, "kill-recovered tally diverged from the clean tally"
    return {
        "pool": "process",
        "jobs": 2,
        "kills_injected": 1,
        "clean_seconds": clean_seconds,
        "recovered_seconds": killed_seconds,
        "recovery_latency_seconds": max(0.0, killed_seconds - clean_seconds),
        "recovered_bit_identical": True,
    }


def measure_all() -> dict:
    cpu_count = os.cpu_count() or 1
    payload = {
        "cpu_count": cpu_count,
        "cpu_limited": cpu_count < 4,
        "overhead": measure_overhead(),
        "recovery": measure_recovery(),
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _print_report(payload: dict) -> None:
    overhead = payload["overhead"]
    print_table(
        f"P6: supervised runtime overhead, Raft n={N}, "
        f"{overhead['trials']:,} trials in {overhead['shards']} shards "
        f"({payload['cpu_count']} CPUs visible)",
        ["mode", "jobs", "inline loop s", "supervised s", "overhead"],
        [
            [
                row["mode"],
                str(row["jobs"]),
                f"{row['bare_seconds']:.3f}",
                f"{row['supervised_seconds']:.3f}",
                f"{row['overhead_fraction']:+.1%}",
            ]
            for row in overhead["paths"]
        ],
    )
    recovery = payload["recovery"]
    print_table(
        "P6: worker-kill recovery (process pool, 1 injected kill)",
        ["clean s", "recovered s", "recovery latency s"],
        [
            [
                f"{recovery['clean_seconds']:.3f}",
                f"{recovery['recovered_seconds']:.3f}",
                f"{recovery['recovery_latency_seconds']:.3f}",
            ]
        ],
    )


@pytest.mark.bench
def test_runtime_overhead_and_recovery():
    payload = measure_all()
    _print_report(payload)
    overhead = payload["overhead"]
    assert overhead["supervised_bit_identical_to_bare"]
    assert payload["recovery"]["recovered_bit_identical"]
    assert overhead["max_overhead_fraction"] <= OVERHEAD_TARGET, (
        f"supervised dispatch overhead {overhead['max_overhead_fraction']:.1%} "
        f"exceeds the {OVERHEAD_TARGET:.0%} target"
    )


def main() -> None:
    payload = measure_all()
    _print_report(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
