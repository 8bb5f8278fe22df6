"""E1 — engine throughput: one batched front door vs per-scenario loops.

Times a 500-scenario grid — mixed RaftSpec/PBFTSpec (plus the rest of the
symmetric protocol zoo) over shared cluster sizes, every protocol asked
about the *same* mixed-fault deployment per grid cell — through
:meth:`ReliabilityEngine.run` against two per-scenario alternatives:

* a one-row ``default_engine().run_query`` loop (what a consumer writes
  who asks one question at a time; the ``analyze_loop_*`` JSON keys),
* the raw scalar ``counting_reliability`` loop (the pre-engine dispatch).

The engine plans one joint-count DP per *fleet* (shared across all
protocols of that size) and reduces each spec's verdict masks against it,
so both loops recompute work the engine shares.  Results are asserted
bit-identical.  A second submission of the same grid measures the memo
cache.  Emits ``BENCH_engine.json`` at the repo root.

Run as pytest (``pytest benchmarks/bench_engine.py -s``) or directly
(``python benchmarks/bench_engine.py``); both write the JSON.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.analysis.counting import counting_reliability
from repro.engine import ReliabilityEngine, ScenarioSet, default_engine

from conftest import print_table

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_engine.json"

PROTOCOLS = ("raft", "pbft", "benor", "byz-benor")
SIZES = (11, 13, 15, 17)
PROBABILITIES = tuple(round(0.002 + 0.004 * i, 6) for i in range(25))
REPEATS = 3


def build_grid() -> ScenarioSet:
    """500 scenarios: 5 protocols × 4 shared sizes × 25 probabilities.

    ``byzantine_fraction`` makes every protocol share one mixed-fault
    fleet per (size, probability) cell — the "same deployment, every
    protocol" question the engine batches into one DP per fleet.
    """
    grid = ScenarioSet.grid(
        protocols=PROTOCOLS + ("flexraft5",),
        sizes=SIZES,
        probabilities=PROBABILITIES,
        byzantine_fraction=0.25,
    )
    assert len(grid) == 500
    return grid


def _register_flexraft5() -> None:
    """A flexible-quorum Raft variant for the grid (n -> q_per=maj+1)."""
    from repro.engine import register_spec_codec
    from repro.protocols.raft import FlexibleRaftSpec, majority

    register_spec_codec(
        "flexraft5",
        FlexibleRaftSpec,
        lambda n: FlexibleRaftSpec(n, min(n, majority(n) + 1), majority(n)),
        lambda spec: {"n": spec.n},
    )


def _warm(grid: ScenarioSet) -> None:
    """Verdict masks and NumPy dispatch paths, off the clock for all paths."""
    seen: set[int] = set()
    for scenario in grid:
        if id(scenario.spec) not in seen:
            seen.add(id(scenario.spec))
            scenario.spec.verdict_masks()
    ReliabilityEngine().run(ScenarioSet(grid.scenarios[:5]))


def _best(fn, repeats: int = REPEATS):
    best_seconds, result = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds, result = elapsed, value
    return best_seconds, result


def measure_grid() -> dict:
    _register_flexraft5()
    grid = build_grid()
    _warm(grid)

    def analyze_loop():
        default_engine().cache_clear()
        return [default_engine().run_query(s).value for s in grid]

    def scalar_loop():
        return [counting_reliability(s.spec, s.fleet) for s in grid]

    def engine_run():
        return ReliabilityEngine().run(grid).values

    analyze_seconds, analyze_results = _best(analyze_loop)
    scalar_seconds, scalar_results = _best(scalar_loop)
    engine_seconds, engine_results = _best(engine_run)

    assert engine_results == analyze_results == scalar_results, (
        "engine results must be bit-identical to the per-scenario loops"
    )

    # Memo cache: resubmitting the identical grid is answered from cache.
    engine = ReliabilityEngine()
    engine.run(grid)
    start = time.perf_counter()
    cached = engine.run(grid)
    cached_seconds = time.perf_counter() - start
    assert cached.values == engine_results
    assert cached.cache_hits == len(grid)

    return {
        "scenarios": len(grid),
        "protocols": list(PROTOCOLS) + ["flexraft5"],
        "sizes": list(SIZES),
        "probabilities": len(PROBABILITIES),
        "shared_fleets": True,
        "analyze_loop_seconds": analyze_seconds,
        "analyze_loop_scenarios_per_sec": len(grid) / analyze_seconds,
        "scalar_loop_seconds": scalar_seconds,
        "scalar_loop_scenarios_per_sec": len(grid) / scalar_seconds,
        "engine_seconds": engine_seconds,
        "engine_scenarios_per_sec": len(grid) / engine_seconds,
        "speedup_vs_analyze_loop": analyze_seconds / engine_seconds,
        "speedup_vs_scalar_loop": scalar_seconds / engine_seconds,
        "cached_rerun_seconds": cached_seconds,
        "cached_rerun_scenarios_per_sec": len(grid) / cached_seconds,
        "bit_identical": True,
    }


def _merge_json(section: str, payload: dict) -> None:
    data = {}
    if JSON_PATH.exists():
        data = json.loads(JSON_PATH.read_text())
    data[section] = payload
    JSON_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.mark.bench
def test_engine_grid_speedup():
    result = measure_grid()
    _merge_json("scenario_grid", result)
    print_table(
        f"E1: {result['scenarios']}-scenario grid, protocol zoo, sizes {SIZES}",
        ["path", "scenarios/sec"],
        [
            ["one-row run_query loop", f"{result['analyze_loop_scenarios_per_sec']:,.0f}"],
            ["scalar counting loop", f"{result['scalar_loop_scenarios_per_sec']:,.0f}"],
            ["engine batched run", f"{result['engine_scenarios_per_sec']:,.0f}"],
            ["engine cached rerun", f"{result['cached_rerun_scenarios_per_sec']:,.0f}"],
            ["speedup vs run_query loop", f"{result['speedup_vs_analyze_loop']:.1f}x"],
            ["speedup vs scalar", f"{result['speedup_vs_scalar_loop']:.1f}x"],
        ],
    )
    assert result["speedup_vs_analyze_loop"] >= 5.0, (
        f"engine only {result['speedup_vs_analyze_loop']:.1f}x over the run_query loop"
    )


def main() -> None:
    result = measure_grid()
    _merge_json("scenario_grid", result)
    print(json.dumps(json.loads(JSON_PATH.read_text()), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
