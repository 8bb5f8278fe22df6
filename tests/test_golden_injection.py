"""Golden snapshots for simulation-campaign answers.

Two pins, in the style of ``test_golden_timedomain.py``:

* **crash-only continuity** — the ``crash_only`` cells were generated by
  the PR 4 simulation backend (pre-fault-plan).  The fault-plan subsystem
  compiles the default crash-only plan through the *same* per-replica
  stream draws, so these campaigns must keep reproducing the frozen
  verdict counts bit-for-bit: equality on integers, ``TOLERANCE`` on the
  Wilson rates.
* **fault-plan stability** — the ``fault_plan`` cells freeze campaigns
  with adversaries, partitions and recoveries; future refactors must
  reproduce them.

Regenerate deliberately (after an *intentional* numeric change) with::

    PYTHONPATH=src python tests/test_golden_injection.py --regenerate
"""

from __future__ import annotations

import json
import math
import pathlib

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN_PATH = DATA_DIR / "golden_injection.json"

#: Snapshot comparisons allow tiny cross-platform FP variance, nothing more.
TOLERANCE = 1e-12


def _crash_only_queries():
    from repro.engine import Scenario, SimulationQuery
    from repro.faults.mixture import uniform_fleet
    from repro.protocols.pbft import PBFTSpec
    from repro.protocols.raft import RaftSpec

    cells = [
        ("raft/n=3/p=0.25", RaftSpec(3), uniform_fleet(3, 0.25), 16),
        ("raft/n=5/p=0.1", RaftSpec(5), uniform_fleet(5, 0.1), 12),
        ("pbft/n=4/p=0.2", PBFTSpec(4), uniform_fleet(4, 0.2), 10),
    ]
    for label, spec, fleet, replicas in cells:
        yield label, SimulationQuery(
            Scenario(spec=spec, fleet=fleet, seed=42, label=label),
            replicas=replicas,
            duration=8.0,
            commands=2,
        )


def _fault_plan_queries():
    from repro.engine import Scenario, SimulationQuery
    from repro.faults.mixture import uniform_fleet
    from repro.injection import Adversary, CrashStop, FaultPlan, PartitionEvent
    from repro.protocols.pbft import PBFTSpec
    from repro.protocols.raft import RaftSpec

    yield "pbft/n=4/adversary", SimulationQuery(
        Scenario(spec=PBFTSpec(4), fleet=uniform_fleet(4, 0.0), seed=7,
                 label="pbft/n=4/adversary"),
        replicas=6,
        duration=8.0,
        commands=2,
        faults=FaultPlan(adversary=Adversary(nodes=(0, 2))),
    )
    # The Byzantine role rule: ``Adversary.behaviour_for`` keys on node id.
    # Node 0 — honest, and the primary of view 0 — crashes before the first
    # command; views 1 and 2 are led by Byzantine nodes running the
    # *accomplice* behaviour (double-vote, no equivocation), so the honest
    # node 3 still executes both commands: safe and live where the §3
    # predicate (3 of 4 faulty) says neither.  The cell's tallies fix the
    # verdict list — six times "..M." in ``test_sim_event_counts``'s
    # letters — and were recorded before the docstring that states the
    # rule was written.
    yield "pbft/n=4/adversary=(1,2)/primary-crash", SimulationQuery(
        Scenario(spec=PBFTSpec(4), fleet=uniform_fleet(4, 0.0), seed=7,
                 label="pbft/n=4/adversary=(1,2)/primary-crash"),
        replicas=6,
        duration=8.0,
        commands=2,
        faults=FaultPlan(
            events=(CrashStop(node=0, at=0.5),),
            adversary=Adversary(nodes=(1, 2)),
        ),
    )
    yield "raft/n=5/partition+repair", SimulationQuery(
        Scenario(spec=RaftSpec(5), fleet=uniform_fleet(5, 0.1), seed=11,
                 label="raft/n=5/partition+repair"),
        replicas=8,
        duration=10.0,
        commands=3,
        faults=FaultPlan(
            events=(
                PartitionEvent(groups=((0, 1), (2, 3, 4)), at=2.0, heal_at=4.0),
                CrashStop(node=4, at=5.0, recover_at=7.0),
            ),
            mean_time_to_repair=3.0,
        ),
    )
    yield "raft/n=3/unhealed-partition", SimulationQuery(
        Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.0), seed=5,
                 label="raft/n=3/unhealed-partition"),
        replicas=4,
        duration=6.0,
        commands=2,
        faults=FaultPlan(
            events=(PartitionEvent(groups=((0,), (1,), (2,)), at=0.5),),
        ),
    )


def _answer_cell(query) -> dict:
    from repro.engine import ReliabilityEngine

    value = ReliabilityEngine(cache_size=0).run_query(query).value
    cell = {
        "replicas": value.replicas,
        "safety_violations": value.safety_violations,
        "liveness_violations": value.liveness_violations,
        "predicate_mismatches": value.predicate_mismatches,
        "safety_violation_rate": value.safety_violation_rate.value,
        "liveness_violation_rate": value.liveness_violation_rate.value,
    }
    partition_era = getattr(value, "partition_era_liveness_violations", 0)
    cell["partition_era_liveness_violations"] = partition_era
    return cell


def compute_golden(*, include_fault_plans: bool = True) -> dict:
    golden: dict = {"crash_only": {}, "fault_plan": {}}
    for label, query in _crash_only_queries():
        golden["crash_only"][label] = _answer_cell(query)
    if include_fault_plans:
        for label, query in _fault_plan_queries():
            golden["fault_plan"][label] = _answer_cell(query)
    return golden


def _assert_cells_match(frozen: dict, current: dict) -> None:
    assert set(frozen) == set(current)
    for label, cell in current.items():
        for field, value in cell.items():
            expected = frozen[label].get(field, 0 if "violations" in field else None)
            if isinstance(value, float):
                assert math.isclose(
                    value, expected, rel_tol=TOLERANCE, abs_tol=TOLERANCE
                ), (label, field, value, expected)
            else:
                assert value == expected, (label, field, value, expected)


class TestGoldenInjection:
    def test_crash_only_plans_reproduce_pr4_campaigns(self):
        """Default (plan-free) campaigns still match the pre-plan backend."""
        assert GOLDEN_PATH.exists(), (
            "golden injection snapshot missing; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_injection.py --regenerate`"
        )
        frozen = json.loads(GOLDEN_PATH.read_text())
        current = compute_golden(include_fault_plans=False)
        _assert_cells_match(frozen["crash_only"], current["crash_only"])

    def test_fault_plan_campaigns_stable(self):
        frozen = json.loads(GOLDEN_PATH.read_text())
        if not frozen.get("fault_plan"):
            import pytest

            pytest.skip("fault-plan cells not frozen yet")
        current = compute_golden()
        _assert_cells_match(frozen["fault_plan"], current["fault_plan"])


def main() -> None:
    import sys

    if "--regenerate" not in sys.argv:
        raise SystemExit("pass --regenerate to overwrite the golden snapshot")
    include_plans = "--crash-only" not in sys.argv
    golden = compute_golden(include_fault_plans=include_plans)
    if not include_plans and GOLDEN_PATH.exists():
        golden["fault_plan"] = json.loads(GOLDEN_PATH.read_text()).get("fault_plan", {})
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
