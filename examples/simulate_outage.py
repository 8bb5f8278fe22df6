#!/usr/bin/env python3
"""Scenario: replay a correlated-failure outage against real protocol code.

The paper's §2 warns that faults cluster (rollouts, rack incidents) and
that the f-threshold model hides the resulting risk.  This example builds
the same deployment twice and compares:

* the analytical view — independent vs correlated failure models, each
  a Scenario answered by ``run_query(...).value``;
* the campaign view — a SimulationQuery through the same front door: many
  seeded executions of the deployment, audited for agreement/progress,
  reported as violation rates with Wilson bounds;
* the executable view — a discrete-event Raft cluster suffering the
  correlated crash pattern mid-run, audited for agreement and progress;
* the detection view — a φ-accrual failure detector watching the victims'
  heartbeats.

Run:  python examples/simulate_outage.py
"""

from repro.analysis import format_probability
from repro.engine import Scenario, SimulationQuery, default_engine
from repro.faults.correlation import CommonShockModel, ShockGroup
from repro.faults.mixture import uniform_fleet
from repro.injection import CorrelatedBurst, FaultPlan, PartitionEvent
from repro.planner.detector import PhiAccrualDetector
from repro.protocols.raft import RaftSpec
from repro.sim import Cluster, audit_run
from repro.sim.raft import raft_node_factory

N = 5
P_FAIL = 0.05
RACK_SHOCK = ShockGroup(members=(0, 1, 2), probability=0.03, name="rack-0 PDU")


def analytical_comparison() -> None:
    fleet = uniform_fleet(N, P_FAIL)
    spec = RaftSpec(N)
    engine = default_engine()
    independent = engine.run_query(Scenario(spec=spec, fleet=fleet)).value
    correlated = engine.run_query(
        Scenario(
            spec=spec,
            fleet=fleet,
            correlation=CommonShockModel(fleet, (RACK_SHOCK,)),
            trials=200_000,
            seed=7,
        )
    ).value
    print("analytical view (5-node Raft, 5% node failures):")
    print(f"  independent faults:   S&L {format_probability(independent.safe_and_live.value)}")
    print(f"  + rack-0 PDU shock:   S&L {format_probability(correlated.safe_and_live.value)}"
          f"  (95% CI [{correlated.safe_and_live.ci_low:.5f}, {correlated.safe_and_live.ci_high:.5f}])")
    print("  -> one 3%-likely correlated event dominates the risk budget\n")


def campaign_view() -> None:
    """Audited executions through the engine: the same front door that
    answers the analytical question also runs the protocol for real —
    now with the rack incident itself *embedded as a fault plan*: a
    correlated burst (the PDU shock, repaired after ~3s on average) plus
    a transient rack partition while the PDU flaps."""
    plan = FaultPlan(
        events=(
            CorrelatedBurst(
                members=RACK_SHOCK.members,
                at=2.0,
                probability=RACK_SHOCK.probability,
                mean_time_to_repair=3.0,
            ),
            # The PDU flap cuts the rack off across the client submit
            # window (t=1.0-1.2), so any stall it causes is attributed to
            # the partition era.
            PartitionEvent(groups=((0, 1, 2), (3, 4)), at=0.9, heal_at=2.2),
        ),
    )
    answer = default_engine().run_query(
        SimulationQuery(
            Scenario(
                spec=RaftSpec(N),
                fleet=uniform_fleet(N, P_FAIL),
                seed=2025,
                label="raft-5 campaign",
            ),
            replicas=12,
            duration=8.0,
            commands=3,
            faults=plan,
        )
    )
    value = answer.value
    lv = value.liveness_violation_rate
    print("campaign view: 12 seeded executions via SimulationQuery + fault plan")
    print(f"  agreement violations: {value.safety_violations}/{value.replicas}")
    print(f"  stalled runs:         {value.liveness_violations}/{value.replicas}"
          f"  (rate {lv.value:.3f}, 95% CI [{lv.ci_low:.3f}, {lv.ci_high:.3f}])")
    print(f"  partition-era stalls: {value.partition_era_liveness_violations} "
          f"(commands submitted while the rack was partitioned off)")
    print(f"  predicate mismatches: {value.predicate_mismatches} "
          f"(run verdicts vs the paper's Thm 3.2 classification; repaired"
          f" bursts outrun the terminal-window model)")
    print(f"  provenance:           {answer.provenance.describe()}\n")


def executable_replay() -> None:
    print("executable replay: rack-0 loses nodes 0,1,2 at t=2.0s")
    cluster = Cluster(N, raft_node_factory(), seed=42)
    for node in RACK_SHOCK.members:
        cluster.crash_at(node, 2.0)
    # Repair crew brings the rack back 6 seconds later.
    for node in RACK_SHOCK.members:
        cluster.recover_at(node, 8.0)
    cluster.start()
    commands = [f"order-{i}" for i in range(12)]
    at = 0.5
    for command in commands:
        cluster.submit(command, at=at)
        at += 0.5
    cluster.run_until(20.0)

    verdict = audit_run(cluster.trace, commands, correct_nodes=range(N))
    print(f"  agreement held:  {verdict.safe}")
    print(f"  all committed:   {verdict.live} (after the rack recovered)")
    elections = cluster.trace.events_of_kind("election")
    print(f"  elections fought during the outage: {len(elections)}")
    stalled = [
        c.value for c in cluster.trace.commits if 2.0 <= c.time <= 8.0 and c.node_id == 3
    ]
    print(f"  commits reaching node 3 mid-outage: {len(stalled)} "
          f"(quorum was 2/5 — progress impossible)\n")


def detection_view() -> None:
    print("detection view: phi-accrual watching node 0's heartbeats")
    import numpy as np

    rng = np.random.default_rng(3)
    detector = PhiAccrualDetector(threshold=8.0)
    t = 0.0
    while t < 2.0:  # healthy heartbeats every ~30ms (network jitter) until the shock
        detector.heartbeat(t)
        t += float(rng.uniform(0.02, 0.04))
    for silence in (0.05, 0.1, 0.3, 1.0):
        level = detector.level(2.0 + silence)
        print(
            f"  {silence*1000:>5.0f} ms silent: phi={level.phi:>6.2f}  "
            f"suspected={level.suspected}  P(false alarm)={level.false_positive_probability:.2e}"
        )
    print(f"  time to suspicion at phi>=8: "
          f"{detector.time_to_suspicion()*1000:.0f} ms of silence")


def main() -> None:
    analytical_comparison()
    campaign_view()
    executable_replay()
    detection_view()


if __name__ == "__main__":
    main()
