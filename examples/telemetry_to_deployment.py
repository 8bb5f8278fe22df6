#!/usr/bin/env python3
"""Scenario: from fleet telemetry to a deployment decision (paper §2/§4).

The full pipeline the paper envisions:

1. ingest a fleet's failure log (here: the synthetic substrate standing in
   for Backblaze-style drive stats);
2. fit per-model fault curves by maximum likelihood;
3. project the curves onto the next maintenance window to build a fleet
   description;
4. analyze candidate deployments, pick reliable nodes to pin, and rank
   leader candidates;
5. schedule preemptive reconfiguration as the hardware ages.

Run:  python examples/telemetry_to_deployment.py
"""

from repro.analysis import format_probability, predicate_probability
from repro.engine import Scenario, default_engine
from repro.faults.mixture import NodeModel
from repro.planner.leader import rank_leaders
from repro.planner.reconfig import PreemptiveReconfigPolicy
from repro.protocols.raft import RaftSpec
from repro.protocols.reliability_aware import (
    ObliviousDurabilityRaftSpec,
    ReliabilityAwareRaftSpec,
)
from repro.telemetry import (
    fit_model_curves,
    fleet_from_telemetry,
    generate_fleet_telemetry,
)

WINDOW_HOURS = 720.0  # 30-day maintenance window
DEPLOYMENT_AGE_HOURS = 8766.0  # 1-year-old hardware


def main() -> None:
    # -- 1+2. telemetry -> fitted fault curves ---------------------------------
    print("generating 2 years of synthetic fleet telemetry...")
    telemetry = generate_fleet_telemetry(machines_per_model=250, seed=2024)
    fits = fit_model_curves(telemetry)
    print(f"{len(telemetry.records)} machines, {len(telemetry.shocks)} rollout shocks\n")
    print("fitted fault curves (per hardware model):")
    for name, fit in sorted(fits.items()):
        p_window = fit.curve.failure_probability(
            DEPLOYMENT_AGE_HOURS, DEPLOYMENT_AGE_HOURS + WINDOW_HOURS
        )
        print(
            f"  {name:<8} best fit: {fit.fit.model_name:<9} "
            f"observed AFR {fit.observed_afr:>6.1%}   window p_fail {p_window:.4f}"
        )

    # -- 3. compose a mixed deployment ------------------------------------------
    composition = [("ECO-R2", 4), ("HMS-D14", 3)]
    fleet = fleet_from_telemetry(
        telemetry,
        composition,
        window_hours=WINDOW_HOURS,
        deployment_age_hours=DEPLOYMENT_AGE_HOURS,
    )
    print(f"\ndeployment: {composition} -> p_fails "
          f"{[round(node.p_fail, 4) for node in fleet]}")

    # -- 4. analyze it ------------------------------------------------------------
    result = default_engine().run_query(Scenario(RaftSpec(7), fleet)).value
    print(f"oblivious Raft safe&live: {format_probability(result.safe_and_live.value)}")

    reliable_indices = [i for i, node in enumerate(fleet) if node.label == "HMS-D14"]
    pinned = ReliabilityAwareRaftSpec(7, pinned=reliable_indices, require_pinned=1)
    d_oblivious = predicate_probability(fleet, ObliviousDurabilityRaftSpec(7).is_durable)
    d_pinned = predicate_probability(fleet, pinned.is_durable)
    print(f"durability, oblivious quorums: {format_probability(d_oblivious)}")
    print(f"durability, pinned quorums:    {format_probability(d_pinned)}")

    ranking = rank_leaders(fleet)
    print(f"leader ranking (best first): {list(ranking.order)} "
          f"(survival {ranking.survival[0]:.4f} vs worst {ranking.survival[-1]:.4f})")

    # -- 5. preemptive reconfiguration over the hardware's life -------------------
    print("\npreemptive reconfiguration (target 4 nines, ECO-R2 fleet aging):")
    curves = [fits["ECO-R2"].curve] * 5
    policy = PreemptiveReconfigPolicy(RaftSpec, 4.0, spare=NodeModel(0.002))
    decisions = policy.simulate_schedule(
        curves, total_hours=30_000.0, window_hours=3_000.0
    )
    for decision in decisions:
        action = (
            f"replaced nodes {[r.node_index for r in decision.replacements]}"
            if decision.acted
            else "no action"
        )
        print(
            f"  t={decision.window_start_hours:>7.0f}h  "
            f"S&L {decision.reliability_before:.6f} -> {decision.reliability_after:.6f}  {action}"
        )


if __name__ == "__main__":
    main()
