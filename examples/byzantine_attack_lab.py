#!/usr/bin/env python3
"""Scenario: watch Theorem 3.1 happen — PBFT under Byzantine attack.

Drives the simulated PBFT cluster through escalating attacks *via the
engine's Query API*: each attack is a `SimulationQuery` whose embedded
`FaultPlan` declares the adversary (which nodes are Byzantine and which
misbehaviour class each runs).  The campaign answers show the exact
boundary the paper's safety conditions predict:

* 1 equivocating primary in n=4  -> agreement survives (|Byz| < 2|Q_eq|-N);
* 2 colluding Byzantine nodes    -> the correct replicas split;
* the same 2 attackers in n=7    -> bigger quorums absorb them.

Because fault plans are plain JSON, every attack below could equally live
in a query file for `repro-analyze query attacks.json`.

Run:  python examples/byzantine_attack_lab.py
"""

import json

from repro.analysis import format_probability
from repro.engine import Scenario, SimulationQuery, default_engine
from repro.faults.mixture import byzantine_fleet, uniform_fleet
from repro.injection import Adversary, FaultPlan
from repro.protocols.pbft import PBFTSpec


def attack(
    n: int, byzantine: tuple[int, ...], primary_behaviour: str, label: str
) -> None:
    spec = PBFTSpec(n)
    predicted_safe = spec.is_safe_counts(0, len(byzantine))
    plan = FaultPlan(
        adversary=Adversary(
            nodes=byzantine,
            behaviour="double-vote",
            primary_behaviour=primary_behaviour,
        ),
        sample_faults=False,  # the adversary is the whole fault model here
    )
    answer = default_engine().run_query(
        SimulationQuery(
            Scenario(spec=spec, fleet=uniform_fleet(n, 0.0), seed=99, label=label),
            replicas=1,
            duration=15.0,
            commands=1,
            faults=plan,
        )
    )
    simulated_safe = answer.value.safety_violations == 0

    print(f"{label}")
    print(f"  Theorem 3.1 prediction: safe={predicted_safe} "
          f"(|Byz|={len(byzantine)}, bound={2 * spec.q_eq - n})")
    print(f"  simulated run verdict:  safe={simulated_safe}  "
          f"[{answer.provenance.describe()}]")
    assert simulated_safe == predicted_safe, "simulator disagrees with the theorem!"
    print()


def main() -> None:
    print("== PBFT attack lab: where exactly does safety break? ==\n")
    attack(
        4,
        (0,),
        "equivocate",
        "attack 1: equivocating primary, n=4, f=1",
    )
    attack(
        4,
        (0, 2),
        "equivocate+double-vote",
        "attack 2: equivocating primary + double-voting accomplice, n=4",
    )
    attack(
        7,
        (0, 2),
        "equivocate+double-vote",
        "attack 3: the same two attackers against n=7",
    )

    print("the attack as a declarative, file-ready fault plan:")
    plan = FaultPlan(
        adversary=Adversary(nodes=(0, 2)), sample_faults=False
    )
    print(f"  {json.dumps(plan.to_dict())}\n")

    print("the probabilistic view of the same boundary (every failure Byzantine):")
    for n in (4, 7):
        for p in (0.01, 0.04):
            result = default_engine().run_query(
                Scenario(PBFTSpec(n), byzantine_fleet(n, p))
            ).value
            print(
                f"  n={n}, p={p:.0%}: P(enough Byzantine nodes to run attack 2) = "
                f"{1 - result.safe.value:.2e}  "
                f"(safe {format_probability(result.safe.value)})"
            )


if __name__ == "__main__":
    main()
