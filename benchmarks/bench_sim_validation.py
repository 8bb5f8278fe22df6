"""V1 — simulator validation: protocol runs obey the §3 predicates.

For each failure configuration class we execute full Raft / PBFT protocol
runs under seeded fault injection and check that the trace-level verdicts
(agreement, completion) match the analytical classification of Theorems
3.1 / 3.2.  This is the evidence that the probability numbers in Tables
1-2 describe the behaviour of real executions, not just of the predicates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.config import FailureConfig, FaultKind
from repro.faults.mixture import Fleet, NodeModel
from repro.injection import compile_faults
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import RaftSpec
from repro.sim import Cluster
from repro.sim.checker import audit_run
from repro.sim.pbft import (
    DoubleVoter,
    EquivocatingDoubleVoter,
    EquivocatingPrimary,
    mixed_pbft_factory,
    pbft_node_factory,
)
from repro.sim.raft import raft_node_factory

from conftest import print_table


def _apply_config(config: FailureConfig, cluster: Cluster, seed: int) -> None:
    """A fleet failing with probability 0 or 1 samples exactly ``config``."""
    crash, byzantine = FaultKind.CRASH, FaultKind.BYZANTINE
    fleet = Fleet(tuple(NodeModel(float(k is crash), float(k is byzantine)) for k in config.kinds))
    compile_faults(None, fleet=fleet, duration=12.0, crash_window=(0.0, 0.4),
                   rng=np.random.default_rng(seed)).apply(cluster)


def _run_raft(config: FailureConfig, seed: int) -> tuple[bool, bool]:
    cluster = Cluster(config.n, raft_node_factory(), seed=seed)
    _apply_config(config, cluster, seed)
    cluster.start()
    commands = [f"v{i}" for i in range(4)]
    at = 1.0
    for command in commands:
        cluster.submit(command, at=at)
        at += 0.1
    cluster.run_until(12.0)
    correct = sorted(set(range(config.n)) - set(config.failed_indices))
    verdict = audit_run(cluster.trace, commands, correct_nodes=correct)
    return verdict.safe, verdict.live


def test_raft_runs_match_theorem_32(benchmark):
    spec = RaftSpec(5)
    cases = [
        FailureConfig.from_failed_indices(5, failed)
        for failed in ([], [0], [1, 3], [0, 1, 2], [0, 1, 2, 3])
    ]

    def validate():
        outcomes = []
        for i, config in enumerate(cases):
            safe, live = _run_raft(config, seed=100 + i)
            outcomes.append((config, spec.is_live(config), safe, live))
        return outcomes

    outcomes = benchmark(validate)
    rows = [
        [config.describe(), str(predicted), str(safe), str(live)]
        for config, predicted, safe, live in outcomes
    ]
    print_table(
        "V1a: Raft n=5 — predicate liveness vs simulated run verdicts",
        ["config", "Thm3.2 live", "run safe", "run live"],
        rows,
    )
    for config, predicted_live, safe, live in outcomes:
        assert safe, f"agreement violated under {config.describe()}"
        assert live == predicted_live, config.describe()


def test_pbft_runs_match_theorem_31(benchmark):
    spec = PBFTSpec(4)

    def validate():
        outcomes = {}
        # |Byz| = 1: predicted safe (1 < 2*3-4).
        factory = mixed_pbft_factory(frozenset({0}), EquivocatingPrimary)
        cluster = Cluster(4, factory, seed=7)
        cluster.start()
        cluster.submit("a", at=0.5)
        cluster.submit("b", at=0.6)
        cluster.run_until(15.0)
        verdict = audit_run(cluster.trace, ["a", "b"], correct_nodes=[1, 2, 3])
        outcomes["byz1"] = (spec.is_safe_counts(0, 1), verdict.safe)
        # |Byz| = 2: predicted unsafe.
        factory2 = mixed_pbft_factory(
            frozenset({0, 2}), DoubleVoter, primary_class=EquivocatingDoubleVoter
        )
        cluster2 = Cluster(4, factory2, seed=8)
        cluster2.start()
        cluster2.submit("c", at=0.5)
        cluster2.run_until(15.0)
        verdict2 = audit_run(cluster2.trace, ["c"], correct_nodes=[1, 3])
        outcomes["byz2"] = (spec.is_safe_counts(0, 2), verdict2.safe)
        # 2 crashes: predicted not live, still safe.
        cluster3 = Cluster(4, pbft_node_factory(), seed=9)
        cluster3.crash_at(1, 0.1)
        cluster3.crash_at(2, 0.1)
        cluster3.start()
        cluster3.submit("d", at=0.5)
        cluster3.run_until(12.0)
        verdict3 = audit_run(cluster3.trace, ["d"], correct_nodes=[0, 3])
        outcomes["crash2"] = (spec.is_live_counts(2, 0), verdict3.live, verdict3.safe)
        return outcomes

    outcomes = benchmark(validate)
    print_table(
        "V1b: PBFT n=4 — Thm 3.1 vs simulated attacks",
        ["scenario", "prediction", "run verdict"],
        [
            ["1 equivocating byz", f"safe={outcomes['byz1'][0]}", f"safe={outcomes['byz1'][1]}"],
            ["2 colluding byz", f"safe={outcomes['byz2'][0]}", f"safe={outcomes['byz2'][1]}"],
            ["2 crashes", f"live={outcomes['crash2'][0]}", f"live={outcomes['crash2'][1]}"],
        ],
    )
    assert outcomes["byz1"] == (True, True)
    assert outcomes["byz2"] == (False, False)
    predicted_live, ran_live, ran_safe = outcomes["crash2"]
    assert not predicted_live and not ran_live and ran_safe
