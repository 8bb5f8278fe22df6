"""Fault-plan subsystem tests: codecs, compilation, behaviours, thresholds.

Covers the fault-injection acceptance criteria:

* the PBFT Byzantine composition matrix — an equivocating (double-voting)
  primary plus ``k`` double-voting accomplices driven through the
  injector flips trace-level safety exactly where Theorem 3.1 says
  (``|Byz| >= 2|Q_eq| - N``);
* hypothesis round-trip properties for the fault-plan JSON codecs;
* jobs-invariance of adversary/partition/burst campaigns;
* the stream contract of the sampled schedule (window draw, crash
  uniforms, MTTR repairs), fault plans built from curves, and
  partition-era liveness reporting in the checker.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.config import FailureConfig, FaultKind
from repro.engine import (
    ExecutionPolicy,
    ReliabilityEngine,
    Scenario,
    SimulationQuery,
    query_from_dict,
)
from repro.errors import InvalidConfigurationError
from repro.faults.mixture import Fleet, NodeModel, uniform_fleet
from repro.injection import (
    Adversary,
    CorrelatedBurst,
    CrashStop,
    FAULT_EVENTS,
    DelayBurst,
    FaultPlan,
    LossBurst,
    PartitionEvent,
    behaviour_factory,
    compile_faults,
    fault_event_from_dict,
    register_behaviour,
    registered_behaviours,
    supports_byzantine,
)
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import RaftSpec
from repro.sim.checker import check_completion


def _campaign(spec, *, faults=None, n=None, p=0.0, seed=13, replicas=1, **kw):
    n = spec.n if n is None else n
    query = SimulationQuery(
        Scenario(spec=spec, fleet=uniform_fleet(n, p), seed=seed),
        replicas=replicas,
        duration=kw.pop("duration", 12.0),
        commands=kw.pop("commands", 1),
        faults=faults,
        **kw,
    )
    return ReliabilityEngine(cache_size=0).run_query(query).value


# ---------------------------------------------------------------------------
# Theorem 3.1 composition matrix
# ---------------------------------------------------------------------------
class TestByzantineThreshold:
    """EquivocatingPrimary + k DoubleVoters across n, via the injector."""

    def attack_is_safe(self, n: int, byzantine: tuple[int, ...]) -> bool:
        value = _campaign(
            PBFTSpec(n), faults=FaultPlan(adversary=Adversary(nodes=byzantine))
        )
        return value.safety_violations == 0

    @pytest.mark.parametrize(
        "n, placements",
        [
            (4, [(0,), (1,), (2,), (3,)]),  # k=1 < 2*q_eq - n = 2
            (7, [(0, 5), (0, 6), (2, 4)]),  # k=2 < 2*q_eq - n = 3
        ],
    )
    def test_below_threshold_every_placement_safe(self, n, placements):
        spec = PBFTSpec(n)
        for byzantine in placements:
            assert spec.is_safe_counts(0, len(byzantine))
            assert self.attack_is_safe(n, byzantine), (n, byzantine)

    @pytest.mark.parametrize(
        "n, byzantine",
        [
            (4, (0, 2)),  # k=2 = 2*q_eq - n: one colluder per network half
            (7, (0, 5, 6)),  # k=3 = 2*q_eq - n
        ],
    )
    def test_at_threshold_adversarial_placement_splits_cluster(self, n, byzantine):
        spec = PBFTSpec(n)
        assert not spec.is_safe_counts(0, len(byzantine))
        assert not self.attack_is_safe(n, byzantine), (n, byzantine)

    def test_silent_byzantine_threatens_liveness_not_safety(self):
        # Two silent nodes in n=4 leave only 2 < q_eq=3 active voters.
        value = _campaign(
            PBFTSpec(4),
            faults=FaultPlan(
                adversary=Adversary(
                    nodes=(1, 2), behaviour="silent", primary_behaviour="silent"
                )
            ),
            duration=6.0,
        )
        assert value.safety_violations == 0
        assert value.liveness_violations == 1
        assert value.predicate_mismatches == 0  # Thm 3.1 agrees: not live

    def test_sampled_byzantine_fleet_runs_behaviours(self):
        # A fleet that *samples* Byzantine outcomes activates the default
        # adversary mix; with p_byzantine=1 every node misbehaves, so no
        # correct pair can disagree, but the campaign must execute cleanly.
        value = _campaign(
            PBFTSpec(4), p=0.999, seed=5, replicas=3, duration=6.0
        )
        assert value.replicas == 3


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------
_EVENTS = st.one_of(
    st.builds(
        CrashStop,
        node=st.integers(0, 3),
        at=st.floats(0.001, 5.0, allow_nan=False),
        recover_at=st.none() | st.floats(6.0, 9.0, allow_nan=False),
    ),
    st.builds(
        CrashStop,
        node=st.integers(0, 3),
        at=st.floats(0.001, 5.0, allow_nan=False),
        mean_time_to_repair=st.floats(0.1, 5.0, allow_nan=False),
    ),
    st.builds(
        PartitionEvent,
        groups=st.just(((0, 1), (2, 3))),
        at=st.floats(0.0, 4.0, allow_nan=False),
        heal_at=st.none() | st.floats(5.0, 9.0, allow_nan=False),
    ),
    st.builds(
        LossBurst,
        at=st.floats(0.0, 3.0, allow_nan=False),
        until=st.floats(4.0, 9.0, allow_nan=False),
        drop_probability=st.floats(0.0, 0.99, allow_nan=False),
    ),
    st.builds(
        DelayBurst,
        at=st.floats(0.0, 3.0, allow_nan=False),
        until=st.floats(4.0, 9.0, allow_nan=False),
        extra_delay=st.floats(0.0, 1.0, allow_nan=False),
    ),
    st.builds(
        CorrelatedBurst,
        members=st.just((0, 2)),
        at=st.floats(0.001, 5.0, allow_nan=False),
        probability=st.floats(0.0, 1.0, allow_nan=False),
        lethality=st.floats(0.0, 1.0, allow_nan=False),
        mean_time_to_repair=st.none() | st.floats(0.1, 5.0, allow_nan=False),
    ),
)

_PLANS = st.builds(
    FaultPlan,
    events=st.lists(_EVENTS, max_size=4).map(tuple),
    adversary=st.none()
    | st.builds(
        Adversary,
        nodes=st.just(()) | st.just((0, 2)),
        behaviour=st.sampled_from(["double-vote", "silent", "equivocate"]),
        primary_behaviour=st.sampled_from(
            ["equivocate+double-vote", "equivocate", "silent"]
        ),
    ),
    sample_faults=st.booleans(),
    mean_time_to_repair=st.none() | st.floats(0.1, 10.0, allow_nan=False),
)


class TestCodecs:
    @settings(max_examples=60, deadline=None)
    @given(plan=_PLANS)
    def test_plan_dict_and_json_round_trip(self, plan):
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt == plan
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert rebuilt.cache_key() == plan.cache_key()
        assert hash(rebuilt.cache_key()) == hash(plan.cache_key())

    @settings(max_examples=40, deadline=None)
    @given(event=_EVENTS)
    def test_event_dict_round_trip(self, event):
        rebuilt = fault_event_from_dict(event.to_dict())
        assert type(rebuilt) is type(event)
        assert rebuilt == event

    def test_registered_event_kinds(self):
        assert set(FAULT_EVENTS) == {
            "crash",
            "partition",
            "loss-burst",
            "delay-burst",
            "correlated-burst",
        }

    def test_simulation_query_embeds_fault_plan(self):
        plan = FaultPlan(
            events=(
                PartitionEvent(groups=((0, 1), (2, 3)), at=2.0, heal_at=4.0),
                CrashStop(node=1, at=1.0, mean_time_to_repair=2.0),
            ),
            adversary=Adversary(nodes=(0,)),
            mean_time_to_repair=3.0,
        )
        query = SimulationQuery(
            Scenario(spec=PBFTSpec(4), fleet=uniform_fleet(4, 0.1), seed=9),
            replicas=5,
            duration=8.0,
            commands=2,
            faults=plan,
        )
        rebuilt = query_from_dict(query.to_dict())
        assert isinstance(rebuilt, SimulationQuery)
        assert rebuilt.faults == plan
        assert rebuilt.to_dict() == query.to_dict()
        assert rebuilt.fault_key() == query.fault_key()

    def test_malformed_event_sections_rejected_cleanly(self):
        # A single event object where the list belongs (a common JSON
        # mistake) must raise the library error, not an AttributeError —
        # the CLI's "invalid query file" wrapper only catches the former.
        with pytest.raises(InvalidConfigurationError, match="list of event"):
            FaultPlan.from_dict(
                {"events": {"kind": "partition", "groups": [[0], [1]], "at": 1.0}}
            )
        with pytest.raises(InvalidConfigurationError, match="must be an object"):
            FaultPlan.from_dict({"events": ["partition"]})

    def test_sample_faults_must_be_boolean(self):
        # bool("false") is True — coercion would silently run the sampling
        # the user disabled.
        with pytest.raises(InvalidConfigurationError, match="JSON boolean"):
            FaultPlan.from_dict({"sample_faults": "false"})
        assert FaultPlan.from_dict({"sample_faults": False}).sample_faults is False

    def test_unknown_fields_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="fnord"):
            FaultPlan.from_dict({"fnord": 1})
        with pytest.raises(InvalidConfigurationError, match="fnord"):
            fault_event_from_dict({"kind": "crash", "node": 0, "at": 1.0, "fnord": 2})
        with pytest.raises(InvalidConfigurationError, match="unknown fault event"):
            fault_event_from_dict({"kind": "fnord"})
        with pytest.raises(InvalidConfigurationError, match="adversary"):
            FaultPlan.from_dict({"adversary": {"fnord": []}})

    def test_unknown_event_kind_names_the_built_ins(self):
        """The refusal lists the five built-in kinds, sorted."""
        with pytest.raises(InvalidConfigurationError) as refused:
            fault_event_from_dict({"kind": "fnord"})
        assert str(refused.value) == (
            "unknown fault event kind 'fnord'; registered: ['correlated-burst', "
            "'crash', 'delay-burst', 'loss-burst', 'partition']"
        )

    def test_event_validation(self):
        with pytest.raises(InvalidConfigurationError, match="not both"):
            CrashStop(node=0, at=1.0, recover_at=3.0, mean_time_to_repair=1.0)
        with pytest.raises(InvalidConfigurationError, match="precedes"):
            CrashStop(node=0, at=2.0, recover_at=1.0)
        with pytest.raises(InvalidConfigurationError, match="disjoint"):
            PartitionEvent(groups=((0, 1), (1, 2)), at=1.0)
        with pytest.raises(InvalidConfigurationError, match="at < until"):
            LossBurst(at=3.0, until=2.0, drop_probability=0.5)
        with pytest.raises(InvalidConfigurationError, match="duplicate"):
            CorrelatedBurst(members=(0, 0), at=1.0)
        # deployment-bounds checks happen at query construction
        plan = FaultPlan(events=(CrashStop(node=9, at=1.0),))
        with pytest.raises(InvalidConfigurationError, match="outside fleet"):
            SimulationQuery(
                Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.0)),
                duration=6.0,
                commands=2,
                faults=plan,
            )
        late = FaultPlan(events=(CrashStop(node=0, at=7.0),))
        with pytest.raises(InvalidConfigurationError, match="outside run"):
            SimulationQuery(
                Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.0)),
                duration=6.0,
                commands=2,
                faults=late,
            )

    def test_overlapping_partitions_rejected(self):
        # The network holds one partition at a time; a second split that
        # starts before the first heals would overwrite it silently.
        overlapping = FaultPlan(
            events=(
                PartitionEvent(groups=((0, 1), (2,)), at=1.0, heal_at=5.0),
                PartitionEvent(groups=((0,), (1, 2)), at=2.0, heal_at=3.0),
            )
        )
        with pytest.raises(InvalidConfigurationError, match="one partition"):
            SimulationQuery(
                Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.0)),
                duration=6.0,
                commands=2,
                faults=overlapping,
            )
        # unhealed partitions block any later one too
        unhealed = FaultPlan(
            events=(
                PartitionEvent(groups=((0, 1), (2,)), at=1.0),
                PartitionEvent(groups=((0,), (1, 2)), at=4.0, heal_at=5.0),
            )
        )
        with pytest.raises(InvalidConfigurationError, match="one partition"):
            SimulationQuery(
                Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.0)),
                duration=6.0,
                commands=2,
                faults=unhealed,
            )
        # back-to-back (heal == next start) is fine
        SimulationQuery(
            Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.0)),
            duration=6.0,
            commands=2,
            faults=FaultPlan(
                events=(
                    PartitionEvent(groups=((0, 1), (2,)), at=1.0, heal_at=3.0),
                    PartitionEvent(groups=((0,), (1, 2)), at=3.0, heal_at=5.0),
                )
            ),
        )

    def test_overlapping_bursts_rejected(self):
        # A shorter loss burst inside a longer one would restore the
        # baseline mid-burst when it ends — same silent-truncation class
        # as overlapping partitions, rejected the same way.
        overlapping = FaultPlan(
            events=(
                LossBurst(at=1.0, until=5.0, drop_probability=0.5),
                LossBurst(at=2.0, until=3.0, drop_probability=0.9),
            )
        )
        with pytest.raises(InvalidConfigurationError, match="loss-burst"):
            SimulationQuery(
                Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.0)),
                duration=6.0,
                commands=2,
                faults=overlapping,
            )
        delays = FaultPlan(
            events=(
                DelayBurst(at=1.0, until=4.0, extra_delay=0.01),
                DelayBurst(at=3.0, until=5.0, extra_delay=0.02),
            )
        )
        with pytest.raises(InvalidConfigurationError, match="delay-burst"):
            SimulationQuery(
                Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.0)),
                duration=6.0,
                commands=2,
                faults=delays,
            )

    def test_back_to_back_windows_apply_chronologically(self):
        # Declaration order must not matter: with the later window declared
        # first, the earlier window's heal at the shared boundary still
        # yields to the next partition, which stays in force.
        from repro.sim.cluster import Cluster
        from repro.sim.raft import raft_node_factory

        group_shapes = (((0, 1), (2,)), ((0,), (1, 2)))
        for declaration in (0, 1):
            events = [
                PartitionEvent(groups=group_shapes[0], at=3.0, heal_at=5.0),
                PartitionEvent(groups=group_shapes[1], at=1.0, heal_at=3.0),
            ]
            if declaration:
                events.reverse()
            compiled = compile_faults(
                FaultPlan(events=tuple(events), sample_faults=False),
                fleet=uniform_fleet(3, 0.0),
                duration=6.0,
                crash_window=(0.0, 1.0),
                rng=np.random.default_rng(0),
            )
            cluster = Cluster(3, raft_node_factory(), seed=1)
            compiled.apply_network(cluster)
            cluster.start()
            cluster.run_until(4.0)
            # mid-way through the second declared window: still split
            assert cluster.network._partition is not None, declaration
            cluster.run_until(5.5)
            assert cluster.network._partition is None, declaration

    def test_default_plan_and_none_share_cache_entries(self):
        # faults=None runs FaultPlan() bit-for-bit, so the two key equal.
        scenario = Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.2), seed=4)
        bare = SimulationQuery(scenario, replicas=2, duration=6.0, commands=2)
        explicit = SimulationQuery(
            scenario, replicas=2, duration=6.0, commands=2, faults=FaultPlan()
        )
        assert bare.fault_key() == explicit.fault_key()
        engine = ReliabilityEngine()
        first = engine.run_query(bare)
        second = engine.run_query(explicit)
        assert second.provenance.cache_hit
        assert second.value is first.value

    def test_byzantine_fleet_allowed_when_sampling_disabled(self):
        # With sample_faults=False the fleet's Byzantine probabilities can
        # never materialise, so a Raft fleet needs no behaviour registry.
        query = SimulationQuery(
            Scenario(
                spec=RaftSpec(3), fleet=uniform_fleet(3, 0.1, byzantine_fraction=0.5)
            ),
            replicas=2,
            duration=4.0,
            commands=2,
            faults=FaultPlan(sample_faults=False),
        )
        assert query.replicas == 2

    def test_unknown_adversary_behaviour_fails_at_construction(self):
        # Behaviour names resolve at parse time, not as a worker traceback
        # mid-campaign.
        with pytest.raises(InvalidConfigurationError, match="fnord"):
            SimulationQuery(
                Scenario(spec=PBFTSpec(4), fleet=uniform_fleet(4, 0.0), seed=1),
                replicas=2,
                duration=4.0,
                commands=2,
                faults=FaultPlan(
                    adversary=Adversary(nodes=(1,), behaviour="fnord")
                ),
            )


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
class TestCompileFaults:
    @pytest.mark.parametrize("mttr", [None, 3.0])
    def test_sampled_schedule_follows_the_stream_contract(self, mttr):
        """The module docstring's draw order, drawn by hand on a second
        generator: ``n`` window uniforms, then per CRASH node in index
        order one crash-time uniform, followed by one repair exponential
        when the plan sets an MTTR — and nothing else."""
        from repro._rng import stream_position

        n, duration, window = 8, 6.0, (0.0, 4.0)
        rng = np.random.default_rng(3)
        compiled = compile_faults(
            FaultPlan(mean_time_to_repair=mttr),
            fleet=uniform_fleet(n, 0.5),
            duration=duration,
            crash_window=window,
            rng=rng,
        )
        by_hand = np.random.default_rng(3)
        crashed = [node for node, u in enumerate(by_hand.random(n)) if u < 0.5]
        outages = []
        for node in crashed:
            at = float(by_hand.uniform(*window))
            recover = None
            if mttr is not None:
                recover = at + float(by_hand.exponential(mttr))
                recover = recover if recover < duration else None
            outages.append((node, at, recover))
        assert len(crashed) >= 3
        assert compiled.config == FailureConfig.from_failed_indices(n, crashed)
        assert compiled.outages == tuple(outages)
        if mttr is not None:  # both repair branches are exercised
            assert {recover is None for _, _, recover in outages} == {True, False}
        assert compiled.behaviours == {}
        assert compiled.network_ops == ()
        assert stream_position(rng) == stream_position(by_hand)

    def test_event_crashes_join_the_window_config(self):
        compiled = compile_faults(
            FaultPlan(events=(CrashStop(node=2, at=3.0),), sample_faults=False),
            fleet=uniform_fleet(4, 0.0),
            duration=8.0,
            crash_window=(0.0, 1.0),
            rng=np.random.default_rng(0),
        )
        assert compiled.config[2] is FaultKind.CRASH
        assert compiled.config.num_failed == 1
        assert compiled.outages == ((2, 3.0, None),)

    def test_adversary_nodes_never_fail_stop(self):
        compiled = compile_faults(
            FaultPlan(adversary=Adversary(nodes=(0, 1))),
            fleet=uniform_fleet(4, 0.999),
            duration=8.0,
            crash_window=(0.0, 1.0),
            rng=np.random.default_rng(1),
        )
        assert compiled.config[0] is FaultKind.BYZANTINE
        assert compiled.config[1] is FaultKind.BYZANTINE
        assert not {0, 1} & compiled.crashed_nodes()
        assert compiled.behaviours[0] == "equivocate+double-vote"
        assert compiled.behaviours[1] == "double-vote"

    def test_disjoint_crash_intervals_schedule_separate_outages(self):
        # A recovered outage followed by a later terminal crash must keep
        # both intervals — the node goes down, comes back, and dies again.
        plan = FaultPlan(
            events=(
                CrashStop(node=1, at=1.0, recover_at=2.0),
                CrashStop(node=1, at=5.0),
            ),
            sample_faults=False,
        )
        compiled = compile_faults(
            plan,
            fleet=uniform_fleet(3, 0.0),
            duration=8.0,
            crash_window=(0.0, 1.0),
            rng=np.random.default_rng(0),
        )
        assert compiled.outages == ((1, 1.0, 2.0), (1, 5.0, None))

    def test_same_start_terminal_and_finite_intervals_merge(self):
        # Two causes striking the same node at the same instant, one
        # terminal and one repaired: the union is terminal (no TypeError
        # from comparing None with float).
        plan = FaultPlan(
            events=(
                CrashStop(node=1, at=3.0),
                CrashStop(node=1, at=3.0, recover_at=5.0),
            ),
            sample_faults=False,
        )
        compiled = compile_faults(
            plan,
            fleet=uniform_fleet(3, 0.0),
            duration=8.0,
            crash_window=(0.0, 1.0),
            rng=np.random.default_rng(0),
        )
        assert compiled.outages == ((1, 3.0, None),)

    def test_overlapping_crash_intervals_union(self):
        # A repair mid-way through another cause's outage never revives
        # the node: overlapping intervals merge to the later recovery.
        plan = FaultPlan(
            events=(
                CrashStop(node=0, at=1.0, recover_at=3.0),
                CrashStop(node=0, at=2.0, recover_at=6.0),
                CrashStop(node=2, at=1.0, recover_at=4.0),
                CrashStop(node=2, at=2.0),  # terminal cause wins
            ),
            sample_faults=False,
        )
        compiled = compile_faults(
            plan,
            fleet=uniform_fleet(3, 0.0),
            duration=8.0,
            crash_window=(0.0, 1.0),
            rng=np.random.default_rng(0),
        )
        assert compiled.outages == ((0, 1.0, 6.0), (2, 1.0, None))

    def test_correlated_scenario_samples_from_model(self):
        from repro.faults.correlation import CommonShockModel, ShockGroup

        fleet = uniform_fleet(4, 0.0)
        model = CommonShockModel(fleet, (ShockGroup((0, 1, 2), 1.0),))
        compiled = compile_faults(
            None,
            fleet=fleet,
            duration=8.0,
            crash_window=(0.0, 1.0),
            correlation=model,
            rng=np.random.default_rng(2),
        )
        # The shock fires with certainty: nodes 0-2 are window failures.
        assert compiled.config.crashed_indices == frozenset({0, 1, 2})

    def test_correlated_burst_event_draws_and_repairs(self):
        burst = CorrelatedBurst(
            members=(0, 1), at=2.0, probability=1.0, mean_time_to_repair=1.0
        )
        compiled = compile_faults(
            FaultPlan(events=(burst,), sample_faults=False),
            fleet=uniform_fleet(3, 0.0),
            duration=50.0,
            crash_window=(0.0, 1.0),
            rng=np.random.default_rng(4),
        )
        assert compiled.crashed_nodes() == {0, 1}
        for node, crash, recover in compiled.outages:
            assert crash == 2.0
            assert recover is None or recover > 2.0
        assert compiled.config.crashed_indices == frozenset({0, 1})

    def test_plan_mttr_schedules_recoveries(self):
        compiled = compile_faults(
            FaultPlan(mean_time_to_repair=1.0),
            fleet=uniform_fleet(5, 0.9),
            duration=200.0,
            crash_window=(0.0, 1.0),
            rng=np.random.default_rng(6),
        )
        assert compiled.outages  # p=0.9 crashes someone
        for node, crash, recover in compiled.outages:
            assert recover is None or crash < recover < 200.0


class TestRealisationKey:
    """``CompiledFaults`` is hashable, and equal exactly when every field is."""

    @staticmethod
    def _compile(plan=None, *, p=0.0, seed=0, n=4):
        return compile_faults(
            plan,
            fleet=uniform_fleet(n, p),
            duration=8.0,
            crash_window=(0.0, 1.0),
            rng=np.random.default_rng(seed),
        )

    def test_the_default_plan_compiles_to_something_hashable(self):
        # frozen=True plus a dict field used to generate a __hash__ that
        # raised "unhashable type: 'dict'".
        compiled = self._compile(None)
        assert isinstance(hash(compiled), int)
        assert compiled.behaviours == {} and hasattr(compiled.behaviours, "items")

    def test_two_replicas_that_compile_equal_hash_equal(self):
        plan = FaultPlan(
            events=(
                CrashStop(node=1, at=2.0),
                PartitionEvent(groups=((0, 1), (2, 3)), at=3.0, heal_at=4.0),
            ),
            adversary=Adversary(nodes=(0, 2)),
        )
        # Different streams, nothing sampled that differs: one realisation.
        a, b = self._compile(plan, seed=1), self._compile(plan, seed=2)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a.realisation_key() == b.realisation_key()
        assert len({a, b}) == 1

    def test_a_sampled_crash_time_is_a_different_realisation(self):
        a = self._compile(None, p=0.999, seed=1)
        b = self._compile(None, p=0.999, seed=2)
        assert a.config == b.config  # everyone crashed in both...
        assert a != b  # ...at different instants

    @staticmethod
    def _plan(*, node=1, at=2.0, drop=0.2, primary="equivocate", split=False):
        events = [
            CrashStop(node=node, at=at),
            LossBurst(at=3.0, until=4.0, drop_probability=drop),
        ]
        if split:
            events.append(
                PartitionEvent(groups=((0, 1), (2, 3)), at=5.0, heal_at=6.0)
            )
        return FaultPlan(
            events=tuple(events),
            adversary=Adversary(nodes=(0,), primary_behaviour=primary),
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"at": 2.5},  # one outage time
            {"node": 2},  # one node kind: node 2 is CRASH, node 1 CORRECT
            {"primary": "silent"},  # one behaviour name
            {"drop": 0.3},  # one network op
            {"split": True},  # one partition window
        ],
        ids=["outage-time", "node-kind", "behaviour", "network-op", "partition"],
    )
    def test_one_differing_field_is_a_different_key(self, change):
        a, b = self._compile(self._plan()), self._compile(self._plan(**change))
        assert a.realisation_key() != b.realisation_key()
        assert a != b and len({a, b}) == 2

    def test_same_instant_network_ops_keep_their_declaration_order(self):
        # apply_network breaks ties by insertion order, so the order is
        # part of what runs.
        first = DelayBurst(at=1.0, until=2.0, extra_delay=0.01)
        second = LossBurst(at=1.0, until=2.0, drop_probability=0.1)
        a = self._compile(FaultPlan(events=(first, second)))
        b = self._compile(FaultPlan(events=(second, first)))
        assert a != b


# ---------------------------------------------------------------------------
# Behaviour registry
# ---------------------------------------------------------------------------
class TestBehaviourRegistry:
    def test_engine_import_stays_sim_free(self):
        # Built-in behaviours register lazily: importing the engine (which
        # imports repro.injection for the FaultPlan codec) must not pull
        # the discrete-event sim + PBFT stack into every consumer.
        import subprocess
        import sys

        code = (
            "import sys; import repro.engine; "
            "assert 'repro.sim.pbft.byzantine' not in sys.modules, 'eager sim import'"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr[-500:]

    def test_builtin_pbft_behaviours(self):
        spec = PBFTSpec(4)
        assert supports_byzantine(spec)
        assert set(registered_behaviours(spec)) == {
            "double-vote",
            "equivocate",
            "equivocate+double-vote",
            "silent",
        }
        factory = behaviour_factory("silent", spec)
        assert callable(factory)

    def test_raft_has_no_behaviours(self):
        assert not supports_byzantine(RaftSpec(3))
        with pytest.raises(InvalidConfigurationError, match="register_behaviour"):
            behaviour_factory("double-vote", RaftSpec(3))

    def test_unknown_name_lists_registered(self):
        with pytest.raises(InvalidConfigurationError, match="double-vote"):
            behaviour_factory("fnord", PBFTSpec(4))

    def test_shadowing_behaviour_invalidates_campaign_cache(self):
        # Campaign memo keys carry the *resolved* behaviour builds, so
        # re-registering a behaviour (documented: later registrations take
        # precedence) never serves the old implementation's cached
        # verdicts — the engine's estimator re-registration invariant.
        from repro.injection.behaviours import _BEHAVIOURS
        from repro.sim.pbft.node import PBFTNode

        def query():
            return SimulationQuery(
                Scenario(spec=PBFTSpec(4), fleet=uniform_fleet(4, 0.0), seed=9),
                replicas=2,
                duration=6.0,
                commands=2,
                faults=FaultPlan(adversary=Adversary(nodes=(0, 2))),
            )

        engine = ReliabilityEngine()
        first = engine.run_query(query())
        assert first.value.safety_violations == 2  # the Thm 3.1 split
        assert engine.run_query(query()).provenance.cache_hit

        def honest_build(spec):
            def make(node_id, n, scheduler, network, rng, trace):
                return PBFTNode(node_id, n, scheduler, network, rng, trace,
                                q_eq=spec.q_eq, q_per=spec.q_per,
                                q_vc=spec.q_vc, q_vc_t=spec.q_vc_t)

            return make

        before = len(_BEHAVIOURS)
        register_behaviour("double-vote", PBFTSpec, honest_build)
        register_behaviour("equivocate+double-vote", PBFTSpec, honest_build)
        try:
            shadowed = engine.run_query(query())
            assert not shadowed.provenance.cache_hit
            assert shadowed.value.safety_violations == 0  # honest "adversary"
        finally:
            del _BEHAVIOURS[: len(_BEHAVIOURS) - before]
        restored = engine.run_query(query())
        assert restored.provenance.cache_hit
        assert restored.value.safety_violations == 2

    def test_third_party_registration(self):
        from repro.protocols.base import SymmetricSpec
        from repro.sim.pbft.node import PBFTNode

        class ToySpec(SymmetricSpec):
            name = "Toy"

            def is_safe_counts(self, num_crashed, num_byzantine):
                return True

            def is_live_counts(self, num_crashed, num_byzantine):
                return True

        def build(spec):
            def make(node_id, n, scheduler, network, rng, trace):
                return PBFTNode(node_id, n, scheduler, network, rng, trace)

            return make

        register_behaviour("toy-silent", ToySpec, build)
        assert supports_byzantine(ToySpec(3))
        assert "toy-silent" in registered_behaviours(ToySpec(3))

    def test_raft_family_behaviour_without_pbft_defaults(self):
        # A third-party family registering only an accomplice behaviour can
        # still declare an adversary that avoids node 0: the unused default
        # primary_behaviour (PBFT-only) must not be resolved.
        from repro.sim.raft import raft_node_factory

        def build(spec):
            factory = raft_node_factory()

            def make(node_id, n, scheduler, network, rng, trace):
                return factory(node_id, n, scheduler, network, rng, trace)

            return make

        from repro.injection.behaviours import _BEHAVIOURS

        before = len(_BEHAVIOURS)
        register_behaviour("raft-honest-drill", RaftSpec, build)
        try:
            query = SimulationQuery(
                Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.0), seed=1),
                replicas=1,
                duration=4.0,
                commands=2,
                faults=FaultPlan(
                    adversary=Adversary(nodes=(1,), behaviour="raft-honest-drill"),
                    sample_faults=False,
                ),
            )
            behaviour_build, primary_build = query.behaviour_key()
            assert behaviour_build is build
            assert primary_build is None  # node 0 can never be Byzantine here
            value = ReliabilityEngine(cache_size=0).run_query(query).value
            assert value.safety_violations == 0
        finally:
            del _BEHAVIOURS[: len(_BEHAVIOURS) - before]


# ---------------------------------------------------------------------------
# Campaign determinism & equivalences
# ---------------------------------------------------------------------------
class TestCampaigns:
    def adversarial_query(self, seed=21):
        plan = FaultPlan(
            events=(
                PartitionEvent(groups=((0, 1), (2, 3)), at=2.0, heal_at=3.0),
                LossBurst(at=4.0, until=5.0, drop_probability=0.3),
                CorrelatedBurst(members=(1, 3), at=5.5, probability=0.5,
                                mean_time_to_repair=2.0),
            ),
            adversary=Adversary(nodes=(0,)),
        )
        return SimulationQuery(
            Scenario(spec=PBFTSpec(4), fleet=uniform_fleet(4, 0.1), seed=seed),
            replicas=6,
            duration=8.0,
            commands=2,
            faults=plan,
        )

    def test_adversarial_campaign_invariant_to_jobs_and_mode(self):
        baseline = (
            ReliabilityEngine(cache_size=0).run_query(self.adversarial_query()).value
        )
        for policy in (
            ExecutionPolicy(mode="thread", jobs=4),
            ExecutionPolicy(mode="thread", jobs=4, shard_trials=2),
            ExecutionPolicy(mode="process", jobs=2),
        ):
            value = (
                ReliabilityEngine(cache_size=0)
                .run_query(self.adversarial_query(), policy=policy)
                .value
            )
            assert value == baseline, policy

    def test_explicit_default_plan_matches_no_plan(self):
        scenario = Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.3), seed=17)
        bare = ReliabilityEngine(cache_size=0).run_query(
            SimulationQuery(scenario, replicas=8, duration=6.0, commands=2)
        )
        explicit = ReliabilityEngine(cache_size=0).run_query(
            SimulationQuery(
                scenario, replicas=8, duration=6.0, commands=2, faults=FaultPlan()
            )
        )
        assert explicit.value == bare.value

    def test_plans_get_distinct_cache_entries(self):
        engine = ReliabilityEngine()
        scenario = Scenario(spec=PBFTSpec(4), fleet=uniform_fleet(4, 0.0), seed=9)
        with_adversary = SimulationQuery(
            scenario, replicas=2, duration=6.0, commands=2,
            faults=FaultPlan(adversary=Adversary(nodes=(0, 2))),
        )
        without = SimulationQuery(scenario, replicas=2, duration=6.0, commands=2)
        first = engine.run_query(with_adversary)
        second = engine.run_query(without)
        assert not second.provenance.cache_hit
        assert first.value != second.value  # the adversary splits the cluster
        assert engine.run_query(with_adversary).provenance.cache_hit

    def test_partition_era_liveness_reported_separately(self):
        plan = FaultPlan(
            events=(PartitionEvent(groups=((0,), (1,), (2,)), at=0.5),),
        )
        value = ReliabilityEngine(cache_size=0).run_query(
            SimulationQuery(
                Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.0), seed=2),
                replicas=3,
                duration=6.0,
                commands=2,
                faults=plan,
            )
        ).value
        # A fully-isolated healthy cluster stalls on every command, and
        # every stall is attributable to the partition era.
        assert value.liveness_violations == 3
        assert value.partition_era_liveness_violations == 3
        assert value.safety_violations == 0

    def test_crash_recovery_restores_liveness(self):
        # Majority crashes at t=2 but repairs land quickly: Raft re-elects
        # and commits everything (commands are submitted before the crash
        # era ends, retried after recovery).
        plan = FaultPlan(
            events=(
                CrashStop(node=0, at=2.0, recover_at=3.0),
                CrashStop(node=1, at=2.0, recover_at=3.5),
            ),
            sample_faults=False,
        )
        value = ReliabilityEngine(cache_size=0).run_query(
            SimulationQuery(
                Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.0), seed=8),
                replicas=2,
                duration=12.0,
                commands=2,
                faults=plan,
            )
        ).value
        assert value.safety_violations == 0
        assert value.liveness_violations == 0
        # The terminal-window predicate called these runs dead (2 of 3
        # crashed); recovery is exactly the mismatch being measured.
        assert value.predicate_mismatches == 2


# ---------------------------------------------------------------------------
# Sampled-crash MTTR + checker partition windows
# ---------------------------------------------------------------------------
def _fixed_fleet(n, crashed):
    """A fleet whose window draw is exactly ``crashed`` (p = 1 or 0)."""
    return Fleet(tuple(NodeModel(float(node in crashed)) for node in range(n)))


class TestPlanMTTR:
    def _compile(self, plan, *, seed):
        return compile_faults(
            plan,
            fleet=_fixed_fleet(6, {0, 2, 4}),
            duration=5.0,
            crash_window=(0.0, 2.5),
            rng=np.random.default_rng(seed),
        )

    def test_mttr_draws_recoveries_with_duration_guard(self):
        compiled = self._compile(FaultPlan(mean_time_to_repair=2.0), seed=11)
        assert [node for node, _, _ in compiled.outages] == [0, 2, 4]
        assert any(recover is not None for _, _, recover in compiled.outages)
        for _, at, recover in compiled.outages:
            assert recover is None or at < recover < 5.0

    def test_mttr_only_appends_draws(self):
        default = self._compile(FaultPlan(), seed=3)
        repaired = self._compile(FaultPlan(mean_time_to_repair=2.0), seed=3)
        assert all(recover is None for _, _, recover in default.outages)
        assert repaired.config == default.config
        # The first repair draw comes after the first crash uniform.
        assert repaired.outages[0][:2] == default.outages[0][:2]

    def test_mttr_validation(self):
        with pytest.raises(InvalidConfigurationError, match="positive"):
            FaultPlan(mean_time_to_repair=0.0)


class TestPlanFromCurves:
    """Curve-sampled outages are a plain fault plan: JSON-embeddable,
    accepted by every ``CrashStop`` check, compiled like any other."""

    def test_round_trips_through_json_and_a_query(self):
        from repro.faults.curves import ConstantHazard
        from repro.injection import plan_from_curves

        plan = plan_from_curves(
            [ConstantHazard(0.2)] * 5, duration=10.0, mean_time_to_repair=2.0, seed=7
        )
        assert plan.events and not plan.sample_faults
        assert FaultPlan.from_json(plan.to_json()) == plan
        query = SimulationQuery(
            Scenario(spec=RaftSpec(5), fleet=uniform_fleet(5, 0.0), seed=3),
            replicas=2,
            duration=10.0,
            commands=1,
            faults=plan,
        )
        decoded = query_from_dict(query.to_dict())
        assert decoded.faults == plan and decoded.to_dict() == query.to_dict()
        assert ReliabilityEngine(cache_size=0).run_query(query).value.replicas == 2

    def test_zero_hazard_gives_no_events(self):
        from repro.faults.curves import ConstantHazard
        from repro.injection import plan_from_curves

        plan = plan_from_curves([ConstantHazard(0.0)] * 4, duration=50.0, seed=1)
        assert plan == FaultPlan(sample_faults=False)

    @pytest.mark.parametrize("seed", range(6))
    def test_repairs_land_inside_the_run_after_their_crash(self, seed):
        from repro.faults.curves import ConstantHazard
        from repro.injection import plan_from_curves

        plan = plan_from_curves(
            [ConstantHazard(0.3)] * 7,
            duration=8.0,
            hours_per_sim_second=2.0,
            mean_time_to_repair=3.0,
            seed=seed,
        )
        for event in plan.events:
            assert isinstance(event, CrashStop) and 0.0 < event.at < 8.0
            if event.recover_at is not None:
                assert event.at < event.recover_at < 8.0
        plan.validate(7, 8.0)


class TestCheckerPartitionWindows:
    def _trace(self):
        from repro.sim.trace import TraceRecorder

        trace = TraceRecorder()
        trace.record_commit(1.0, 0, 1, "a")
        trace.record_commit(1.0, 1, 1, "a")
        return trace

    def test_partition_era_split(self):
        verdict = check_completion(
            self._trace(),
            ["a", "b", "c"],
            correct_nodes=[0, 1],
            partition_windows=[(2.0, 4.0)],
            submit_times={"a": 0.5, "b": 2.5, "c": 5.0},
        )
        assert not verdict.holds
        assert set(verdict.missing) == {(0, "b"), (1, "b"), (0, "c"), (1, "c")}
        assert set(verdict.partition_era) == {(0, "b"), (1, "b")}
        assert not verdict.holds_outside_partitions

    def test_only_partition_era_missing(self):
        verdict = check_completion(
            self._trace(),
            ["a", "b"],
            correct_nodes=[0, 1],
            partition_windows=[(2.0, 4.0)],
            submit_times={"a": 0.5, "b": 3.0},
        )
        assert not verdict.holds
        assert verdict.holds_outside_partitions

    def test_defaults_unchanged(self):
        verdict = check_completion(self._trace(), ["a"], correct_nodes=[0, 1])
        assert verdict.holds
        assert verdict.partition_era == ()
        assert verdict.holds_outside_partitions


# ---------------------------------------------------------------------------
# Cluster / network hooks
# ---------------------------------------------------------------------------
class TestSimHooks:
    def test_network_degradation_hooks_validate(self):
        from repro.sim.events import EventScheduler
        from repro.sim.network import Network

        network = Network(EventScheduler(), drop_probability=0.1)
        with pytest.raises(InvalidConfigurationError):
            network.set_drop_probability(1.5)
        with pytest.raises(InvalidConfigurationError):
            network.set_extra_delay(-1.0)
        network.set_drop_probability(0.5)
        network.set_drop_probability(None)  # restores the baseline
        assert network._drop_probability == 0.1

    def test_cluster_partition_schedule_records_trace(self):
        from repro.sim.cluster import Cluster
        from repro.sim.raft import raft_node_factory

        cluster = Cluster(3, raft_node_factory(), seed=1)
        cluster.partition_at([(0,), (1, 2)], 1.0)
        cluster.heal_partition_at(2.0)
        cluster.set_drop_probability_at(0.2, 1.5)
        cluster.set_extra_delay_at(0.01, 1.5)
        cluster.start()
        cluster.run_until(3.0)
        kinds = {event.kind for event in cluster.trace.events}
        assert {"partition", "heal", "net-loss", "net-delay"} <= kinds

    def test_node_overrides_validate_range(self):
        from repro.sim.cluster import Cluster
        from repro.sim.raft import raft_node_factory

        with pytest.raises(InvalidConfigurationError, match="override"):
            Cluster(3, raft_node_factory(), seed=1,
                    node_overrides={5: raft_node_factory()})

    def test_node_overrides_do_not_perturb_other_streams(self):
        # Overriding node 0's factory must leave nodes 1..n-1 with the
        # exact streams they had without the override.
        from repro.sim.cluster import Cluster
        from repro.sim.raft import raft_node_factory

        plain = Cluster(3, raft_node_factory(), seed=9)
        overridden = Cluster(
            3, raft_node_factory(), seed=9, node_overrides={0: raft_node_factory()}
        )
        for a, b in zip(plain.nodes[1:], overridden.nodes[1:]):
            assert a._rng.random() == b._rng.random()
