"""Fault-tolerant campaign runtime: chaos self-tests and recovery contracts.

The chaos tests dogfood :mod:`repro.engine.chaos` onto the supervised
runtime and prove each recovery path *by bit-identity*: a run that
survived injected crashes, hangs, worker kills or pool breaks must equal
the clean run exactly — the determinism contract (retries re-execute the
same ``SeedSequence.spawn`` child) is what makes fault tolerance safe to
enable by default.  Checkpoint tests additionally pin byte-identical
``AnswerSet`` JSON across interrupt/resume.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.kernels import (
    merge_tallies,
    monte_carlo_tally_sharded,
    plan_shards,
    spawn_shard_generators,
    spawn_shard_sequences,
)
from repro.engine import (
    CampaignCheckpoint,
    ChaosInjectedError,
    ChaosPlan,
    ExecutionPolicy,
    QuerySet,
    ReliabilityEngine,
    RunReport,
    Scenario,
    ShardFault,
    SimulationQuery,
    Supervision,
    chaos_from_fault_plan,
    run_supervised,
)
from repro.errors import (
    InvalidConfigurationError,
    ReproError,
    ShardExecutionError,
)
from repro.faults.mixture import uniform_fleet
from repro.injection import Adversary, CrashStop, FaultPlan
from repro.protocols.raft import RaftSpec

SPEC = RaftSpec(3)
FLEET = uniform_fleet(3, 0.05)


def _square(payload):
    return payload * payload


def _slow_then_raise(payload):
    kind, delay = payload
    time.sleep(delay)
    if kind == "boom":
        raise ValueError(f"boom after {delay}")
    return kind


def _sleep_forever(payload):
    time.sleep(30.0)
    return payload


# ---------------------------------------------------------------------------
# Default dispatch: run_supervised with no supervision knobs
# ---------------------------------------------------------------------------
class TestDispatch:
    def test_serial_thread_process_agree(self):
        payloads = list(range(7))
        expected = [p * p for p in payloads]
        for jobs, mode in ((1, "serial"), (3, "thread"), (2, "process")):
            results, report = run_supervised(_square, payloads, jobs=jobs, mode=mode)
            assert results == expected
            assert report == RunReport(shards=7, completed=7, attempts=7)

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="executor mode"):
            run_supervised(_square, [1, 2], jobs=2, mode="greenlet")

    def test_thread_mode_raises_first_exception_not_first_submitted(self):
        # Shard 0 fails *late*, shard 2 fails immediately.  A pool.map
        # iteration would surface shard 0's error (submission order); the
        # dispatcher surfaces the chronologically first failure — as
        # itself, not wrapped — so the root cause is never masked.
        payloads = [("boom", 0.4), ("ok", 0.0), ("boom", 0.0)]
        with pytest.raises(ValueError, match="boom after 0.0") as excinfo:
            run_supervised(_slow_then_raise, payloads, jobs=3, mode="thread")
        frames = [entry.name for entry in excinfo.traceback]
        assert "_slow_then_raise" in frames  # original traceback preserved

    @pytest.mark.parametrize(
        "jobs,mode", [(1, "serial"), (2, "thread"), (2, "process")]
    )
    def test_single_attempt_failure_propagates_as_itself(self, jobs, mode):
        payloads = [("ok", 0.0), ("boom", 0.0)]
        with pytest.raises(ValueError, match="boom after 0.0"):
            run_supervised(_slow_then_raise, payloads, jobs=jobs, mode=mode)
        # A retry budget means there is no single original: wrap and chain.
        with pytest.raises(ShardExecutionError, match="shard 1") as excinfo:
            run_supervised(
                _slow_then_raise, payloads, jobs=jobs, mode=mode,
                supervision=Supervision(retries=1, backoff=0.0),
            )
        assert isinstance(excinfo.value.__cause__, ValueError)


# ---------------------------------------------------------------------------
# Supervision / policy validation (satellite)
# ---------------------------------------------------------------------------
class TestValidation:
    def test_supervision_rejects_bad_values(self):
        for kwargs in (
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"retries": -1},
            {"retries": 1.5},
            {"retries": True},
            {"backoff": -0.1},
            {"on_shard_failure": "explode"},
            {"max_pool_rebuilds": -1},
        ):
            with pytest.raises(InvalidConfigurationError):
                Supervision(**kwargs)

    def test_policy_rejects_non_integer_jobs(self):
        for jobs in (True, 1.5, "4"):
            with pytest.raises(ReproError, match="jobs"):
                ExecutionPolicy(mode="thread", jobs=jobs)
        with pytest.raises(ReproError, match="jobs"):
            ExecutionPolicy.from_jobs(2.5)
        with pytest.raises(ReproError, match="jobs"):
            ExecutionPolicy.from_jobs(True)

    def test_policy_rejects_bad_shard_trials(self):
        for shard_trials in (0, -5, 1.5, True):
            with pytest.raises(ReproError, match="shard_trials"):
                ExecutionPolicy(mode="thread", jobs=2, shard_trials=shard_trials)

    def test_policy_rejects_jobs_below_one(self):
        with pytest.raises(ReproError, match="jobs"):
            ExecutionPolicy(mode="thread", jobs=0)

    def test_policy_supervision_knobs_validated_at_construction(self):
        with pytest.raises(InvalidConfigurationError):
            ExecutionPolicy(timeout=-2.0)
        with pytest.raises(InvalidConfigurationError):
            ExecutionPolicy(on_shard_failure="panic")

    def test_policy_supervision_property(self):
        assert ExecutionPolicy().supervision == Supervision()
        assert ExecutionPolicy(mode="thread", jobs=4).supervision == Supervision()
        sup = ExecutionPolicy(retries=2, timeout=3.0).supervision
        assert sup == Supervision(retries=2, timeout=3.0)

    def test_from_jobs_builds_supervised_serial_policy(self):
        policy = ExecutionPolicy.from_jobs(None, retries=2)
        assert policy.mode == "serial" and policy.retries == 2
        assert ExecutionPolicy.from_jobs(None) is ExecutionPolicy.from_jobs(0)


# ---------------------------------------------------------------------------
# Supervision knobs change nothing when nothing fails
# ---------------------------------------------------------------------------
class TestSupervisedCleanRuns:
    @pytest.mark.parametrize(
        "jobs,mode", [(1, "serial"), (3, "thread"), (2, "process")]
    )
    def test_matches_dispatch_and_reports(self, jobs, mode):
        payloads = list(range(5))
        results, report = run_supervised(
            _square,
            payloads,
            jobs=jobs,
            mode=mode,
            supervision=Supervision(retries=2, timeout=20.0),
        )
        assert results == [_square(payload) for payload in payloads]
        assert report == RunReport(shards=5, completed=5, attempts=5)
        assert not report.degraded

    def test_supervised_tally_equals_bare_tally(self):
        bare, plan = monte_carlo_tally_sharded(
            SPEC, FLEET, 20_000, 7, jobs=1, shard_trials=5_000, mode="serial"
        )
        supervised, plan2 = monte_carlo_tally_sharded(
            SPEC,
            FLEET,
            20_000,
            7,
            jobs=3,
            shard_trials=5_000,
            mode="thread",
            supervision=Supervision(retries=3, timeout=30.0),
        )
        assert bare == supervised and plan == plan2

    def test_shard_sequences_anchor_generators(self):
        children = spawn_shard_sequences(123, 4)
        rngs = spawn_shard_generators(123, 4)
        for child, rng in zip(children, rngs):
            rebuilt = np.random.default_rng(child)
            assert rebuilt.random() == rng.random()


# ---------------------------------------------------------------------------
# Chaos: retry-success path
# ---------------------------------------------------------------------------
@pytest.mark.chaos
class TestChaosRetry:
    @pytest.mark.parametrize("jobs,mode", [(1, "serial"), (3, "thread")])
    def test_crashed_shards_retry_bit_identically(self, tmp_path, jobs, mode):
        clean, _ = monte_carlo_tally_sharded(
            SPEC, FLEET, 16_000, 11, jobs=1, shard_trials=4_000, mode="serial"
        )
        chaos = ChaosPlan(
            faults=(
                (0, ShardFault("raise", times=1)),
                (3, ShardFault("raise", times=2)),
            ),
            state_dir=str(tmp_path),
        )
        recovered, _ = monte_carlo_tally_sharded(
            SPEC,
            FLEET,
            16_000,
            11,
            jobs=jobs,
            shard_trials=4_000,
            mode=mode,
            supervision=Supervision(retries=2, backoff=0.0),
            chaos=chaos,
        )
        assert recovered == clean

    def test_delay_fault_changes_nothing(self, tmp_path):
        clean, _ = monte_carlo_tally_sharded(
            SPEC, FLEET, 8_000, 5, jobs=1, shard_trials=4_000, mode="serial"
        )
        chaos = ChaosPlan(
            faults=((1, ShardFault("delay", times=1, seconds=0.2)),),
            state_dir=str(tmp_path),
        )
        delayed, _ = monte_carlo_tally_sharded(
            SPEC, FLEET, 8_000, 5, jobs=2, shard_trials=4_000, mode="thread",
            supervision=Supervision(retries=1), chaos=chaos,
        )
        assert delayed == clean

    def test_exhausted_retries_raise_with_cause(self, tmp_path):
        chaos = ChaosPlan(
            faults=((1, ShardFault("raise", times=-1)),), state_dir=str(tmp_path)
        )
        with pytest.raises(ShardExecutionError, match="shard 1") as excinfo:
            monte_carlo_tally_sharded(
                SPEC, FLEET, 8_000, 5, jobs=2, shard_trials=4_000, mode="thread",
                supervision=Supervision(retries=1, backoff=0.0), chaos=chaos,
            )
        assert isinstance(excinfo.value.__cause__, ChaosInjectedError)

    def test_degrade_merges_surviving_shards(self, tmp_path):
        chaos = ChaosPlan(
            faults=((2, ShardFault("raise", times=-1)),), state_dir=str(tmp_path)
        )
        tally, plan = monte_carlo_tally_sharded(
            SPEC, FLEET, 16_000, 11, jobs=2, shard_trials=4_000, mode="thread",
            supervision=Supervision(
                retries=1, backoff=0.0, on_shard_failure="degrade"
            ),
            chaos=chaos,
        )
        assert plan.num_shards == 4
        assert tally.trials == 12_000  # shard 2's 4k trials dropped


# ---------------------------------------------------------------------------
# Chaos: timeout and worker-loss paths
# ---------------------------------------------------------------------------
@pytest.mark.chaos
class TestChaosTimeoutAndWorkerLoss:
    def test_thread_timeout_abandons_and_retries(self, tmp_path):
        clean, _ = monte_carlo_tally_sharded(
            SPEC, FLEET, 8_000, 3, jobs=1, shard_trials=4_000, mode="serial"
        )
        # Keep the hang short-ish: an abandoned thread attempt runs to the
        # end of its sleep, and the interpreter joins leftover pool threads
        # at exit.
        chaos = ChaosPlan(
            faults=((0, ShardFault("hang", times=1, seconds=5.0)),),
            state_dir=str(tmp_path),
        )
        recovered, _ = monte_carlo_tally_sharded(
            SPEC, FLEET, 8_000, 3, jobs=2, shard_trials=4_000, mode="thread",
            supervision=Supervision(retries=1, timeout=0.5, backoff=0.0),
            chaos=chaos,
        )
        assert recovered == clean

    def test_process_timeout_terminates_pool_and_retries(self, tmp_path):
        clean, _ = monte_carlo_tally_sharded(
            SPEC, FLEET, 8_000, 3, jobs=1, shard_trials=4_000, mode="serial"
        )
        chaos = ChaosPlan(
            faults=((1, ShardFault("hang", times=1, seconds=30.0)),),
            state_dir=str(tmp_path),
        )
        start = time.monotonic()
        recovered, _ = monte_carlo_tally_sharded(
            SPEC, FLEET, 8_000, 3, jobs=2, shard_trials=4_000, mode="process",
            supervision=Supervision(retries=1, timeout=1.0, backoff=0.0),
            chaos=chaos,
        )
        assert recovered == clean
        assert time.monotonic() - start < 25.0  # did not wait out the hang

    def test_worker_kill_requeues_without_burning_retries(self, tmp_path):
        clean, _ = monte_carlo_tally_sharded(
            SPEC, FLEET, 8_000, 3, jobs=1, shard_trials=4_000, mode="serial"
        )
        chaos = ChaosPlan(
            faults=((0, ShardFault("kill", times=1)),), state_dir=str(tmp_path)
        )
        # retries=0: recovery must come from the worker-loss requeue path,
        # which owes no retry budget — the chaos plan kills only the first
        # attempt, so the requeued shard succeeds on the rebuilt pool.
        recovered, _ = monte_carlo_tally_sharded(
            SPEC, FLEET, 8_000, 3, jobs=2, shard_trials=4_000, mode="process",
            supervision=Supervision(retries=0), chaos=chaos,
        )
        assert recovered == clean

    def test_poisoned_shard_cannot_rebuild_forever(self, tmp_path):
        chaos = ChaosPlan(
            faults=((0, ShardFault("kill", times=-1)),), state_dir=str(tmp_path)
        )
        results, report = run_supervised(
            _square,
            [1, 2, 3],
            jobs=2,
            mode="process",
            supervision=Supervision(
                retries=0, on_shard_failure="degrade", max_pool_rebuilds=0
            ),
            chaos=chaos,
        )
        # The poisoned shard is dropped as a worker loss instead of
        # rebuilding the pool forever.  Innocent shards in flight at the
        # over-cap break are dropped with it (the loss is unattributable);
        # whatever completed must be correct.
        assert 0 in report.dropped
        assert any(kind == "worker-loss" for _, kind in report.failures)
        assert report.pool_rebuilds >= 1
        for index, payload in ((1, 2), (2, 3)):
            if index not in report.dropped:
                assert results[index] == payload * payload
        assert report.completed + len(report.dropped) == 3


# ---------------------------------------------------------------------------
# Checkpoint journal
# ---------------------------------------------------------------------------
class TestCampaignCheckpoint:
    def _checkpoint(self, tmp_path, **kwargs):
        defaults = dict(key="k1", shards=4)
        defaults.update(kwargs)
        return CampaignCheckpoint(tmp_path / "campaign", **defaults)

    def test_round_trip(self, tmp_path):
        journal = self._checkpoint(tmp_path)
        assert journal.load() == {}
        journal.record(1, [1, 2])
        journal.record(3, [3])
        fresh = self._checkpoint(tmp_path)
        assert fresh.load() == {1: [1, 2], 3: [3]}

    def test_foreign_key_is_never_loaded(self, tmp_path):
        journal = self._checkpoint(tmp_path)
        journal.record(0, "a")
        other = self._checkpoint(tmp_path, key="k2")
        assert other.load() == {}
        other.record(0, "b")  # replaces the foreign shard file
        other.record(2, "c")
        assert self._checkpoint(tmp_path, key="k2").load() == {0: "b", 2: "c"}
        assert self._checkpoint(tmp_path).load() == {}

    def test_different_shard_plan_discards(self, tmp_path):
        journal = self._checkpoint(tmp_path)
        journal.record(0, "a")
        assert self._checkpoint(tmp_path, shards=8).load() == {}

    def test_torn_shard_file_is_skipped(self, tmp_path):
        journal = self._checkpoint(tmp_path)
        journal.record(0, "a")
        journal.record(1, "b")
        assert sorted(p.name for p in journal.path.iterdir()) == [
            "shard-0.json",
            "shard-1.json",
        ]
        (journal.path / "shard-2.json").write_text('{"shard": 2, "val')  # torn
        assert self._checkpoint(tmp_path).load() == {0: "a", 1: "b"}

    def test_out_of_range_shards_ignored(self, tmp_path):
        journal = self._checkpoint(tmp_path)
        journal.record(0, "a")
        journal.record(99, "zz")
        assert self._checkpoint(tmp_path).load() == {0: "a"}

    def test_digest_is_stable_and_filename_safe(self):
        key = ("simulation", "raft", 3, 42)
        digest = CampaignCheckpoint.digest(key)
        assert digest == CampaignCheckpoint.digest(key)
        assert digest != CampaignCheckpoint.digest(key + ("x",))
        assert len(digest) == 24 and digest.isalnum()

    def test_supervised_run_restores_from_journal(self, tmp_path):
        journal = self._checkpoint(tmp_path)
        journal.record(1, 99)
        results, report = run_supervised(
            _square,
            [5, 6, 7, 8],
            jobs=1,
            mode="serial",
            checkpoint=self._checkpoint(tmp_path),
        )
        assert results == [25, 99, 49, 64]  # shard 1 came from the journal
        assert report.restored == 1 and report.attempts == 3


# ---------------------------------------------------------------------------
# Engine-level campaigns: degrade, resume, byte-identical JSON
# ---------------------------------------------------------------------------
def _campaign_queries():
    scenario = Scenario(
        spec=RaftSpec(3), fleet=uniform_fleet(3, 0.2), seed=7, label="camp"
    )
    return QuerySet(
        [SimulationQuery(scenario=scenario, replicas=12, duration=8.0)]
    )


def _answers_json(answers) -> str:
    return json.dumps([answer.to_dict() for answer in answers], sort_keys=True)


@pytest.mark.chaos
class TestEngineCampaignRecovery:
    BASE_POLICY = ExecutionPolicy(mode="thread", jobs=2, shard_trials=3)

    def _baseline_json(self):
        answers = ReliabilityEngine().run(_campaign_queries(), policy=self.BASE_POLICY)
        return _answers_json(answers)

    def test_chaos_recovered_campaign_is_byte_identical(self, tmp_path):
        baseline = self._baseline_json()
        chaos = ChaosPlan(
            faults=(
                (0, ShardFault("raise", times=1)),
                (2, ShardFault("raise", times=1)),
            ),
            state_dir=str(tmp_path),
        )
        policy = ExecutionPolicy(
            mode="thread", jobs=2, shard_trials=3, retries=2, backoff=0.0,
            chaos=chaos,
        )
        recovered = ReliabilityEngine().run(_campaign_queries(), policy=policy)
        assert _answers_json(recovered) == baseline

    def test_interrupted_campaign_resumes_byte_identically(self, tmp_path):
        baseline = self._baseline_json()
        state = tmp_path / "chaos"
        journals = tmp_path / "journals"
        # First run: shard 1 is permanently poisoned; degrade keeps the
        # run alive and journals the 3 completed shards.
        chaos = ChaosPlan(
            faults=((1, ShardFault("raise", times=-1)),), state_dir=str(state)
        )
        interrupted_policy = ExecutionPolicy(
            mode="thread", jobs=2, shard_trials=3, retries=1, backoff=0.0,
            on_shard_failure="degrade", checkpoint_dir=str(journals),
            chaos=chaos,
        )
        partial = ReliabilityEngine().run(
            _campaign_queries(), policy=interrupted_policy
        )
        assert partial[0].provenance.degraded
        assert partial[0].provenance.dropped_shards == (1,)
        assert partial[0].provenance.effective_trials == 9
        assert partial[0].value.replicas == 9
        # Second run: no chaos; only the missing shard re-runs, and the
        # answer JSON is byte-identical to the never-interrupted run.
        resumed_policy = ExecutionPolicy(
            mode="thread", jobs=2, shard_trials=3, checkpoint_dir=str(journals)
        )
        resumed = ReliabilityEngine().run(_campaign_queries(), policy=resumed_policy)
        assert _answers_json(resumed) == baseline
        assert not resumed[0].provenance.degraded

    def test_degraded_answers_never_enter_the_memo(self, tmp_path):
        chaos = ChaosPlan(
            faults=((0, ShardFault("raise", times=-1)),), state_dir=str(tmp_path)
        )
        engine = ReliabilityEngine()
        degraded = engine.run(
            _campaign_queries(),
            policy=ExecutionPolicy(
                mode="thread", jobs=2, shard_trials=3, retries=0,
                on_shard_failure="degrade", chaos=chaos,
            ),
        )
        assert degraded[0].provenance.degraded
        assert "degraded[1]" in degraded[0].provenance.describe()
        assert degraded[0].to_dict()["degraded"] is True
        # A rerun on the same engine must recompute, not serve the partial
        # answer from cache.
        clean = engine.run(_campaign_queries(), policy=self.BASE_POLICY)
        assert not clean[0].provenance.cache_hit
        assert not clean[0].provenance.degraded
        assert "degraded" not in clean[0].to_dict()

    def test_complete_supervised_campaign_is_cached(self):
        engine = ReliabilityEngine()
        first = engine.run(
            _campaign_queries(),
            policy=ExecutionPolicy(mode="thread", jobs=2, shard_trials=3, retries=2),
        )
        assert not first[0].provenance.cache_hit
        second = engine.run(_campaign_queries(), policy=self.BASE_POLICY)
        assert second[0].provenance.cache_hit


_RESUME_SCRIPT = """
import json, sys
from repro.engine import ExecutionPolicy, ReliabilityEngine, Scenario, SimulationQuery
from repro.faults.mixture import byzantine_fleet
from repro.protocols.pbft import PBFTSpec

query = SimulationQuery(
    Scenario(spec=PBFTSpec(4), fleet=byzantine_fleet(4, 0.1), seed=7), replicas=8
)
policy = ExecutionPolicy(shard_trials=1, checkpoint_dir=sys.argv[1])
answer = ReliabilityEngine().run_query(query, policy=policy)
print(json.dumps({
    "answer": answer.to_dict(),
    "shards": answer.provenance.shards,
    "restored": answer.provenance.report.restored,
}, sort_keys=True))
"""


class TestCrossProcessResume:
    def test_byzantine_campaign_resumes_in_a_second_process(self, tmp_path):
        """A journal is found again by a later interpreter.

        The campaign memo key of a Byzantine-capable campaign holds the
        resolved behaviour *functions*, whose ``repr`` embeds a memory
        address — naming the journal after it orphaned one file per
        process and ``--resume`` restored nothing.  The journal is named
        by the query's canonical JSON form instead.
        """
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))

        def run():
            done = subprocess.run(
                [sys.executable, "-c", _RESUME_SCRIPT, str(tmp_path)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            return json.loads(done.stdout)

        first, second = run(), run()
        assert first["shards"] == second["shards"] == 8
        assert first["restored"] == 0
        assert second["restored"] == second["shards"]
        assert json.dumps(first["answer"], sort_keys=True) == json.dumps(
            second["answer"], sort_keys=True
        )
        (journal,) = tmp_path.glob("campaign-*")
        assert len(list(journal.glob("shard-*.json"))) == 8

    @pytest.mark.chaos
    def test_sigkilled_query_resumes_byte_identically(self, tmp_path):
        """A ``query --resume DIR`` process killed mid-campaign loses at
        most the shards it was running: a rerun restores the shard files
        on disk and answers the bytes of a run that had no checkpoint."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        (tmp_path / "campaign.json").write_text(json.dumps([{
            "kind": "simulation", "replicas": 96, "duration": 8.0,
            "scenario": {"spec": {"protocol": "raft", "n": 5},
                         "fleet": {"uniform": {"n": 5, "p_fail": 0.2}}, "seed": 11},
        }]))
        checkpoint = tmp_path / "ck"

        def cmd(*extra):
            return [sys.executable, "-m", "repro.cli", "query",
                    str(tmp_path / "campaign.json"), "--json", *extra]

        def run(*extra):
            done = subprocess.run(cmd(*extra), env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            return json.loads(done.stdout)[0]

        def shards_on_disk():
            return len(list(checkpoint.glob("campaign-*/shard-*.json")))

        clean = run()
        child = subprocess.Popen(cmd("--resume", str(checkpoint)), env=env,
                                 stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        while shards_on_disk() < 4 and child.poll() is None and time.monotonic() < deadline:
            time.sleep(0.005)
        child.send_signal(signal.SIGKILL)
        assert child.wait(timeout=60) == -signal.SIGKILL
        assert 4 <= shards_on_disk() < 16

        resumed = run("--resume", str(checkpoint))
        assert resumed["run"]["shards"] == 16
        assert 0 < resumed["run"]["restored"] < 16
        assert json.dumps(resumed["answer"], sort_keys=True) == json.dumps(
            clean["answer"], sort_keys=True
        )


# ---------------------------------------------------------------------------
# Dogfooding: a declarative FaultPlan attacks the runtime itself
# ---------------------------------------------------------------------------
@pytest.mark.chaos
class TestChaosFromFaultPlan:
    def test_outages_map_to_shard_faults(self, tmp_path):
        plan = FaultPlan(
            events=(
                CrashStop(node=1, at=1.0, recover_at=2.0),
                CrashStop(node=3, at=1.0),
            ),
            adversary=Adversary(nodes=(2,)),
            sample_faults=False,
        )
        chaos = chaos_from_fault_plan(
            plan, shards=4, state_dir=str(tmp_path), hang_seconds=0.1
        )
        by_shard = dict(chaos.faults)
        assert by_shard[1].kind == "raise" and by_shard[1].times == 1
        assert by_shard[3].kind == "raise" and by_shard[3].times == -1
        assert by_shard[2].kind == "hang"
        assert 0 not in by_shard

    def test_fault_plan_driven_run_recovers_bit_identically(self, tmp_path):
        clean, _ = monte_carlo_tally_sharded(
            SPEC, FLEET, 16_000, 11, jobs=1, shard_trials=4_000, mode="serial"
        )
        plan = FaultPlan(
            events=(CrashStop(node=2, at=1.0, recover_at=2.0),),
            sample_faults=False,
        )
        chaos = chaos_from_fault_plan(plan, shards=4, state_dir=str(tmp_path))
        recovered, _ = monte_carlo_tally_sharded(
            SPEC, FLEET, 16_000, 11, jobs=2, shard_trials=4_000, mode="thread",
            supervision=Supervision(retries=1, backoff=0.0), chaos=chaos,
        )
        assert recovered == clean

    def test_shards_must_be_positive(self, tmp_path):
        with pytest.raises(InvalidConfigurationError):
            chaos_from_fault_plan(None, shards=0, state_dir=str(tmp_path))


# ---------------------------------------------------------------------------
# Chaos plan validation
# ---------------------------------------------------------------------------
class TestChaosValidation:
    def test_bad_faults_rejected(self, tmp_path):
        with pytest.raises(InvalidConfigurationError):
            ShardFault("melt")
        with pytest.raises(InvalidConfigurationError):
            ShardFault("raise", times=0)
        with pytest.raises(InvalidConfigurationError):
            ShardFault("delay", seconds=-1.0)
        with pytest.raises(InvalidConfigurationError):
            ChaosPlan(
                faults=(
                    (1, ShardFault("raise")),
                    (1, ShardFault("kill")),
                ),
                state_dir=str(tmp_path),
            )
        with pytest.raises(InvalidConfigurationError):
            ChaosPlan(faults=((-1, ShardFault("raise")),), state_dir=str(tmp_path))

    def test_kill_downgrades_outside_process_pools(self, tmp_path):
        chaos = ChaosPlan(
            faults=((0, ShardFault("kill", times=1)),), state_dir=str(tmp_path)
        )
        worker = chaos.bind(_square, "thread")
        with pytest.raises(ChaosInjectedError):
            worker((0, 5))
        assert worker((0, 5)) == 25  # second attempt passes through

    def test_attempt_counting_is_per_shard(self, tmp_path):
        chaos = ChaosPlan(
            faults=((0, ShardFault("raise", times=1)),), state_dir=str(tmp_path)
        )
        worker = chaos.bind(_square, "serial")
        assert worker((1, 3)) == 9  # unfaulted shard unaffected
        with pytest.raises(ChaosInjectedError):
            worker((0, 3))
        assert worker((0, 3)) == 9


# ---------------------------------------------------------------------------
# Hypothesis: retry determinism over arbitrary failing subsets (satellite)
# ---------------------------------------------------------------------------
class TestRetryDeterminismProperty:
    CLEAN, _ = monte_carlo_tally_sharded(
        SPEC, FLEET, 8_000, 29, jobs=1, shard_trials=2_000, mode="serial"
    )

    @pytest.mark.chaos
    @settings(max_examples=10, deadline=None)
    @given(failing=st.sets(st.integers(min_value=0, max_value=3)))
    def test_any_failing_subset_is_bit_identical_thread(self, tmp_path_factory, failing):
        state = tmp_path_factory.mktemp("chaos")
        chaos = ChaosPlan(
            faults=tuple(
                (index, ShardFault("raise", times=1)) for index in sorted(failing)
            ),
            state_dir=str(state),
        )
        tally, _ = monte_carlo_tally_sharded(
            SPEC, FLEET, 8_000, 29, jobs=2, shard_trials=2_000, mode="thread",
            supervision=Supervision(retries=1, backoff=0.0),
            chaos=chaos if failing else None,
        )
        assert tally == self.CLEAN

    @pytest.mark.chaos
    @settings(max_examples=4, deadline=None)
    @given(failing=st.sets(st.integers(min_value=0, max_value=3), min_size=1))
    def test_any_failing_subset_is_bit_identical_process(
        self, tmp_path_factory, failing
    ):
        state = tmp_path_factory.mktemp("chaos")
        chaos = ChaosPlan(
            faults=tuple(
                (index, ShardFault("raise", times=1)) for index in sorted(failing)
            ),
            state_dir=str(state),
        )
        tally, _ = monte_carlo_tally_sharded(
            SPEC, FLEET, 8_000, 29, jobs=2, shard_trials=2_000, mode="process",
            supervision=Supervision(retries=1, backoff=0.0), chaos=chaos,
        )
        assert tally == self.CLEAN

    @pytest.mark.chaos
    @settings(max_examples=5, deadline=None)
    @given(failing=st.sets(st.integers(min_value=0, max_value=3), min_size=1))
    def test_simulation_answer_survives_failing_subsets(
        self, tmp_path_factory, failing
    ):
        baseline = ReliabilityEngine().run(
            _campaign_queries(),
            policy=ExecutionPolicy(mode="thread", jobs=2, shard_trials=3),
        )
        state = tmp_path_factory.mktemp("chaos")
        chaos = ChaosPlan(
            faults=tuple(
                (index, ShardFault("raise", times=1)) for index in sorted(failing)
            ),
            state_dir=str(state),
        )
        recovered = ReliabilityEngine().run(
            _campaign_queries(),
            policy=ExecutionPolicy(
                mode="thread", jobs=2, shard_trials=3, retries=1, backoff=0.0,
                chaos=chaos,
            ),
        )
        assert recovered[0].value == baseline[0].value
        assert _answers_json(recovered) == _answers_json(baseline)


# ---------------------------------------------------------------------------
# Misc runtime behaviour
# ---------------------------------------------------------------------------
class TestRuntimeMisc:
    def test_retry_report_lists_retried_shards(self, tmp_path):
        chaos = ChaosPlan(
            faults=((2, ShardFault("raise", times=1)),), state_dir=str(tmp_path)
        )
        results, report = run_supervised(
            _square,
            [1, 2, 3, 4],
            jobs=1,
            mode="serial",
            supervision=Supervision(retries=1, backoff=0.0),
            chaos=chaos,
        )
        assert results == [1, 4, 9, 16]
        assert report.retried == (2,)
        assert report.attempts == 5

    def test_plan_shards_still_validates(self):
        with pytest.raises(InvalidConfigurationError):
            plan_shards(0)
        with pytest.raises(InvalidConfigurationError):
            plan_shards(100, -1)

    def test_merge_skips_no_tallies(self):
        with pytest.raises(InvalidConfigurationError):
            merge_tallies([])
