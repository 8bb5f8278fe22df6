"""Thread-safety regressions: the engine memo and the campaign journal.

PR 8 turns the engine into shared service infrastructure
(:mod:`repro.serve`), which makes two latent races load-bearing:

* the LRU memo (``ReliabilityEngine._memo`` + hit/miss counters) was
  updated without a lock — concurrent ``move_to_end``/eviction corrupts
  the ``OrderedDict`` (``KeyError``) and drops counter increments;
* ``CampaignCheckpoint.record`` opened fresh/stale journals with ``"w"``
  — a writer that loaded a stale (foreign) journal could truncate rows a
  concurrent same-campaign writer had just recorded, and a torn or
  corrupt row anywhere in the file was silently treated like a torn
  tail.

Every test here fails on the pre-PR code and pins the fixed behaviour.
The journal has since become a directory of atomically renamed shard
files: the two race tests still run unchanged against it, and the
damage tests pin its one rule — a damaged, oversized, foreign or
never-renamed shard file costs that shard and nothing else.
"""

from __future__ import annotations

import json
import os
import stat
import sys
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.engine import (
    CampaignCheckpoint,
    ExecutionPolicy,
    ReliabilityEngine,
    Scenario,
    query_from_dict,
)
from repro.faults.mixture import uniform_fleet
from repro.protocols.raft import RaftSpec


def scenario(n=5, p=0.01, **kw):
    return Scenario(spec=RaftSpec(n), fleet=uniform_fleet(n, p), **kw)


@pytest.fixture
def tight_switching():
    """Force thread switches every ~µs so races surface in one run."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


class TestMemoThreadSafety:
    def test_concurrent_runs_and_inline_answers_under_eviction(
        self, tight_switching
    ):
        """Eviction racing ``move_to_end`` must never corrupt the memo.

        A tiny cache keeps every store evicting while other threads
        refresh recency on the same keys, through the two memo passes the
        product runs: ``run`` (executor threads) and ``answer_inline``
        (the daemon's loop; these rows are inside its bound, so a miss is
        computed there).  Unguarded, ``move_to_end`` raises ``KeyError``
        when its key is evicted mid-call (and ``popitem`` can race
        itself), and ``+=`` on the counters loses updates.  The fix
        serialises every memo access on the engine lock.
        """
        engine = ReliabilityEngine(cache_size=4)
        rows = [scenario(3, 0.001 * (i + 1)) for i in range(16)]
        calls = 1500
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def hammer(worker: int) -> None:
            try:
                barrier.wait(timeout=30)
                for round_ in range(calls):
                    row = rows[(2 * worker + round_) % len(rows)]
                    if round_ % 2:
                        engine.run([row])
                    else:
                        assert engine.answer_inline(row) is not None
            except BaseException as error:  # noqa: BLE001 - recording for assert
                errors.append(error)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        assert errors == []
        info = engine.cache_info()
        assert info["size"] <= 4
        # Every submitted row counted exactly once despite the contention.
        assert info["hits"] + info["misses"] == 8 * calls

    def test_hit_counter_is_exact_under_contention(self, tight_switching):
        """Lost-update check: N threads x M warm hits count N*M.

        Every hit goes through ``answer_inline``, the daemon's loop-side
        call, on one hot row the memo holds.  The hit count is what
        ``/metrics`` reports as the engine cache hit rate, so a dropped
        increment would make that rate lie.
        """
        engine = ReliabilityEngine(cache_size=8)
        hot = scenario(3, 0.01)
        expected = engine.run_query(hot)
        barrier = threading.Barrier(8)

        def hit(_worker: int) -> None:
            barrier.wait(timeout=30)
            for _ in range(500):
                assert engine.answer_inline(hot).value == expected.value

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hit, range(8)))
        assert engine.cache_hits == 8 * 500
        assert engine.cache_misses == 1  # the warm-up run

    def test_answer_inline_holds_the_lock_from_probe_to_recency(self):
        """A hit's ``get`` and ``move_to_end`` run under one acquisition.

        The memo's ``get`` starts a thread that evicts the key under the
        engine lock, then waits 50 ms for it.  Held, the lock keeps the
        evictor out until ``answer_inline`` has refreshed the key; dropped,
        the key is gone by then and ``move_to_end`` raises ``KeyError`` —
        which the thread-racing tests above do not reliably catch.
        """
        engine = ReliabilityEngine()
        row = scenario(3, 0.01)
        expected = engine.run_query(row)
        evictors: list[threading.Thread] = []

        class EvictingMemo(OrderedDict):
            def get(self, key, default=None):
                value = super().get(key, default)
                if value is not None and not evictors:
                    def evict() -> None:
                        with engine._lock:
                            self.pop(key, None)

                    evictors.append(threading.Thread(target=evict))
                    evictors[0].start()
                    evictors[0].join(timeout=0.05)
                return value

        engine._memo = EvictingMemo(engine._memo)
        answer = engine.answer_inline(row)
        evictors[0].join(timeout=30)
        assert answer.value == expected.value and answer.provenance.cache_hit
        assert engine.cache_hits == 1
        assert not evictors[0].is_alive() and len(engine._memo) == 0

    def test_concurrent_runs_share_one_engine_bit_identically(self):
        """Many threads through one warm engine = the serial answers."""
        queries = [
            query_from_dict(
                {"kind": "reliability", "scenario": scenario(n, 0.01).to_dict()}
            )
            for n in (3, 5, 7)
        ]
        policy = ExecutionPolicy.for_service(1, checkpoint_dir=None)
        reference = [
            answer.to_dict()["answer"]
            for answer in ReliabilityEngine().run(queries, policy=policy)
        ]
        engine = ReliabilityEngine()

        def run_all(_worker: int):
            return [
                answer.to_dict()["answer"]
                for answer in engine.run(queries, policy=policy)
            ]

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(run_all, range(12)))
        assert all(result == reference for result in results)


class TestJournalDurability:
    def _checkpoint(self, path, *, key="campaign-a", shards=4):
        return CampaignCheckpoint(path, key=key, shards=shards)

    def test_stale_truncation_race_keeps_concurrent_rows(self, tmp_path):
        """The deterministic schedule the ``"w"``-mode journal lost on.

        Both writers of campaign B load while a foreign (campaign A)
        journal holds the path, so both mark it stale.  Writer 1 rewrites
        the file with shard 0; writer 2, still thinking the file is
        foreign, must *re-probe* before replacing — pre-PR it truncated
        writer 1's row away.
        """
        path = tmp_path / "journal.jsonl"
        foreign = self._checkpoint(path, key="campaign-a")
        foreign.load()
        foreign.record(0, "foreign-row")

        writer1 = self._checkpoint(path, key="campaign-b")
        writer2 = self._checkpoint(path, key="campaign-b")
        assert writer1.load() == {}
        assert writer2.load() == {}  # both saw the foreign journal
        writer1.record(0, "b0")
        writer2.record(1, "b1")

        resumed = self._checkpoint(path, key="campaign-b").load()
        assert resumed == {0: "b0", 1: "b1"}

    def test_concurrent_records_all_survive(self, tmp_path, tight_switching):
        """Parallel same-campaign writers never lose each other's rows."""
        path = tmp_path / "journal.jsonl"
        shards = 32
        barrier = threading.Barrier(8)

        def record(index: int) -> None:
            checkpoint = self._checkpoint(path, shards=shards)
            checkpoint.load()
            barrier.wait(timeout=30)
            for shard in range(index, shards, 8):
                checkpoint.record(shard, f"row-{shard}")

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(record, range(8)))
        loaded = self._checkpoint(path, shards=shards).load()
        assert loaded == {shard: f"row-{shard}" for shard in range(shards)}

    def test_each_shard_is_fsynced_renamed_then_its_directory_fsynced(
        self, tmp_path, monkeypatch
    ):
        """The write protocol, call by call; the temp name is the writer's."""
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            calls.append(("fsync", kind))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", Path(src).name, Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        checkpoint = self._checkpoint(tmp_path / "journal")
        checkpoint.record(0, "alpha")
        checkpoint.record(1, "beta")
        tmp = f"{os.getpid()}.{threading.get_ident()}.tmp"
        assert calls == [
            ("fsync", "dir"),  # the new campaign directory's entry
            ("fsync", "file"),
            ("replace", f"shard-0.json.{tmp}", "shard-0.json"),
            ("fsync", "dir"),
            ("fsync", "file"),
            ("replace", f"shard-1.json.{tmp}", "shard-1.json"),
            ("fsync", "dir"),
        ]

    def test_damaged_shard_file_is_skipped_and_rewritten(self, tmp_path):
        """A damaged shard file costs that shard, never the others."""
        path = tmp_path / "journal"
        checkpoint = self._checkpoint(path)
        checkpoint.load()
        checkpoint.record(0, "alpha")
        checkpoint.record(1, "beta")
        damaged = path / "shard-1.json"
        damaged.write_bytes(damaged.read_bytes()[: damaged.stat().st_size // 2])

        fresh = self._checkpoint(path)
        assert fresh.load() == {0: "alpha"}
        fresh.record(1, "beta")  # the recomputed shard replaces the damage
        assert self._checkpoint(path).load() == {0: "alpha", 1: "beta"}

    def test_crash_before_rename_loses_only_that_shard(self, tmp_path, monkeypatch):
        """A write that never reached its rename leaves a temp file only."""
        path = tmp_path / "journal"
        checkpoint = self._checkpoint(path)
        checkpoint.load()
        checkpoint.record(0, "alpha")
        checkpoint.record(1, "beta")

        def crash(src, dst):
            raise OSError("crashed before the rename")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", crash)
            with pytest.raises(OSError, match="before the rename"):
                checkpoint.record(2, "gamma")
        assert [p.name for p in path.glob("*.tmp")]  # the torn write's remains
        assert self._checkpoint(path).load() == {0: "alpha", 1: "beta"}

        checkpoint.record(2, "gamma")
        assert self._checkpoint(path).load() == {0: "alpha", 1: "beta", 2: "gamma"}
        assert not list(path.glob("*.tmp"))

    def test_foreign_and_misplaced_shard_files_are_skipped(self, tmp_path):
        """A file naming another format, shard count or index is not ours."""
        path = tmp_path / "journal"
        checkpoint = self._checkpoint(path)
        checkpoint.load()
        checkpoint.record(0, "alpha")
        row = json.loads((path / "shard-0.json").read_text())
        (path / "shard-1.json").write_text(json.dumps(row))  # names shard 0
        (path / "shard-2.json").write_text(
            json.dumps(dict(row, shard=2, format="repro-campaign-checkpoint/1"))
        )
        (path / "shard-3.json").write_text(json.dumps(dict(row, shard=3, shards=8)))
        assert self._checkpoint(path).load() == {0: "alpha"}

    def test_oversized_shard_file_is_skipped(self, tmp_path, monkeypatch):
        path = tmp_path / "journal"
        checkpoint = self._checkpoint(path)
        checkpoint.load()
        checkpoint.record(0, "alpha")
        checkpoint.record(1, "b" * 4096)
        monkeypatch.setattr(CampaignCheckpoint, "MAX_SHARD_BYTES", 1024)
        fresh = self._checkpoint(path)
        assert fresh.load() == {0: "alpha"}
        fresh.record(1, "beta")  # replaces the monster rather than reading it
        assert self._checkpoint(path).load() == {0: "alpha", 1: "beta"}
