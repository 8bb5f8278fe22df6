"""Tests for the concurrency rule families (repro.contracts.rules_concurrency).

Every family is proven both to fire on a minimal bad snippet and to stay
quiet on the corresponding good snippet, in the Thm fire-AND-stay-quiet
style of test_contracts.py.  The centrepiece is the pre-PR-8 regression
corpus: the historical engine-memo and journal-truncation bugs PR 8
fixed by hand, vendored verbatim, with the lock discipline that PR
introduced — ``lock-guard`` must pinpoint every access the fix had to
guard.  SARIF output and the versioned JSON schema are round-trip-tested
here too, alongside the CLI's unknown-rule and ``--explain list``
behaviour.
"""

import json
import textwrap

import pytest

from repro.cli import main
from repro.contracts import (
    DEFAULT_CONFIG,
    LintResult,
    lint_sources,
    registered_rules,
    render_json,
    render_sarif,
)
from repro.contracts.core import Finding

pytestmark = [pytest.mark.lint, pytest.mark.lint_concurrency]

CONCURRENCY_RULES = (
    "lock-guard",
    "lock-order",
    "async-hygiene",
    "journal-durability",
)


def run(source, *, path="app/mod.py", rules=None, extra=None):
    """Lint dedented in-memory modules and return the findings."""
    sources = {path: textwrap.dedent(source)}
    for extra_path, extra_source in (extra or {}).items():
        sources[extra_path] = textwrap.dedent(extra_source)
    return lint_sources(sources, config=DEFAULT_CONFIG, rules=rules)


def rule_ids(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# lock-guard
# ---------------------------------------------------------------------------
class TestLockGuard:
    def test_fires_on_lock_free_read_of_guarded_attribute(self):
        findings = run(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def put(self, key, value):
                    with self._lock:
                        self._entries[key] = value

                def get(self, key):
                    return self._entries.get(key)
            """,
            rules=["lock-guard"],
        )
        assert rule_ids(findings) == ["lock-guard"]
        assert "`self._entries`" in findings[0].message
        assert "self._lock" in findings[0].message

    def test_stays_quiet_when_every_access_is_guarded(self):
        findings = run(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def put(self, key, value):
                    with self._lock:
                        self._entries[key] = value

                def get(self, key):
                    with self._lock:
                        return self._entries.get(key)
            """,
            rules=["lock-guard"],
        )
        assert findings == []

    def test_mutator_calls_count_as_writes(self):
        findings = run(
            """
            import threading

            class Events:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._pending = []

                def push(self, event):
                    with self._lock:
                        self._pending.append(event)

                def drain(self):
                    self._pending.clear()
            """,
            rules=["lock-guard"],
        )
        assert rule_ids(findings) == ["lock-guard"]
        assert findings[0].line == 14  # the unguarded clear()

    def test_private_helper_called_under_lock_is_credited(self):
        findings = run(
            """
            import threading

            class Journal:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._stale = False

                def load(self):
                    with self._lock:
                        return self._load_locked()

                def _load_locked(self):
                    self._stale = True
                    return {}
            """,
            rules=["lock-guard"],
        )
        assert findings == []

    def test_public_method_inherits_nothing_from_callers(self):
        # `refresh` is called under the lock once, but it is public — an
        # external caller can invoke it lock-free, so its unguarded write
        # must still fire.
        findings = run(
            """
            import threading

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = None

                def tick(self):
                    with self._lock:
                        self._state = "ticking"
                        self.refresh()

                def refresh(self):
                    self._state = "fresh"
            """,
            rules=["lock-guard"],
        )
        assert rule_ids(findings) == ["lock-guard"]
        assert "`self._state`" in findings[0].message

    def test_init_writes_are_exempt_and_unlocked_classes_are_ignored(self):
        findings = run(
            """
            class Plain:
                def __init__(self):
                    self.count = 0

                def bump(self):
                    self.count += 1
            """,
            rules=["lock-guard"],
        )
        assert findings == []

    def test_inline_allow_suppresses_a_justified_site(self):
        findings = run(
            """
            import threading

            class Metrics:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = 0

                def bump(self):
                    with self._lock:
                        self.hits += 1

                def peek(self):
                    # repro: allow[lock-guard] -- racy read is advisory-only
                    return self.hits
            """,
            rules=["lock-guard"],
        )
        assert findings == []


class TestLockGuardFanOut:
    """One mutable object in every pool payload is worker-shared state."""

    def test_fires_on_one_dict_in_every_payload(self):
        findings = run(
            """
            from repro.runtime import run_supervised

            def _work(payload):
                shard, seen = payload
                seen[shard] = True

            def fan_out(shards):
                seen = {}
                return run_supervised(
                    _work, [(shard, seen) for shard in shards], jobs=4
                )
            """,
            rules=["lock-guard"],
        )
        assert rule_ids(findings) == ["lock-guard"]
        assert "`seen` is one dict" in findings[0].message
        assert "run_supervised" in findings[0].message
        assert findings[0].line == 9  # where the container is created

    def test_fires_through_a_payload_builder_and_its_defaults(self):
        # The simulation backend's shape: a nested builder, the table bound
        # as a defaulted parameter, the payload list built by comprehension.
        findings = run(
            """
            def campaign(queries, policy):
                for query in queries:
                    table: dict = {}
                    slices = []

                    def build_payload(bounds, query=query, shared=table):
                        low, high = bounds
                        return (query, low, high, shared)

                    run_supervised(
                        _chunk,
                        [build_payload(bounds) for bounds in slices],
                        jobs=policy.jobs,
                    )
            """,
            rules=["lock-guard"],
        )
        assert rule_ids(findings) == ["lock-guard"]
        assert "`table` is one dict" in findings[0].message

    def test_fires_through_a_named_payload_list(self):
        findings = run(
            """
            def fan_out(shards):
                log = list()
                payloads = [(shard, log) for shard in shards]
                return run_supervised(_work, payloads, jobs=2)
            """,
            rules=["lock-guard"],
        )
        assert rule_ids(findings) == ["lock-guard"]
        assert "`log` is one list" in findings[0].message

    def test_stays_quiet_when_nothing_mutable_is_shared(self):
        findings = run(
            """
            def fan_out(shards, config):
                order = []                       # parent-only bookkeeping
                for shard in shards:
                    order.append(shard)
                frozen = tuple(order)
                return run_supervised(
                    _work,
                    [(shard, {}, frozen, config) for shard in order],  # a dict each
                    jobs=4,
                )

            def not_a_pool(shards):
                seen = {}
                return [handle((shard, seen)) for shard in shards]
            """,
            rules=["lock-guard"],
        )
        assert findings == []

    def test_stays_quiet_when_a_lock_rides_in_the_payload(self):
        findings = run(
            """
            import threading

            def fan_out(shards):
                seen = {}
                seen_lock = threading.Lock()
                return run_supervised(
                    _work, [(shard, seen, seen_lock) for shard in shards], jobs=4,
                    mode="thread",
                )
            """,
            rules=["lock-guard"],
        )
        assert findings == []

    def test_inline_allow_on_the_creating_line_is_the_justification(self):
        findings = run(
            """
            def fan_out(shards):
                # repro: allow[lock-guard] -- racing writers store equal values
                seen = {}
                return run_supervised(
                    _work, [(shard, seen) for shard in shards], jobs=4
                )
            """,
            rules=["lock-guard"],
        )
        assert findings == []

    def test_the_campaign_reuse_table_is_seen_and_justified_in_place(self):
        # The product's one worker-shared mutable: the rule finds it when the
        # justification is taken away, so the clean self-lint is not silence.
        from pathlib import Path

        import repro.engine.backends as backends

        source = Path(backends.__file__).read_text(encoding="utf-8")
        assert source.count("repro: allow[lock-guard]") == 1
        path = "repro/engine/backends.py"
        assert run(source, path=path, rules=["lock-guard"]) == []
        stripped = source.replace("repro: allow[lock-guard]", "because:")
        findings = run(stripped, path=path, rules=["lock-guard"])
        assert rule_ids(findings) == ["lock-guard"]
        assert "`reuse` is one dict" in findings[0].message
        assert "simulation_backend" in findings[0].message


# ---------------------------------------------------------------------------
# lock-order
# ---------------------------------------------------------------------------
class TestLockOrder:
    def test_fires_on_opposite_acquisition_orders(self):
        findings = run(
            """
            import threading

            A_LOCK = threading.Lock()
            B_LOCK = threading.Lock()

            def forward():
                with A_LOCK:
                    with B_LOCK:
                        pass

            def backward():
                with B_LOCK:
                    with A_LOCK:
                        pass
            """,
            rules=["lock-order"],
        )
        assert rule_ids(findings) == ["lock-order"]
        assert "A_LOCK" in findings[0].message and "B_LOCK" in findings[0].message
        assert "deadlock" in findings[0].message

    def test_stays_quiet_on_one_global_order(self):
        findings = run(
            """
            import threading

            A_LOCK = threading.Lock()
            B_LOCK = threading.Lock()

            def first():
                with A_LOCK:
                    with B_LOCK:
                        pass

            def second():
                with A_LOCK:
                    with B_LOCK:
                        pass
            """,
            rules=["lock-order"],
        )
        assert findings == []

    def test_rlock_reentry_is_not_a_cycle(self):
        findings = run(
            """
            import threading

            class Engine:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """,
            rules=["lock-order"],
        )
        assert findings == []

    def test_cycle_through_a_method_call_is_found(self):
        # transfer() holds Account._lock and calls _audit(), which takes
        # AUDIT_LOCK; report() nests them the other way round — one side
        # of the cycle only exists interprocedurally.
        findings = run(
            """
            import threading

            AUDIT_LOCK = threading.Lock()

            class Account:
                def __init__(self):
                    self._lock = threading.Lock()

                def transfer(self):
                    with self._lock:
                        self._audit()

                def _audit(self):
                    with AUDIT_LOCK:
                        pass

                def report(self):
                    with AUDIT_LOCK:
                        with self._lock:
                            pass
            """,
            rules=["lock-order"],
        )
        assert rule_ids(findings) == ["lock-order"]
        assert "AUDIT_LOCK" in findings[0].message
        assert "Account._lock" in findings[0].message

    def test_cross_file_orders_share_one_graph(self):
        findings = run(
            """
            import threading
            A_LOCK = threading.Lock()
            B_LOCK = threading.Lock()

            def forward():
                with A_LOCK:
                    with B_LOCK:
                        pass
            """,
            extra={
                "app/other.py": """
                from app.mod import A_LOCK, B_LOCK

                def backward():
                    with B_LOCK:
                        with A_LOCK:
                            pass
                """
            },
            rules=["lock-order"],
        )
        assert rule_ids(findings) == ["lock-order"]


# ---------------------------------------------------------------------------
# async-hygiene
# ---------------------------------------------------------------------------
class TestAsyncHygiene:
    def test_fires_on_blocking_calls_in_async_def(self):
        findings = run(
            """
            import time
            import os

            async def handle(request):
                time.sleep(0.1)
                os.fsync(3)
            """,
            rules=["async-hygiene"],
        )
        assert rule_ids(findings) == ["async-hygiene", "async-hygiene"]
        assert "time.sleep" in findings[0].message
        assert "os.fsync" in findings[1].message

    def test_fires_on_direct_engine_run_and_open(self):
        findings = run(
            """
            async def handle(self, queries):
                config = open("config.json").read()
                return self._engine.run(queries)
            """,
            rules=["async-hygiene"],
        )
        messages = " / ".join(f.message for f in findings)
        assert rule_ids(findings) == ["async-hygiene", "async-hygiene"]
        assert "open()" in messages and "engine" in messages

    def test_a_recall_miss_does_not_license_running_inline(self):
        findings = run(
            """
            async def handle(self, query):
                answer = self.engine.answer_inline(query)
                if answer is None:
                    answer = self.engine.run_query(query)
                return answer or self.engine.run([query])[0]
            """,
            rules=["async-hygiene"],
        )
        assert rule_ids(findings) == ["async-hygiene", "async-hygiene"]
        assert ".run_query()" in findings[0].message
        assert ".run()" in findings[1].message
        assert all(".answer_inline()" in f.message for f in findings)

    def test_answer_inline_is_allowed_on_the_loop(self):
        findings = run(
            """
            import asyncio

            async def handle(self, query):
                answer = self.engine.answer_inline(query, self.policy)
                if answer is None:
                    answer = await asyncio.to_thread(self.engine.run_query, query)
                return answer
            """,
            rules=["async-hygiene"],
        )
        assert findings == []

    def test_fires_on_a_sync_method_that_runs_the_engine(self):
        findings = run(
            """
            class Service:
                def _compute(self, query):
                    return self.engine.run([query])[0]

                def _describe(self, query):
                    return query.label

                async def handle(self, query):
                    label = self._describe(query)
                    return label, self._compute(query)
            """,
            rules=["async-hygiene"],
        )
        assert rule_ids(findings) == ["async-hygiene"]
        assert findings[0].line == 11  # the call site, not the helper
        assert "self._compute()" in findings[0].message
        assert ".run()" in findings[0].message

    def test_a_sync_method_that_runs_the_engine_may_go_to_the_executor(self):
        findings = run(
            """
            import asyncio
            from functools import partial

            class Service:
                def _compute(self, query):
                    return self.engine.run([query])[0]

                async def handle(self, query):
                    loop = asyncio.get_running_loop()
                    first = await loop.run_in_executor(None, partial(self._compute, query))
                    second = await asyncio.to_thread(self._compute, query)

                    def payload():
                        return self._compute(query)

                    return first, second, await asyncio.to_thread(payload)

            class Other:
                async def handle(self, query):
                    return self._compute(query)  # another class's method

                def _compute(self, query):
                    return query
            """,
            rules=["async-hygiene"],
        )
        assert findings == []

    def test_stays_quiet_when_routed_through_executor(self):
        findings = run(
            """
            import asyncio
            import time

            async def handle(self, queries):
                await asyncio.to_thread(time.sleep, 0.1)
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(None, self._engine.run, queries)
            """,
            rules=["async-hygiene"],
        )
        assert findings == []

    def test_nested_defs_are_executor_payloads_not_violations(self):
        findings = run(
            """
            import asyncio
            import time

            async def handle(self):
                def blocking_payload():
                    time.sleep(0.1)
                    return open("data").read()
                return await asyncio.to_thread(blocking_payload)
            """,
            rules=["async-hygiene"],
        )
        assert findings == []

    def test_blocking_calls_in_sync_defs_are_fine(self):
        findings = run(
            """
            import time

            def worker():
                time.sleep(0.1)
            """,
            rules=["async-hygiene"],
        )
        assert findings == []

    def test_fires_on_discarded_create_task(self):
        findings = run(
            """
            import asyncio

            async def spawn(self):
                asyncio.create_task(self._poll())

            async def _poll(self):
                pass
            """,
            rules=["async-hygiene"],
        )
        assert rule_ids(findings) == ["async-hygiene"]
        assert "create_task" in findings[0].message

    def test_fires_on_unawaited_coroutine_statement(self):
        findings = run(
            """
            async def refresh(self):
                pass

            async def handle(self):
                self.refresh()
            """,
            rules=["async-hygiene"],
        )
        assert rule_ids(findings) == ["async-hygiene"]
        assert "never run" in findings[0].message

    def test_sync_name_twin_keeps_thread_start_legal(self):
        # ReliabilityService.start is async, threading.Thread.start is sync:
        # a bare-name heuristic must not flag `self._thread.start()`.
        findings = run(
            """
            class Service:
                async def start(self):
                    self._thread.start()

            class Thread:
                def start(self):
                    pass
            """,
            rules=["async-hygiene"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# journal-durability
# ---------------------------------------------------------------------------
class TestJournalDurability:
    def test_fires_on_unsynced_write_under_journal_lock(self):
        findings = run(
            """
            import os

            def record(path, entry, lock):
                with _journal_lock(path):
                    fd = os.open(path, os.O_APPEND | os.O_WRONLY)
                    os.write(fd, entry)
                    os.close(fd)
            """,
            path="app/checkpoint.py",
            rules=["journal-durability"],
        )
        assert rule_ids(findings) == ["journal-durability"]
        assert "os.fsync" in findings[0].message
        assert "lock is released" in findings[0].message

    def test_stays_quiet_when_fsync_precedes_lock_release(self):
        findings = run(
            """
            import os

            def record(path, entry):
                with _journal_lock(path):
                    fd = os.open(path, os.O_APPEND | os.O_WRONLY)
                    os.write(fd, entry)
                    os.fsync(fd)
                    os.close(fd)
            """,
            path="app/checkpoint.py",
            rules=["journal-durability"],
        )
        assert findings == []

    def test_flush_is_not_durability_and_fileno_form_is(self):
        findings = run(
            """
            import os

            def flushed_only(path, line):
                with path.open("a") as handle:
                    handle.write(line)
                    handle.flush()

            def synced(path, line):
                with path.open("a") as handle:
                    handle.write(line)
                    os.fsync(handle.fileno())
            """,
            path="app/journal.py",
            rules=["journal-durability"],
        )
        assert rule_ids(findings) == ["journal-durability"]
        assert findings[0].line == 6  # flushed_only's write, not synced's

    def test_only_declared_journal_paths_are_in_scope(self):
        source = """
            def report(path, text):
                with path.open("w") as handle:
                    handle.write(text)
        """
        assert run(source, path="app/render.py", rules=["journal-durability"]) == []
        assert rule_ids(
            run(source, path="app/journal.py", rules=["journal-durability"])
        ) == ["journal-durability"]


# ---------------------------------------------------------------------------
# The pre-PR-8 regression corpus
# ---------------------------------------------------------------------------
# The engine-memo race PR 8 fixed by hand: `cache_lookup` is the verbatim
# pre-PR-8 body (unguarded get/move_to_end/counter writes); `cache_store`
# carries the lock discipline that PR introduced.  The moment any site
# takes the lock, lock-guard pinpoints every remaining unguarded access —
# exactly the sites the fix had to find manually.
PRE_PR8_ENGINE = """
import threading
from collections import OrderedDict


class ReliabilityEngine:
    def __init__(self, cache_size=1024):
        self._cache_size = cache_size
        self._memo = OrderedDict()
        self._lock = threading.RLock()
        self.cache_hits = 0
        self.cache_misses = 0

    def cache_lookup(self, key):
        if key is None or self._cache_size == 0:
            return None
        value = self._memo.get(key)
        if value is not None:
            self._memo.move_to_end(key)
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        return value

    def cache_store(self, key, value):
        if key is None or self._cache_size == 0:
            return
        with self._lock:
            self._memo[key] = value
            while len(self._memo) > self._cache_size:
                self._memo.popitem(last=False)
"""

# The journal truncation race: `record` is the verbatim pre-PR-8 body —
# "w"-mode truncation decided from `_stale`/`_loaded` with no lock held,
# and a flush() standing in for durability; `load` carries PR 8's journal
# lock, under which `_load_locked` writes both flags.
PRE_PR8_JOURNAL = """
import json


class CampaignCheckpoint:
    def __init__(self, path):
        self.path = path
        self._loaded = False
        self._stale = False

    def load(self):
        with _journal_lock(self.path):
            return self._load_locked()

    def _load_locked(self):
        self._loaded = True
        self._stale = False
        return {}

    def record(self, index, value):
        if not self._loaded:
            self.load()
        fresh = self._stale or not self.path.exists()
        mode = "w" if fresh else "a"
        with self.path.open(mode) as handle:
            if fresh:
                handle.write(self._header() + "\\n")
                self._stale = False
            handle.write(json.dumps({"shard": int(index)}) + "\\n")
            handle.flush()

    def _header(self):
        return "{}"
"""


class TestPrePR8RegressionCorpus:
    def test_lock_guard_refinds_the_engine_memo_race(self):
        findings = run(PRE_PR8_ENGINE, rules=["lock-guard"])
        assert findings, "lock-guard must re-find the pre-PR-8 memo race"
        assert set(rule_ids(findings)) == {"lock-guard"}
        flagged_lines = {f.line for f in findings}
        # Both unguarded memo touches in cache_lookup: the racy get() and
        # the move_to_end() that threw KeyError mid-eviction in production.
        assert {17, 19}.issubset(flagged_lines)
        assert all("`self._memo`" in f.message for f in findings)

    def test_lock_guard_refinds_the_journal_stale_race(self):
        findings = run(PRE_PR8_JOURNAL, rules=["lock-guard"])
        assert findings, "lock-guard must re-find the pre-PR-8 journal race"
        attrs = {f.message.split("`")[1] for f in findings}
        # `_stale` decides "w"-mode truncation and is flipped back, and
        # `_loaded` is consulted — all outside the journal lock that
        # _load_locked writes them under.
        assert attrs == {"self._stale", "self._loaded"}
        assert all(f.line >= 21 for f in findings)  # all inside record()

    def test_journal_durability_flags_the_flush_only_record(self):
        findings = run(
            PRE_PR8_JOURNAL, path="app/checkpoint.py", rules=["journal-durability"]
        )
        assert rule_ids(findings) == ["journal-durability", "journal-durability"]

    def test_the_fixed_shapes_stay_quiet(self):
        findings = run(
            """
            import json
            import os
            import threading
            from collections import OrderedDict


            class ReliabilityEngine:
                def __init__(self, cache_size=1024):
                    self._cache_size = cache_size
                    self._memo = OrderedDict()
                    self._lock = threading.RLock()
                    self.cache_hits = 0

                def cache_lookup(self, key):
                    with self._lock:
                        value = self._memo.get(key)
                        if value is not None:
                            self._memo.move_to_end(key)
                            self.cache_hits += 1
                    return value


            class CampaignCheckpoint:
                def __init__(self, path):
                    self.path = path
                    self._stale = False

                def record(self, index, value):
                    with _journal_lock(self.path):
                        self._stale = False
                        fd = os.open(self.path, os.O_APPEND | os.O_WRONLY)
                        os.write(fd, json.dumps({"shard": int(index)}).encode())
                        os.fsync(fd)
                        os.close(fd)
            """,
            path="app/checkpoint.py",
            rules=["lock-guard", "journal-durability"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Report round-trips: versioned JSON and SARIF
# ---------------------------------------------------------------------------
def _result_with_baseline():
    new = Finding(path="a.py", line=3, col=0, rule="lock-guard", message="fresh")
    old = Finding(path="b.py", line=7, col=4, rule="lock-order", message="known")
    return LintResult(
        findings=(new, old), new=(new,), baselined=(old,), files_checked=2
    )


class TestReportRoundTrips:
    def test_json_schema_round_trips_to_identical_findings(self):
        result = _result_with_baseline()
        data = json.loads(render_json(result))
        assert data["version"] == 1
        rebuilt = [
            Finding(
                path=row["path"],
                line=row["line"],
                col=row["col"],
                rule=row["rule"],
                message=row["message"],
            )
            for row in data["findings"]
        ]
        assert rebuilt == list(result.findings)
        assert [row["baselined"] for row in data["findings"]] == [False, True]

    def test_sarif_round_trips_and_carries_baseline_state(self):
        data = json.loads(render_sarif(_result_with_baseline()))
        assert data["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in data["$schema"]
        (run_obj,) = data["runs"]
        descriptor_ids = {rule["id"] for rule in run_obj["tool"]["driver"]["rules"]}
        assert descriptor_ids == set(registered_rules())
        results = run_obj["results"]
        assert [r["ruleId"] for r in results] == ["lock-guard", "lock-order"]
        assert [r["baselineState"] for r in results] == ["new", "unchanged"]
        assert [r["level"] for r in results] == ["error", "note"]
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 3, "startColumn": 1}  # col 0 -> 1-based

    def test_sarif_of_a_clean_result_is_valid_and_empty(self):
        data = json.loads(
            render_sarif(LintResult(findings=(), new=(), baselined=(), files_checked=1))
        )
        assert data["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# CLI: --rules validation, --explain enumeration, --format sarif
# ---------------------------------------------------------------------------
class TestCli:
    def test_unknown_rule_exits_2_listing_every_valid_id(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        assert main(["lint", "--rules", "no-such-rule", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no-such-rule" in err
        for rule_id in registered_rules():
            assert rule_id in err

    def test_known_rules_still_filter(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        assert main(["lint", "--rules", "lock-guard,lock-order", str(tmp_path)]) == 0

    def test_explain_list_enumerates_all_families(self, capsys):
        assert main(["lint", "--explain", "list"]) == 0
        out = capsys.readouterr().out
        for rule_id in CONCURRENCY_RULES:
            assert rule_id in out

    def test_explain_concurrency_rules_have_examples(self, capsys):
        for rule_id in CONCURRENCY_RULES:
            assert main(["lint", "--explain", rule_id]) == 0
            out = capsys.readouterr().out
            assert "Bad:" in out and "Good:" in out
            assert f"allow[{rule_id}]" in out

    def test_format_sarif_emits_parseable_sarif(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        assert main(["lint", "--format", "sarif", str(tmp_path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == "2.1.0"

    def test_json_flag_is_an_alias_for_format_json(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        assert main(["lint", "--json", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["version"] == 1
