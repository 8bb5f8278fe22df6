"""The five workloads: set-up, one op, resource accounting, correctness gate.

Every workload is closed-loop with one client: the next op starts when
the previous one has answered.  A workload object is used for one
set-up / window / check cycle; ``run.py`` owns the clock and the window.

* ``setup(stack, warmup_s, trace_path)`` generates inputs, starts the
  program under test (registering its teardown on ``stack``) and warms
  it up.  All of it is ``setup_s``.
* ``op(index)`` performs one op and returns the work it completed
  (``0`` = the op failed).  It also stashes what ``check`` needs.
* ``resources()`` is the program's CPU seconds so far and peak RSS.
* ``check()`` is the correctness gate: a list of failure messages, and as
  side effects ``answers_sha256`` and the exact ``counts``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import payloads
from daemon import Client, Daemon, child_env, one_cpu

from repro.engine import ExecutionPolicy, QuerySet, ReliabilityEngine

#: Answers hashed / checked per workload are a fixed prefix of the ops, so
#: the hash does not depend on how many ops a host fits into the window.
CHECKED_ANALYTIC_OPS = 512
HASHED_CAMPAIGN_ROUNDS = 3

#: Upper bounds on op rates, used only to size the pre-generated pools.
MAX_ANALYTIC_OPS_PER_S = 3000
MAX_ROUNDS_PER_S = 2

COUNTING_VS_EXACT_TOLERANCE = 5e-13


@dataclass(frozen=True)
class Context:
    root: Path  # the checkout
    out: Path  # scratch directory for files the benchmark writes
    seed: int


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def digest(values) -> str:
    return hashlib.sha256(canonical(values).encode("utf-8")).hexdigest()


def library_answers(queries, policy=None) -> list[dict]:
    """``answer`` payloads of ``queries`` from the in-process library."""
    answers = ReliabilityEngine().run(QuerySet.build(queries), policy=policy)
    return [answer.to_dict()["answer"] for answer in answers]


def service_policy() -> ExecutionPolicy:
    """What the daemon runs under with default flags."""
    return ExecutionPolicy.for_service(None)


def run_child(command, root: Path) -> tuple[int, bytes, resource.struct_rusage]:
    """Run one child to completion; its exit code, stdout and own rusage."""
    process = subprocess.Popen(
        command,
        cwd=root,
        env=child_env(root),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        assert process.stdout is not None
        output = process.stdout.read()
        _, status, usage = os.wait4(process.pid, 0)
    except BaseException:
        process.kill()
        process.wait()
        raise
    finally:
        process.stdout.close()
    # wait4 reaped the child; tell Popen so it does not wait again.
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, output, usage


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------
class CliCold:
    name = "cli_cold"
    work_unit = "invocations"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.outputs: list[bytes] = []
        self.cpu_s = 0.0
        self.rss_mb = 0.0

    def setup(self, stack: ExitStack, warmup_s: float, trace_path=None) -> None:
        self.payload = payloads.cli_file(self.ctx.seed)
        self.path = self.ctx.out / "cli_cold.json"
        self.path.write_text(self.payload.text)
        self.command = [
            sys.executable, "-m", "repro.cli", "query", str(self.path), "--json",
        ]
        deadline = time.perf_counter() + warmup_s
        while True:  # at least once: the first child fills the page cache
            self.op(0)
            if time.perf_counter() >= deadline:
                break
        self.outputs.clear()

    def op(self, index: int) -> int:
        code, output, usage = run_child(self.command, self.ctx.root)
        self.cpu_s += usage.ru_utime + usage.ru_stime
        self.rss_mb = max(self.rss_mb, usage.ru_maxrss / 1024.0)
        self.outputs.append(output)
        return 1 if code == 0 else 0

    def resources(self) -> tuple[float, float]:
        return self.cpu_s, self.rss_mb

    def check(self) -> list[str]:
        failures = []
        if len(set(self.outputs)) != 1:
            failures.append("cli_cold: stdout differs between invocations")
        rows = json.loads(self.outputs[0])
        served = [row["answer"] for row in rows]
        expected = library_answers(self.payload.queries)
        if canonical(served) != canonical(expected):
            failures.append("cli_cold: stdout rows differ from the library answers")
        self.answers_sha256 = digest(served)
        self.counts = {"rows": len(rows)}
        return failures


# ---------------------------------------------------------------------------
# served workloads
# ---------------------------------------------------------------------------
class Served:
    """Shared daemon + client plumbing of the three ``serve_*`` workloads."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.warmup_posts = 0

    def setup(self, stack: ExitStack, warmup_s: float, trace_path=None) -> None:
        self.generate()
        stack.enter_context(one_cpu())
        self.daemon = stack.enter_context(
            Daemon(
                self.ctx.root,
                self.ctx.out / f"{self.name}.daemon.log",
                trace_path=trace_path,
            )
        )
        self.client = stack.enter_context(Client(self.daemon.port))
        self.warm_up(time.perf_counter() + warmup_s)
        self.metrics_before = self.client.get("/metrics")

    def resources(self) -> tuple[float, float]:
        return self.daemon.cpu_seconds(), self.daemon.peak_rss_mb()

    def metric_deltas(self) -> dict:
        """Memo and coalescing counters over the window, from ``GET /metrics``."""
        before, after = self.metrics_before, self.client.get("/metrics")
        if before is None or after is None:
            return {}
        hits = after["engine_cache"]["hits"] - before["engine_cache"]["hits"]
        misses = after["engine_cache"]["misses"] - before["engine_cache"]["misses"]
        return {
            "serve.coalesced_total": after["coalesced_total"] - before["coalesced_total"],
            "engine.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "engine.memo_size_end": after["engine_cache"]["size"],
            "engine.memo_max_size": after["engine_cache"]["max_size"],
        }


class ServeWarmHit(Served):
    name = "serve_warm_hit"
    work_unit = "queries"

    def generate(self) -> None:
        self.working_set = payloads.warm_working_set(self.ctx.seed)

    def warm_up(self, deadline: float) -> None:
        self.first_cycle = [self.client.post(p.text) for p in self.working_set]
        self.warmup_posts = len(self.working_set)
        index = 0
        while time.perf_counter() < deadline:
            self.op(index)
            index += 1
            self.warmup_posts += 1

    def op(self, index: int) -> int:
        body = self.client.post(self.working_set[index % len(self.working_set)].text)
        return 1 if body is not None and body["cache_hits"] == 1 else 0

    def check(self) -> list[str]:
        failures = []
        if any(body is None for body in self.first_cycle):
            return ["serve_warm_hit: a first-cycle request failed"]
        served = [body["answers"][0]["answer"] for body in self.first_cycle]
        expected = library_answers(
            [p.queries[0] for p in self.working_set], service_policy()
        )
        if canonical(served) != canonical(expected):
            failures.append("serve_warm_hit: served answers differ from the library")
        self.counts = self.metric_deltas()
        if self.counts.get("serve.coalesced_total") != 0:
            failures.append("serve_warm_hit: requests were coalesced")
        if self.counts.get("engine.memo_hit_ratio") != 1.0:
            failures.append("serve_warm_hit: memo hit ratio is not 1.0")
        if not 0 < self.counts.get("engine.memo_size_end", 0) <= len(self.working_set):
            failures.append("serve_warm_hit: memo holds more than the working set")
        self.answers_sha256 = digest(served)
        return failures


class ServeColdAnalytic(Served):
    name = "serve_cold_analytic"
    work_unit = "queries"

    def __init__(self, ctx: Context, seconds: float, warmup_s: float):
        super().__init__(ctx)
        self.pool_size = int(seconds * MAX_ANALYTIC_OPS_PER_S) + CHECKED_ANALYTIC_OPS
        self.warm_pool_size = int(warmup_s * MAX_ANALYTIC_OPS_PER_S) + 1
        self.checked: list[dict | None] = []

    @property
    def max_ops(self) -> int:
        return self.pool_size

    def generate(self) -> None:
        seed = self.ctx.seed
        self.pool = payloads.cold_analytic_pool(seed, "window", self.pool_size)
        self.warm_pool = payloads.cold_analytic_pool(seed, "warmup", self.warm_pool_size)

    def warm_up(self, deadline: float) -> None:
        for text in self.warm_pool:
            if time.perf_counter() >= deadline:
                break
            self.client.post(text)
            self.warmup_posts += 1

    def op(self, index: int) -> int:
        body = self.client.post(self.pool[index])
        if len(self.checked) < CHECKED_ANALYTIC_OPS:
            self.checked.append(body)
        self.ops = index + 1
        return 1 if body is not None and body["cache_hits"] == 0 else 0

    def check(self) -> list[str]:
        failures = []
        if any(body is None for body in self.checked):
            return ["serve_cold_analytic: a checked request failed"]
        served = [body["answers"][0]["answer"] for body in self.checked]
        queries = [
            QuerySet.from_json(text)[0] for text in self.pool[: len(self.checked)]
        ]
        if canonical(served) != canonical(library_answers(queries, service_policy())):
            failures.append("serve_cold_analytic: served answers differ from the library")
        self.counts = self.metric_deltas()
        if self.counts.get("serve.coalesced_total") != 0:
            failures.append("serve_cold_analytic: requests were coalesced")
        if self.counts.get("engine.memo_hit_ratio") != 0.0:
            failures.append("serve_cold_analytic: memo hit ratio is not 0.0")
        # One memo entry per distinct query, until LRU eviction caps it.
        expected_size = min(
            self.counts.get("engine.memo_max_size", 0), self.warmup_posts + self.ops
        )
        if self.counts.get("engine.memo_size_end") != expected_size:
            failures.append(
                f"serve_cold_analytic: memo size {self.counts.get('engine.memo_size_end')}"
                f" != expected {expected_size}"
            )
        self.answers_sha256 = digest(served)
        return failures


def verdict_counts(answer: dict) -> tuple:
    return (
        answer["replicas"],
        answer["safety_violations"],
        answer["liveness_violations"],
        answer["predicate_mismatches"],
        answer.get("partition_era_liveness_violations", 0),
    )


class ServeColdCampaign(Served):
    name = "serve_cold_campaign"
    work_unit = "replicas"

    def __init__(self, ctx: Context, seconds: float, warmup_s: float):
        super().__init__(ctx)
        self.round_count = int(seconds * MAX_ROUNDS_PER_S) + HASHED_CAMPAIGN_ROUNDS
        self.warm_round_count = int(warmup_s * MAX_ROUNDS_PER_S) + 1
        self.answers: list[dict[str, dict]] = []
        #: Seconds of each POST of each completed window round, by deployment.
        self.op_parts: dict[str, list[float]] = {name: [] for name in payloads.DEPLOYMENTS}

    @property
    def max_ops(self) -> int:
        return self.round_count

    def generate(self) -> None:
        seed = self.ctx.seed
        self.rounds = payloads.campaign_rounds(seed, "window", self.round_count)
        self.warm_rounds = payloads.campaign_rounds(seed, "warmup", self.warm_round_count)

    def warm_up(self, deadline: float) -> None:
        for round_ in self.warm_rounds:
            self._round(round_)
            self.warmup_posts += len(round_)
            if time.perf_counter() >= deadline:
                break

    def _round(self, round_: dict, seconds: dict | None = None) -> dict[str, dict] | None:
        """Four sequential POSTs; ``None`` unless all four are clean cold runs."""
        answers = {}
        for name, payload in round_.items():
            start = time.perf_counter()
            body = self.client.post(payload.text)
            if seconds is not None:
                seconds[name] = time.perf_counter() - start
            if body is None or body["cache_hits"] != 0:
                return None
            row = body["answers"][0]
            if row.get("degraded"):
                return None
            answers[name] = row["answer"]
        return answers

    def op(self, index: int) -> int:
        seconds: dict[str, float] = {}
        answers = self._round(self.rounds[index], seconds)
        if answers is None:
            return 0
        self.answers.append(answers)
        for name, spent in seconds.items():
            self.op_parts[name].append(spent)
        return payloads.REPLICAS * len(answers)

    def check(self) -> list[str]:
        failures = []
        if not self.answers:
            return ["serve_cold_campaign: no round completed"]
        policy = service_policy()
        engine = ReliabilityEngine()
        for name, payload in self.rounds[0].items():
            expected = engine.run_query(payload.queries[0], policy=policy)
            if verdict_counts(self.answers[0][name]) != verdict_counts(
                expected.to_dict()["answer"]
            ):
                failures.append(
                    f"serve_cold_campaign: {name} verdict counts differ from the library"
                )
        # Not the memo's size: it holds one entry per campaign run, so it
        # follows the host's speed, and a count must repeat exactly.
        deltas = self.metric_deltas()
        self.counts = {
            key: deltas[key]
            for key in ("serve.coalesced_total", "engine.memo_hit_ratio")
            if key in deltas
        }
        self.answers_sha256 = digest(self.answers[:HASHED_CAMPAIGN_ROUNDS])
        return failures


# ---------------------------------------------------------------------------
# engine_cold_sweep
# ---------------------------------------------------------------------------
class EngineColdSweep:
    name = "engine_cold_sweep"
    work_unit = "queries"
    in_process = True  # the program under test is this process

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.first = None
        self.last = None

    def setup(self, stack: ExitStack, warmup_s: float, trace_path=None) -> None:
        self.parts = payloads.sweep_parts(self.ctx.seed)
        self.query_set = payloads.sweep_query_set(self.parts)
        deadline = time.perf_counter() + warmup_s
        while True:
            ReliabilityEngine().run(self.query_set)
            if time.perf_counter() >= deadline:
                break

    def op(self, index: int) -> int:
        answers = ReliabilityEngine().run(self.query_set)
        if self.first is None:
            self.first = answers
        self.last = answers
        return len(answers)

    def resources(self) -> tuple[float, float]:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return time.process_time(), usage.ru_maxrss / 1024.0

    def check(self) -> list[str]:
        failures = []
        first = [answer.to_dict()["answer"] for answer in self.first]
        last = [answer.to_dict()["answer"] for answer in self.last]
        if canonical(first) != canonical(last):
            failures.append("engine_cold_sweep: answers differ between ops")
        results = [answer for answer in self.first if answer.kind == "reliability"]
        counting = {
            answer.query.label: answer.value
            for answer in results
            if answer.value.method == "counting"
        }
        twins = 0
        for answer in results:
            twin = counting.get(answer.query.label)
            if answer.value.method != "exact" or twin is None:
                continue
            twins += 1
            for field in ("safe", "live", "safe_and_live"):
                gap = abs(getattr(twin, field).value - getattr(answer.value, field).value)
                if gap > COUNTING_VS_EXACT_TOLERANCE:
                    failures.append(
                        f"engine_cold_sweep: counting vs exact {field} differ by "
                        f"{gap:.3e} on {answer.query.label}"
                    )
        if twins == 0:
            failures.append("engine_cold_sweep: no scenario answered both ways")
        self.counts = {"queries": len(first), "counting_exact_twins": twins}
        self.answers_sha256 = digest(first)
        return failures


def make_workload(name: str, ctx: Context, seconds: float, warmup_s: float):
    if name == "cli_cold":
        return CliCold(ctx)
    if name == "serve_warm_hit":
        return ServeWarmHit(ctx)
    if name == "serve_cold_analytic":
        return ServeColdAnalytic(ctx, seconds, warmup_s)
    if name == "serve_cold_campaign":
        return ServeColdCampaign(ctx, seconds, warmup_s)
    if name == "engine_cold_sweep":
        return EngineColdSweep(ctx)
    raise KeyError(name)
