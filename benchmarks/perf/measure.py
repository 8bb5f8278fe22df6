"""Running a workload: set-up, timed window, end-to-end metrics, traced pass.

``run_untraced`` produces a workload's end-to-end block (tracing off, the
full window).  ``TracedRun`` produces the layer blocks of all five
workloads from short windows: each served workload is run once plain and
once against a daemon started with ``--trace``, and the difference
between the two is the tracing overhead.  End-to-end numbers never come
from the traced pass.
"""

from __future__ import annotations

import statistics
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

import layers
import payloads
from manifest import (
    BATCH_OPS,
    LAYER_METRICS,
    MAX_OPS,
    QUIET_FRACTION,
    TRACED_WITH,
    WINDOWS,
    WORKLOAD_NAMES,
)
from perf_stats import percentile, quiet_latency, supports_percentile
from workloads import Context, make_workload, verdict_counts


@dataclass
class Pass:
    """One set-up / window cycle of one workload."""

    workload: object
    latencies: list[float]
    work: int
    failed: int
    elapsed: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: list[float]
    failures: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies, 0.5) * 1e3

    @property
    def quiet_ms(self) -> float:
        """Op latency while the host was quiet (``perf_stats.quiet_latency``).

        An op made of sequential parts (a campaign round's four POSTs) is
        the sum of its parts' quiet latencies: a part is shorter than the
        op, so it fits more often between a neighbour's bursts.
        """
        parts = getattr(self.workload, "op_parts", None)
        if parts and all(parts.values()):
            quiet = sum(
                quiet_latency(seconds, 1, QUIET_FRACTION) for seconds in parts.values()
            )
        else:
            quiet = quiet_latency(
                self.latencies, BATCH_OPS[self.workload.name], QUIET_FRACTION
            )
        return quiet * 1e3

    def end_to_end(self) -> dict:
        """The workload's row of end-to-end metrics (unsupported ones omitted)."""
        metrics = {
            "setup_s": statistics.median(self.setup_s),
            "op_ms_quiet": self.quiet_ms,
            "op_ms_p50": self.p50_ms,
            "throughput_per_s": self.work / self.elapsed,
            "cpu_ms_per_op": self.cpu_s / self.ops * 1e3,
            "peak_rss_mb": self.peak_rss_mb,
            "failed_frac": self.failed / self.ops,
        }
        if supports_percentile(self.ops, 0.9):
            metrics["op_ms_p90"] = percentile(self.latencies, 0.9) * 1e3
        return metrics


def timed_window(workload, seconds: float, max_ops: int | None):
    """Closed loop: the next op starts when the previous one has answered."""
    limits = [n for n in (max_ops, getattr(workload, "max_ops", None)) if n is not None]
    limit = min(limits) if limits else None
    latencies, work, failed = [], 0, 0
    cpu_before, _ = workload.resources()
    start = previous = time.perf_counter()
    deadline = start + seconds
    while previous < deadline and (limit is None or len(latencies) < limit):
        done = workload.op(len(latencies))
        now = time.perf_counter()
        latencies.append(now - previous)
        previous = now
        work += done
        failed += 0 if done else 1
    cpu_after, peak_rss_mb = workload.resources()
    return latencies, work, failed, previous - start, cpu_after - cpu_before, peak_rss_mb


def measure(
    name: str,
    ctx: Context,
    *,
    window: float,
    warmup: float,
    setups: int = 1,
    max_ops: int | None = None,
    trace_path=None,
    check: bool = True,
    inside=None,
    import_s: float = 0.0,
) -> Pass:
    """Set ``name`` up ``setups`` times, then run its window on the last one.

    ``inside(workload)`` runs after the window while the program under test
    is still alive.  ``import_s`` is what an in-process workload paid to
    import the library before its first set-up; it counts in every
    ``setup_s`` sample, because a process can import only once.
    """
    setup_s = []
    for attempt in range(setups):
        last = attempt == setups - 1
        workload = make_workload(name, ctx, window, warmup)
        with ExitStack() as stack:
            begun = time.perf_counter()
            workload.setup(stack, warmup, trace_path if last else None)
            setup_s.append(
                time.perf_counter() - begun
                + (import_s if getattr(workload, "in_process", False) else 0.0)
            )
            if not last:
                continue
            result = Pass(workload, *timed_window(workload, window, max_ops), setup_s)
            if inside is not None:
                result.extra = inside(workload)
            if check:
                result.failures = workload.check()
    return result


def run_untraced(name: str, ctx: Context, mode: str, *, window=None, import_s=0.0) -> dict:
    """A workload's end-to-end block, with what the correctness gate found."""
    spec = WINDOWS[mode]
    result = measure(
        name,
        ctx,
        window=spec["window"] if window is None else window,
        warmup=spec["warmup"],
        setups=spec["setups"],
        max_ops=MAX_OPS.get(mode, {}).get(name),
        import_s=import_s,
    )
    return {
        "workload": name,
        "seed": ctx.seed,
        "end_to_end": result.end_to_end(),
        "ops": result.ops,
        "work_unit": result.workload.work_unit,
        "attempted": result.ops,
        "failed": result.failed,
        "failures": result.failures,
        "answers_sha256": result.workload.answers_sha256,
        "counts": result.workload.counts,
    }


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------
SERVED_SPAN_KEYS = (
    "serve.request_self_us",
    "serve.query_self_us",
    "serve.execute_self_us",
    "engine.queries_self_us",
    "engine.backend_self_us",
    "engine.campaign_self_ms",
)
WARM_HIT_LISTED = (
    "serve.http_floor_us",
    "engine.parse_us",
    "serve.key_us",
    "engine.memo_hit_us",
    "serve.encode_us",
)


class TracedRun:
    """Layer blocks of all five workloads from one traced run.

    ``target`` names the workload that gets the traced window (capped at
    ``window`` seconds when given), and with it any workload that
    ``manifest.TRACED_WITH`` hangs on it; the others get the brief one,
    which is enough to report every layer metric.  ``None`` gives every
    workload the traced window.
    """

    def __init__(self, ctx: Context, target: str | None, window: float | None = None):
        self.ctx = ctx
        self.target = target
        self.window = window
        self.passes: list[Pass] = []
        self.failures: list[str] = []
        self.budget: dict = {}

    def run(self) -> dict:
        blocks = {
            "cli_cold": self.cli(),
            "serve_warm_hit": self.warm_hit(),
            "serve_cold_analytic": self.cold_analytic(),
            "serve_cold_campaign": self.cold_campaign(),
            "engine_cold_sweep": self.sweep(),
        }
        assert list(blocks) == WORKLOAD_NAMES
        return {
            "seed": self.ctx.seed,
            "layers": blocks,
            "budget": {"serve_warm_hit": self.budget},
            "failures": self.failures,
            "attempted": sum(p.ops for p in self.passes),
            "failed": sum(p.failed for p in self.passes),
        }

    def short(self, name: str, **kwargs) -> Pass:
        """One unchecked pass of ``name`` at its traced or brief window."""
        targets = (None, name, TRACED_WITH.get(name))
        mode = "traced" if self.target in targets else "brief"
        spec = WINDOWS[mode]
        window = spec["window"]
        if mode == "traced" and self.window is not None:
            window = min(window, self.window)
        result = measure(
            name,
            self.ctx,
            window=window,
            warmup=spec["warmup"],
            max_ops=MAX_OPS[mode].get(name),
            check=False,
            **kwargs,
        )
        self.passes.append(result)
        if result.failed:
            self.failures.append(f"{name}: {result.failed} of {result.ops} ops failed")
        return result

    def probe_log(self, name: str) -> layers.ProbeLog:
        return layers.ProbeLog(name, self.ctx.seed)

    def cli(self) -> dict:
        result = self.short("cli_cold")
        log = self.probe_log("cli_cold")
        block = layers.cli_layers(self.ctx, log, result.p50_ms, repeats=result.ops)
        log.write(self.ctx.out / "cli_cold.probes.jsonl")
        return block

    def served(self, name: str) -> tuple[dict, dict]:
        """Span-derived block of one served workload, and the raw numbers."""

        # A campaign round is neither floored by the HTTP round trip nor
        # sized by the memo: its counters follow the rounds the host fits.
        analytic = name != "serve_cold_campaign"

        def inside(workload) -> dict:
            return {
                "counts": workload.metric_deltas(),
                "floor_us": layers.http_floor_us(workload.client),
            }

        plain = self.short(name, inside=inside if analytic else None)
        trace_path = self.ctx.out / f"{name}.spans.jsonl"
        traced = self.short(name, trace_path=trace_path)
        spans = layers.daemon_span_metrics(trace_path, traced.workload.warmup_posts)
        block = {key: spans[key] for key in SERVED_SPAN_KEYS if key in spans}
        block["serve.daemon_cpu_frac"] = plain.cpu_s / plain.elapsed
        block["obs.trace_overhead_frac"] = traced.p50_ms / plain.p50_ms - 1.0
        raw = {
            "rt_us": plain.p50_ms * 1e3,
            "rt_traced_us": traced.p50_ms * 1e3,
            "spans": spans,
            "plain": plain,
        }
        if analytic:
            block.update(plain.extra["counts"])
            block["serve.outside_span_us"] = raw["rt_traced_us"] - spans["http.request_us"]
        return block, raw

    def warm_hit(self) -> dict:
        block, raw = self.served("serve_warm_hit")
        plain = raw["plain"]
        log = self.probe_log("serve_warm_hit")
        block.update(layers.warm_hit_probes(log, plain.workload.working_set))
        log.write(self.ctx.out / "serve_warm_hit.probes.jsonl")
        block["serve.http_floor_us"] = plain.extra["floor_us"]
        listed = sum(block[key] for key in WARM_HIT_LISTED)
        block["serve.unattributed_us"] = raw["rt_us"] - listed
        # The traced request, taken apart along the span tree: what the
        # client sees outside the request span, then each span's own time,
        # then the engine as one block.  It must add up to the traced
        # round trip.
        engine_us = raw["spans"]["engine.queries_us"]
        parts = engine_us + sum(
            block[key]
            for key in (
                "serve.outside_span_us",
                "serve.request_self_us",
                "serve.query_self_us",
                "serve.execute_self_us",
            )
        )
        self.budget = {
            "round_trip_us": raw["rt_us"],
            "listed_layers_us": listed,
            "unattributed_us": block["serve.unattributed_us"],
            "traced_round_trip_us": raw["rt_traced_us"],
            "traced_parts_us": parts,
            "closure_frac": parts / raw["rt_traced_us"] - 1.0,
            "engine_span_us": engine_us,
        }
        return block

    def cold_analytic(self) -> dict:
        block, raw = self.served("serve_cold_analytic")
        exact = [
            p.queries[0]
            for p in payloads.warm_working_set(self.ctx.seed)
            if p.queries[0].scenario.method == "exact"
        ]
        log = self.probe_log("serve_cold_analytic")
        pool = raw["plain"].workload.pool
        block.update(layers.cold_engine_probes(log, pool[:256], exact))
        log.write(self.ctx.out / "serve_cold_analytic.probes.jsonl")
        return block

    def cold_campaign(self) -> dict:
        block, raw = self.served("serve_cold_campaign")
        workload = raw["plain"].workload
        log = self.probe_log("serve_cold_campaign")
        probes, driven = layers.campaign_probes(log, workload.rounds[0])
        log.write(self.ctx.out / "serve_cold_campaign.probes.jsonl")
        block.update(probes)
        served = workload.answers[0] if workload.answers else {}
        for name, counts in driven.items():
            if name not in served or verdict_counts(served[name]) != counts:
                self.failures.append(
                    f"serve_cold_campaign: {name} served verdict counts differ "
                    "from the directly driven replicas"
                )
        block["sim.round_share"] = sum(
            block[f"sim.{d}.run_ms_per_replica"] * payloads.REPLICAS
            for d in payloads.DEPLOYMENTS
        ) / raw["plain"].p50_ms
        return block

    def sweep(self) -> dict:
        log = self.probe_log("engine_cold_sweep")
        block = layers.sweep_probes(log, payloads.sweep_parts(self.ctx.seed))
        log.write(self.ctx.out / "engine_cold_sweep.probes.jsonl")
        return block


def flat_layers(blocks: dict[str, dict]) -> dict[str, dict]:
    """``BENCHMARK.json`` per-layer names -> ``{"value", "unit"}``."""
    return {
        name: {"value": blocks[workload][key], "unit": unit}
        for name, workload, key, unit, _ in LAYER_METRICS
    }
