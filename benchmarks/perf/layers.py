"""Per-layer measurements, taken from outside the program.

Three instruments, none of which touches ``src/``:

* **probe** — in-process timing of a package's public function on the
  workload's own generated inputs.  Every timed call is also recorded as
  a span of the benchmark's own ``repro.obs.Tracer`` (named after the
  layer metric, one trace id per workload); the spans stay in memory
  until the workload ends and are then written under ``out/``.
* **span** — per-request self time of the spans the daemon already
  records under ``serve --trace FILE.jsonl``.
* **count** — exact event, message and module counts.

Layers are this repository's packages: ``cli``, ``serve``, ``engine``,
``analysis``, ``markov``, ``injection``, ``sim`` and ``obs``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

from perf_stats import self_time_by_name
from workloads import Context, run_child, service_policy

from repro.engine import QuerySet, ReliabilityEngine, Supervision, run_supervised
from repro.obs import NULL_TRACER, InMemoryExporter, Tracer, read_jsonl_spans, write_trace

#: A probe stops at whichever comes first, but never before ``MIN_CALLS``.
PROBE_CALLS = 200
PROBE_SECONDS = 0.5
MIN_CALLS = 5


def median_us(samples) -> float:
    return statistics.median(samples) * 1e6


class ProbeLog:
    """The benchmark's own tracer for one workload's in-process probes."""

    def __init__(self, workload: str, seed: int):
        self.exporter = InMemoryExporter()
        self.tracer = Tracer.for_key(("perf", workload, seed), exporter=self.exporter)
        self.root = self.tracer.span(f"probes.{workload}")
        self.calls: dict[str, int] = {}

    def record(self, name: str, start: float, end: float) -> None:
        self.tracer.record_span(name, start, end, parent=self.root)

    def probe(
        self,
        name: str,
        fn,
        inputs,
        *,
        calls: int = PROBE_CALLS,
        seconds: float = PROBE_SECONDS,
    ) -> list[float]:
        """Time ``fn(x)`` over ``inputs`` round-robin; per-call seconds."""
        inputs = list(inputs)
        spans = []
        begun = time.perf_counter()
        index = 0
        while True:
            value = inputs[index % len(inputs)]
            start = time.perf_counter()
            fn(value)
            end = time.perf_counter()
            spans.append((start, end))
            index += 1
            if index >= MIN_CALLS and (index >= calls or end - begun >= seconds):
                break
        for start, end in spans:
            self.record(name, start, end)
        self.calls[name] = len(spans)
        return [end - start for start, end in spans]

    def write(self, path: Path) -> None:
        self.root.finish()
        write_trace(self.exporter.records, path)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------
_STAGED_IMPORT = """
import json, sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.stats, scipy.optimize
t2 = time.perf_counter()
import repro.cli
t3 = time.perf_counter()
print(json.dumps({"numpy": t1 - t0, "scipy": t2 - t1, "repro": t3 - t2,
                  "modules": len(sys.modules)}))
"""


def cli_layers(ctx: Context, log: ProbeLog, op_ms_p50: float, repeats: int) -> dict:
    """Where a cold CLI answer's time goes before the first query is read.

    One child imports numpy, scipy and ``repro.cli`` in that order and
    times each stage from inside, so each number is the cost on top of
    the previous stage; a second child runs ``pass`` for the bare
    interpreter.  ``cli.answer_ms`` is what is left of the op.
    """
    stages: dict[str, list[float]] = {"numpy": [], "scipy": [], "repro": []}
    walls, bare, modules = [], [], set()
    for _ in range(repeats):
        start = time.perf_counter()
        code, output, _ = run_child([sys.executable, "-c", "pass"], ctx.root)
        end = time.perf_counter()
        log.record("cli.interp_ms", start, end)
        bare.append(end - start)
        start = time.perf_counter()
        code, output, _ = run_child([sys.executable, "-c", _STAGED_IMPORT], ctx.root)
        end = time.perf_counter()
        if code != 0:
            raise RuntimeError("the staged-import child failed")
        log.record("cli.import_child", start, end)
        walls.append(end - start)
        staged = json.loads(output)
        modules.add(staged.pop("modules"))
        for stage, seconds in staged.items():
            stages[stage].append(seconds)
    if len(modules) != 1:
        raise RuntimeError(f"sys.modules count varies between children: {modules}")
    import_child_ms = statistics.median(walls) * 1e3
    return {
        "cli.interp_ms": statistics.median(bare) * 1e3,
        "cli.import_numpy_ms": statistics.median(stages["numpy"]) * 1e3,
        "cli.import_scipy_ms": statistics.median(stages["scipy"]) * 1e3,
        "cli.import_repro_ms": statistics.median(stages["repro"]) * 1e3,
        "cli.modules_imported": modules.pop(),
        "cli.answer_ms": op_ms_p50 - import_child_ms,
    }


# ---------------------------------------------------------------------------
# serve: spans of a traced daemon
# ---------------------------------------------------------------------------
def daemon_span_metrics(trace_path: Path, warmup_posts: int) -> dict:
    """Median self times (µs) per span name over the window's requests.

    The first ``warmup_posts`` query requests are the warm-up and are
    dropped with their subtrees; health and metrics polls never count.
    """
    records = read_jsonl_spans(trace_path)
    by_id = {record.span_id: record for record in records}
    requests = sorted(
        (
            r for r in records
            if r.name == "http.request" and r.attributes.get("path") == "/v1/query"
        ),
        key=lambda r: r.start,
    )
    kept = {r.span_id for r in requests[warmup_posts:]}

    def root_of(record) -> str:
        while record.parent_id is not None and record.parent_id in by_id:
            record = by_id[record.parent_id]
        return record.span_id

    window = [r for r in records if root_of(r) in kept]
    selfs = self_time_by_name(window)

    def self_us(*names: str) -> float | None:
        samples = [s for name in names for s in selfs.get(name, ())]
        return median_us(samples) if samples else None

    backends = [name for name in selfs if name.startswith("backend.")]
    metrics = {
        "serve.request_self_us": self_us("http.request"),
        "serve.query_self_us": self_us("serve.query"),
        "serve.execute_self_us": self_us("query.execute"),
        "engine.queries_self_us": self_us("engine.queries"),
        "engine.backend_self_us": self_us(*backends),
        "engine.campaign_self_ms": (
            self_us("campaign") / 1e3 if "campaign" in selfs else None
        ),
        "http.request_us": median_us(
            [r.end - r.start for r in window if r.name == "http.request"]
        ),
        "engine.queries_us": median_us(
            [r.end - r.start for r in window if r.name == "engine.queries"]
        ),
        "requests": len(kept),
    }
    return {name: value for name, value in metrics.items() if value is not None}


def http_floor_us(client, calls: int = 500) -> float:
    """Round-trip p50 of ``GET /healthz`` on the workload's own connection."""
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        client.get("/healthz")
        samples.append(time.perf_counter() - start)
    return median_us(samples)


# ---------------------------------------------------------------------------
# serve + engine probes on the served workloads' inputs
# ---------------------------------------------------------------------------
def _noop_span(_):
    with NULL_TRACER.span("noop"):
        pass


def warm_hit_probes(log: ProbeLog, working_set) -> dict:
    """What one warm request asks of each layer, timed one call at a time."""
    from repro.serve.coalesce import canonical_query_key

    texts = [p.text for p in working_set]
    queries = [p.queries[0] for p in working_set]
    policy = service_policy()
    engine = ReliabilityEngine(cache_size=4096)
    answers = engine.run(QuerySet.build(queries), policy=policy)
    rows = [answer.to_dict() for answer in answers]
    return {
        "engine.parse_us": median_us(log.probe("engine.parse_us", QuerySet.from_json, texts)),
        "serve.key_us": median_us(log.probe("serve.key_us", canonical_query_key, queries)),
        "engine.memo_hit_us": median_us(
            log.probe(
                "engine.memo_hit_us", lambda q: engine.run([q], policy=policy), queries
            )
        ),
        "serve.encode_us": median_us(log.probe("serve.encode_us", json.dumps, rows)),
        "obs.noop_span_ns": median_us(
            log.probe("obs.noop_span_ns", _noop_span, [None], calls=2000)
        ) * 1e3,
    }


def cold_engine_probes(log: ProbeLog, texts, exact_queries) -> dict:
    """A fresh engine answering one never-seen query, per query kind."""
    by_kind: dict[str, list] = {}
    for text in texts:
        query = QuerySet.from_json(text)[0]
        by_kind.setdefault(query.kind, []).append(query)
    groups = {
        "counting": by_kind["reliability"],
        "exact": list(exact_queries),
        "availability": by_kind["availability"],
        "mttf": by_kind["mttf"],
    }
    policy = service_policy()
    metrics = {
        f"engine.cold_us.{kind}": median_us(
            log.probe(
                f"engine.cold_us.{kind}",
                lambda q: ReliabilityEngine().run([q], policy=policy),
                queries,
            )
        )
        for kind, queries in groups.items()
    }
    metrics["engine.parse_us"] = median_us(
        log.probe("engine.parse_us", QuerySet.from_json, texts)
    )
    return metrics


# ---------------------------------------------------------------------------
# injection + sim: the campaign round driven directly
# ---------------------------------------------------------------------------
def _noop_worker(payload):
    return payload


def shard_overhead_us(log: ProbeLog) -> float:
    """Supervised dispatch of 16 no-op shards, per shard."""
    shards = list(range(16))
    samples = log.probe(
        "engine.runtime.shard_overhead_us",
        lambda _: run_supervised(
            _noop_worker, shards, jobs=1, mode="serial", supervision=Supervision()
        ),
        [None],
    )
    return median_us(samples) / len(shards)


def scheduler_ns_per_event(log: ProbeLog, events: int = 200_000) -> float:
    """A bare scheduler running self-rescheduling no-op events."""
    from repro.sim.events import EventScheduler

    scheduler = EventScheduler()

    def tick() -> None:
        scheduler.schedule_after(1.0, tick)

    scheduler.schedule_at(0.0, tick)
    start = time.perf_counter()
    scheduler.run_until(float(events - 1))
    end = time.perf_counter()
    log.record("sim.scheduler_ns_per_event", start, end)
    return (end - start) / scheduler.processed_events * 1e9


def _node_factory(spec):
    """The simulator node factory realising ``spec`` (Raft or PBFT)."""
    from repro.protocols.pbft import PBFTSpec
    from repro.sim.pbft import pbft_node_factory
    from repro.sim.raft import raft_node_factory

    if isinstance(spec, PBFTSpec):
        return pbft_node_factory(
            q_eq=spec.q_eq, q_per=spec.q_per, q_vc=spec.q_vc, q_vc_t=spec.q_vc_t
        )
    return raft_node_factory(q_per=spec.q_per, q_vc=spec.q_vc)


def _command_schedule(commands: int) -> list[tuple[str, float]]:
    """The simulation backend's client cadence: first submit at 1.0 s, one
    every 0.1 s after, accumulated the way the backend accumulates it.  The
    verdict counts are checked against the served answer, so a drift from
    the backend's schedule fails the correctness gate."""
    schedule, at = [], 1.0
    for index in range(commands):
        schedule.append((f"cmd-{index}", at))
        at += 0.1
    return schedule


def drive_campaign(log: ProbeLog, name: str, query) -> tuple[dict, tuple]:
    """One campaign's replicas through ``compile_faults -> Cluster -> run_until``.

    The same steps as ``repro.injection.run_replica`` on the same spawned
    replica streams, taken apart so each can be timed and the scheduler
    and network counters read.  Returns the layer metrics and the verdict
    counts, which must equal the served answer's.
    """
    from repro.analysis.kernels import rebuild_shard_generators, spawn_shard_sequences
    from repro.injection import behaviour_factory, compile_faults
    from repro.sim.checker import audit_run
    from repro.sim.cluster import Cluster

    scenario = query.scenario
    spec, fleet = scenario.spec, scenario.fleet
    node_factory = _node_factory(spec)
    commands = _command_schedule(query.commands)
    rngs = rebuild_shard_generators(spawn_shard_sequences(scenario.seed, query.replicas))
    stage: dict[str, list[float]] = {"compile": [], "build": [], "run": [], "audit": []}
    events = messages = delivered = 0
    verdicts = []
    for rng in rngs:
        t0 = time.perf_counter()
        compiled = compile_faults(
            query.faults,
            fleet=fleet,
            duration=query.duration,
            crash_window=query.crash_window,
            correlation=scenario.correlation,
            failure_kind=scenario.failure_kind,
            rng=rng,
        )
        t1 = time.perf_counter()
        overrides = {
            node: behaviour_factory(behaviour, spec)
            for node, behaviour in compiled.behaviours.items()
        }
        cluster = Cluster(fleet.n, node_factory, seed=rng, node_overrides=overrides or None)
        compiled.apply(cluster)
        compiled.apply_network(cluster)
        cluster.start()
        for value, at in commands:
            cluster.submit(value, at=at)
        t2 = time.perf_counter()
        cluster.run_until(query.duration)
        t3 = time.perf_counter()
        config = compiled.config
        verdict = audit_run(
            cluster.trace,
            [value for value, _ in commands],
            correct_nodes=sorted(set(range(fleet.n)) - set(config.failed_indices)),
            partition_windows=compiled.partition_windows,
            submit_times={value: at for value, at in commands},
        )
        t4 = time.perf_counter()
        log.record("injection.compile_us_per_replica", t0, t1)
        log.record("sim.build_us_per_replica", t1, t2)
        log.record(f"sim.{name}.run_ms_per_replica", t2, t3)
        log.record("sim.audit_us_per_replica", t3, t4)
        for key, seconds in zip(stage, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            stage[key].append(seconds)
        events += cluster.scheduler.processed_events
        messages += cluster.network.messages_sent
        delivered += cluster.network.messages_delivered
        missing = verdict.liveness.missing
        verdicts.append(
            (
                not verdict.safe,
                not verdict.live,
                verdict.live != spec.is_live(config),
                bool(missing) and set(missing) == set(verdict.liveness.partition_era),
            )
        )
    replicas = len(rngs)
    run_seconds = sum(stage["run"])
    metrics = {
        f"sim.{name}.events_per_replica": events / replicas,
        f"sim.{name}.messages_per_replica": messages / replicas,
        f"sim.{name}.timer_event_frac": 1.0 - delivered / events,
        f"sim.{name}.us_per_event": run_seconds / events * 1e6,
        f"sim.{name}.run_ms_per_replica": run_seconds / replicas * 1e3,
    }
    counts = (replicas, *(sum(column) for column in zip(*verdicts)))
    return {"metrics": metrics, "stage": stage}, counts


def campaign_probes(log: ProbeLog, round_: dict) -> tuple[dict, dict]:
    """Layer metrics of one round, and its verdict counts per deployment."""
    metrics: dict = {}
    stages: dict[str, list[float]] = {"compile": [], "build": [], "audit": []}
    verdicts = {}
    for name, payload in round_.items():
        driven, verdicts[name] = drive_campaign(log, name, payload.queries[0])
        metrics.update(driven["metrics"])
        for key in stages:
            stages[key] += driven["stage"][key]
    metrics["injection.compile_us_per_replica"] = median_us(stages["compile"])
    metrics["sim.build_us_per_replica"] = median_us(stages["build"])
    metrics["sim.audit_us_per_replica"] = median_us(stages["audit"])
    metrics["sim.scheduler_ns_per_event"] = scheduler_ns_per_event(log)
    metrics["engine.runtime.shard_overhead_us"] = shard_overhead_us(log)
    return metrics, verdicts


# ---------------------------------------------------------------------------
# analysis + markov: the sweep's kernels
# ---------------------------------------------------------------------------
def sweep_probes(log: ProbeLog, parts: dict) -> dict:
    """The sweep's kernels called directly, and each sub-batch run alone."""
    import numpy as np

    from repro.analysis.exact import exact_reliability
    from repro.analysis.kernels import counting_reliability_batch, monte_carlo_tally
    from repro.markov.builders import ClusterMarkovModel

    counting = [q.scenario for q in parts["counting"] if q.n == 25]
    spec = counting[0].spec
    fleets = [s.fleet for s in counting if s.spec.grouping_key() == spec.grouping_key()]
    exact = [q.scenario for q in parts["exact"] if q.n == 11]
    mc = parts["mc"][0].scenario
    chain = parts["markov"][0]
    model = ClusterMarkovModel(
        chain.n, chain.failure_rate_per_hour, chain.repair_rate_per_hour,
        repair_slots=chain.repair_slots,
    )
    counting_s = log.probe(
        "analysis.counting_us_per_scenario",
        lambda _: counting_reliability_batch(spec, fleets),
        [None],
    )
    mc_s = log.probe(
        "analysis.mc_trials_per_s",
        lambda seed: monte_carlo_tally(
            mc.spec, mc.fleet, mc.trials, np.random.default_rng(seed)
        ),
        range(8),
        calls=8,
    )
    metrics = {
        "analysis.counting_us_per_scenario": median_us(counting_s) / len(fleets),
        "analysis.exact_us_per_scenario": median_us(
            log.probe(
                "analysis.exact_us_per_scenario",
                lambda s: exact_reliability(s.spec, s.fleet),
                exact,
            )
        ),
        "analysis.mc_trials_per_s": mc.trials / statistics.median(mc_s),
        "markov.steady_state_us": median_us(
            log.probe(
                "markov.steady_state_us",
                lambda _: model.steady_state_distribution(),
                [None],
            )
        ),
    }
    alone = {
        kind: statistics.median(
            log.probe(
                f"analysis.sweep_share.{kind}",
                lambda qs: ReliabilityEngine().run(qs),
                [query_set],
                calls=7,
            )
        )
        for kind, query_set in parts.items()
    }
    total = sum(alone.values())
    for kind, seconds in alone.items():
        metrics[f"analysis.sweep_share.{kind}"] = seconds / total
    return metrics
