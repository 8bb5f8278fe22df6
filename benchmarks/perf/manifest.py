"""What the benchmark measures: workloads, metrics, units, bounds, windows.

The one table ``run.py`` reads its windows from, and the source of the
root ``BENCHMARK.json`` (``python benchmarks/perf/run.py manifest``
prints it; ``test_perf_stats.py`` holds the two in step).
"""

from __future__ import annotations

DEFAULT_SEED = 2026

#: Seconds.  ``window`` is ``run_seconds`` of BENCHMARK.json: the timed
#: window of every workload on every commit.  The traced pass and the
#: ``--quick`` smoke use shorter windows; their numbers are never end-to-end
#: results.  ``brief`` is what a single-workload traced run gives the
#: workloads it was not asked for, so that it can still report every layer.
WINDOWS = {
    "full": {"window": 20.0, "warmup": 1.0, "setups": 3},
    "traced": {"window": 5.0, "warmup": 1.0},
    "quick": {"window": 2.0, "warmup": 0.5, "setups": 1},
    "brief": {"window": 1.0, "warmup": 0.25},
}
#: Ops, where an op is too long for a seconds-sized short window to hold
#: a useful number of them.
MAX_OPS = {
    "traced": {"cli_cold": 3, "serve_cold_campaign": 3},
    "quick": {"cli_cold": 2, "serve_cold_campaign": 1},
    "brief": {"cli_cold": 1, "serve_cold_campaign": 1},
}

WORKLOADS = [
    {
        "name": "cli_cold",
        "why": "fresh `repro.cli query FILE --json` process on 12 analytic rows: "
        "interpreter + imports + cold engine; only import-graph or CLI changes show here",
    },
    {
        "name": "serve_warm_hit",
        "why": "one POST per op round-robin over a 64-query memoised working set: "
        "http, parse, key, executor hop and memo hit; kernels and sim idle",
    },
    {
        "name": "serve_cold_analytic",
        "why": "one never-seen analytic query per POST, more of them than the memo holds: "
        "probe-miss, compute, store, evict; taxes on the miss path show here",
    },
    {
        "name": "serve_cold_campaign",
        "why": "rounds of four fresh-seed 16-replica Raft/PBFT campaigns (crash, adversary, "
        "outage) at FixedLatency(0.001): the simulator event loop is >95% of the time",
    },
    {
        "name": "engine_cold_sweep",
        "why": "in-process 1268-query sweep on a fresh engine (counting, exact, monte-carlo, "
        "Markov): kernels and batching, no process start, socket or simulator",
    },
]
WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]

#: The workloads BENCHMARK.json registers, i.e. the ones the benchmark driver
#: runs and holds to the bounds below.  The driver makes 4 + 22 runs per
#: workload inside 57 minutes: four workloads leave each run a 20 s window,
#: five left 10 s, which was too noisy (README.md, "Bounds").  `cli_cold`
#: stays in the suite, but its 1.2 s op is ~1 s of third-party imports, which
#: every served workload's `setup_s` also pays.
DRIVER_WORKLOADS = [
    "serve_warm_hit",
    "serve_cold_analytic",
    "serve_cold_campaign",
    "engine_cold_sweep",
]
#: A workload the driver does not run gets its traced window in the traced
#: run of the workload named here, so that its layer metrics are still read
#: from more than the brief window.
TRACED_WITH = {"cli_cold": "engine_cold_sweep"}

#: Ops per batch of ``op_ms_quiet``: one cycle of the workload's payload mix
#: (the 64 working-set entries; two turns of the 32-op kind x size rotation
#: of the cold pool), so every batch does the same work.  One op where every
#: op already does.
BATCH_OPS = {
    "cli_cold": 1,
    "serve_warm_hit": 64,
    "serve_cold_analytic": 64,
    "serve_cold_campaign": 1,
    "engine_cold_sweep": 1,
}
#: ``op_ms_quiet`` is this percentile over the window's batch medians.
QUIET_FRACTION = 0.10

#: Every workload reports every one of these.  ``bound`` is the share of the
#: parent's median by which the metric may worsen.  The timed ones sit at
#: 0.25, the most BENCHMARK.json may say: the recording host's speed drifts
#: by a tenth even where it is quietest (README.md, "Bounds").
END_TO_END = [
    {"name": "op_ms_quiet", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

#: Reported in every result and compared by ``run.py compare``, but not part
#: of BENCHMARK.json.  The whole-window median, throughput and CPU per op of
#: one closed-loop client are three readings of one quantity, and each follows
#: the host's neighbours more than the code: the driver found all three past a
#: 25 % bound on runs of one commit.  `op_ms_p90` needs 100 ops in the window
#: and `failed_frac` is 0 on every workload, where any increase is a regression.
EXTRA_END_TO_END = [
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "unit": "work/s", "better": "higher", "bound": 0.25},
    {"name": "cpu_ms_per_op", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0},
]

_SIM = [
    ("events_per_replica", "count", "lower"),
    ("messages_per_replica", "count", "lower"),
    ("timer_event_frac", "ratio", "lower"),
    ("us_per_event", "us", "lower"),
    ("run_ms_per_replica", "ms", "lower"),
]

#: (reported name, workload whose traced pass measures it, its key in that
#: workload's layer block, unit, better).  A layer measured on two workloads
#: is listed twice, the second time with the workload's suffix.
LAYER_METRICS = [
    ("cli.interp_ms", "cli_cold", "cli.interp_ms", "ms", "lower"),
    ("cli.import_numpy_ms", "cli_cold", "cli.import_numpy_ms", "ms", "lower"),
    ("cli.import_scipy_ms", "cli_cold", "cli.import_scipy_ms", "ms", "lower"),
    ("cli.import_repro_ms", "cli_cold", "cli.import_repro_ms", "ms", "lower"),
    ("cli.modules_imported", "cli_cold", "cli.modules_imported", "count", "lower"),
    ("cli.answer_ms", "cli_cold", "cli.answer_ms", "ms", "lower"),
    ("serve.http_floor_us", "serve_warm_hit", "serve.http_floor_us", "us", "lower"),
    ("serve.outside_span_us", "serve_warm_hit", "serve.outside_span_us", "us", "lower"),
    ("serve.request_self_us", "serve_warm_hit", "serve.request_self_us", "us", "lower"),
    ("serve.query_self_us", "serve_warm_hit", "serve.query_self_us", "us", "lower"),
    ("serve.execute_self_us", "serve_warm_hit", "serve.execute_self_us", "us", "lower"),
    ("serve.key_us", "serve_warm_hit", "serve.key_us", "us", "lower"),
    ("serve.encode_us", "serve_warm_hit", "serve.encode_us", "us", "lower"),
    ("serve.unattributed_us", "serve_warm_hit", "serve.unattributed_us", "us", "lower"),
    ("serve.daemon_cpu_frac", "serve_warm_hit", "serve.daemon_cpu_frac", "ratio", "lower"),
    ("serve.coalesced_total", "serve_warm_hit", "serve.coalesced_total", "count", "lower"),
    ("engine.memo_hit_ratio", "serve_warm_hit", "engine.memo_hit_ratio", "ratio", "higher"),
    ("engine.memo_size_end", "serve_warm_hit", "engine.memo_size_end", "count", "lower"),
    ("engine.parse_us", "serve_warm_hit", "engine.parse_us", "us", "lower"),
    ("engine.memo_hit_us", "serve_warm_hit", "engine.memo_hit_us", "us", "lower"),
    ("engine.queries_self_us", "serve_warm_hit", "engine.queries_self_us", "us", "lower"),
    ("engine.backend_self_us", "serve_warm_hit", "engine.backend_self_us", "us", "lower"),
    ("obs.trace_overhead_frac.serve_warm_hit", "serve_warm_hit", "obs.trace_overhead_frac", "ratio", "lower"),
    ("obs.noop_span_ns", "serve_warm_hit", "obs.noop_span_ns", "ns", "lower"),
    ("serve.outside_span_us.cold", "serve_cold_analytic", "serve.outside_span_us", "us", "lower"),
    ("serve.request_self_us.cold", "serve_cold_analytic", "serve.request_self_us", "us", "lower"),
    ("serve.query_self_us.cold", "serve_cold_analytic", "serve.query_self_us", "us", "lower"),
    ("serve.execute_self_us.cold", "serve_cold_analytic", "serve.execute_self_us", "us", "lower"),
    ("serve.daemon_cpu_frac.cold", "serve_cold_analytic", "serve.daemon_cpu_frac", "ratio", "lower"),
    ("serve.coalesced_total.cold", "serve_cold_analytic", "serve.coalesced_total", "count", "lower"),
    ("engine.memo_hit_ratio.cold", "serve_cold_analytic", "engine.memo_hit_ratio", "ratio", "lower"),
    ("engine.memo_size_end.cold", "serve_cold_analytic", "engine.memo_size_end", "count", "higher"),
    ("engine.parse_us.cold", "serve_cold_analytic", "engine.parse_us", "us", "lower"),
    ("engine.queries_self_us.cold", "serve_cold_analytic", "engine.queries_self_us", "us", "lower"),
    ("engine.backend_self_us.cold", "serve_cold_analytic", "engine.backend_self_us", "us", "lower"),
    ("engine.cold_us.counting", "serve_cold_analytic", "engine.cold_us.counting", "us", "lower"),
    ("engine.cold_us.exact", "serve_cold_analytic", "engine.cold_us.exact", "us", "lower"),
    ("engine.cold_us.availability", "serve_cold_analytic", "engine.cold_us.availability", "us", "lower"),
    ("engine.cold_us.mttf", "serve_cold_analytic", "engine.cold_us.mttf", "us", "lower"),
    ("obs.trace_overhead_frac.serve_cold_analytic", "serve_cold_analytic", "obs.trace_overhead_frac", "ratio", "lower"),
    ("engine.campaign_self_ms", "serve_cold_campaign", "engine.campaign_self_ms", "ms", "lower"),
    ("engine.runtime.shard_overhead_us", "serve_cold_campaign", "engine.runtime.shard_overhead_us", "us", "lower"),
    ("injection.compile_us_per_replica", "serve_cold_campaign", "injection.compile_us_per_replica", "us", "lower"),
    *[
        (f"sim.{d}.{key}", "serve_cold_campaign", f"sim.{d}.{key}", unit, better)
        for d in ("crash_raft", "crash_pbft", "adv_pbft", "outage_raft")
        for key, unit, better in _SIM
    ],
    ("sim.scheduler_ns_per_event", "serve_cold_campaign", "sim.scheduler_ns_per_event", "ns", "lower"),
    ("sim.build_us_per_replica", "serve_cold_campaign", "sim.build_us_per_replica", "us", "lower"),
    ("sim.audit_us_per_replica", "serve_cold_campaign", "sim.audit_us_per_replica", "us", "lower"),
    ("sim.round_share", "serve_cold_campaign", "sim.round_share", "ratio", "higher"),
    ("obs.trace_overhead_frac.serve_cold_campaign", "serve_cold_campaign", "obs.trace_overhead_frac", "ratio", "lower"),
    ("analysis.counting_us_per_scenario", "engine_cold_sweep", "analysis.counting_us_per_scenario", "us", "lower"),
    ("analysis.exact_us_per_scenario", "engine_cold_sweep", "analysis.exact_us_per_scenario", "us", "lower"),
    ("analysis.mc_trials_per_s", "engine_cold_sweep", "analysis.mc_trials_per_s", "1/s", "higher"),
    ("markov.steady_state_us", "engine_cold_sweep", "markov.steady_state_us", "us", "lower"),
    ("analysis.sweep_share.counting", "engine_cold_sweep", "analysis.sweep_share.counting", "ratio", "lower"),
    ("analysis.sweep_share.exact", "engine_cold_sweep", "analysis.sweep_share.exact", "ratio", "lower"),
    ("analysis.sweep_share.mc", "engine_cold_sweep", "analysis.sweep_share.mc", "ratio", "lower"),
    ("analysis.sweep_share.markov", "engine_cold_sweep", "analysis.sweep_share.markov", "ratio", "lower"),
]


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json``, exactly."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": int(WINDOWS["full"]["window"]),
        "workloads": [w for w in WORKLOADS if w["name"] in DRIVER_WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, _, _, unit, better in LAYER_METRICS
        ],
    }
