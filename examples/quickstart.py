#!/usr/bin/env python3
"""Quickstart: probabilistic reliability of a consensus deployment.

Reproduces the paper's headline numbers in a dozen lines, using the
engine's one front door: a deployment is a `Scenario`, a question about
it is a `Query` (a bare scenario asks for its reliability), and
`ReliabilityEngine.run` answers any batch of them with an `AnswerSet` —
picking estimators, sharing DP sweeps across same-size scenarios, and
caching repeated questions.

Run:  python examples/quickstart.py
"""

from repro import (
    PBFTSpec,
    RaftSpec,
    Scenario,
    ScenarioSet,
    byzantine_fleet,
    default_engine,
    format_probability,
    nines,
    uniform_fleet,
)
from repro.engine import ExecutionPolicy


def main() -> None:
    engine = default_engine()

    # -- 1. "Raft with N=3 is only 3 nines safe and live" (§1) ----------
    # run_query answers one question; `.value` is the ReliabilityResult,
    # `.provenance` says how it was computed.
    question = Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, p_fail=0.01))
    answer = engine.run_query(question)
    result = answer.value
    print(f"3-node Raft, 1% node failure probability [{answer.provenance.describe()}]:")
    print(f"  safe:          {format_probability(result.safe.value)}")
    print(f"  live:          {format_probability(result.live.value)}")
    print(f"  safe & live:   {format_probability(result.safe_and_live.value)}"
          f"  ({nines(result.safe_and_live.value):.2f} nines)")

    # -- 2. Nine flaky nodes buy the same guarantee (§3) ----------------
    cheap = engine.run_query(
        Scenario(spec=RaftSpec(9), fleet=uniform_fleet(9, p_fail=0.08))
    ).value
    print("\n9-node Raft on 8%-failure spot instances:")
    print(f"  safe & live:   {format_probability(cheap.safe_and_live.value)}")
    print("  -> same nines; at 10x cheaper nodes this is a ~3.3x cost cut")

    # -- 3. PBFT's quorum sizes hide a safety/liveness dial (§3) --------
    # A ScenarioSet runs the whole sweep in one engine submission; the
    # reply is an AnswerSet, one Answer per scenario in order.
    sweep = ScenarioSet.build(
        Scenario(spec=PBFTSpec(n), fleet=byzantine_fleet(n, 0.01), label=f"N={n}")
        for n in (4, 5, 7)
    )
    print("\nPBFT at p=1% (every failure Byzantine):")
    for answer in engine.run(sweep):
        r = answer.value
        print(
            f"  {answer.scenario.label}: safe {format_probability(r.safe.value):>12}  "
            f"live {format_probability(r.live.value):>9}"
        )
    print("  -> 5 nodes are dramatically safer than 4, and safer than 7")

    # -- 4. Parallel execution: same answers, every core busy -----------
    # An ExecutionPolicy fans a scenario set across worker threads or
    # processes.  Monte-Carlo trial budgets shard into SeedSequence-spawned
    # streams whose plan depends only on the budget — so the numbers below
    # are identical for jobs=1, jobs=2 or jobs=16 (only the wall-clock
    # changes).  The CLI exposes the same knob as
    # `repro-analyze sweep --n 25 --p 0.01,0.02 --jobs 4`.
    big = ScenarioSet.build(
        Scenario(
            spec=RaftSpec(25),
            fleet=uniform_fleet(25, p),
            method="monte-carlo",
            trials=60_000,
            seed=2025,
            label=f"p={p:g}",
        )
        for p in (0.25, 0.4)
    )
    policy = ExecutionPolicy(mode="thread", jobs=2)
    print("\n25-node Raft under sampled failures, sharded across 2 workers:")
    for answer in engine.run(big, policy=policy):
        r = answer.value
        print(
            f"  {answer.scenario.label}: safe&live "
            f"{format_probability(r.safe_and_live.value)}  "
            f"[{answer.provenance.describe()}]"
        )
    print("  -> worker count never changes the numbers, only the wall-clock")

    # -- 5. Time-domain queries: one QuerySet, four kinds of question ---
    # A Query couples a Scenario with a *question*.  Point reliability is
    # one kind; the same front door also answers steady-state availability
    # and MTTF/MTTDL (exact CTMC solves, batched per chain) and runs
    # seeded discrete-event simulation campaigns audited by the trace
    # checker (replicas fanned across the policy's workers; answers never
    # depend on the worker count).  One JSON file can mix all four — see
    # `repro-analyze query questions.json`.
    from repro.engine import (
        AvailabilityQuery,
        MTTFQuery,
        QuerySet,
        ReliabilityQuery,
        SimulationQuery,
    )

    deployment = Scenario(
        spec=RaftSpec(5), fleet=uniform_fleet(5, 0.05), seed=11, label="raft-5"
    )
    questions = QuerySet.build(
        [
            ReliabilityQuery(deployment),
            AvailabilityQuery.from_afr(
                deployment, afr=0.08, mttr_hours=24.0, window_hours=720.0
            ),
            MTTFQuery.from_afr(deployment, afr=0.08, mttr_hours=24.0),
            SimulationQuery(deployment, replicas=8, duration=8.0, commands=3),
        ]
    )
    print("\nOne deployment, every kind of question (one engine submission):")
    for answer in engine.run(questions):
        from repro.engine.result import describe_answer_value

        print(
            f"  {answer.kind:>12}: {describe_answer_value(answer.value)}"
            f"  [{answer.provenance.describe()}]"
        )
    print("  -> reliability, availability, MTTF and audited runs share one API")

    # -- 6. Fault plans: declare the adversary, let the engine run it ----
    # A SimulationQuery's `faults` section is a declarative FaultPlan:
    # typed events (crash-stop/recovery, partition/heal, loss and delay
    # bursts, correlated bursts) plus an adversary mix that turns
    # Byzantine outcomes into running misbehaviour classes
    # (equivocating primary, double-voters, silent replicas).  Plans are
    # plain JSON, so the same campaign can live in a query file for
    # `repro-analyze query`.  Below: the paper's Theorem 3.1 attack — two
    # colluding Byzantine nodes in a 4-node PBFT cluster — plus a rack
    # partition that heals, audited over seeded executions.
    from repro.injection import Adversary, FaultPlan, PartitionEvent

    attack = QuerySet.build(
        [
            SimulationQuery(
                Scenario(
                    spec=PBFTSpec(4), fleet=uniform_fleet(4, 0.0), seed=13,
                    label="thm-3.1 attack",
                ),
                replicas=4, duration=8.0, commands=2,
                faults=FaultPlan(adversary=Adversary(nodes=(0, 2))),
            ),
            SimulationQuery(
                Scenario(
                    spec=RaftSpec(5), fleet=uniform_fleet(5, 0.05), seed=13,
                    label="rack partition",
                ),
                replicas=4, duration=10.0, commands=3,
                # The rack uplink dies just before the clients submit
                # (t=1.0-1.2) and never recovers: the cut-off minority can
                # never learn the commits, so the stalls are attributed to
                # the partition era rather than organic failures.
                faults=FaultPlan(
                    events=(
                        PartitionEvent(groups=((0, 1), (2, 3, 4)), at=0.9),
                    ),
                    mean_time_to_repair=4.0,
                ),
            ),
        ]
    )
    print("\nFault plans: adversaries and outages as declarative campaign inputs:")
    for answer in engine.run(attack):
        value = answer.value
        print(
            f"  {answer.query.label:>15}: "
            f"unsafe {value.safety_violations}/{value.replicas}, "
            f"stalled {value.liveness_violations}/{value.replicas} "
            f"({value.partition_era_liveness_violations} partition-era)"
        )
    print("  -> the attack splits the cluster exactly where Thm 3.1 predicts;")
    print("     partition-era stalls are reported separately from organic ones")

    # -- 7. Running campaigns that survive failures ----------------------
    # Long campaigns meet real-world failures of their own: a worker
    # raises, hangs past a deadline, or dies outright.  Supervision knobs
    # on ExecutionPolicy (`timeout`, `retries`, `on_shard_failure`,
    # `checkpoint_dir` — also CLI flags on `repro-analyze query`) route
    # the fan-out through the fault-tolerant runtime.  Retries re-execute
    # the *same* spawned replica streams, so a recovered campaign is
    # bit-identical to one that never failed — provable here by injecting
    # a chaos fault into shard 1 and comparing the serialized answers.
    import json
    import tempfile

    from repro.engine import ChaosPlan, ReliabilityEngine, ShardFault

    campaign = QuerySet.build(
        [
            SimulationQuery(
                Scenario(
                    spec=RaftSpec(5), fleet=uniform_fleet(5, 0.05), seed=17,
                    label="supervised",
                ),
                replicas=8, duration=6.0, commands=2,
            )
        ]
    )

    def run_campaign(**knobs):
        # Fresh engines keep the shared answer memo out of the comparison.
        policy = ExecutionPolicy(
            mode="thread", jobs=2, shard_trials=2, timeout=30.0, **knobs
        )
        return ReliabilityEngine().run(campaign, policy=policy)[0]

    clean = run_campaign(retries=2)
    with tempfile.TemporaryDirectory() as state:
        chaos = ChaosPlan(
            faults=((1, ShardFault("raise", times=1)),), state_dir=state
        )
        recovered = run_campaign(retries=2, chaos=chaos)
    identical = json.dumps(recovered.to_dict()) == json.dumps(clean.to_dict())
    print("\nSupervised campaigns: retries replay the same replica streams:")
    print(f"  crash-free run:  [{clean.provenance.describe()}]")
    print(f"  shard 1 crashed once, retried: answers byte-identical? {identical}")

    # With `on_shard_failure="degrade"` a shard that exhausts its retries
    # is dropped instead of failing the campaign: the answer covers the
    # surviving replicas and its provenance says so (degraded answers are
    # never cached).  A `checkpoint_dir` additionally journals finished
    # shards, so a rerun pointing at the same directory — the CLI's
    # `--resume DIR` — replays them from disk and only executes the rest.
    with tempfile.TemporaryDirectory() as state:
        poison = ChaosPlan(
            faults=((2, ShardFault("raise", times=-1)),), state_dir=state
        )
        partial = run_campaign(on_shard_failure="degrade", chaos=poison)
    value = partial.value
    print("Degraded campaign: shard 2 permanently poisoned, campaign survives:")
    print(
        f"  audited {value.replicas}/8 replicas, dropped shards "
        f"{partial.provenance.dropped_shards}  [{partial.provenance.describe()}]"
    )
    with tempfile.TemporaryDirectory() as journal_dir:
        first = run_campaign(retries=1, checkpoint_dir=journal_dir)
        resumed = run_campaign(retries=1, checkpoint_dir=journal_dir)
        same = json.dumps(resumed.to_dict()) == json.dumps(first.to_dict())
    print(f"  resume from checkpoint journal: byte-identical? {same}")
    print("  -> timeouts, retries, degradation and resume never change answers")

    # -- 8. Determinism contracts: the linter that guards all of the above
    # Everything demonstrated so far leans on one invariant: answers are a
    # pure function of (inputs, seed).  `repro.contracts` checks that
    # statically — ambient RNG construction, wall-clock reads, unsorted
    # set iteration into codecs, unpicklable pool workers, cache-key field
    # drift, swallowed worker errors, half-registered query kinds.  The
    # same checker runs in tier-1 (tests/test_contracts_self.py) and from
    # the CLI: `repro-analyze lint` / `repro-analyze lint --explain RULE`.
    from textwrap import dedent

    from repro.contracts import lint_sources

    sneaky = dedent(
        """
        import numpy as np

        def estimate(spec, trials):
            rng = np.random.default_rng()   # ambient entropy!
            return rng.random(trials).mean()
        """
    )
    findings = lint_sources({"repro/analysis/new_estimator.py": sneaky})
    print("\nDeterminism contracts: what review no longer has to catch by eye:")
    for found in findings:
        print(f"  {found.render()}")
    assert lint_sources({"repro/analysis/new_estimator.py": sneaky.replace(
        "rng = np.random.default_rng()   # ambient entropy!",
        "rng = np.random.default_rng()   # repro: allow[rng-discipline] -- demo",
    )}) == [], "justified suppressions keep the lint quiet"
    print("  -> a seeded campaign cannot silently grow a hidden entropy source")

    # The concurrency families work the same way.  `lock-guard` infers,
    # per class, which attributes the lock discipline protects (whatever
    # is *written* under `with self._lock:`) and flags every lock-free
    # access — this is the rule that re-finds the engine-memo race PR 8
    # had to fix by hand (see tests/test_contracts_concurrency.py).
    racy = dedent(
        """
        import threading

        class AnswerCache:
            def __init__(self):
                self._lock = threading.Lock()
                self._entries = {}

            def put(self, key, value):
                with self._lock:
                    self._entries[key] = value

            def get(self, key):
                return self._entries.get(key)   # races put()!
        """
    )
    concurrency_findings = lint_sources(
        {"repro/serve/new_cache.py": racy}, rules=["lock-guard"]
    )
    print("Concurrency contracts: the race a single-threaded test never hits:")
    for found in concurrency_findings:
        print(f"  {found.render()}")
    assert [f.rule for f in concurrency_findings] == ["lock-guard"]
    fixed = racy.replace(
        "        return self._entries.get(key)   # races put()!",
        "        with self._lock:\n"
        "            return self._entries.get(key)",
    )
    assert lint_sources({"repro/serve/new_cache.py": fixed}) == []
    print("  -> guarded writes imply guarded reads, enforced before code ships")

    # -- 9. Serving queries: the engine as a long-running daemon ---------
    # Everything above is batch: the process answers and exits, taking
    # its warm caches with it.  `repro-analyze serve` keeps one engine
    # resident behind an HTTP API — the same Query/QuerySet JSON over
    # POST /v1/query, GET /healthz + /metrics, identical in-flight
    # queries coalesced into a single execution, and every campaign
    # supervised (timeouts, retries, degradation, checkpoint/resume
    # across daemon restarts).  The answers are bit-identical to the
    # batch path; BackgroundServer is the embeddable form used here and
    # in tests.
    import http.client

    from repro.serve import BackgroundServer, ServiceConfig

    request = QuerySet.build(
        [
            ReliabilityQuery(
                Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01),
                         label="served")
            )
        ]
    ).to_json()
    with BackgroundServer(ServiceConfig(port=0)) as server:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.request("POST", "/v1/query", body=request)
        first = json.loads(conn.getresponse().read())
        conn.request("POST", "/v1/query", body=request)  # now memo-warm
        second = json.loads(conn.getresponse().read())
        conn.request("GET", "/metrics")
        metrics = json.loads(conn.getresponse().read())
        conn.close()
    direct = default_engine().run_query(
        ReliabilityQuery(
            Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01),
                     label="served")
        )
    )
    served = first["answers"][0]["answer"]
    assert served == second["answers"][0]["answer"]
    assert served["safe_and_live"] == direct.value.safe_and_live.value
    print("\nServing queries: one warm engine behind POST /v1/query:")
    print(f"  served answer: {served['safe_and_live']:.6f} "
          f"(== batch answer? {served['safe_and_live'] == direct.value.safe_and_live.value})")
    print(f"  second request was a cache hit: {bool(second['cache_hits'])}")
    print(f"  /metrics: {metrics['queries_total']} queries, engine hit rate "
          f"{metrics['engine_cache']['hit_rate']:.2f}")
    print("  -> the daemon changes where answers come from, never what they are")

    # -- 10. Observability: a traced campaign you can open in Perfetto --
    # `repro.obs` records the full execution as nested spans — engine
    # planning, per-kind backends, the supervised runtime's per-shard
    # attempt timeline, worker chunks — and exports Chrome trace-event
    # JSON (chrome://tracing or https://ui.perfetto.dev) or a JSONL span
    # log.  Span ids derive from cache-key digests and structural
    # counters, never RNG, and tracing never touches the spawned replica
    # streams: answers are bit-identical with tracing off, on, or
    # exporting (tests/test_obs.py pins this; benchmarks/bench_obs.py
    # holds the disabled-path overhead under 5%).  The same spans come
    # from `repro-analyze query --trace run.json` and `serve --trace`.
    import tempfile

    from repro.engine import SimulationQuery
    from repro.obs import InMemoryExporter, Tracer, use_tracer, write_trace

    campaign = QuerySet.build(
        [
            SimulationQuery(
                Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.2),
                         seed=7, label="traced"),
                replicas=8, duration=5.0, commands=2,
            )
        ]
    )
    exporter = InMemoryExporter()
    tracer = Tracer.for_key(("quickstart", "traced-campaign"),
                            exporter=exporter)
    supervised = ExecutionPolicy.from_jobs(
        2, mode="thread", timeout=30.0, retries=1
    )
    with use_tracer(tracer):
        traced = ReliabilityEngine().run(campaign, policy=supervised)
    untraced = ReliabilityEngine().run(campaign, policy=supervised)
    spans = exporter.records
    shard_spans = [s for s in spans if s.name == "shard"]
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = f"{tmp}/campaign-trace.json"
        write_trace(spans, trace_path)
        events = json.loads(open(trace_path).read())["traceEvents"]
    print("\nObservability: the campaign above as a Perfetto-ready trace:")
    print(f"  spans recorded: {len(spans)} "
          f"({len(shard_spans)} shard attempts on the 'shards' track)")
    print(f"  trace id {tracer.trace_id} (sha256 of the campaign key — no RNG)")
    print(f"  chrome trace events written: {len(events)}")
    identical = json.dumps(traced[0].to_dict()) == json.dumps(
        untraced[0].to_dict()
    )
    print(f"  traced answer == untraced answer, byte for byte? {identical}")
    print("  -> you can watch every shard attempt without changing a single bit")


if __name__ == "__main__":
    main()
