"""``repro-analyze`` — command-line front door to the analysis engine.

Subcommands::

    repro-analyze raft  --n 5 --p 0.01            # one Raft deployment
    repro-analyze pbft  --n 4 --p 0.01            # one PBFT deployment
    repro-analyze table1                          # reproduce paper Table 1
    repro-analyze table2                          # reproduce paper Table 2
    repro-analyze plan  --target-nines 3.5        # cheapest plan for a target
    repro-analyze sweep --n 25 --p 0.01,0.02,0.05 # batched what-if sweep
    repro-analyze query questions.json            # JSON query file -> engine
    repro-analyze scenarios deployments.json      # (alias of `query`)
    repro-analyze sensitivity --n 7 --p 0.08,0.08,0.08,0.08,0.01,0.01,0.01
    repro-analyze committee --n 100 --p 0.01 --target-nines 4
    repro-analyze mttf --n 5 --afr 0.08 --mttr-hours 24 [--json]

Every subcommand but ``table1``, ``table2`` and ``report`` estimates
through the reliability engine (:mod:`repro.engine`), so sweeps share
batched DP sweeps and the engine's memo cache; those three print
:mod:`repro.report`'s text, computed with the scalar estimators the
engine is pinned to.  Every table prints through
:func:`repro.report.format_table`.  ``query`` (alias: ``scenarios``) is
the front door for arbitrary workloads: one JSON file — a list of
scenario dicts, a ``{"grid": ...}`` description, or rows mixing
``reliability``, ``availability``, ``mttf`` and ``simulation`` questions
— runs through
:meth:`ReliabilityEngine.run`, each row routed to its engine backend
(shared DP sweeps and CTMC models; sharded simulation campaigns), and
prints per-row answers with provenance.  ``mttf`` itself is answered by
those backends.  ``simulation`` rows accept a ``"faults"``
section — a declarative :mod:`repro.injection` fault plan of typed events
(``crash``, ``partition``, ``loss-burst``, ``delay-burst``,
``correlated-burst``) plus an adversary mix — so outage replays and
Byzantine attack campaigns are plain JSON::

    {"kind": "simulation", "scenario": {...}, "replicas": 50,
     "faults": {"adversary": {"nodes": [0, 2]},
                "events": [{"kind": "partition",
                            "groups": [[0, 1], [2, 3]],
                            "at": 2.0, "heal_at": 4.0}]}}

``raft``/``pbft``/``sweep``/``query`` take ``--jobs N`` to
fan work over ``N`` worker processes (sharded counting-DP sweeps;
spawned-stream Monte-Carlo; simulation replica fan-out).  ``--jobs`` only
decides where shards run: results are identical for any ``N`` and for
``--jobs`` unset (everything in the calling process), and identical to
what the ``serve`` daemon answers for the same query.

``query`` additionally takes the fault-tolerance flags of the shard
runtime (:mod:`repro.runtime`): ``--retries K`` re-executes a failed
shard up to ``K`` times (bit-identically — retried shards replay the same
spawned stream), ``--on-shard-failure degrade`` keeps a partial answer
with ``degraded`` provenance instead of failing the run, and ``--resume
DIR`` journals completed shards to ``DIR`` so an interrupted campaign
resumes from where it stopped.  ``--timeout SECONDS`` bounds each
campaign shard's wall clock only when the shards run on a pool
(``--jobs N`` with ``N >= 2``, and more than one shard): shards that run
in the calling process cannot be interrupted, so without ``--jobs`` the
timeout does nothing.  ``serve --timeout`` behaves the same way, and its
default ``--jobs`` is one worker.  None of these flags changes any
printed number.

Prints paper-style tables to stdout; exits non-zero on invalid input.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis import format_probability
from repro.errors import ReproError
from repro.faults.mixture import byzantine_fleet, uniform_fleet
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import RaftSpec


def _policy_from_args(args: argparse.Namespace):
    """Translate ``--jobs`` (and fault-tolerance flags) into a policy.

    ``--jobs`` unset runs every shard in the calling process; an explicit
    ``N >= 1`` runs them on ``N`` worker processes; negative means one
    worker per CPU.  The printed numbers are identical in every case
    (sampling always draws from spawned per-shard streams, and shard plans
    never depend on the worker count).  ``--timeout``/``--retries``/
    ``--on-shard-failure``/``--resume`` (where the subcommand offers
    them) set the campaign supervision knobs; none of them changes any
    printed value.
    """
    from repro.engine import ExecutionPolicy

    supervision = {}
    if getattr(args, "timeout", None) is not None:
        supervision["timeout"] = args.timeout
    if getattr(args, "retries", None):
        supervision["retries"] = args.retries
    if getattr(args, "on_shard_failure", None) not in (None, "raise"):
        supervision["on_shard_failure"] = args.on_shard_failure
    if getattr(args, "resume", None) is not None:
        supervision["checkpoint_dir"] = args.resume
    return ExecutionPolicy.from_jobs(getattr(args, "jobs", None), **supervision)


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for sharded execution (default: serial; "
            "-1 = one per CPU; values never depend on the worker count)"
        ),
    )


def _cmd_raft(args: argparse.Namespace) -> int:
    from repro.engine import Scenario, default_engine
    from repro.report import format_table

    spec = RaftSpec(args.n, q_per=args.q_per, q_vc=args.q_vc)
    result = default_engine().run_query(
        Scenario(spec=spec, fleet=uniform_fleet(args.n, args.p)),
        policy=_policy_from_args(args),
    ).value
    print(format_table(
        ["N", "|Qper|", "|Qvc|", "Safe %", "Live %", "Safe and Live %"],
        [[
            str(args.n),
            str(spec.q_per),
            str(spec.q_vc),
            format_probability(result.safe.value),
            format_probability(result.live.value),
            format_probability(result.safe_and_live.value),
        ]],
    ))
    return 0


def _cmd_pbft(args: argparse.Namespace) -> int:
    from repro.engine import Scenario, default_engine
    from repro.report import pbft_table

    spec = PBFTSpec(args.n)
    result = default_engine().run_query(
        Scenario(spec=spec, fleet=byzantine_fleet(args.n, args.p)),
        policy=_policy_from_args(args),
    ).value
    print(pbft_table([(spec, result)]))
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    from repro.report import table1_text

    print(table1_text())
    return 0


def _cmd_table2(_args: argparse.Namespace) -> int:
    from repro.report import table2_text

    print(table2_text())
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.planner import DEFAULT_PRICE_BOOK, find_cheapest_plan

    outcome = find_cheapest_plan(
        DEFAULT_PRICE_BOOK,
        args.target_nines,
        sizes=range(3, args.max_size + 1, 2),
    )
    if outcome.best is None:
        print(f"no plan up to {args.max_size} nodes reaches {args.target_nines} nines")
        return 1
    best = outcome.best
    print(f"target: {args.target_nines} nines safe&live (Raft, majority quorums)")
    print(f"best plan: {best.plan.describe()}")
    print(f"achieved:  {format_probability(best.reliability)}")
    return 0


def _parse_probabilities(raw: str, n: int) -> list[float]:
    parts = [float(piece) for piece in raw.split(",")]
    if len(parts) == 1:
        parts = parts * n
    if len(parts) != n:
        raise SystemExit(f"expected 1 or {n} probabilities, got {len(parts)}")
    return parts


def _cmd_sweep(args: argparse.Namespace) -> int:
    """What-if grid over per-node failure probabilities, one batched sweep."""
    try:
        probabilities = [float(piece) for piece in args.p.split(",")]
    except ValueError:
        raise SystemExit(f"--p must be comma-separated floats, got {args.p!r}")
    from repro.engine import Scenario, default_engine
    from repro.report import format_table

    if args.protocol == "raft":
        spec = RaftSpec(args.n)
        fleets = [uniform_fleet(args.n, p) for p in probabilities]
    else:
        spec = PBFTSpec(args.n)
        fleets = [byzantine_fleet(args.n, p) for p in probabilities]
    results = default_engine().run(
        [Scenario(spec=spec, fleet=fleet) for fleet in fleets],
        policy=_policy_from_args(args),
    ).values
    rows = [
        [
            f"{p:.4f}",
            format_probability(result.safe.value),
            format_probability(result.live.value),
            format_probability(result.safe_and_live.value),
        ]
        for p, result in zip(probabilities, results)
    ]
    print(f"Sweep: {spec.name} n={args.n}, {len(fleets)} fleets in one kernel batch")
    print(format_table(["p_fail", "Safe %", "Live %", "Safe and Live %"], rows))
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.analysis.sensitivity import importance_ranking
    from repro.faults.mixture import Fleet, NodeModel
    from repro.report import format_table

    probabilities = _parse_probabilities(args.p, args.n)
    fleet = Fleet(tuple(NodeModel(p) for p in probabilities))
    ranking = importance_ranking(RaftSpec(args.n), fleet, metric="live")
    rows = [
        [str(rank), str(node), f"{fleet[node].p_fail:.4f}", f"{score:.6f}"]
        for rank, (node, score) in enumerate(ranking, start=1)
    ]
    print(f"Birnbaum importance (liveness), Raft n={args.n}")
    print(format_table(["rank", "node", "p_fail", "importance"], rows))
    return 0


def _cmd_committee(args: argparse.Namespace) -> int:
    from repro.faults.mixture import uniform_fleet as make_fleet
    from repro.planner.committee import smallest_committee_for_target

    fleet = make_fleet(args.n, args.p)
    assessment = smallest_committee_for_target(RaftSpec, fleet, args.target_nines)
    if assessment is None:
        print(
            f"no committee of the {args.n}-node pool (p={args.p}) reaches "
            f"{args.target_nines} nines"
        )
        return 1
    print(
        f"smallest committee: {assessment.committee_size} of {args.n} nodes -> "
        f"S&L {format_probability(assessment.safe_and_live)} [{assessment.method}]"
    )
    return 0


def _cmd_mttf(args: argparse.Namespace) -> int:
    """Storage-style Markov metrics, answered by the engine's time-domain
    backends (one MTTFQuery + one AvailabilityQuery sharing the chain)."""
    import json

    from repro.engine import AvailabilityQuery, MTTFQuery, default_engine

    answers = default_engine().run(
        [
            MTTFQuery.for_cluster(
                args.n, afr=args.afr, mttr_hours=args.mttr_hours, label=f"mttf/n={args.n}"
            ),
            AvailabilityQuery.for_cluster(
                args.n, afr=args.afr, mttr_hours=args.mttr_hours, label=f"mttf/n={args.n}"
            ),
        ]
    )
    mttf, availability = answers[0].value, answers[1].value
    if args.json:
        print(
            json.dumps(
                {
                    "n": args.n,
                    "afr": args.afr,
                    "mttr_hours": args.mttr_hours,
                    "quorum_size": mttf.quorum_size,
                    "mttf_hours": mttf.mttf_hours,
                    "mttf_years": mttf.mttf_years,
                    "mttdl_hours": mttf.mttdl_hours,
                    "mttdl_years": mttf.mttdl_years,
                    "availability": availability.availability,
                    "availability_nines": availability.availability_nines,
                },
                indent=2,
            )
        )
        return 0
    from repro.report import format_table

    rows = [
        [
            str(args.n),
            f"{mttf.mttf_years:.3e}",
            f"{mttf.mttdl_years:.3e}",
            f"{availability.availability:.10f}",
        ]
    ]
    print(f"Markov metrics: AFR={args.afr:.1%}, MTTR={args.mttr_hours}h, majority quorums")
    print(format_table(["N", "MTTF-liveness (yr)", "MTTDL (yr)", "availability"], rows))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """Run a mixed JSON query file through the engine's backends."""
    import json
    from pathlib import Path

    from repro.engine import QuerySet, default_engine
    from repro.engine.result import wire_row
    from repro.errors import ReproError

    path = Path(args.file)
    if not path.exists():
        raise SystemExit(f"query file not found: {path}")
    try:
        query_set = QuerySet.from_json(path.read_text())
    except (ReproError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"invalid query file {path}: {exc}")
    if not len(query_set):
        raise SystemExit(f"query file {path} contains no queries")
    trace_path = getattr(args, "trace", None)
    if trace_path:
        from repro.obs import InMemoryExporter, Tracer, use_tracer, write_trace

        exporter = InMemoryExporter()
        tracer = Tracer.for_key(("repro-analyze query", path.read_text()), exporter=exporter)
        with use_tracer(tracer):
            answers = default_engine().run(query_set, policy=_policy_from_args(args))
        write_trace(exporter.records, trace_path)
    else:
        answers = default_engine().run(query_set, policy=_policy_from_args(args))
    if args.json:
        print(json.dumps([wire_row(answer) for answer in answers], indent=2))
        return 0
    from repro.report import format_table

    rows = [
        [row["label"], row["kind"], row["N"], row["answer"], row["via"]]
        for row in answers.table()
    ]
    print(
        f"Queries: {len(answers)} answered through the engine "
        f"({answers.cache_hits} cache hits)"
    )
    print(format_table(["query", "kind", "N", "answer", "via"], rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived query daemon (see :mod:`repro.serve`)."""
    from repro.serve import ServiceConfig, serve_forever

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
        shard_timeout=args.timeout,
        retries=args.retries,
        on_shard_failure=args.on_shard_failure,
        cache_size=args.cache_size,
        trace_path=args.trace,
    )
    serve_forever(config)
    return 0


def _cmd_report(_args: argparse.Namespace) -> int:
    from repro.report import evaluate_claims, full_report

    claims = evaluate_claims()
    print(full_report(claims))
    return 0 if all(c.matches for c in claims) else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static determinism/concurrency contract check (repro.contracts).

    Exit status 0 means no *new* findings (baselined debt is reported but
    not fatal), so the command is directly usable as a pre-commit hook.
    """
    import pathlib

    from repro.contracts import (
        lint_paths,
        registered_rules,
        render_json,
        render_sarif,
        render_text,
        save_baseline,
    )

    known_rules = registered_rules()
    if args.explain is not None:
        if args.explain == "list":
            for rule_id in sorted(known_rules):
                print(f"{rule_id} — {known_rules[rule_id].summary}")
            return 0
        rule = known_rules.get(args.explain)
        if rule is None:
            print(
                f"unknown rule {args.explain!r}; "
                f"rules: {', '.join(sorted(known_rules))}",
                file=sys.stderr,
            )
            return 2
        print(rule.explain())
        return 0

    rules = None
    if args.rules is not None:
        rules = [rule_id.strip() for rule_id in args.rules.split(",") if rule_id.strip()]
        unknown = sorted(set(rules) - set(known_rules))
        if unknown:
            print(
                f"unknown rule(s) {', '.join(repr(r) for r in unknown)}; "
                f"rules: {', '.join(sorted(known_rules))}",
                file=sys.stderr,
            )
            return 2

    if args.paths:
        paths = [pathlib.Path(p) for p in args.paths]
    else:
        # Default scope: the installed package itself, wherever it lives.
        paths = [pathlib.Path(__file__).resolve().parent]
    result = lint_paths(paths, rules=rules, baseline=args.baseline)
    if args.write_baseline is not None:
        save_baseline(result.findings, args.write_baseline)
        print(
            f"wrote {len(result.findings)} finding(s) to {args.write_baseline}; "
            "justify each entry in review"
        )
        return 0
    fmt = "json" if args.json else args.format
    if fmt == "json":
        print(render_json(result))
    elif fmt == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Probabilistic consensus reliability analysis (HotOS '25 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="full paper-vs-measured reproduction report")
    report.set_defaults(func=_cmd_report)

    lint = sub.add_parser(
        "lint",
        help="static determinism & concurrency contract check "
        "(AST-level; exits non-zero on new findings)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format: human text, versioned JSON, or SARIF 2.1.0 "
        "for CI/editor ingestion (default: text)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --format json (kept for compatibility)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="committed baseline of known findings; only NEW findings fail",
    )
    lint.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="write current findings as a new baseline file and exit 0",
    )
    lint.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all); an unknown "
        "id exits 2 listing every valid rule",
    )
    lint.add_argument(
        "--explain",
        metavar="RULE-ID",
        default=None,
        help="print a rule's rationale and a minimal bad/good example; "
        "`--explain list` enumerates every rule id",
    )
    lint.add_argument(
        "--verbose",
        action="store_true",
        help="also list baselined findings in the text report",
    )
    lint.set_defaults(func=_cmd_lint)

    raft = sub.add_parser("raft", help="analyze one Raft deployment")
    raft.add_argument("--n", type=int, required=True, help="cluster size")
    raft.add_argument("--p", type=float, required=True, help="per-node failure probability")
    raft.add_argument("--q-per", type=int, default=None, help="persistence quorum size")
    raft.add_argument("--q-vc", type=int, default=None, help="view-change quorum size")
    _add_jobs_flag(raft)
    raft.set_defaults(func=_cmd_raft)

    pbft = sub.add_parser("pbft", help="analyze one PBFT deployment (worst-case Byzantine)")
    pbft.add_argument("--n", type=int, required=True, help="cluster size")
    pbft.add_argument("--p", type=float, required=True, help="per-node failure probability")
    _add_jobs_flag(pbft)
    pbft.set_defaults(func=_cmd_pbft)

    table1 = sub.add_parser("table1", help="reproduce the paper's Table 1")
    table1.set_defaults(func=_cmd_table1)

    table2 = sub.add_parser("table2", help="reproduce the paper's Table 2")
    table2.set_defaults(func=_cmd_table2)

    plan = sub.add_parser("plan", help="cheapest deployment meeting a nines target")
    plan.add_argument("--target-nines", type=float, required=True)
    plan.add_argument("--max-size", type=int, default=15)
    plan.set_defaults(func=_cmd_plan)

    sweep = sub.add_parser(
        "sweep", help="batched what-if sweep over failure probabilities"
    )
    sweep.add_argument("--n", type=int, required=True, help="cluster size")
    sweep.add_argument(
        "--p",
        type=str,
        required=True,
        help="comma-separated per-node failure probabilities to sweep",
    )
    sweep.add_argument(
        "--protocol",
        choices=("raft", "pbft"),
        default="raft",
        help="protocol family (pbft uses the worst-case Byzantine fleet)",
    )
    _add_jobs_flag(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    sensitivity = sub.add_parser(
        "sensitivity", help="rank nodes by Birnbaum importance (liveness)"
    )
    sensitivity.add_argument("--n", type=int, required=True)
    sensitivity.add_argument(
        "--p",
        type=str,
        required=True,
        help="per-node failure probabilities, comma-separated (or one value for all)",
    )
    sensitivity.set_defaults(func=_cmd_sensitivity)

    committee = sub.add_parser(
        "committee", help="smallest sampled committee meeting a nines target"
    )
    committee.add_argument("--n", type=int, required=True, help="node pool size")
    committee.add_argument("--p", type=float, required=True)
    committee.add_argument("--target-nines", type=float, required=True)
    committee.set_defaults(func=_cmd_committee)

    mttf = sub.add_parser("mttf", help="storage-style Markov metrics for a cluster")
    mttf.add_argument("--n", type=int, required=True)
    mttf.add_argument("--afr", type=float, required=True, help="per-node annual failure rate")
    mttf.add_argument("--mttr-hours", type=float, default=24.0)
    mttf.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON metrics"
    )
    mttf.set_defaults(func=_cmd_mttf)

    query = sub.add_parser(
        "query",
        aliases=["scenarios"],
        help="run a JSON query or scenario file (reliability/availability/"
        "mttf/simulation rows; simulation rows may embed fault plans)",
    )
    query.add_argument("file", help="path to a query JSON file")
    query.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON answers"
    )
    _add_jobs_flag(query)
    query.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-shard wall-clock timeout in seconds for campaign shards; "
        "enforced only with --jobs N (N >= 2) on a campaign of more than "
        "one shard, since shards in the calling process cannot be interrupted",
    )
    query.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-execution budget per failed campaign shard "
        "(retries are bit-identical; answers never change)",
    )
    query.add_argument(
        "--on-shard-failure",
        choices=("raise", "degrade"),
        default="raise",
        help="what to do when a shard exhausts its retries: fail the run "
        "(default) or keep a partial answer with degraded provenance",
    )
    query.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="checkpoint directory: journal completed campaign shards there "
        "and resume interrupted campaigns from it (bit-identical)",
    )
    query.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record a span trace of the run: Chrome trace-event JSON "
        "(open in Perfetto / chrome://tracing), or a JSONL span log when "
        "FILE ends in .jsonl; answers are bit-identical with tracing on",
    )
    query.set_defaults(func=_cmd_query)

    serve = sub.add_parser(
        "serve",
        help="serve queries over HTTP from one warm engine "
        "(POST /v1/query, GET /healthz, GET /metrics)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker threads per campaign fan-out (default: 1; -1 = one per "
        "CPU; values never depend on the worker count)",
    )
    serve.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="journal completed campaign shards here so a daemon restart "
        "resumes interrupted campaigns bit-identically",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-shard wall-clock timeout in seconds for campaign shards; "
        "enforced only with --jobs N (N >= 2) on a campaign of more than "
        "one shard (at the default --jobs, shards run in the request's "
        "thread and are never interrupted)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=1,
        help="re-execution budget per failed campaign shard "
        "(retries are bit-identical; answers never change)",
    )
    serve.add_argument(
        "--on-shard-failure",
        choices=("raise", "degrade"),
        default="degrade",
        help="what to do when a shard exhausts its retries: keep a partial "
        "answer with degraded provenance (default) or fail the query",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="engine memo capacity shared across all requests",
    )
    serve.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record per-request/query/shard spans and write the trace on "
        "shutdown: Chrome trace-event JSON, or JSONL when FILE ends in "
        ".jsonl; answers are bit-identical with tracing on",
    )
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0
    except ReproError as exc:
        # Invalid input (a flag value, a query row the engine refuses) is a
        # one-line message and a non-zero exit, not a traceback.
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
