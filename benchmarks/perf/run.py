"""The repository's one recorded benchmark.

    python benchmarks/perf/run.py [--seed N] [--only WORKLOAD] [--traced]
                                  [--quick] [--force] [--out FILE]
    python benchmarks/perf/run.py compare A.json B.json
    python benchmarks/perf/run.py manifest

Five workloads against the three real doors — the ``repro-analyze`` CLI
as a fresh process, the ``repro-analyze serve`` daemon as a subprocess
over loopback HTTP, and ``repro.engine`` as a library.  Every answer is
checked, every metric is printed by name with its unit, one result JSON
is written under ``out/`` and one summary line is appended to
``history.jsonl``.  The exit code is non-zero if any check fails.

Each workload is measured in a process of its own, through the
single-workload form the benchmark driver also uses:

    python benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

which prints one JSON object as its last line: the end-to-end metrics
(``--trace 0``) or every per-layer metric (``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import datetime
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
from daemon import confine_to_one_cpu  # noqa: E402
from manifest import (  # noqa: E402
    DEFAULT_SEED,
    END_TO_END,
    EXTRA_END_TO_END,
    LAYER_METRICS,
    WINDOWS,
    WORKLOAD_NAMES,
    benchmark_json,
)
from perf_stats import compare_runs  # noqa: E402

EXIT_INCORRECT = 1
EXIT_NO_PROGRAM = 2
EXIT_NOISY = 3


def require_program() -> None:
    """The benchmark builds nothing: it needs the source tree it measures."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_NO_PROGRAM)
    sys.path.insert(1, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# one workload, in this process (the driver's form)
# ---------------------------------------------------------------------------
def cmd_workload(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py --workload")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("full", "quick"), default="full")
    parser.add_argument("--detail", type=Path, default=None)
    args = parser.parse_args(argv)
    require_program()
    OUT.mkdir(exist_ok=True)
    if args.workload == "engine_cold_sweep" and not args.trace:
        # The sweep runs in this process, on one CPU like every served
        # workload.  Confined before NumPy loads, because its BLAS pool takes
        # one thread per CPU it may use: two threads on two shared virtual
        # CPUs made the sweep slower (225 ms against 205 ms) and its floor
        # follow the neighbours of both.
        confine_to_one_cpu()

    begun = time.perf_counter()
    import measure  # imports repro: an in-process workload's first set-up cost
    from workloads import Context

    import_s = time.perf_counter() - begun
    ctx = Context(root=ROOT, out=OUT, seed=args.seed)
    if args.trace:
        target = None if args.workload == "all" else args.workload
        detail = measure.TracedRun(ctx, target, args.seconds).run()
        metrics = measure.flat_layers(detail["layers"])
    else:
        if args.workload == "all":
            parser.error("--workload all needs --trace 1")
        detail = measure.run_untraced(
            args.workload, ctx, args.mode, window=args.seconds, import_s=import_s
        )
        units = {m["name"]: m["unit"] for m in END_TO_END}
        metrics = {
            name: {"value": detail["end_to_end"][name], "unit": unit}
            for name, unit in units.items()
        }
    for failure in detail["failures"]:
        print(f"run.py: FAILED CHECK: {failure}", file=sys.stderr)
    correct = not detail["failures"] and detail["failed"] == 0
    if args.detail is not None:
        args.detail.write_text(json.dumps(detail, sort_keys=True, indent=1))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else EXIT_INCORRECT


# ---------------------------------------------------------------------------
# the whole suite (the human's form)
# ---------------------------------------------------------------------------
def run_python(arguments: list[str]) -> int:
    """Run this script in a child; on Ctrl-C let the child stop its daemon."""
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *arguments],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
    )
    try:
        return child.wait()
    except KeyboardInterrupt:
        # A terminal's Ctrl-C reached the child too; a plain `kill -INT` of
        # this process did not, so pass it on.  Either way the child unwinds
        # its own daemon before it exits.
        child.send_signal(signal.SIGINT)
        try:
            child.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise


def shown(value) -> str:
    """A number to six digits; a hash by its first sixteen characters."""
    return f"{value:.6g}" if isinstance(value, float) else str(value)[:16]


def print_block(title: str, rows: list[tuple[str, object, str]]) -> None:
    print(f"\n{title}")
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name.ljust(width)}  {shown(value)} {unit}")


def cmd_suite(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--only", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--force", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    require_program()
    OUT.mkdir(exist_ok=True)

    provenance = ledger.provenance(ROOT)
    noisy = ledger.too_noisy(provenance)
    if noisy and not args.force:
        print(
            f"run.py: refusing to record: 1-min load average "
            f"{provenance['loadavg_1m']:.2f} >= nproc {provenance['nproc']} "
            "(--force records anyway and stamps the result noisy)",
            file=sys.stderr,
        )
        return EXIT_NOISY

    mode = "quick" if args.quick else "full"
    names = [args.only] if args.only else WORKLOAD_NAMES
    units = {m["name"]: m["unit"] for m in END_TO_END + EXTRA_END_TO_END}
    result = {
        "schema": 1,
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "provenance": provenance,
        "noisy": noisy,
        "seed": args.seed,
        "mode": mode,
        "windows": WINDOWS,
        "network_latency": "repro.sim.network.FixedLatency(0.001), the Network default",
        "end_to_end": {},
        "ops": {},
        "counts": {},
        "answers_sha256": {},
        "failures": [],
    }
    common = ["--seed", str(args.seed), "--mode", mode]
    for name in names:
        detail_path = OUT / f"{name}.detail.json"
        detail_path.unlink(missing_ok=True)
        code = run_python(
            ["--workload", name, "--trace", "0", "--detail", str(detail_path), *common]
        )
        if not detail_path.exists():
            result["failures"].append(f"{name}: the run exited with code {code}")
            continue
        detail = json.loads(detail_path.read_text())
        result["end_to_end"][name] = detail["end_to_end"]
        result["ops"][name] = detail["ops"]
        result["counts"][name] = detail["counts"]
        result["answers_sha256"][name] = detail["answers_sha256"]
        result["failures"] += detail["failures"]
        rows = [
            (metric, value, units[metric].replace("work", detail["work_unit"]))
            for metric, value in detail["end_to_end"].items()
        ]
        rows.append(("ops (samples)", detail["ops"], "count"))
        rows.append(("answers_sha256", detail["answers_sha256"], ""))
        print_block(f"{name} — end to end, untraced, seed {args.seed}", rows)

    if args.traced:
        detail_path = OUT / "traced.detail.json"
        detail_path.unlink(missing_ok=True)
        code = run_python(
            [
                "--workload", args.only or "all", "--trace", "1",
                "--detail", str(detail_path), *common,
            ]
        )
        if not detail_path.exists():
            result["failures"].append(f"traced pass: the run exited with code {code}")
        else:
            detail = json.loads(detail_path.read_text())
            result["layers"] = detail["layers"]
            result["budget"] = detail["budget"]
            result["failures"] += detail["failures"]
            layer_units = {key: unit for _, _, key, unit, _ in LAYER_METRICS}
            for name in names:
                rows = [
                    (key, value, layer_units.get(key, "count"))
                    for key, value in detail["layers"][name].items()
                ]
                print_block(f"{name} — per layer, traced pass", rows)
                # Counts repeat exactly, so `compare` holds them to that.
                result["counts"].setdefault(name, {}).update(
                    (key, value) for key, value, unit in rows if unit == "count"
                )
            if "serve_warm_hit" in names:
                rows = [(k, v, "") for k, v in detail["budget"]["serve_warm_hit"].items()]
                print_block("serve_warm_hit — round-trip budget", rows)

    for failure in result["failures"]:
        print(f"run.py: FAILED CHECK: {failure}", file=sys.stderr)
    out_path = args.out or OUT / (
        f"result-{provenance['git_sha'][:10]}-seed{args.seed}-"
        f"{datetime.datetime.now().strftime('%Y%m%dT%H%M%S')}.json"
    )
    out_path.write_text(json.dumps(result, sort_keys=True, indent=1) + "\n")
    print(f"\nresult written to {out_path}")
    if mode == "full" and not args.only and not result["failures"]:
        ledger.append_history(result)
        print(f"summary appended to {ledger.HISTORY}")
    return EXIT_INCORRECT if result["failures"] else 0


# ---------------------------------------------------------------------------
# compare, manifest
# ---------------------------------------------------------------------------
def cmd_compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in END_TO_END + EXTRA_END_TO_END}
    rows = compare_runs(
        ledger.load_runs(args.before), ledger.load_runs(args.after), metrics
    )
    header = ("workload", "metric", "before", "after", "unit", "bound", "verdict")
    table = [header] + [
        (
            row["workload"],
            row["metric"],
            shown(row["before"]),
            shown(row["after"]),
            row["unit"],
            f"{row['bound']:.0%}",
            row["verdict"],
        )
        for row in rows
    ]
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    for line in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    bad = [row for row in rows if row["verdict"] in ("regressed", "changed")]
    return EXIT_INCORRECT if bad else 0


def cmd_manifest(argv: list[str]) -> int:
    print(json.dumps(benchmark_json(), indent=2))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return cmd_compare(argv[1:])
    if argv[:1] == ["manifest"]:
        return cmd_manifest(argv[1:])
    if any(arg.startswith("--workload") for arg in argv):
        return cmd_workload(argv)
    return cmd_suite(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
