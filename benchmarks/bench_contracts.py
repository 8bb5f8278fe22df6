"""P7 — contract checker throughput: full-repo lint must stay under 1.25 s.

The self-lint test (``tests/test_contracts_self.py``) runs inside tier-1,
so the checker's wall time is paid on every ``pytest -x -q``; this
benchmark pins that cost.  It times a full lint of ``src/repro`` (all
rules, allowlists and suppressions applied, baseline compared) and a
rules-split pass to show where the time goes, then gates the end-to-end
wall time at :data:`TARGET_SECONDS`.

Emits ``BENCH_contracts.json`` at the repo root.  Run as pytest
(``pytest benchmarks/bench_contracts.py -s``) or directly
(``python benchmarks/bench_contracts.py``); both write the JSON.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.contracts import lint_paths, registered_rules

from conftest import print_table

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_contracts.json"
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "tests" / "data" / "contracts_baseline.json"

REPEATS = 5
# Lowered from 3.0 when every rule began reading one shared traversal per
# file (FileContext.nodes_of): 2.29 s -> 0.89 s on the 2-vCPU host that
# recorded BENCH_contracts.json, gated with the margin the 3.0 s gate had
# over its own 2.20 s sample (x1.37).  Each per_rule row parses and
# indexes every file for itself, so the rows do not sum to the full pass.
TARGET_SECONDS = 1.25


def _best(fn, repeats: int = REPEATS):
    best_seconds, result = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds, result = elapsed, value
    return best_seconds, result


def measure_all() -> dict:
    # Warm rule registration and the filesystem cache off the clock.
    warm = lint_paths([PACKAGE_ROOT], baseline=BASELINE)

    full_seconds, full = _best(lambda: lint_paths([PACKAGE_ROOT], baseline=BASELINE))
    per_rule = []
    for rule_id in sorted(registered_rules()):
        seconds, result = _best(
            lambda rid=rule_id: lint_paths([PACKAGE_ROOT], rules=[rid]), repeats=3
        )
        per_rule.append(
            {
                "rule": rule_id,
                "seconds": seconds,
                "findings": len(result.findings),
            }
        )
    payload = {
        "cpu_count": os.cpu_count() or 1,
        "files_checked": full.files_checked,
        "target_seconds": TARGET_SECONDS,
        "full_lint_seconds": full_seconds,
        "new_findings": len(full.new),
        "baselined_findings": len(full.baselined),
        "per_rule": per_rule,
        "clean": full.ok,
        "consistent_with_warm_run": [f.render() for f in full.findings]
        == [f.render() for f in warm.findings],
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _print_report(payload: dict) -> None:
    print_table(
        f"P7: full lint of src/repro — {payload['files_checked']} files, "
        f"{payload['new_findings']} new finding(s) "
        f"(target < {payload['target_seconds']:.2f}s)",
        ["pass", "seconds", "findings"],
        [["all rules", f"{payload['full_lint_seconds']:.3f}", str(payload["new_findings"])]]
        + [
            [row["rule"], f"{row['seconds']:.3f}", str(row["findings"])]
            for row in payload["per_rule"]
        ],
    )


@pytest.mark.bench
def test_contract_lint_wall_time():
    payload = measure_all()
    _print_report(payload)
    assert payload["clean"], "lint of src/repro is not clean — fix before timing"
    assert payload["consistent_with_warm_run"], "lint findings not deterministic"
    assert payload["full_lint_seconds"] < TARGET_SECONDS, (
        f"full-repo lint took {payload['full_lint_seconds']:.2f}s — over the "
        f"{TARGET_SECONDS:.2f}s budget tier-1 pays on every run"
    )


def main() -> None:
    payload = measure_all()
    _print_report(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
