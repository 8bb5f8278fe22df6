"""End-to-end smoke of the perf benchmark (run by name, like every bench_*.py).

    PYTHONPATH=src python -m pytest benchmarks/perf/bench_perf_smoke.py -s

Runs ``run.py --quick --traced`` — all five workloads with 2 s windows,
real CLI children and real daemons — and checks the shape of the result.
The numbers of a quick run are not recorded anywhere.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import manifest  # noqa: E402


@pytest.mark.bench
def test_quick_run_end_to_end(tmp_path):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--quick", "--traced", "--force", "--out", str(out),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    assert result["failures"] == []
    assert sorted(result["end_to_end"]) == sorted(manifest.WORKLOAD_NAMES)
    for name in manifest.WORKLOAD_NAMES:
        row = result["end_to_end"][name]
        assert row["failed_frac"] == 0.0
        assert all(row[m["name"]] > 0 for m in manifest.END_TO_END)
        assert f"{name} — end to end" in done.stdout
    for name, home, key, _, _ in manifest.LAYER_METRICS:
        assert key in result["layers"][home], name
    assert abs(result["budget"]["serve_warm_hit"]["closure_frac"]) < 0.10
