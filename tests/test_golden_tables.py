"""Golden snapshot tests for the paper-table and horizon-sweep outputs.

The fixtures under ``tests/data/`` freeze the numbers this repository
produced when the snapshots were taken (post-engine, post-kernel — the
values every PR since has asserted bit-identical).  Future refactors must
reproduce them within ``TOLERANCE``; the CLI's formatted Table 2 text is
additionally compared verbatim, because the rendered tables are the
paper-facing artifact.

Regenerate deliberately (after an *intentional* numeric change) with::

    PYTHONPATH=src python tests/test_golden_tables.py --regenerate
"""

from __future__ import annotations

import io
import json
import math
import pathlib
from contextlib import redirect_stdout

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
TABLE2_PATH = DATA_DIR / "golden_table2.json"
HORIZON_PATH = DATA_DIR / "golden_horizon.json"

#: Snapshot comparisons allow tiny cross-platform FP variance, nothing more.
TOLERANCE = 1e-12

TABLE2_SIZES = (3, 5, 7, 9)
TABLE2_PROBABILITIES = (0.01, 0.02, 0.04, 0.08)

HORIZON_WINDOW_HOURS = 720.0
HORIZON_WINDOWS = 12
HORIZON_SHAPE = 4.0
HORIZON_SCALE_HOURS = 20_000.0
HORIZON_NODES = 5


def compute_table2() -> dict:
    """Table 2 values plus the CLI's verbatim rendering."""
    from repro.cli import main
    from repro.engine import Scenario, default_engine
    from repro.faults.mixture import uniform_fleet
    from repro.protocols.raft import RaftSpec

    values = {}
    for n in TABLE2_SIZES:
        results = default_engine().run(
            [Scenario(RaftSpec(n), uniform_fleet(n, p)) for p in TABLE2_PROBABILITIES]
        ).values
        values[str(n)] = {
            f"{p:g}": result.safe_and_live.value
            for p, result in zip(TABLE2_PROBABILITIES, results)
        }
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(["table2"]) == 0
    return {"values": values, "cli_text": buffer.getvalue()}


def compute_horizon() -> dict:
    """An aging-fleet horizon sweep (wear-out Weibull curves)."""
    from repro.analysis.horizon import horizon_survival, reliability_over_horizon
    from repro.faults.curves import WeibullCurve
    from repro.protocols.raft import RaftSpec

    curves = [
        WeibullCurve(shape=HORIZON_SHAPE, scale_hours=HORIZON_SCALE_HOURS)
    ] * HORIZON_NODES
    points = reliability_over_horizon(
        RaftSpec, curves, window_hours=HORIZON_WINDOW_HOURS, n_windows=HORIZON_WINDOWS
    )
    survival = horizon_survival(
        RaftSpec, curves, window_hours=HORIZON_WINDOW_HOURS, n_windows=HORIZON_WINDOWS
    )
    return {
        "safe_and_live": [p.safe_and_live for p in points],
        "start_hours": [p.start_hours for p in points],
        "survival": survival,
    }


def _assert_close(actual: float, expected: float, label: str) -> None:
    assert math.isclose(actual, expected, rel_tol=TOLERANCE, abs_tol=TOLERANCE), (
        f"{label}: {actual!r} drifted from golden {expected!r} "
        f"(delta {actual - expected:.3e})"
    )


class TestGoldenTable2:
    def test_values_match_snapshot(self):
        golden = json.loads(TABLE2_PATH.read_text())
        current = compute_table2()
        for n, row in golden["values"].items():
            for p, expected in row.items():
                _assert_close(
                    current["values"][n][p], expected, f"table2 n={n} p={p}"
                )

    def test_cli_rendering_matches_snapshot(self):
        golden = json.loads(TABLE2_PATH.read_text())
        assert compute_table2()["cli_text"] == golden["cli_text"]


class TestGoldenHorizon:
    def test_window_series_matches_snapshot(self):
        golden = json.loads(HORIZON_PATH.read_text())
        current = compute_horizon()
        assert current["start_hours"] == golden["start_hours"]
        for index, (actual, expected) in enumerate(
            zip(current["safe_and_live"], golden["safe_and_live"])
        ):
            _assert_close(actual, expected, f"horizon window[{index}]")
        _assert_close(current["survival"], golden["survival"], "horizon survival")

    def test_series_is_monotonically_aging(self):
        # Sanity on the fixture itself: wear-out curves must decline.
        golden = json.loads(HORIZON_PATH.read_text())
        series = golden["safe_and_live"]
        assert series == sorted(series, reverse=True)


def _regenerate() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    TABLE2_PATH.write_text(json.dumps(compute_table2(), indent=2) + "\n")
    HORIZON_PATH.write_text(json.dumps(compute_horizon(), indent=2) + "\n")
    print(f"rewrote {TABLE2_PATH} and {HORIZON_PATH}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
