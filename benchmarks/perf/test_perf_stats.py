"""The benchmark's own statistics, pinned on synthetic data (tier-1, < 1 s).

No daemon, no child process, no ``repro`` import: these tests hold the
rules ``run.py`` reports and compares by.  The end-to-end smoke lives in
``bench_perf_smoke.py`` and is run by name.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import namedtuple
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import manifest  # noqa: E402
import perf_stats as ps  # noqa: E402

Span = namedtuple("Span", "span_id parent_id name start end")


# -- percentiles ---------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert ps.percentile(samples, 0.5) == 50
    assert ps.percentile(samples, 0.9) == 90
    assert ps.percentile(samples, 1.0) == 100
    assert ps.percentile([7.0], 0.5) == 7.0
    with pytest.raises(ValueError):
        ps.percentile([], 0.5)


@pytest.mark.parametrize(
    "count, expected",
    [
        (8, None),  # a cli_cold window: not even a median has ten beyond it
        (20, 0.5),
        (99, 0.5),  # p90 of 99 leaves 9.9 samples beyond it
        (100, 0.9),
        (999, 0.9),
        (1000, 0.99),
        (10_000, 0.999),
    ],
)
def test_highest_percentile_with_ten_samples_beyond_it(count, expected):
    assert ps.highest_supported_percentile(count) == expected
    if expected is not None:
        assert ps.supports_percentile(count, expected)


# -- op latency while the host was quiet -------------------------------------------
def test_batch_medians_drop_a_trailing_partial_batch():
    assert ps.batch_medians([1.0, 3.0, 2.0, 9.0, 9.0, 9.0, 5.0], 3) == [2.0, 9.0]
    assert ps.batch_medians([4.0, 2.0], 3) == [3.0]  # less than one batch: all of it
    assert ps.batch_medians([4.0, 2.0], 1) == [4.0, 2.0]
    with pytest.raises(ValueError):
        ps.batch_medians([], 3)


def test_quiet_latency_ignores_a_neighbour_and_follows_the_code():
    cycle = [1.0, 2.0, 3.0, 4.0]  # one batch: the workload's payload mix
    quiet = cycle * 100
    assert ps.quiet_latency(quiet, 4, 0.10) == 2.5
    # A neighbour halves the speed of 60 % of the window: the median moves, this does not.
    contended = [x * 2.0 for x in cycle] * 60 + cycle * 40
    assert statistics.median(contended) > 1.2 * statistics.median(quiet)
    assert ps.quiet_latency(contended, 4, 0.10) == 2.5
    # The code gets a tenth slower everywhere: it moves by exactly that.
    slower = [x * 1.1 for x in contended]
    assert ps.quiet_latency(slower, 4, 0.10) == pytest.approx(2.75)
    # One op per batch: the plain low percentile of the ops.
    assert ps.quiet_latency(list(range(1, 21)), 1, 0.10) == 2


# -- span self time --------------------------------------------------------------
def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("r", None, "http.request", 0.0, 10.0),
        Span("r.0", "r", "serve.query", 1.0, 4.0),
        Span("r.1", "r", "serve.query", 3.0, 6.0),  # overlaps r.0 on [3, 4]
        Span("r.2", "r", "serve.query", 8.0, 12.0),  # overhangs the parent
        Span("r.0.0", "r.0", "query.execute", 1.5, 3.5),  # nested
    ]
    selfs = ps.span_self_times(spans)
    assert selfs["r"] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs["r.0"] == pytest.approx(3.0 - 2.0)
    assert selfs["r.0.0"] == pytest.approx(2.0)
    assert selfs["r.2"] == pytest.approx(4.0)
    by_name = ps.self_time_by_name(spans)
    assert by_name["serve.query"] == pytest.approx([1.0, 3.0, 4.0])


def test_self_time_ignores_children_of_other_spans_and_empty_overlap():
    spans = [
        Span("a", None, "a", 0.0, 1.0),
        Span("b", None, "b", 0.0, 1.0),
        Span("b.0", "b", "child", 0.25, 0.75),
        Span("a.0", "a", "child", 2.0, 3.0),  # entirely outside its parent
    ]
    selfs = ps.span_self_times(spans)
    assert selfs["a"] == pytest.approx(1.0)
    assert selfs["b"] == pytest.approx(0.5)


def test_covered_length_merges_and_clips():
    assert ps.covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert ps.covered_length([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2.0)
    assert ps.covered_length([], 0, 10) == 0.0


# -- spread and bound derivation ---------------------------------------------------
def test_quartile_spread_is_iqr_over_median():
    values = [98.0, 99.0, 100.0, 101.0, 102.0]
    first, _, third = statistics.quantiles(values, n=4)
    assert ps.quartile_spread(values) == pytest.approx((third - first) / 100.0)
    assert ps.quartile_spread([5.0]) == 0.0


def test_bound_is_three_spreads_with_a_floor():
    quiet = [100.0, 100.1, 99.9, 100.05, 99.95]
    assert ps.derive_bound(quiet) == ps.MIN_BOUND
    noisy = [90.0, 95.0, 100.0, 105.0, 110.0]
    assert ps.derive_bound(noisy) == pytest.approx(3.0 * ps.quartile_spread(noisy))
    assert ps.derive_bound(noisy) > ps.MIN_BOUND


# -- compare verdicts -----------------------------------------------------------------
@pytest.mark.parametrize(
    "after, better, expected",
    [
        (110.0, "lower", "unchanged"),  # exactly at the bound
        (110.1, "lower", "regressed"),
        (90.0, "lower", "unchanged"),
        (89.9, "lower", "improved"),
        (89.9, "higher", "regressed"),
        (110.1, "higher", "improved"),
        (100.0, "higher", "unchanged"),
    ],
)
def test_verdict_at_and_around_the_bound(after, better, expected):
    assert ps.verdict([100.0], [after], better=better, bound=0.10) == expected


def test_verdict_is_unresolved_only_when_wide_and_interleaved():
    wide_a = [80.0, 90.0, 100.0, 110.0, 120.0]
    wide_b = [85.0, 95.0, 105.0, 115.0, 125.0]
    assert ps.verdict(wide_a, wide_b, better="lower", bound=0.10) == "unresolved"
    # Just as wide, but every run of the change beats every run of the parent.
    clear = [40.0, 45.0, 50.0, 55.0, 60.0]
    assert ps.verdict(wide_a, clear, better="lower", bound=0.10) == "improved"
    # Interleaved but tight: the medians decide.
    tight_a = [99.0, 100.0, 101.0]
    tight_b = [100.0, 101.0, 102.0]
    assert ps.verdict(tight_a, tight_b, better="lower", bound=0.10) == "unchanged"


def test_any_failure_where_there_was_none_is_a_regression():
    assert ps.verdict([0.0], [0.0], better="lower", bound=0.0) == "unchanged"
    assert ps.verdict([0.0], [0.001], better="lower", bound=0.0) == "regressed"


def test_compare_rows_cover_metrics_and_exact_counts():
    def run(p50, events, sha):
        return {
            "end_to_end": {"serve_cold_campaign": {"op_ms_p50": p50}},
            "counts": {"serve_cold_campaign": {"sim.crash_raft.events_per_replica": events}},
            "answers_sha256": {"serve_cold_campaign": sha},
        }

    metrics = {"op_ms_p50": {"unit": "ms", "better": "lower", "bound": 0.1}}
    rows = ps.compare_runs(
        [run(1000.0, 1589.125, "abc"), run(1010.0, 1589.125, "abc")],
        [run(500.0, 1200.0, "abc")],
        metrics,
    )
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {
        "op_ms_p50": "improved",
        "sim.crash_raft.events_per_replica": "changed",
        "answers_sha256": "same",
    }
    assert rows[0]["before"] == pytest.approx(1005.0)


# -- the manifest ---------------------------------------------------------------------
def test_benchmark_json_is_the_manifest():
    recorded = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert recorded == manifest.benchmark_json()


def test_manifest_meets_the_benchmark_contract():
    spec = manifest.benchmark_json()
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(m["bound"] for m in spec["end_to_end"])}
    ]
    homes = {home for _, home, _, _, _ in manifest.LAYER_METRICS}
    assert homes == set(manifest.WORKLOAD_NAMES)


def test_driver_workloads_fit_the_suite_and_the_driver_time_limit():
    registered = [w["name"] for w in manifest.benchmark_json()["workloads"]]
    assert registered == manifest.DRIVER_WORKLOADS
    assert set(registered) < set(manifest.WORKLOAD_NAMES)
    assert set(manifest.BATCH_OPS) == set(manifest.WORKLOAD_NAMES)
    # Every workload the driver skips is traced along with one it runs.
    skipped = set(manifest.WORKLOAD_NAMES) - set(registered)
    assert set(manifest.TRACED_WITH) == skipped
    assert set(manifest.TRACED_WITH.values()) <= set(registered)
    # 4 + 22 runs per workload in 3420 s, each a window plus ~10 s of
    # interpreter start, three set-ups and the correctness gate.
    runs = 4 + 22 * len(registered)
    assert runs * (manifest.WINDOWS["full"]["window"] + 13.0) <= 3420.0
