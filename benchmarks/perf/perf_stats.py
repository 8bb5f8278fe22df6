"""Pure statistics behind the perf benchmark: no I/O, no ``repro`` import.

Everything ``run.py`` reports or compares goes through these functions,
so ``test_perf_stats.py`` can pin the rules on synthetic data:

* percentiles are nearest-rank, and a tail percentile is reported only
  when at least ten samples lie beyond it;
* the op latency a run is held to is the one it had while the host was
  quiet: a low percentile over batches of ops that each do the same work;
* a span's self time is its duration minus the part of that interval its
  child spans cover (children may overlap each other and overhang);
* a metric's spread is the distance between its quartiles as a share of
  its median, and its regression bound is derived from that spread;
* ``compare`` verdicts: ``improved`` / ``unchanged`` / ``regressed`` by
  the fixed bound, ``unresolved`` when the spread is wider than the bound
  and the two sides' runs interleave.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Mapping, Sequence

#: A tail percentile needs this many samples beyond it to be reported.
TAIL_SAMPLES = 10

#: No bound is tighter than this, however quiet the host was.
MIN_BOUND = 0.05

#: A bound must be at least this many spreads wide (the benchmark contract
#: accepts a metric only while its spread stays under a third of its bound).
SPREADS_PER_BOUND = 3.0


def nearest_rank(count: int, fraction: float) -> int:
    """1-based rank of the ``fraction`` percentile among ``count`` samples."""
    return max(1, math.ceil(fraction * count))


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in (0, 1])."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[nearest_rank(len(samples), fraction) - 1]


def supports_percentile(count: int, fraction: float) -> bool:
    """Whether ``count`` samples leave ``TAIL_SAMPLES`` beyond ``fraction``."""
    return count - nearest_rank(count, fraction) >= TAIL_SAMPLES


def highest_supported_percentile(
    count: int, candidates: Sequence[float] = (0.5, 0.9, 0.99, 0.999)
) -> float | None:
    """The largest candidate with ten samples beyond it, or ``None``."""
    supported = [f for f in candidates if supports_percentile(count, f)]
    return max(supported) if supported else None


def batch_medians(samples: Sequence[float], size: int) -> list[float]:
    """Median of each full run of ``size`` consecutive samples.

    A trailing partial batch is dropped, unless it is all there is.
    """
    if not samples:
        raise ValueError("batches of no samples")
    full = len(samples) - len(samples) % size
    if full == 0:
        return [statistics.median(samples)]
    return [statistics.median(samples[i : i + size]) for i in range(0, full, size)]


def quiet_latency(samples: Sequence[float], batch: int, fraction: float) -> float:
    """Op latency while the host was quiet: a low percentile over batches.

    Consecutive ops are grouped ``batch`` at a time (one cycle of the
    workload's payload mix, so every batch does the same work), a batch's
    latency is the median of its ops, and the result is the nearest-rank
    ``fraction`` percentile over the batches.  A neighbour on a shared host
    can only slow a batch down, so the low end of the window tracks the code
    and the middle tracks the neighbour.
    """
    return percentile(batch_medians(samples, batch), fraction)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median.

    The quartiles are ``statistics.quantiles(values, n=4)``; fewer than
    two values have no spread.
    """
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(third - first) / abs(median) if median else math.inf


def derive_bound(values: Sequence[float]) -> float:
    """Regression bound for a metric from back-to-back runs of one commit."""
    return max(MIN_BOUND, SPREADS_PER_BOUND * quartile_spread(values))


# ---------------------------------------------------------------------------
# Span self time
# ---------------------------------------------------------------------------
def covered_length(
    intervals: Iterable[tuple[float, float]], low: float, high: float
) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if min(end, high) > max(start, low)
    )
    total = 0.0
    reach = low
    for start, end in clipped:
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def span_self_times(spans: Iterable) -> dict[str, float]:
    """``span_id -> self seconds`` for records with start/end/parent_id.

    Works on anything with ``span_id``, ``parent_id``, ``start`` and
    ``end`` attributes (``repro.obs.SpanRecord`` in production, a
    namedtuple in tests).  Children are joined on ``parent_id``.
    """
    spans = list(spans)
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start)
        - covered_length(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: Iterable) -> dict[str, list[float]]:
    """``span name -> [self seconds, ...]`` in record order."""
    spans = list(spans)
    selfs = span_self_times(spans)
    by_name: dict[str, list[float]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(selfs[span.span_id])
    return by_name


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def relative_worsening(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``.

    Positive means worse, whichever direction ``better`` names.
    """
    if before == 0:
        return 0.0 if after == 0 else math.inf
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def runs_interleave(before: Sequence[float], after: Sequence[float]) -> bool:
    """False only when every run of one side beats every run of the other."""
    return not (max(after) < min(before) or min(after) > max(before))


def verdict(
    before: Sequence[float], after: Sequence[float], *, better: str, bound: float
) -> str:
    """Compare two sets of runs of one (metric, workload) pair."""
    spread = max(quartile_spread(before), quartile_spread(after))
    if spread > bound and runs_interleave(before, after):
        return "unresolved"
    worse = relative_worsening(
        statistics.median(before), statistics.median(after), better
    )
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare_runs(
    before: Sequence[Mapping],
    after: Sequence[Mapping],
    metrics: Mapping[str, Mapping],
) -> list[dict]:
    """Rows of ``run.py compare``: timed metrics, then exact counts.

    ``before`` / ``after`` are run summaries (``end_to_end``, ``counts``
    and ``answers_sha256`` blocks keyed by workload); ``metrics`` maps an
    end-to-end metric name to its ``better`` / ``bound`` / ``unit``.
    """
    rows: list[dict] = []
    workloads = [w for w in before[0]["end_to_end"] if w in after[0]["end_to_end"]]
    for workload in workloads:
        for name, spec in metrics.items():
            a = [r["end_to_end"][workload][name] for r in before
                 if name in r["end_to_end"].get(workload, {})]
            b = [r["end_to_end"][workload][name] for r in after
                 if name in r["end_to_end"].get(workload, {})]
            if not a or not b:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": spec["unit"],
                    "before": statistics.median(a),
                    "after": statistics.median(b),
                    "bound": spec["bound"],
                    "verdict": verdict(
                        a, b, better=spec["better"], bound=spec["bound"]
                    ),
                }
            )
    for workload in workloads:
        exact_a = dict(before[-1].get("counts", {}).get(workload, {}))
        exact_b = dict(after[-1].get("counts", {}).get(workload, {}))
        exact_a["answers_sha256"] = before[-1].get("answers_sha256", {}).get(workload)
        exact_b["answers_sha256"] = after[-1].get("answers_sha256", {}).get(workload)
        for name in sorted(set(exact_a) & set(exact_b)):
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": "count",
                    "before": exact_a[name],
                    "after": exact_b[name],
                    "bound": 0.0,
                    "verdict": "same" if exact_a[name] == exact_b[name] else "changed",
                }
            )
    return rows
