"""E7 — storage-style Markov metrics for consensus clusters (paper §2/§4).

The paper argues consensus should adopt the storage community's MTTF /
MTTDL / steady-state-availability machinery.  This bench computes those
metrics for the deployments of Tables 1-2 and larger clusters, and shows
the repair-rate sensitivity that the per-window analysis cannot express.
The sizes run to 17, where MTTF is astronomically long (λ ≪ μ): the
birth–death closed forms keep it finite and exact there.
"""

from __future__ import annotations

import math

import pytest

from repro.faults.afr import afr_to_hourly_rate
from repro.markov.builders import ClusterMarkovModel

from conftest import print_table

AFR = 0.08  # spot-class nodes
MTTR_HOURS = 24.0
SIZES = (3, 5, 7, 9, 13, 17)


def _compute():
    rate = afr_to_hourly_rate(AFR)
    metrics = {}
    for n in SIZES:
        quorum = n // 2 + 1
        model = ClusterMarkovModel(n, rate, 1.0 / MTTR_HOURS)
        metrics[n] = {
            "mttf_liveness_years": model.mttf_liveness(quorum) / 8766.0,
            "mttdl_years": model.mttdl(quorum) / 8766.0,
            "availability": model.steady_state_availability(quorum),
        }
    return metrics


def test_markov_metrics(benchmark):
    metrics = benchmark(_compute)
    rows = [
        [
            str(n),
            f"{m['mttf_liveness_years']:.2e}",
            f"{m['mttdl_years']:.2e}",
            f"{m['availability']:.10f}",
        ]
        for n, m in metrics.items()
    ]
    print_table(
        f"E7: Markov metrics, AFR={AFR:.0%}, MTTR={MTTR_HOURS:.0f}h",
        ["N", "MTTF-liveness (yr)", "MTTDL (yr)", "steady-state availability"],
        rows,
    )
    # Shape: the mean times are finite and every metric grows with cluster
    # size.  Availability reads 1.0 at n = 17 (its unavailability is far
    # below an ulp of 1.0), so two sizes may tie only where both read 1.0.
    for m in metrics.values():
        assert math.isfinite(m["mttf_liveness_years"]) and math.isfinite(m["mttdl_years"])
    for small, large in zip(SIZES, SIZES[1:]):
        assert metrics[large]["mttf_liveness_years"] > metrics[small]["mttf_liveness_years"]
        assert metrics[large]["mttdl_years"] > metrics[small]["mttdl_years"]
        a_small, a_large = metrics[small]["availability"], metrics[large]["availability"]
        assert a_large > a_small or a_large == a_small == 1.0
    # For odd majority clusters the MTTDL and liveness thresholds coincide
    # (n - q + 1 == q), so the metrics are equal; never smaller.
    for m in metrics.values():
        assert m["mttdl_years"] >= m["mttf_liveness_years"]
    # With a sub-majority persistence quorum (Flexible Paxos), data loss
    # becomes strictly easier than losing liveness-by-majority.
    model = ClusterMarkovModel(5, afr_to_hourly_rate(AFR), 1.0 / MTTR_HOURS)
    assert model.mttdl(2) < model.mttf_liveness(3)


def test_repair_rate_sensitivity(benchmark):
    """Faster repair is worth more than more replicas — a §4 design lever."""

    def sweep():
        rate = afr_to_hourly_rate(AFR)
        out = {}
        for mttr in (168.0, 24.0, 4.0):
            model = ClusterMarkovModel(5, rate, 1.0 / mttr)
            out[mttr] = model.mttf_liveness(3) / 8766.0
        return out

    result = benchmark(sweep)
    rows = [[f"{mttr:.0f}h", f"{years:.2e} yr"] for mttr, years in result.items()]
    print_table("E7b: 5-node MTTF-liveness vs repair time", ["MTTR", "MTTF"], rows)
    assert result[4.0] > result[24.0] > result[168.0]
    big_slow = ClusterMarkovModel(9, afr_to_hourly_rate(AFR), 1.0 / 168.0).mttf_liveness(5)
    small_fast = ClusterMarkovModel(5, afr_to_hourly_rate(AFR), 1.0 / 4.0).mttf_liveness(3)
    assert small_fast > big_slow
