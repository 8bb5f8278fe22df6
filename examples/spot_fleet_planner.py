#!/usr/bin/env python3
"""Scenario: plan the cheapest consensus fleet for a reliability SLO.

You operate a coordination service that must be 99.95% safe-and-live per
30-day window (≈3.3 nines).  Your cloud offers four node classes — from
pricey on-demand to spot instances that get evicted 8% of the time.  The
paper's argument (§3): with probabilistic analysis you can buy the SLO
with whatever hardware is cheapest, instead of defaulting to "3 reliable
nodes".

The planner routes through the engine's one front door: the whole
(SKU × size) grid is one `ReliabilityEngine.run` submission of
scenarios, so every cluster size is a single shared counting-DP sweep
across SKUs and repeated questions hit the engine's memo (visible below
via engine cache statistics).

Run:  python examples/spot_fleet_planner.py
"""

from repro.engine import default_engine
from repro.analysis.result import format_probability, from_nines
from repro.planner import (
    DEFAULT_PRICE_BOOK,
    RELIABLE_SKU,
    SPOT_SKU,
    DeploymentPlan,
    cost_ratio,
    equivalent_reliability_size,
    find_cheapest_plan,
)

TARGET_NINES = 3.3


def main() -> None:
    print(f"SLO: {format_probability(from_nines(TARGET_NINES))} safe-and-live per window\n")
    print("Price book:")
    for sku in DEFAULT_PRICE_BOOK:
        print(
            f"  {sku.name:<18} p_fail={sku.p_fail:>5.1%}  ${sku.price_per_hour:.2f}/h  "
            f"{sku.power_watts:.0f} W"
        )

    # -- Optimize for dollars -------------------------------------------------
    outcome = find_cheapest_plan(DEFAULT_PRICE_BOOK, TARGET_NINES, sizes=range(3, 16, 2))
    assert outcome.best is not None
    print("\nCandidate frontier (sorted by $/h):")
    for cand in outcome.candidates[:8]:
        marker = " <-- cheapest feasible" if cand is outcome.best else ""
        print(
            f"  {cand.plan.describe():<55} S&L {format_probability(cand.reliability):>12}{marker}"
        )

    # -- Compare against the naive reliable-node deployment -------------------
    naive = DeploymentPlan(RELIABLE_SKU, 3)
    print(f"\nnaive plan:  {naive.describe()}")
    print(f"best plan:   {outcome.best.plan.describe()}")
    print(f"cost ratio:  {cost_ratio(naive, outcome.best.plan):.2f}x cheaper")

    # -- The paper's exact equivalence claim -----------------------------------
    match = equivalent_reliability_size(naive, SPOT_SKU)
    assert match is not None
    print(
        f"\nequivalence: {match.plan.count} spot nodes match 3 reliable nodes "
        f"({format_probability(match.reliability)} vs 99.9702%)"
    )

    # -- Or optimize for embodied carbon instead -------------------------------
    green = find_cheapest_plan(
        DEFAULT_PRICE_BOOK, TARGET_NINES, sizes=range(3, 16, 2), objective="carbon"
    )
    assert green.best is not None
    print(f"\nlowest-carbon feasible plan: {green.best.plan.describe()}")
    print(f"  (refurbished nodes carry zero embodied carbon in this price book)")

    # -- Under the hood: one engine, shared sweeps, cached repeats -------------
    engine = default_engine()
    print(
        f"\nengine: {engine.cache_hits} cache hits / "
        f"{engine.cache_misses} computed scenarios this run"
    )
    print("  (the carbon scan re-asked the dollar scan's questions: all cache hits)")


if __name__ == "__main__":
    main()
