"""Fleet optimisation: cheapest deployment meeting a nines target (paper §3).

"Hardware operators can use this analysis to pick the most sustainable,
affordable, and/or performant hardware with no reliability trade-off."
The optimizer scans (SKU, cluster size) combinations, computes exact
reliability with the counting estimator, and minimises cost (or power, or
embodied carbon) subject to the reliability target.

Candidate evaluation goes through the reliability engine
(:mod:`repro.engine`): the whole (SKU × size) grid is submitted as one
:class:`~repro.engine.ScenarioSet`, so every size shares a single batched
counting-DP sweep across SKUs and repeated candidates hit the engine's
memo cache.  Values are bit-identical to per-candidate evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.analysis.result import ReliabilityResult, from_nines
from repro.engine import Scenario, default_engine
from repro.errors import InvalidConfigurationError
from repro.planner.cost import DeploymentPlan, NodeSKU
from repro.protocols.base import ProtocolSpec
from repro.protocols.raft import RaftSpec

SpecFactory = Callable[[int], ProtocolSpec]


@dataclass(frozen=True)
class PlanEvaluation:
    """One optimisation candidate with its reliability and cost."""

    plan: DeploymentPlan
    result: ReliabilityResult

    @property
    def reliability(self) -> float:
        return self.result.safe_and_live.value

    @property
    def hourly_cost(self) -> float:
        return self.plan.hourly_cost

    def meets(self, target_probability: float) -> bool:
        return self.reliability >= target_probability


@dataclass(frozen=True)
class OptimizationOutcome:
    """Winner plus the full ranked candidate list for transparency."""

    best: PlanEvaluation | None
    candidates: tuple[PlanEvaluation, ...]

    def table(self) -> list[dict[str, str]]:
        rows = []
        for cand in self.candidates:
            rows.append(
                {
                    "plan": cand.plan.describe(),
                    "safe&live": f"{cand.reliability:.10f}",
                    "$/h": f"{cand.hourly_cost:.2f}",
                }
            )
        return rows


def _plan_scenario(
    plan: DeploymentPlan,
    spec_factory: SpecFactory,
    byzantine_fraction: float,
) -> Scenario:
    return Scenario(
        spec=spec_factory(plan.count),
        fleet=plan.fleet(byzantine_fraction=byzantine_fraction),
        method="counting",
        label=plan.describe(),
    )


def evaluate_plan(
    plan: DeploymentPlan,
    *,
    spec_factory: SpecFactory = RaftSpec,
    byzantine_fraction: float = 0.0,
) -> PlanEvaluation:
    """Exact reliability of one deployment plan under the given protocol."""
    answer = default_engine().run_query(
        _plan_scenario(plan, spec_factory, byzantine_fraction)
    )
    return PlanEvaluation(plan, answer.value)


def evaluate_plans(
    plans: Sequence[DeploymentPlan],
    *,
    spec_factory: SpecFactory = RaftSpec,
    byzantine_fraction: float = 0.0,
) -> list[PlanEvaluation]:
    """Exact reliability of many plans, batched through the engine.

    Same-size plans share one counting-DP sweep regardless of SKU; values
    are bit-identical to calling :func:`evaluate_plan` per plan.
    """
    scenarios = [
        _plan_scenario(plan, spec_factory, byzantine_fraction) for plan in plans
    ]
    values = default_engine().run(scenarios).values
    return [PlanEvaluation(plan, result) for plan, result in zip(plans, values)]


def find_cheapest_plan(
    skus: Sequence[NodeSKU],
    target_nines: float,
    *,
    spec_factory: SpecFactory = RaftSpec,
    sizes: Iterable[int] = range(3, 16, 2),
    objective: str = "cost",
    byzantine_fraction: float = 0.0,
) -> OptimizationOutcome:
    """Scan the (SKU × size) grid for the cheapest plan meeting the target.

    ``objective`` selects the minimised metric: ``"cost"`` ($/h),
    ``"power"`` (watts) or ``"carbon"`` (embodied kg).  All candidates are
    returned sorted by the objective so callers can inspect the frontier.
    """
    if not skus:
        raise InvalidConfigurationError("at least one SKU is required")
    objectives: dict[str, Callable[[DeploymentPlan], float]] = {
        "cost": lambda p: p.hourly_cost,
        "power": lambda p: p.power_watts,
        "carbon": lambda p: p.embodied_carbon_kg,
    }
    if objective not in objectives:
        raise InvalidConfigurationError(f"unknown objective {objective!r}")
    metric = objectives[objective]
    target_probability = from_nines(target_nines)

    plans = []
    for sku in skus:
        for size in sizes:
            if size <= 0:
                raise InvalidConfigurationError(f"cluster size must be positive, got {size}")
            plans.append(DeploymentPlan(sku, size))
    # One engine submission for the whole grid: each cluster size becomes a
    # single DP sweep shared by every SKU.
    candidates = evaluate_plans(
        plans, spec_factory=spec_factory, byzantine_fraction=byzantine_fraction
    )
    candidates.sort(key=lambda c: (metric(c.plan), -c.reliability))
    feasible = [c for c in candidates if c.meets(target_probability)]
    return OptimizationOutcome(
        best=feasible[0] if feasible else None,
        candidates=tuple(candidates),
    )


def equivalent_reliability_size(
    reference_plan: DeploymentPlan,
    candidate_sku: NodeSKU,
    *,
    spec_factory: SpecFactory = RaftSpec,
    max_size: int = 99,
    byzantine_fraction: float = 0.0,
    tolerance: float = 5e-5,
) -> PlanEvaluation | None:
    """Smallest candidate-SKU cluster matching the reference's reliability.

    The paper's E2 experiment: a 3-node p=1% Raft cluster is matched by a
    9-node p=8% cluster; with the 10× price gap that is a ~3× cost saving.
    ``tolerance`` allows a shortfall up to that probability mass — the
    default corresponds to "equal at the paper's printed 99.97% precision"
    (the 9-node spot cluster is 99.9686% vs the reference's 99.9702%).
    Returns ``None`` when no size up to ``max_size`` comes close enough.
    """
    if tolerance < 0:
        raise InvalidConfigurationError("tolerance must be non-negative")
    reference = evaluate_plan(
        reference_plan, spec_factory=spec_factory, byzantine_fraction=byzantine_fraction
    )
    # Submit candidate sizes to the engine in chunks: batched evaluation
    # without computing the whole range when a small cluster already
    # matches (the common case: the paper's E2 match is found at size 9).
    sizes = list(range(1, max_size + 1, 2))  # odd sizes: even ones waste a vote
    chunk = 8
    for start in range(0, len(sizes), chunk):
        candidates = evaluate_plans(
            [DeploymentPlan(candidate_sku, size) for size in sizes[start : start + chunk]],
            spec_factory=spec_factory,
            byzantine_fraction=byzantine_fraction,
        )
        for candidate in candidates:
            if candidate.reliability >= reference.reliability - tolerance:
                return candidate
    return None
