"""Cost, energy and carbon models for fleet planning (paper §3).

"If these resources are 10× cheaper (e.g., spot instances, older
hardware), this yields a 3× reduction in cost."  This module carries the
price-book side of that argument: node SKUs with failure probability,
hourly price, power draw and embodied carbon, and deployment plans that
aggregate them.  Default SKUs follow the paper's assumptions (reliability
proportional to price, 10× spot discount at 8× the failure rate).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import InvalidConfigurationError, InvalidProbabilityError
from repro.faults.mixture import Fleet, NodeModel


@dataclass(frozen=True)
class NodeSKU:
    """A purchasable node class.

    ``p_fail`` is the per-analysis-window failure probability (the paper's
    ``p_u``); cost and sustainability metadata feed the optimizer.
    """

    name: str
    p_fail: float
    price_per_hour: float
    power_watts: float = 150.0
    embodied_carbon_kg: float = 1_000.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_fail <= 1.0:
            raise InvalidProbabilityError(f"p_fail must be in [0, 1], got {self.p_fail}")
        if self.price_per_hour < 0 or self.power_watts < 0 or self.embodied_carbon_kg < 0:
            raise InvalidConfigurationError("cost/power/carbon must be non-negative")

    def node_model(self, *, byzantine_fraction: float = 0.0) -> NodeModel:
        """Project the SKU onto the analysis window's node model."""
        return NodeModel(
            p_crash=self.p_fail * (1.0 - byzantine_fraction),
            p_byzantine=self.p_fail * byzantine_fraction,
            label=self.name,
            cost_per_hour=self.price_per_hour,
        )

    def discounted(self, price_factor: float) -> "NodeSKU":
        """Same hardware at a different price (e.g. spot vs on-demand)."""
        if price_factor < 0:
            raise InvalidConfigurationError("price_factor must be non-negative")
        return replace(
            self,
            name=f"{self.name}@x{price_factor:g}",
            price_per_hour=self.price_per_hour * price_factor,
        )


#: The paper's §1/§3 cost-equivalence scenario: reliable on-demand nodes at
#: 1% window failure, versus 10×-cheaper spot-class nodes at 8%.
RELIABLE_SKU = NodeSKU("reliable-ondemand", p_fail=0.01, price_per_hour=1.00)
SPOT_SKU = NodeSKU("spot", p_fail=0.08, price_per_hour=0.10, power_watts=150.0)
MIDGRADE_SKU = NodeSKU("midgrade", p_fail=0.04, price_per_hour=0.40)
REFURB_SKU = NodeSKU(
    "refurbished", p_fail=0.02, price_per_hour=0.55, embodied_carbon_kg=0.0
)

DEFAULT_PRICE_BOOK: tuple[NodeSKU, ...] = (RELIABLE_SKU, MIDGRADE_SKU, REFURB_SKU, SPOT_SKU)


@dataclass(frozen=True)
class DeploymentPlan:
    """A homogeneous deployment: ``count`` nodes of one SKU."""

    sku: NodeSKU
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise InvalidConfigurationError(f"count must be positive, got {self.count}")

    def fleet(self, *, byzantine_fraction: float = 0.0) -> Fleet:
        return Fleet((self.sku.node_model(byzantine_fraction=byzantine_fraction),) * self.count)

    @property
    def hourly_cost(self) -> float:
        return self.sku.price_per_hour * self.count

    @property
    def power_watts(self) -> float:
        return self.sku.power_watts * self.count

    @property
    def embodied_carbon_kg(self) -> float:
        return self.sku.embodied_carbon_kg * self.count

    def describe(self) -> str:
        return (
            f"{self.count} × {self.sku.name} (p_fail={self.sku.p_fail:.2%}) — "
            f"${self.hourly_cost:.2f}/h, {self.power_watts:.0f} W"
        )


def cost_ratio(baseline: DeploymentPlan, candidate: DeploymentPlan) -> float:
    """Baseline-over-candidate hourly cost ratio (>1 means candidate cheaper)."""
    if candidate.hourly_cost <= 0:
        raise InvalidConfigurationError("candidate plan has zero cost; ratio undefined")
    return baseline.hourly_cost / candidate.hourly_cost
