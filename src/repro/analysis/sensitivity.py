"""Sensitivity analysis: which node's fault curve matters most?

The paper's §3 observation that "Raft and PBFT underutilize reliable
nodes" begs the operational question: *given this deployment, which node
should I upgrade (or which spare should I deploy) to buy the most
reliability per dollar?*  The classical answer is the **Birnbaum
importance** of component ``u``:

    B_u = ∂P(system works) / ∂p_u = P(works | u correct) − P(works | u failed)

computed here exactly by conditioning the counting DP / enumeration on one
node's outcome.  The upgrade advisor combines Birnbaum importance with the
achievable Δp per node to rank concrete actions.

All-node queries (:func:`importance_ranking`, :func:`reliability_gradient`,
:func:`best_single_upgrade`) run on the one-pass leave-one-out kernel from
:mod:`repro.analysis.kernels` when the spec is symmetric: one O(n^3)
prefix/suffix sweep yields every node's conditional reliabilities, ~2n
times cheaper than re-conditioning the counting DP per node.  Asymmetric
specs keep the per-node exact-enumeration path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.analysis.config import FailureConfig, FaultKind
from repro.analysis.counting import counting_reliability
from repro.analysis.exact import exact_reliability
from repro.errors import InvalidConfigurationError
from repro.faults.mixture import Fleet, NodeModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import ProtocolSpec

Metric = str  # "safe" | "live" | "safe_and_live"


def _metric_value(spec: "ProtocolSpec", fleet: Fleet, metric: Metric) -> float:
    if metric not in ("safe", "live", "safe_and_live"):  # ReliabilityResult fields
        raise InvalidConfigurationError(f"unknown metric {metric!r}")
    result = (
        counting_reliability(spec, fleet)
        if spec.symmetric
        else exact_reliability(spec, fleet)
    )
    return getattr(result, metric).value


def birnbaum_importance(
    spec: "ProtocolSpec",
    fleet: Fleet,
    node: int,
    *,
    metric: Metric = "safe_and_live",
    failure_kind: FaultKind = FaultKind.CRASH,
) -> float:
    """Exact Birnbaum importance of ``node`` for the chosen metric.

    Conditions the deployment on the node being surely correct versus
    surely failed (``failure_kind``) and differences the metric.  Larger
    values mean the system's reliability is more sensitive to this node's
    fault curve.
    """
    if not 0 <= node < fleet.n:
        raise InvalidConfigurationError(f"node {node} outside fleet of {fleet.n}")
    if failure_kind is FaultKind.CORRECT:
        raise InvalidConfigurationError("failure_kind cannot be CORRECT")
    surely_correct = fleet.replace(node, NodeModel(0.0, 0.0, label=fleet[node].label))
    failed_model = (
        NodeModel(1.0, 0.0, label=fleet[node].label)
        if failure_kind is FaultKind.CRASH
        else NodeModel(0.0, 1.0, label=fleet[node].label)
    )
    surely_failed = fleet.replace(node, failed_model)
    return _metric_value(spec, surely_correct, metric) - _metric_value(
        spec, surely_failed, metric
    )


def _all_birnbaum_scores(
    spec: "ProtocolSpec",
    fleet: Fleet,
    metric: Metric,
    failure_kind: FaultKind,
) -> list[float]:
    """Every node's Birnbaum importance — one kernel pass when symmetric."""
    if spec.symmetric:
        from repro.analysis.kernels import birnbaum_importances

        return [float(score) for score in birnbaum_importances(
            spec, fleet, metric=metric, failure_kind=failure_kind
        )]
    return [
        birnbaum_importance(spec, fleet, node, metric=metric, failure_kind=failure_kind)
        for node in range(fleet.n)
    ]


def importance_ranking(
    spec: "ProtocolSpec",
    fleet: Fleet,
    *,
    metric: Metric = "safe_and_live",
    failure_kind: FaultKind = FaultKind.CRASH,
) -> list[tuple[int, float]]:
    """All nodes ranked by Birnbaum importance, most critical first."""
    scores = list(enumerate(_all_birnbaum_scores(spec, fleet, metric, failure_kind)))
    scores.sort(key=lambda pair: (-pair[1], pair[0]))
    return scores


@dataclass(frozen=True)
class UpgradeOption:
    """One considered upgrade and its exact reliability effect."""

    node: int
    old_p_fail: float
    new_p_fail: float
    reliability_before: float
    reliability_after: float

    @property
    def gain(self) -> float:
        return self.reliability_after - self.reliability_before


def best_single_upgrade(
    spec: "ProtocolSpec",
    fleet: Fleet,
    replacement: NodeModel,
    *,
    metric: Metric = "safe_and_live",
) -> UpgradeOption | None:
    """The single node swap that buys the most reliability.

    Evaluates replacing each node with ``replacement`` exactly and returns
    the best strictly-improving option (``None`` when no swap helps —
    e.g. the replacement is no better than the worst node).
    """
    before = _metric_value(spec, fleet, metric)
    after_values = _replacement_metric_values(spec, fleet, replacement, metric)
    best: UpgradeOption | None = None
    for node in range(fleet.n):
        if replacement.p_fail >= fleet[node].p_fail:
            continue
        option = UpgradeOption(
            node=node,
            old_p_fail=fleet[node].p_fail,
            new_p_fail=replacement.p_fail,
            reliability_before=before,
            reliability_after=after_values(node),
        )
        if option.gain > 0 and (best is None or option.gain > best.gain):
            best = option
    return best


def _replacement_metric_values(
    spec: "ProtocolSpec", fleet: Fleet, replacement: NodeModel, metric: Metric
) -> Callable[[int], float]:
    """Lazy per-node "metric after swapping node u for replacement" values.

    Symmetric specs get all n what-ifs from one O(n^3) leave-one-out kernel
    pass; asymmetric specs fall back to per-node exact evaluation, computed
    only for the nodes actually inspected.
    """
    if spec.symmetric:
        from repro.analysis.kernels import upgrade_metric_values

        values = upgrade_metric_values(
            spec,
            fleet,
            replacement.p_crash,
            replacement.p_byzantine,
            metric=metric,
        )
        return lambda node: float(values[node])
    return lambda node: _metric_value(spec, fleet.replace(node, replacement), metric)


def greedy_upgrade_plan(
    spec: "ProtocolSpec",
    fleet: Fleet,
    replacement: NodeModel,
    budget: int,
    *,
    metric: Metric = "safe_and_live",
) -> list[UpgradeOption]:
    """Greedily spend ``budget`` node swaps, most-valuable first.

    Greedy is exact for symmetric specs on exchangeable metrics (upgrading
    the flakiest node is always optimal); for asymmetric specs it is the
    usual 1-step lookahead heuristic.
    """
    if budget < 0:
        raise InvalidConfigurationError("budget must be non-negative")
    plan: list[UpgradeOption] = []
    current = fleet
    for _ in range(budget):
        option = best_single_upgrade(spec, current, replacement, metric=metric)
        if option is None:
            break
        plan.append(option)
        current = current.replace(option.node, replacement)
    return plan


def reliability_gradient(
    spec: "ProtocolSpec",
    fleet: Fleet,
    *,
    metric: Metric = "safe_and_live",
) -> tuple[float, ...]:
    """∂metric/∂p_fail per node (negative Birnbaum importances).

    The exact linearisation of the deployment's reliability around the
    current fault curves — the object a probability-native control loop
    (preemptive reconfiguration, §4) steers along.
    """
    return tuple(
        -score for score in _all_birnbaum_scores(spec, fleet, metric, FaultKind.CRASH)
    )
