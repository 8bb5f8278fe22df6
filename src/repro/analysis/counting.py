"""Exact counting estimator for symmetric protocol predicates (paper §3).

For protocols whose safe/live predicates depend only on *how many* nodes
crashed / turned Byzantine — which covers Raft (Thm 3.2) and PBFT (Thm 3.1)
— the aggregation over all ``3^N`` configurations collapses to a sum over
the joint count distribution ``P(#crash = c, #byz = b)``.  With independent
per-node outcomes that joint distribution is a *multivariate
Poisson-binomial*, computable by an ``O(N^3)`` dynamic program even for
heterogeneous fleets.  This is the estimator behind every table cell in
the paper.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._stats import binom_cdf
from repro.analysis.result import Estimate, ReliabilityResult
from repro.errors import InvalidConfigurationError
from repro.faults.mixture import Fleet
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import ProtocolSpec


def poisson_binomial_pmf(probabilities: Sequence[float]) -> np.ndarray:
    """PMF of the number of successes among independent Bernoulli trials.

    Standard convolution DP: ``O(n^2)`` time, numerically stable for the
    probabilities seen in reliability work (no subtractions).
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1:
        raise InvalidConfigurationError("probabilities must be a 1-D sequence")
    if np.any((p < 0.0) | (p > 1.0)):
        raise InvalidConfigurationError("probabilities must lie in [0, 1]")
    pmf = np.zeros(p.size + 1)
    pmf[0] = 1.0
    for i, pi in enumerate(p):
        # After node i, counts range over [0, i+1]; update in reverse so we
        # read pre-update values.
        pmf[1 : i + 2] = pmf[1 : i + 2] * (1.0 - pi) + pmf[0 : i + 1] * pi
        pmf[0] *= 1.0 - pi
    return pmf


def joint_count_pmf(fleet: Fleet) -> np.ndarray:
    """Joint PMF ``P[c, b]`` of crash and Byzantine counts for a fleet.

    Trinomial extension of the Poisson-binomial DP: each node contributes
    one of (correct, crash, Byzantine).  Returns an ``(n+1, n+1)`` array
    whose entries for ``c + b > n`` are zero.
    """
    n = fleet.n
    pmf = np.zeros((n + 1, n + 1))
    pmf[0, 0] = 1.0
    for node in fleet:
        p_crash, p_byz = node.p_crash, node.p_byzantine
        p_ok = max(0.0, 1.0 - p_crash - p_byz)
        updated = pmf * p_ok
        if p_crash > 0.0:
            updated[1:, :] += pmf[:-1, :] * p_crash
        if p_byz > 0.0:
            updated[:, 1:] += pmf[:, :-1] * p_byz
        pmf = updated
    return pmf


def counting_reliability(spec: "ProtocolSpec", fleet: Fleet) -> ReliabilityResult:
    """Exact Safe/Live/Safe&Live probabilities via the counting DP.

    Requires a symmetric spec; raises :class:`InvalidConfigurationError`
    otherwise (use the exact enumerator or Monte-Carlo for asymmetric
    protocols).  Predicates are read from the spec's cached verdict masks
    (:mod:`repro.analysis.kernels`), so repeated evaluations — horizon
    sweeps, what-if batches, importance conditioning — pay zero predicate
    calls; values are bit-identical to the historical predicate loop.
    """
    from repro.analysis.kernels import reliability_values, verdict_masks

    if not spec.symmetric:
        raise InvalidConfigurationError(
            f"{spec.name} is not symmetric; the counting estimator does not apply"
        )
    if fleet.n != spec.n:
        raise InvalidConfigurationError(
            f"fleet has {fleet.n} nodes but spec expects {spec.n}"
        )
    pmf = joint_count_pmf(fleet)
    n = fleet.n
    p_safe, p_live, p_both = reliability_values(pmf, verdict_masks(spec))
    return ReliabilityResult(
        protocol=spec.name,
        n=n,
        safe=Estimate.exact(p_safe),
        live=Estimate.exact(p_live),
        safe_and_live=Estimate.exact(p_both),
        method="counting",
        detail=f"joint count DP over {(n + 1) * (n + 2) // 2} count pairs",
    )


def binomial_tail(n: int, p: float, at_most: int) -> float:
    """``P(X <= at_most)`` for ``X ~ Binomial(n, p)`` — closed-form oracle.

    Cross-checks the DP against an independent implementation: a sum of
    log-space binomial terms (:func:`repro._stats.binom_cdf`), itself held
    against SciPy's regularised incomplete beta by the tests.
    """
    return binom_cdf(at_most, n, p)
