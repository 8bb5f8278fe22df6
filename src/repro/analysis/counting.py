"""Exact counting estimator for symmetric protocol predicates (paper §3).

For protocols whose safe/live predicates depend only on *how many* nodes
crashed / turned Byzantine — which covers Raft (Thm 3.2) and PBFT (Thm 3.1)
— the aggregation over all ``3^N`` configurations collapses to a sum over
the joint count distribution ``P(#crash = c, #byz = b)``.  With independent
per-node outcomes that joint distribution is a *multivariate
Poisson-binomial*, computable by a dynamic program even for heterogeneous
fleets; when every node shares one model and one failure kind the count
is ``Binomial(n, p)``, read in closed form.  This is the estimator behind
every table cell in the paper.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._stats import binom_pmf_matrix
from repro.analysis.result import Estimate, ReliabilityResult
from repro.errors import InvalidConfigurationError
from repro.faults.mixture import Fleet
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import ProtocolSpec


def poisson_binomial_pmf(probabilities: Sequence[float]) -> np.ndarray:
    """PMF of the number of successes among independent Bernoulli trials.

    Standard convolution DP: ``O(n^2)`` time, numerically stable for the
    probabilities seen in reliability work (no subtractions).  The
    counting kernel's 1-D recursion on a batch of one.
    """
    from repro.analysis.kernels import _count_pmf_1d

    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1:
        raise InvalidConfigurationError("probabilities must be a 1-D sequence")
    if np.any((p < 0.0) | (p > 1.0)):
        raise InvalidConfigurationError("probabilities must lie in [0, 1]")
    return _count_pmf_1d(p[None], 1.0 - p[None])[0]


def joint_count_pmf(fleet: Fleet) -> np.ndarray:
    """Joint PMF ``P[c, b]`` of crash and Byzantine counts for a fleet.

    Trinomial extension of the Poisson-binomial DP, node by node: each
    node contributes one of (correct, crash, Byzantine).  Returns an
    ``(n+1, n+1)`` array whose entries for ``c + b > n`` are zero.  The
    kernel's :func:`~repro.analysis.kernels.joint_count_pmf_batch` on a
    batch of one fleet.
    """
    from repro.analysis.kernels import joint_count_pmf_batch

    crash, byz = fleet.probability_array.T
    return joint_count_pmf_batch(crash[None], byz[None])[0]


def counting_reliability(spec: "ProtocolSpec", fleet: Fleet) -> ReliabilityResult:
    """Exact Safe/Live/Safe&Live probabilities from the failure-count PMF.

    Requires a symmetric spec; raises :class:`InvalidConfigurationError`
    otherwise (use the exact enumerator or Monte-Carlo for asymmetric
    protocols).  A fleet with one failure kind has its PMF on one count
    line (:func:`repro.analysis.kernels.count_lines`: the closed-form
    binomial when every node shares one model, the 1-D recursion
    otherwise), read against that kind's line of the spec's verdict masks;
    a fleet carrying both kinds runs the joint DP over the whole grid.
    Predicates are read from the spec's cached masks, so repeated
    evaluations — horizon sweeps, what-if batches, importance
    conditioning — pay zero predicate calls.  The result equals
    :func:`repro.analysis.kernels.counting_sweep`'s row for the same pair,
    bit for bit.
    """
    from repro.analysis.kernels import count_lines, fleet_kind, reliability_values, verdict_masks

    if not spec.symmetric:
        raise InvalidConfigurationError(
            f"{spec.name} is not symmetric; the counting estimator does not apply"
        )
    if fleet.n != spec.n:
        raise InvalidConfigurationError(
            f"fleet has {fleet.n} nodes but spec expects {spec.n}"
        )
    key = fleet.probability_key
    p_crash, p_byz = key[0]
    if key.count(key[0]) == len(key) and not (p_crash and p_byz):
        # One model, one kind: count_lines' closed-form row, told from the
        # key.  A lone served row is mostly per-call overhead, and building
        # the fleet's arrays for count_lines made it about a fifth dearer.
        # A shortcut only: every fleet it misses reaches count_lines below.
        kind, pmf = int(bool(p_byz)), binom_pmf_matrix(fleet.n, (p_crash + p_byz,))[0]
    else:  # on a one-kind fleet the other kind adds exact zeros, as in counting_sweep
        kind = fleet_kind(pairs := fleet.probability_array)
        pmf = joint_count_pmf(fleet) if kind == 2 else count_lines(pairs.sum(axis=1)[None])[0]
    masks = verdict_masks(spec).for_kind(kind)
    p_safe, p_live, p_both = reliability_values(pmf, masks)
    return ReliabilityResult(
        protocol=spec.name,
        n=fleet.n,
        safe=Estimate.exact(p_safe),
        live=Estimate.exact(p_live),
        safe_and_live=Estimate.exact(p_both),
        method="counting",
    )
