"""The handful of special functions the package needs, on stdlib + NumPy.

Everything here used to be a SciPy call (``binom.cdf/sf``, ``hypergeom.pmf``,
``norm.isf``, ``gammaln``, ``minimize_scalar``, ``expm``).  What the callers
need is small and exact enough to state in one module, and importing SciPy
cost every process ~1 s and ~60 MB to reach it.  SciPy is now a test-only
oracle: ``tests/test_stats.py`` holds every function below against it and
against exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
import threading
from statistics import NormalDist
from typing import Callable

import numpy as np

_lgamma = np.vectorize(math.lgamma, otypes=[float])


# ---------------------------------------------------------------------------
# Binomial and hypergeometric
# ---------------------------------------------------------------------------
def binom_pmf(k: int, n: int, p: float) -> float:
    """``P(X = k)`` for ``X ~ Binomial(n, p)``, from one log-space term."""
    if not 0 <= k <= n:
        return 0.0
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == (0 if p <= 0.0 else n) else 0.0
    log_term = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )
    return math.exp(log_term)


def binom_pmf_vector(n: int, p: float) -> np.ndarray:
    """``P(X = k)`` for ``X ~ Binomial(n, p)`` at every ``k`` in ``0..n``:
    the one row of :func:`binom_pmf_matrix`."""
    return binom_pmf_matrix(n, (p,))[0]


def binom_pmf_matrix(n: int, ps) -> np.ndarray:
    """Row ``i`` holds ``P(X = k)`` for ``X ~ Binomial(n, ps[i])``, ``k`` in ``0..n``.

    The log-space terms of :func:`binom_pmf`, one row per probability, each
    row divided by its own sum: a row sums to one within a few ulps, so a
    sampler that checks ``sum(pvals[:-1]) <= 1`` accepts it.  Every step is
    elementwise (the logs of each ``p`` are taken by ``math``, a row's sum
    runs over that row alone), so a row does not depend on the rows beside
    it.  A ``p`` of 0 or 1 puts all of its row's mass on one count exactly.
    """
    ps = [float(p) for p in ps]
    inner = [p if 0.0 < p < 1.0 else 0.5 for p in ps]  # degenerate rows redone below
    logs = itertools.chain.from_iterable((math.log(p), math.log1p(-p)) for p in inner)
    logs = np.fromiter(logs, float, 2 * len(inner)).reshape(len(inner), 2)
    k, n_minus_k, log_choose = _binom_terms(n)
    out = k * logs[:, :1]
    out += log_choose  # IEEE addition commutes: log C + k log p, then + (n-k) log q
    out += n_minus_k * logs[:, 1:]
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    for row, p in enumerate(ps):
        if not 0.0 < p < 1.0:
            out[row] = 0.0
            out[row, 0 if p <= 0.0 else n] = 1.0
    return out


#: :func:`_binom_terms` by ``n``: a served counting row costs mostly
#: per-call overhead, and rows repeat a few cluster sizes.  Locked, and
#: bounded by size rather than entry count (``n`` comes with the request):
#: the oldest entries go beyond ``_TERMS_MAX_FLOATS`` floats in all (512 KB),
#: and the newest entry is always kept.
_TERMS: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_TERMS_LOCK = threading.Lock()
_TERMS_MAX_FLOATS = 1 << 16


def _binom_terms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``k``, ``n - k`` (exact as floats) and ``log C(n, k)`` for every
    ``k`` in ``0..n``, read-only."""
    terms = _TERMS.get(n)
    if terms is None:
        k = np.arange(n + 1)
        terms = (k.astype(float), (n - k).astype(float), log_binom(n, k))
        for array in terms:
            array.setflags(write=False)
        with _TERMS_LOCK:
            _TERMS[n] = terms
            while len(_TERMS) > 1 and sum(3 * (m + 1) for m in _TERMS) > _TERMS_MAX_FLOATS:
                del _TERMS[next(iter(_TERMS))]
    return terms


def _binom_tail(k: int, n: int, p: float, upper: bool) -> float:
    """``P(X > k)`` if ``upper`` else ``P(X <= k)``.

    The side of the cut ``k + 1/2`` away from the mean is summed term by
    term (``math.fsum``, so no order effects) and the other side is its
    complement.  The summed side holds at most ~0.6 of the mass, so the
    complement does not cancel, a deep tail is a sum of its own terms
    rather than ``1 - (almost 1)``, and a value near one is as close to
    one as its small complement is accurate.
    """
    if k < 0:
        return 1.0 if upper else 0.0
    if k >= n:
        return 0.0 if upper else 1.0
    sum_upper = k + 0.5 >= n * p
    terms = range(k + 1, n + 1) if sum_upper else range(0, k + 1)
    mass = math.fsum(binom_pmf(j, n, p) for j in terms)
    return mass if sum_upper == upper else 1.0 - mass


def binom_cdf(k: int, n: int, p: float) -> float:
    """``P(X <= k)`` for ``X ~ Binomial(n, p)``."""
    return _binom_tail(k, n, p, upper=False)


def binom_sf(k: int, n: int, p: float) -> float:
    """``P(X > k)`` for ``X ~ Binomial(n, p)``."""
    return _binom_tail(k, n, p, upper=True)


def hypergeom_pmf(k: int, total: int, marked: int, draws: int) -> float:
    """P(``k`` marked items among ``draws`` drawn from ``total`` holding ``marked``).

    An exact integer ratio, rounded once by the final division.
    """
    if k < 0 or k > draws:
        return 0.0
    return (
        math.comb(marked, k) * math.comb(total - marked, draws - k)
        / math.comb(total, draws)
    )


def log_binom(n: int, k: np.ndarray) -> np.ndarray:
    """``log C(n, k)`` element-wise for integers ``0 <= k <= n``, each
    ``log j!`` taken once from ``math.lgamma``."""
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)
    return log_fact[n] - log_fact[k] - log_fact[n - k]


def log_beta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``log B(a, b)`` element-wise."""
    return _lgamma(a) + _lgamma(b) - _lgamma(a + b)


# ---------------------------------------------------------------------------
# Normal quantile
# ---------------------------------------------------------------------------
def normal_isf(p: float) -> float:
    """Standard normal inverse survival function, ``z`` with ``P(Z > z) = p``.

    By symmetry ``isf(p) = -inv_cdf(p)``; ``inv_cdf(1 - p)`` would round
    the small ``p`` away (4e-7 relative at ``p = 1e-12``).
    """
    if p <= 0.0:
        return math.inf
    if p >= 1.0:
        return -math.inf
    return -NormalDist().inv_cdf(p)


# ---------------------------------------------------------------------------
# Bounded scalar minimisation (Brent: golden section + parabolic steps)
# ---------------------------------------------------------------------------
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_XTOL = 1e-5  # absolute tolerance on the minimiser's position


def minimize_bounded(
    func: Callable[[float], float],
    lower: float,
    upper: float,
    *,
    max_evals: int = 500,
) -> tuple[float, float, bool]:
    """Minimise ``func`` on ``[lower, upper]``; returns ``(x, f(x), converged)``.

    Brent's derivative-free method: ``x`` is the best point so far, ``w``
    and ``v`` the two before it; a parabola through the three proposes the
    next point and a golden-section step replaces it whenever the parabola
    is unusable or leaves the bracket.  ``converged`` is False when
    ``max_evals`` function evaluations did not shrink the bracket to
    ``_XTOL``.
    """
    a, b = lower, upper
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = func(x)
    step = prev_step = 0.0
    for _ in range(max_evals - 1):
        mid = 0.5 * (a + b)
        tol = _SQRT_EPS * abs(x) + _XTOL / 3.0
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            return x, fx, True
        use_golden = True
        if abs(prev_step) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * prev_step) and q * (a - x) < p < q * (b - x):
                prev_step, step = step, p / q
                use_golden = False
                u = x + step
                if u - a < 2.0 * tol or b - u < 2.0 * tol:
                    step = math.copysign(tol, mid - x)
        if use_golden:
            prev_step = (a if x >= mid else b) - x
            step = _GOLDEN * prev_step
        u = x + math.copysign(max(abs(step), tol), step)
        fu = func(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, False


# ---------------------------------------------------------------------------
# CTMC transient distribution
# ---------------------------------------------------------------------------
def ctmc_transient(generator: np.ndarray, p0: np.ndarray, t: float) -> np.ndarray:
    """``p0 @ exp(generator * t)`` for a CTMC generator, by uniformization.

    With ``Λ = max |q_ii|`` the matrix ``P = I + Q/Λ`` is stochastic and
    ``exp(Qh) = Σ_k Poisson(k; Λh) P^k`` — a sum of non-negative terms, so
    no entry can come out negative and the truncation error is the dropped
    Poisson mass.  The series is taken at a step ``h = t / 2^s`` with
    ``Λh <= 1`` (about twenty terms) and the result squared ``s`` times, so
    a stiff chain over a long horizon costs ``O(log Λt)`` products, not
    ``O(Λt)``.  Rows are rescaled to sum to one after each squaring: the
    rounding drift of a row sum would otherwise double every time.
    """
    rate = -float(generator.diagonal().min(initial=0.0))
    if rate <= 0.0 or t <= 0.0:
        return p0.copy()
    squarings = max(0, math.ceil(math.log2(rate * t)))
    jumps = rate * t / 2.0**squarings  # expected jumps per step, <= 1
    identity = np.eye(generator.shape[0])
    jump_matrix = identity + generator / rate
    weight = math.exp(-jumps)
    power = identity
    step_matrix = weight * identity
    k = 0
    while weight > 1e-18:
        k += 1
        weight *= jumps / k
        power = power @ jump_matrix
        step_matrix += weight * power
    for _ in range(squarings):
        step_matrix = step_matrix @ step_matrix
        step_matrix /= step_matrix.sum(axis=1, keepdims=True)
    return p0 @ step_matrix
