"""``repro._stats`` against two independent oracles.

SciPy, which these functions replaced at the runtime, is the first oracle:
every function is held against it over grids and random cells, and the
classes that do so skip when SciPy is not importable.  The second oracle
needs nothing beyond the standard library — exact rational arithmetic for
the discrete distributions, closed forms for the normal quantile and a
two-state chain, and the counting DP for iid fleets — so this file tests
every function with or without SciPy installed.

Tolerances come from sizing runs against both oracles: binomial pmf/cdf/sf
within 3e-13 relative of SciPy over 12 000 random ``(n <= 130, p, k)``
cells above 1e-250 and within 2e-13 of the exact rational value (the
limit is ``math.lgamma`` near 500, and a log term's rounding grows with
that magnitude: the whole-support pmf at ``n = 1001``, where ``lgamma``
reaches 5 900, read 2.1e-12 of SciPy); hypergeometric pmf within 1.1e-15;
``ctmc_transient`` within 2e-11 absolute of ``scipy.linalg.expm``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from statistics import NormalDist, StatisticsError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._stats import (
    binom_cdf,
    binom_pmf,
    binom_pmf_matrix,
    binom_pmf_vector,
    binom_sf,
    ctmc_transient,
    hypergeom_pmf,
    log_beta,
    log_binom,
    minimize_bounded,
    normal_isf,
)
from repro.analysis.counting import poisson_binomial_pmf
from repro.faults.fitting import fit_weibull
from repro.markov.builders import ClusterMarkovModel
from repro.planner.detector import PhiAccrualDetector

BINOM_RTOL = 1e-12

#: Whole-support pmf cells: ``n`` up to 1001 and the corners of ``p``.
PMF_VECTOR_CELLS = [
    (n, p)
    for n in (0, 1, 7, 41, 1001)
    for p in (0.0, 1e-12, 0.05, 0.5, 1.0 - 1e-12, 1.0)
]


def pmf_vector_rtol(n: int) -> float:
    """``BINOM_RTOL``, scaled past ``n = 130`` (``lgamma`` ≈ 500, where it
    was sized) by the magnitude of the log-gammas each term subtracts."""
    return BINOM_RTOL * max(1.0, math.lgamma(n + 1) / math.lgamma(131))

binomial_cells = st.tuples(
    st.integers(min_value=1, max_value=130),
    st.one_of(
        st.floats(min_value=1e-7, max_value=0.9),
        st.floats(min_value=-7.0, max_value=-0.05).map(lambda e: 10.0**e),
        st.floats(min_value=-7.0, max_value=-0.05).map(lambda e: 1.0 - 10.0**e),
    ),
    st.integers(min_value=-2, max_value=132),
)


def exact_binom(k_values, n: int, p: float) -> Fraction:
    """Σ C(n, j) p^j (1-p)^(n-j) over ``k_values``, for the double ``p`` exactly."""
    p = Fraction(p)
    return sum(
        (math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in k_values if 0 <= j <= n),
        Fraction(0),
    )


def birth_death_generator(n: int, lam: float, mu: float) -> np.ndarray:
    """``n``-replica cluster: state = failed count, every failed replica in repair."""
    q = np.zeros((n + 1, n + 1))
    for failed in range(n):
        q[failed, failed + 1] = (n - failed) * lam
        q[failed + 1, failed] = (failed + 1) * mu
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def weibull_profile(durations, observed):
    """Negative censored-Weibull profile log-likelihood in the shape alone."""
    durations = np.asarray(durations, dtype=float)
    events = durations[np.asarray(observed, dtype=bool)]

    def negative_log_lik(shape: float) -> float:
        powered = (durations**shape).sum()
        return -(
            events.size * (math.log(shape) - math.log(powered / events.size))
            + (shape - 1.0) * np.log(events).sum()
            - events.size
        )

    return negative_log_lik


def censored_weibull_sample(shape, scale, size, horizon, seed):
    times = scale * np.random.default_rng(seed).weibull(shape, size=size)
    return np.minimum(times, horizon), times < horizon


WEIBULL_SAMPLES = [
    censored_weibull_sample(2.5, 1_000.0, 400, 1_500.0, seed=11),  # wear-out
    censored_weibull_sample(0.6, 5_000.0, 300, 2_000.0, seed=12),  # infant mortality
    censored_weibull_sample(1.0, 800.0, 150, 600.0, seed=13),  # heavy censoring
]


# ---------------------------------------------------------------------------
# SciPy as the oracle
# ---------------------------------------------------------------------------
class TestAgainstSciPy:
    @pytest.fixture(scope="class")
    def stats(self):
        return pytest.importorskip("scipy.stats")

    @settings(max_examples=400, deadline=None)
    @given(binomial_cells)
    def test_binomial_matches(self, stats, cell):
        n, p, k = cell
        for mine, reference in (
            (binom_pmf(k, n, p), stats.binom.pmf(k, n, p)),
            (binom_cdf(k, n, p), stats.binom.cdf(k, n, p)),
            (binom_sf(k, n, p), stats.binom.sf(k, n, p)),
        ):
            if reference > 1e-250:  # SciPy itself degrades below (see deep tail)
                assert mine == pytest.approx(float(reference), rel=BINOM_RTOL)
            else:
                assert mine <= 1e-249

    @pytest.mark.parametrize("n, p", PMF_VECTOR_CELLS)
    def test_binomial_pmf_vector_matches(self, stats, n, p):
        mine = binom_pmf_vector(n, p)
        reference = stats.binom.pmf(np.arange(n + 1), n, p)
        if p in (0.0, 1.0):
            np.testing.assert_array_equal(mine, reference)
            return
        shown = reference > 1e-250  # SciPy itself degrades below (see deep tail)
        np.testing.assert_allclose(mine[shown], reference[shown], rtol=pmf_vector_rtol(n))
        assert (mine[~shown] <= 1e-249).all()

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_binomial_degenerate_probabilities(self, stats, p):
        for n in (1, 4, 31):
            for k in range(-2, n + 3):
                assert binom_pmf(k, n, p) == stats.binom.pmf(k, n, p)
                assert binom_cdf(k, n, p) == stats.binom.cdf(k, n, p)
                assert binom_sf(k, n, p) == stats.binom.sf(k, n, p)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_hypergeometric_matches(self, stats, data):
        total = data.draw(st.integers(min_value=1, max_value=300))
        marked = data.draw(st.integers(min_value=0, max_value=total))
        draws = data.draw(st.integers(min_value=0, max_value=total))
        k = data.draw(st.integers(min_value=-1, max_value=draws + 1))
        reference = float(stats.hypergeom.pmf(k, total, marked, draws))
        mine = hypergeom_pmf(k, total, marked, draws)
        if reference > 1e-300:
            assert mine == pytest.approx(reference, rel=1e-13)
        else:  # outside the support, or underflowed in SciPy's log space
            assert mine < 1e-299

    def test_normal_isf_matches(self, stats):
        for exponent in range(-18, 0):
            for mantissa in (1.0, 2.5, 5.0):
                p = mantissa * 10.0**exponent
                assert normal_isf(p) == pytest.approx(
                    float(stats.norm.isf(p)), rel=1e-14
                )
        assert normal_isf(0.5) == 0.0
        assert normal_isf(0.0) == stats.norm.isf(0.0) == math.inf
        assert normal_isf(1.0) == stats.norm.isf(1.0) == -math.inf

    def test_log_binom_and_log_beta_match(self):
        special = pytest.importorskip("scipy.special")
        ks = np.arange(0, 41)
        reference = special.gammaln(41) - special.gammaln(ks + 1) - special.gammaln(41 - ks)
        np.testing.assert_allclose(log_binom(40, ks), reference, rtol=1e-13, atol=1e-13)
        a, b = ks + 0.37, 40 - ks + 2.25
        np.testing.assert_allclose(log_beta(a, b), special.betaln(a, b), rtol=1e-13)
        assert float(log_beta(0.37, 2.25)) == pytest.approx(special.betaln(0.37, 2.25))

    @pytest.mark.parametrize("n", [3, 5, 9, 16, 40])
    def test_ctmc_transient_matches_expm(self, n):
        linalg = pytest.importorskip("scipy.linalg")
        p0 = np.zeros(n + 1)
        p0[0] = 1.0
        for lam, mu in ((1e-3, 0.5), (1e-4, 0.0), (0.01, 0.1)):
            q = birth_death_generator(n, lam, mu)
            for hours in (0.5, 24.0, 720.0, 8_760.0, 87_600.0):
                reference = p0 @ linalg.expm(q * hours)
                np.testing.assert_allclose(
                    ctmc_transient(q, p0, hours), reference, rtol=0.0, atol=1e-9
                )

    @pytest.mark.parametrize("sample", WEIBULL_SAMPLES)
    def test_minimiser_matches_bounded_minimize_scalar(self, sample):
        optimize = pytest.importorskip("scipy.optimize")
        profile = weibull_profile(*sample)
        reference = optimize.minimize_scalar(
            profile, bounds=(0.05, 20.0), method="bounded"
        )
        shape, value, converged = minimize_bounded(profile, 0.05, 20.0)
        assert converged and reference.success
        assert shape == pytest.approx(reference.x, abs=1e-5)
        assert value == pytest.approx(reference.fun, rel=1e-12)
        assert fit_weibull(*sample).curve.shape == pytest.approx(shape, abs=1e-5)


# ---------------------------------------------------------------------------
# Oracles that need no SciPy
# ---------------------------------------------------------------------------
class TestBinomialExact:
    @settings(max_examples=150, deadline=None)
    @given(binomial_cells)
    def test_matches_exact_rationals(self, cell):
        n, p, k = cell
        cases = (
            (binom_pmf(k, n, p), exact_binom([k], n, p)),
            (binom_cdf(k, n, p), exact_binom(range(0, k + 1), n, p)),
            (binom_sf(k, n, p), exact_binom(range(k + 1, n + 1), n, p)),
        )
        for mine, exact in cases:
            if exact > Fraction(1, 10**300):
                assert mine == pytest.approx(float(exact), rel=BINOM_RTOL)
            else:
                assert mine < 1e-299

    @pytest.mark.parametrize(
        "k, n, p, pinned",
        [
            # Cells below 1e-280, where SciPy 1.17's binom.sf is off by
            # 1.1e-3, 1.6e-3 and 3.9e-2 relative.
            (105, 138, 0.001, 2.2219287616001886e-287),
            (106, 143, 0.001, 8.15166147939652e-288),
            (138, 155, 0.005, 3.1543190652626864e-299),
        ],
    )
    def test_deep_tail_is_a_sum_of_its_own_terms(self, k, n, p, pinned):
        exact = float(exact_binom(range(k + 1, n + 1), n, p))
        assert exact == pytest.approx(pinned, rel=1e-15)
        assert binom_sf(k, n, p) == pytest.approx(exact, rel=BINOM_RTOL)
        assert binom_cdf(k, n, p) == 1.0

    def test_edges_of_the_support(self):
        for n, p in ((1, 0.3), (7, 0.5), (30, 1e-4)):
            assert binom_pmf(-1, n, p) == binom_pmf(n + 1, n, p) == 0.0
            assert binom_cdf(-1, n, p) == 0.0 and binom_sf(-1, n, p) == 1.0
            for k in (n, n + 1, n + 50):
                assert binom_cdf(k, n, p) == 1.0 and binom_sf(k, n, p) == 0.0
        for n in (1, 6):
            assert [binom_pmf(k, n, 0.0) for k in range(n + 1)] == [1.0] + [0.0] * n
            assert [binom_pmf(k, n, 1.0) for k in range(n + 1)] == [0.0] * n + [1.0]
            assert binom_cdf(0, n, 0.0) == 1.0 and binom_sf(0, n, 0.0) == 0.0
            assert binom_cdf(n - 1, n, 1.0) == 0.0 and binom_sf(n - 1, n, 1.0) == 1.0

    def test_no_cancellation_on_either_side_of_the_mean(self):
        # Mass piled on one end: the small side must keep full relative
        # precision whichever function asks for it.
        assert binom_sf(0, 1, 1e-7) == pytest.approx(1e-7, rel=1e-15)
        assert binom_cdf(0, 1, 1.0 - 1e-7) == pytest.approx(1e-7, rel=1e-9)
        assert binom_sf(0, 50, 1e-9) == pytest.approx(-math.expm1(50 * math.log1p(-1e-9)), rel=1e-13)
        assert binom_cdf(49, 50, 1.0 - 1e-9) == pytest.approx(
            -math.expm1(50 * math.log1p(-1e-9)), rel=1e-7
        )

    @pytest.mark.parametrize("n, p", PMF_VECTOR_CELLS)
    def test_pmf_vector_is_the_scalar_pmf_summing_to_one(self, n, p):
        mine = binom_pmf_vector(n, p)
        scalar = np.array([binom_pmf(k, n, p) for k in range(n + 1)])
        assert mine.shape == (n + 1,) and (mine >= 0.0).all()
        assert math.fsum(mine) == pytest.approx(1.0, abs=1e-12)
        assert mine[:-1].sum() <= 1.0 + 1e-12  # NumPy's multinomial check
        if p in (0.0, 1.0):
            assert mine.tolist() == scalar.tolist()
            return
        shown = scalar > 1e-250
        np.testing.assert_allclose(mine[shown], scalar[shown], rtol=pmf_vector_rtol(n))
        assert (mine[~shown] <= 1e-249).all()

    def test_pmf_vector_bytes_are_the_one_probability_formula(self):
        # The Monte-Carlo histogram draws are seeded multinomials over this
        # vector: its bytes must not move when it is read off the matrix.
        def one_probability(n, p):
            if p <= 0.0 or p >= 1.0:
                pmf = np.zeros(n + 1)
                pmf[0 if p <= 0.0 else n] = 1.0
                return pmf
            k = np.arange(n + 1)
            pmf = np.exp(log_binom(n, k) + k * math.log(p) + (n - k) * math.log1p(-p))
            return pmf / pmf.sum()

        rng = np.random.default_rng(41)
        cells = PMF_VECTOR_CELLS + [
            (n, float(p)) for n in (2, 5, 25, 257) for p in rng.uniform(0, 1, 12)
        ]
        for n, p in cells:
            assert binom_pmf_vector(n, p).tobytes() == one_probability(n, p).tobytes()
        ps = [p for _, p in cells]
        for n in (1, 25, 257):
            rows = binom_pmf_matrix(n, ps)
            for p, row in zip(ps, rows):
                assert row.tobytes() == one_probability(n, p).tobytes()

    def test_binomial_terms_table_is_bounded_by_size_and_keeps_the_newest(self, monkeypatch):
        from repro import _stats

        monkeypatch.setattr(_stats, "_TERMS", {})
        monkeypatch.setattr(_stats, "_TERMS_MAX_FLOATS", 3 * (6 + 10 + 12))
        for n in (5, 9, 11):
            binom_pmf_vector(n, 0.1)
        assert list(_stats._TERMS) == [5, 9, 11]  # 84 floats: at the bound
        binom_pmf_vector(3, 0.1)
        assert list(_stats._TERMS) == [9, 11, 3]
        binom_pmf_vector(40, 0.1)  # 123 floats alone: kept, and alone
        assert list(_stats._TERMS) == [40]
        k, n_minus_k, log_choose = _stats._TERMS[40]
        with pytest.raises(ValueError):
            log_choose[0] = 0.0
        assert binom_pmf_vector(40, 0.1).tobytes() == binom_pmf_matrix(40, [0.1])[0].tobytes()

    def test_binomial_terms_table_under_racing_threads(self, monkeypatch):
        # Without the table's lock, 3 of 3 runs of a scratch copy raised
        # "dictionary changed size during iteration" in the eviction loop.
        import sys
        import threading

        from repro import _stats

        monkeypatch.setattr(_stats, "_TERMS", {})
        monkeypatch.setattr(_stats, "_TERMS_MAX_FLOATS", 3 * 12)  # a few entries at most
        expected = {n: binom_pmf_vector(n, 0.3).tobytes() for n in range(1, 30)}
        errors = []

        def worker(seed):
            try:
                for n in np.random.default_rng(seed).integers(1, 30, 3000).tolist():
                    assert binom_pmf_vector(n, 0.3).tobytes() == expected[n]
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sum(3 * (n + 1) for n in _stats._TERMS) <= 3 * 12 or len(_stats._TERMS) == 1

    @given(
        st.integers(min_value=1, max_value=25),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_counting_dp_is_binomial_for_iid_fleets(self, n, p):
        dp = poisson_binomial_pmf([p] * n)
        for k in range(n + 1):
            assert binom_pmf(k, n, p) == pytest.approx(float(dp[k]), rel=1e-10, abs=1e-300)
            assert binom_cdf(k, n, p) == pytest.approx(float(dp[: k + 1].sum()), rel=1e-10)


class TestHypergeometricExact:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_exact_ratio_and_sums_to_one(self, data):
        total = data.draw(st.integers(min_value=1, max_value=300))
        marked = data.draw(st.integers(min_value=0, max_value=total))
        draws = data.draw(st.integers(min_value=0, max_value=total))
        pmf = [hypergeom_pmf(k, total, marked, draws) for k in range(-1, draws + 2)]
        assert pmf[0] == pmf[-1] == 0.0
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-14)
        k = data.draw(st.integers(min_value=0, max_value=draws))
        exact = Fraction(
            math.comb(marked, k) * math.comb(total - marked, draws - k),
            math.comb(total, draws),
        )
        assert hypergeom_pmf(k, total, marked, draws) == float(exact)

    def test_empty_support_cells_are_zero(self):
        # More draws than unmarked items: zero marked is impossible.
        assert hypergeom_pmf(0, 10, 7, 5) == 0.0
        assert hypergeom_pmf(1, 10, 7, 5) == 0.0
        assert hypergeom_pmf(2, 10, 7, 5) > 0.0
        assert hypergeom_pmf(4, 10, 3, 5) == 0.0  # more than are marked


class TestNormalQuantile:
    @pytest.mark.parametrize("p", [1e-18, 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9])
    def test_round_trips_through_erfc(self, p):
        z = normal_isf(p)
        assert 0.5 * math.erfc(z / math.sqrt(2.0)) == pytest.approx(p, rel=1e-13)

    def test_small_tail_is_not_rounded_away(self):
        """``inv_cdf(1 - p)`` loses the tail; the symmetric form keeps it."""
        naive = NormalDist().inv_cdf(1.0 - 1e-12)
        assert abs(naive - normal_isf(1e-12)) / normal_isf(1e-12) > 1e-8
        with pytest.raises(StatisticsError):
            NormalDist().inv_cdf(1.0 - 1e-18)  # 1 - 1e-18 == 1.0
        assert normal_isf(1e-18) == pytest.approx(8.757290348782316, rel=1e-14)

    def test_detector_silence_bound_uses_it(self):
        detector = PhiAccrualDetector(threshold=12.0)
        for beat in range(20):
            detector.heartbeat(beat * 1.0 + 0.01 * (beat % 3))
        silence = detector.time_to_suspicion()
        assert detector.phi(detector._last_arrival + silence) == pytest.approx(12.0, rel=1e-9)
        assert detector.time_to_suspicion(400.0) == math.inf  # 10^-400 underflows to 0


class TestMinimiser:
    def test_finds_interior_minimum_of_smooth_functions(self):
        x, fx, converged = minimize_bounded(lambda v: (v - 2.0) ** 2 + 3.0, 0.0, 10.0)
        assert converged
        assert x == pytest.approx(2.0, abs=1e-5) and fx == pytest.approx(3.0)
        x, _fx, converged = minimize_bounded(lambda v: math.cosh(v - 0.3), -4.0, 9.0)
        assert converged and x == pytest.approx(0.3, abs=1e-5)

    def test_monotone_function_ends_at_the_bound(self):
        x, _fx, converged = minimize_bounded(lambda v: v, 0.05, 20.0)
        assert converged and x == pytest.approx(0.05, abs=2e-5)
        x, _fx, converged = minimize_bounded(lambda v: -v, 0.05, 20.0)
        assert converged and x == pytest.approx(20.0, abs=2e-5)

    def test_reports_an_exhausted_budget(self):
        _x, _fx, converged = minimize_bounded(
            lambda v: (v - 2.0) ** 2, 0.0, 10.0, max_evals=3
        )
        assert not converged

    @pytest.mark.parametrize("sample", WEIBULL_SAMPLES)
    def test_weibull_profile_score_vanishes_at_the_fit(self, sample):
        profile = weibull_profile(*sample)
        shape, _value, converged = minimize_bounded(profile, 0.05, 20.0)
        assert converged
        # A minimiser to 1e-5 in position: the profile is flat there to second order.
        assert profile(shape) <= min(profile(shape - 1e-3), profile(shape + 1e-3))


class TestTransient:
    def test_two_state_decay(self):
        q = np.array([[-1.0, 1.0], [0.0, 0.0]])
        pt = ctmc_transient(q, np.array([1.0, 0.0]), 2.0)
        np.testing.assert_allclose(pt, [math.exp(-2.0), -math.expm1(-2.0)], rtol=1e-14)

    def test_two_state_repairable_closed_form(self):
        lam, mu = 0.002, 0.25
        q = np.array([[-lam, lam], [mu, -mu]])
        for hours in (0.1, 3.0, 40.0, 1e4, 1e6):
            down = lam / (lam + mu) * -math.expm1(-(lam + mu) * hours)
            pt = ctmc_transient(q, np.array([1.0, 0.0]), hours)
            np.testing.assert_allclose(pt, [1.0 - down, down], rtol=1e-11)

    def test_pure_death_chain_is_binomial(self):
        n, lam, hours = 12, 1e-3, 500.0
        q = birth_death_generator(n, lam, 0.0)
        p0 = np.zeros(n + 1)
        p0[0] = 1.0
        p_window = -math.expm1(-lam * hours)
        expected = [binom_pmf(k, n, p_window) for k in range(n + 1)]
        np.testing.assert_allclose(ctmc_transient(q, p0, hours), expected, rtol=1e-11)

    def test_zero_time_and_zero_generator_return_the_start(self):
        p0 = np.array([0.25, 0.75])
        q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        np.testing.assert_array_equal(ctmc_transient(q, p0, 0.0), p0)
        np.testing.assert_array_equal(ctmc_transient(np.zeros((2, 2)), p0, 5.0), p0)

    @pytest.mark.parametrize(
        "model, hours",
        [
            (ClusterMarkovModel(16, 1e-3, 0.5), 87_600.0),  # stiff: Λt ≈ 4.5e4
            (ClusterMarkovModel(16, 1e-3, 0.5, repair_slots=16), 87_600.0),  # Λt ≈ 7e5
            (ClusterMarkovModel(9, 1e-4, 0.0), 8_760.0),  # absorbing: no repair
            (ClusterMarkovModel(5, 0.01, 0.1), 0.5),
        ],
    )
    def test_transient_distribution_is_a_distribution_unrepaired(self, model, hours):
        """What the chain hands out needs no clip and no renormalisation."""
        pt = model.chain().transient_distribution(0, hours)
        assert min(pt.values()) >= 0.0
        assert math.fsum(pt.values()) == pytest.approx(1.0, abs=1e-12)
        if model.repair_rate_per_hour > 0 and hours > 1e4:
            # Long past mixing: the birth-death product form, in exact
            # rationals.  A sum of non-negative terms keeps *relative*
            # accuracy down to states of mass 1e-44.
            weights = [Fraction(1)]
            for failed in range(model.n):
                up = Fraction((model.n - failed) * model.failure_rate_per_hour)
                down = Fraction(
                    min(failed + 1, model.repair_slots) * model.repair_rate_per_hour
                )
                weights.append(weights[-1] * up / down)
            for state, weight in enumerate(weights):
                assert pt[state] == pytest.approx(float(weight / sum(weights)), rel=1e-12)
