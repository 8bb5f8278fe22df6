"""Unit tests for the CTMC toolkit and cluster Markov models."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest

from repro.errors import InvalidConfigurationError
from repro.markov.builders import ClusterMarkovModel, mttf_comparison
from repro.markov.chain import ContinuousTimeMarkovChain, TransitionRates


class TestChainBasics:
    def test_two_state_steady_state(self):
        # up -> down at rate λ, down -> up at rate μ: π_up = μ/(λ+μ).
        lam, mu = 0.2, 1.0
        chain = ContinuousTimeMarkovChain(
            ["up", "down"], TransitionRates({("up", "down"): lam, ("down", "up"): mu})
        )
        pi = chain.steady_state()
        assert pi["up"] == pytest.approx(mu / (lam + mu))
        assert pi["down"] == pytest.approx(lam / (lam + mu))

    def test_absorption_time_single_step(self):
        # One transient state with exit rate λ: E[T] = 1/λ.
        chain = ContinuousTimeMarkovChain(
            ["alive", "dead"], TransitionRates({("alive", "dead"): 0.25})
        )
        assert chain.expected_time_to_absorption("alive", ["dead"]) == pytest.approx(4.0)

    def test_absorption_time_two_steps(self):
        # a -> b -> c, rates 1 and 2: E[T] = 1 + 0.5.
        chain = ContinuousTimeMarkovChain(
            ["a", "b", "c"], TransitionRates({("a", "b"): 1.0, ("b", "c"): 2.0})
        )
        assert chain.expected_time_to_absorption("a", ["c"]) == pytest.approx(1.5)

    def test_absorption_probability_split(self):
        # a splits to b (rate 1) or c (rate 3): P(hit b first) = 1/4.
        chain = ContinuousTimeMarkovChain(
            ["a", "b", "c"], TransitionRates({("a", "b"): 1.0, ("a", "c"): 3.0})
        )
        assert chain.absorption_probability("a", ["b"], ["b", "c"]) == pytest.approx(0.25)

    def test_transient_distribution_decay(self):
        chain = ContinuousTimeMarkovChain(
            ["alive", "dead"], TransitionRates({("alive", "dead"): 1.0})
        )
        dist = chain.transient_distribution("alive", 2.0)
        assert dist["alive"] == pytest.approx(math.exp(-2.0))

    def test_unreachable_absorption_is_infinite(self):
        chain = ContinuousTimeMarkovChain(
            ["a", "b", "c"], TransitionRates({("a", "b"): 1.0, ("b", "a"): 1.0})
        )
        assert chain.expected_time_to_absorption("a", ["c"]) == math.inf

    def test_validation(self):
        with pytest.raises(InvalidConfigurationError):
            ContinuousTimeMarkovChain([], TransitionRates({}))
        with pytest.raises(InvalidConfigurationError):
            TransitionRates({("a", "a"): 1.0})
        with pytest.raises(InvalidConfigurationError):
            TransitionRates({("a", "b"): -1.0})
        with pytest.raises(InvalidConfigurationError):
            ContinuousTimeMarkovChain(["a"], TransitionRates({("a", "b"): 1.0}))


class TestClusterModel:
    def test_no_repair_mttf_harmonic_sum(self):
        # Without repair, E[time to all n failed] = Σ 1/(kλ) over survivors.
        n, lam = 3, 1e-3
        model = ClusterMarkovModel(n, lam, 0.0, repair_slots=0)
        expected = sum(1.0 / (k * lam) for k in range(1, n + 1))
        assert model.mean_time_to_failure_count(3) == pytest.approx(expected)

    def test_repair_extends_mttf(self):
        without = ClusterMarkovModel(5, 1e-3, 0.0).mttf_liveness(3)
        with_repair = ClusterMarkovModel(5, 1e-3, 0.1).mttf_liveness(3)
        assert with_repair > 10 * without

    def test_mttdl_exceeds_liveness_mttf(self):
        # Losing all quorum copies (4 down) takes longer than losing quorum
        # availability (3 down) in a 5-node majority system... here thresholds:
        model = ClusterMarkovModel(5, 1e-3, 0.05)
        assert model.mttdl(4) > model.mttf_liveness(3)

    def test_faster_nodes_fail_sooner(self):
        slow = ClusterMarkovModel(5, 1e-4, 0.01).mttf_liveness(3)
        fast = ClusterMarkovModel(5, 1e-2, 0.01).mttf_liveness(3)
        assert fast < slow

    def test_steady_state_availability_close_to_one(self):
        model = ClusterMarkovModel(5, 1e-4, 0.1)
        availability = model.steady_state_availability(3)
        assert 0.999 < availability < 1.0

    def test_availability_needs_repair(self):
        with pytest.raises(InvalidConfigurationError):
            ClusterMarkovModel(3, 1e-3, 0.0).steady_state_availability(2)

    def test_window_unavailability_matches_binomial(self):
        from scipy import stats

        model = ClusterMarkovModel(5, 1e-3, 0.0)
        window = 100.0
        p = -math.expm1(-1e-3 * window)
        expected = float(stats.binom.sf(2, 5, p))
        assert model.window_unavailability(3, window) == pytest.approx(expected)

    def test_repair_slots_parallelism(self):
        serial = ClusterMarkovModel(9, 1e-3, 0.05, repair_slots=1).mttf_liveness(5)
        parallel = ClusterMarkovModel(9, 1e-3, 0.05, repair_slots=9).mttf_liveness(5)
        assert parallel > serial

    def test_comparison_helper(self):
        models = {
            "3@1e-3": ClusterMarkovModel(3, 1e-3, 0.05),
            "5@1e-3": ClusterMarkovModel(5, 1e-3, 0.05),
        }
        result = mttf_comparison(models, {"3@1e-3": 2, "5@1e-3": 3})
        assert result["5@1e-3"] > result["3@1e-3"]

    def test_comparison_missing_quorum(self):
        with pytest.raises(InvalidConfigurationError):
            mttf_comparison({"x": ClusterMarkovModel(3, 1e-3, 0.0)}, {})

    def test_validation(self):
        with pytest.raises(InvalidConfigurationError):
            ClusterMarkovModel(0, 1e-3, 0.0)
        with pytest.raises(InvalidConfigurationError):
            ClusterMarkovModel(3, -1e-3, 0.0)
        with pytest.raises(InvalidConfigurationError):
            ClusterMarkovModel(3, 1e-3, 0.0).mttdl(4)


def _solve_exact(rows: list[dict], rhs: list) -> list | None:
    """``A·x = rhs`` by Gaussian elimination in rationals (``A`` as sparse
    rows ``{column: Fraction}``); ``None`` when ``A`` is singular."""
    rows, rhs, size = [dict(row) for row in rows], list(rhs), len(rows)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r].get(col)), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for r in range(col + 1, size):
            if rows[r].get(col):
                factor = rows[r][col] / rows[col][col]
                for c, value in rows[col].items():
                    rows[r][c] = rows[r].get(c, 0) - factor * value
                rhs[r] -= factor * rhs[col]
    x = [Fraction(0)] * size
    for r in reversed(range(size)):
        tail = sum(value * x[c] for c, value in rows[r].items() if c > r)
        x[r] = (rhs[r] - tail) / rows[r][r]
    return x


def _exact_generator(model: ClusterMarkovModel, top: int) -> list[dict]:
    """Rows ``0..top-1`` of the chain's generator in exact rationals,
    restricted to states ``0..top`` (the rates of the model's floats)."""
    lam, mu = Fraction(model.failure_rate_per_hour), Fraction(model.repair_rate_per_hour)
    rows = []
    for k in range(top):
        row = {k + 1: (model.n - k) * lam}
        if k:
            row[k - 1] = min(k, model.repair_slots) * mu
        row[k] = -sum(row.values())
        rows.append(row)
    return rows


def _exact_mttf(model: ClusterMarkovModel, threshold: int) -> Fraction | None:
    """Mean hours to ``threshold`` failures: ``Q_tt·t = -1`` on the transient
    block (states below the threshold), solved exactly; ``None`` when the
    threshold is never reached."""
    block = [
        {c: v for c, v in row.items() if c < threshold}
        for row in _exact_generator(model, threshold)
    ]
    times = _solve_exact(block, [Fraction(-1)] * threshold)
    return None if times is None else times[0]


def _exact_pi(model: ClusterMarkovModel) -> list | None:
    """π by exact global balance: ``πQ = 0`` with ``Σπ = 1`` in place of the
    last balance equation; ``None`` when no stationary law is unique."""
    n = model.n
    generator = _exact_generator(model, n) + [{n - 1: min(n, model.repair_slots)
                                               * Fraction(model.repair_rate_per_hour)}]
    generator[n][n] = -generator[n][n - 1]
    balance = [{} for _ in range(n + 1)]  # rows of Q transposed
    for src, row in enumerate(generator):
        for dst, rate in row.items():
            if rate:
                balance[dst][src] = rate
    balance[n] = {state: Fraction(1) for state in range(n + 1)}
    return _solve_exact(balance, [Fraction(0)] * n + [Fraction(1)])


def _assert_close(value: float, exact: Fraction, rel: float = 1e-12) -> None:
    """``value`` within ``rel`` of ``exact``; ``inf`` past the float range,
    and an absolute 1e-300 where the exact value is below the normal range
    by a margin (subnormals carry fewer bits)."""
    if exact > Fraction(sys.float_info.max):
        assert value == math.inf
    elif exact < Fraction(1e-290):
        assert abs(Fraction(value) - exact) <= Fraction(1e-300)
    else:
        assert abs(Fraction(value) - exact) <= Fraction(rel) * exact, (value, float(exact))


def _ref_sequential_availability(model: ClusterMarkovModel, quorum_size: int, pi) -> float:
    """The per-quorum sum as Python 3.11's builtin ``sum()`` computed it:
    strictly left to right, starting from the integer 0, capped at one."""
    total = 0
    for failed, p in pi.items():
        if failed <= model.n - quorum_size:
            total += p
    return min(total, 1.0)


#: (λ, μ) per hour: repairable chains, μ = 0, and λ = 0 (never absorbed).
_RATES = [(1e-3, 0.1), (2e-5, 0.05), (0.3, 0.002), (1e-3, 0.0), (0.0, 0.1)]


class TestSharedChain:
    """Every threshold and quorum of a model is read off one closed-form
    pass, held to exact rational arithmetic on the chain's generator."""

    @pytest.mark.parametrize("rates", _RATES, ids=lambda r: f"lam={r[0]},mu={r[1]}")
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 17, 79])
    def test_closed_form_equals_exact_rational_arithmetic(self, n, rates):
        for slots in sorted({0, 1, n}):
            model = ClusterMarkovModel(n, *rates, repair_slots=slots)
            for threshold in range(1, n + 1):
                exact = _exact_mttf(model, threshold)
                value = model.mean_time_to_failure_count(threshold)
                if exact is None:  # λ = 0: never absorbed
                    assert value == math.inf
                else:
                    _assert_close(value, exact)
            if rates[1] == 0:
                continue  # π is asked of repairable chains only
            exact_pi = _exact_pi(model)
            if exact_pi is None:  # λ = 0 and no repair slot: every state absorbs
                with pytest.raises(InvalidConfigurationError, match="undefined"):
                    model.steady_state_distribution()
                continue
            pi = model.steady_state_distribution()
            assert list(pi) == list(range(n + 1))
            for value, exact in zip(pi.values(), exact_pi):
                _assert_close(value, exact)
            quorums = list(range(-1, n + 3))
            values = model.steady_state_availabilities(quorums)
            for quorum, value in zip(quorums, values):
                exact = sum(exact_pi[: max(min(n - quorum + 1, n + 1), 0)], Fraction(0))
                _assert_close(value, exact)
                reference = _ref_sequential_availability(model, quorum, pi)
                assert value == reference
                assert model.steady_state_availability(quorum, pi=pi) == reference
                if sys.version_info < (3, 12):
                    assert value == min(
                        sum(p for failed, p in pi.items() if failed <= n - quorum), 1.0
                    )

    def test_stiff_chain_mttf_is_finite_and_exact(self):
        # λ = 2e-5/h, μ = 0.05/h, one repair slot, majority quorum: a dense
        # solve of the generator read n = 17 nine times low and n = 79 as
        # 1.07e19 against 3.96e66.
        for n in (9, 13, 17, 79):
            model = ClusterMarkovModel(n, 2e-5, 0.05, repair_slots=1)
            value = model.mttf_liveness(n // 2 + 1)
            assert math.isfinite(value)
            _assert_close(value, _exact_mttf(model, n - (n // 2 + 1) + 1))
        assert ClusterMarkovModel(79, 2e-5, 0.05).mttf_liveness(40) == pytest.approx(
            3.96e66, rel=1e-2
        )

    def test_the_oracle_reads_the_truncated_chain(self):
        # Control: on a small chain with λ near μ the dense solve of the
        # truncated generator is well conditioned and agrees with the
        # rational oracle.
        model = ClusterMarkovModel(5, 0.05, 0.1, repair_slots=2)
        for threshold in range(1, 6):
            dense = model.chain(absorbing_at=threshold).expected_time_to_absorption(
                0, [threshold]
            )
            _assert_close(dense, _exact_mttf(model, threshold), rel=1e-9)
        dense_pi = model.chain().steady_state()
        for state, exact in enumerate(_exact_pi(model)):
            _assert_close(dense_pi[state], exact, rel=1e-9)

    def test_threshold_outside_the_chain_is_rejected(self):
        model = ClusterMarkovModel(5, 1e-3, 0.1)
        for threshold in (0, 6):
            with pytest.raises(InvalidConfigurationError, match="outside"):
                model.mean_time_to_failure_count(threshold)

    def test_availability_accumulates_sequentially(self):
        # Python >= 3.12's builtin sum() compensates and reads
        # 1.000000000000001 here; the sequential prefix reads 1.0.
        pi = {0: 1.0, **{failed: 1e-16 for failed in range(1, 11)}}
        model = ClusterMarkovModel(10, 1e-3, 0.1)
        assert model.steady_state_availability(0, pi=pi) == 1.0
        assert model.steady_state_availabilities([11, 1], pi=pi) == [0, 1.0]

    def test_no_generator_is_built_for_a_chain_key(self, monkeypatch):
        from repro.engine import AvailabilityQuery, MTTFQuery, ReliabilityEngine

        def refuse(*_args, **_kwargs):
            raise AssertionError("generator built")

        monkeypatch.setattr(ContinuousTimeMarkovChain, "__init__", refuse)
        for cls in (MTTFQuery, AvailabilityQuery):
            queries = [
                cls.for_cluster(n, afr=afr, mttr_hours=24.0, quorum_size=quorum)
                for n, afr in ((9, 0.05), (13, 0.1))
                for quorum in range(n // 2 + 1, n + 1)
            ]
            answers = ReliabilityEngine().run(queries)
            assert len(answers) == len(queries)
        # Control: the patch does reach a generator build.
        with pytest.raises(AssertionError, match="generator built"):
            ClusterMarkovModel(9, 1e-3, 0.1).chain()
