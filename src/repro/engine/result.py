"""Engine results: per-question answers plus execution provenance.

An :class:`AnswerSet` — the ordered result of one
:meth:`~repro.engine.ReliabilityEngine.run` submission — answers two
questions at once: *what are the numbers* (one typed value per query, in
submission order, bit-identical to the scalar estimators and builders)
and *how were they produced* (which backend and estimator ran, whether
the memo or a shared batch served the row, how many shards) — the
provenance an operator needs to trust a wall of nines.  How long it took
is not part of an answer: :mod:`repro.obs` spans time what runs.

An :class:`Answer` pairs a :class:`~repro.engine.query.Query` with its
value — a :class:`~repro.analysis.result.ReliabilityResult`, an
:class:`AvailabilityAnswer`, an :class:`MTTFAnswer` or a
:class:`SimulationAnswer` — and a :class:`Provenance`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.result import (
    Estimate,
    ReliabilityResult,
    format_probability,
    nines,
)
from repro.engine.query import Query
from repro.engine.scenario import Scenario
from repro.faults.curves import HOURS_PER_YEAR
from repro.runtime import RunReport


@dataclass(frozen=True)
class Provenance:
    """How one question's numbers were obtained.

    ``shards`` counts the spawned-stream shards a sampling estimator (or a
    simulation campaign) split its budget into — a function of the budget
    and the policy's ``shard_trials``, never of the executor (1 for exact
    estimators).  ``backend`` names the query backend that produced the
    answer — the query's kind, whichever door the query came in through
    (:meth:`describe` reads ``reliability:counting/batch[8]``).

    ``degraded`` marks a partial answer: the shard runtime dropped
    ``dropped_shards`` after exhausting their retries (opt-in via
    ``ExecutionPolicy(on_shard_failure="degrade")``), and
    ``effective_trials`` is the trial/replica count actually aggregated.
    All three stay at their defaults on complete answers so complete-run
    provenance (including :meth:`describe` strings and JSON forms) is
    byte-identical whatever the supervision knobs.

    ``report`` carries the full :class:`~repro.runtime.RunReport` of a
    computed campaign (attempts, timeouts, retries, rebuilds, restores;
    ``None`` on memo hits and non-campaign answers).  It is execution
    telemetry, not part of the answer: it
    never enters :meth:`Answer.to_dict` (recovery must not change output
    bytes) — surfacing layers (``repro-analyze query --json``, the serve
    ndjson stream) attach it as a separate ``"run"`` key.
    """

    estimator: str
    cache_hit: bool = False
    batched: bool = False
    batch_size: int = 1
    shards: int = 1
    backend: str = ""
    degraded: bool = False
    dropped_shards: tuple[int, ...] = ()
    effective_trials: int | None = None
    report: RunReport | None = None

    def describe(self) -> str:
        source = "cache" if self.cache_hit else (
            f"batch[{self.batch_size}]" if self.batched else "solo"
        )
        suffix = f"/shards[{self.shards}]" if self.shards > 1 else ""
        if self.degraded:
            suffix += f"/degraded[{len(self.dropped_shards)}]"
        head = f"{self.backend}:{self.estimator}" if self.backend else self.estimator
        return f"{head}/{source}{suffix}"


# ---------------------------------------------------------------------------
# Typed time-domain answer values
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AvailabilityAnswer:
    """Steady-state availability of a quorum under repair.

    ``availability`` is the long-run fraction of time a ``quorum_size``
    quorum is formable — bit-identical to
    :meth:`repro.markov.builders.ClusterMarkovModel.steady_state_availability`.
    ``window_unavailability`` is present when the query asked about a
    window (no-mid-window-repair loss-of-quorum probability).
    """

    quorum_size: int
    availability: float
    window_hours: float | None = None
    window_unavailability: float | None = None

    @property
    def unavailability(self) -> float:
        return 1.0 - self.availability

    @property
    def availability_nines(self) -> float:
        return nines(self.availability)

    def describe(self) -> str:
        text = f"availability {self.availability:.10f} ({self.availability_nines:.2f} nines)"
        if self.window_unavailability is not None:
            text += f", P(down @ {self.window_hours:g}h window) {self.window_unavailability:.3e}"
        return text

    def to_dict(self) -> dict:
        data = {
            "quorum_size": self.quorum_size,
            "availability": self.availability,
            "availability_nines": self.availability_nines,
        }
        if self.window_unavailability is not None:
            data["window_hours"] = self.window_hours
            data["window_unavailability"] = self.window_unavailability
        return data


@dataclass(frozen=True)
class MTTFAnswer:
    """Mean hours to losing liveness (MTTF) and to losing data (MTTDL)."""

    quorum_size: int
    persistence_quorum: int
    mttf_hours: float
    mttdl_hours: float

    @property
    def mttf_years(self) -> float:
        return self.mttf_hours / HOURS_PER_YEAR

    @property
    def mttdl_years(self) -> float:
        return self.mttdl_hours / HOURS_PER_YEAR

    def describe(self) -> str:
        return f"MTTF {self.mttf_years:.3e} yr, MTTDL {self.mttdl_years:.3e} yr"

    def to_dict(self) -> dict:
        return {
            "quorum_size": self.quorum_size,
            "persistence_quorum": self.persistence_quorum,
            "mttf_hours": self.mttf_hours,
            "mttf_years": self.mttf_years,
            "mttdl_hours": self.mttdl_hours,
            "mttdl_years": self.mttdl_years,
        }


@dataclass(frozen=True)
class SimulationAnswer:
    """Audited verdicts of a seeded simulation campaign.

    Violation rates are binomial proportions over ``replicas`` runs with
    Wilson 95% bounds (:class:`~repro.analysis.result.Estimate`).
    ``predicate_mismatches`` counts runs whose trace-level liveness verdict
    disagreed with the §3 predicate for the injected configuration — the
    simulator-vs-theory validation loop as a first-class number.
    ``partition_era_liveness_violations`` counts the stalled runs whose
    missing commands were *all* submitted during an injected network
    partition — a timing-based attribution separating stalls the
    partition plausibly explains from clear-network ones (a concurrent
    quorum-destroying crash can also stall a partition-era command).
    """

    replicas: int
    safety_violations: int
    liveness_violations: int
    predicate_mismatches: int
    safety_violation_rate: Estimate
    liveness_violation_rate: Estimate
    partition_era_liveness_violations: int = 0

    def describe(self) -> str:
        sv, lv = self.safety_violation_rate, self.liveness_violation_rate
        text = (
            f"{self.replicas} runs: unsafe {sv.value:.3f} "
            f"[{sv.ci_low:.3f}, {sv.ci_high:.3f}], "
            f"stalled {lv.value:.3f} [{lv.ci_low:.3f}, {lv.ci_high:.3f}]"
        )
        if self.partition_era_liveness_violations:
            text += f" ({self.partition_era_liveness_violations} partition-era)"
        return text

    def to_dict(self) -> dict:
        data = {
            "replicas": self.replicas,
            "safety_violations": self.safety_violations,
            "liveness_violations": self.liveness_violations,
            "predicate_mismatches": self.predicate_mismatches,
            "safety_violation_rate": self.safety_violation_rate.value,
            "safety_ci": [
                self.safety_violation_rate.ci_low,
                self.safety_violation_rate.ci_high,
            ],
            "liveness_violation_rate": self.liveness_violation_rate.value,
            "liveness_ci": [
                self.liveness_violation_rate.ci_low,
                self.liveness_violation_rate.ci_high,
            ],
        }
        if self.partition_era_liveness_violations:
            data["partition_era_liveness_violations"] = (
                self.partition_era_liveness_violations
            )
        return data


def describe_answer_value(value: object) -> str:
    """One-line rendering of any answer value (CLI table cell)."""
    if isinstance(value, ReliabilityResult):
        return (
            f"safe {format_probability(value.safe.value)}, "
            f"live {format_probability(value.live.value)}, "
            f"S&L {format_probability(value.safe_and_live.value)}"
        )
    describe = getattr(value, "describe", None)
    return describe() if callable(describe) else repr(value)


def answer_value_to_dict(value: object) -> dict:
    """JSON-ready form of any answer value (CLI ``--json`` output)."""
    if isinstance(value, ReliabilityResult):
        return {
            "protocol": value.protocol,
            "n": value.n,
            "method": value.method,
            "safe": value.safe.value,
            "live": value.live.value,
            "safe_and_live": value.safe_and_live.value,
        }
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    return {"value": repr(value)}


# ---------------------------------------------------------------------------
# Answers
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Answer:
    """One query, its typed answer value, and how it was computed."""

    query: Query
    value: object
    provenance: Provenance

    @property
    def scenario(self) -> Scenario:
        return self.query.scenario

    @property
    def kind(self) -> str:
        return self.query.kind

    def to_dict(self) -> dict:
        """JSON-ready row: question identity + value + provenance.

        Degradation keys appear only on degraded answers, so complete
        runs — supervised or not, resumed or not — serialise to
        byte-identical JSON.
        """
        data = {
            "kind": self.kind,
            "label": self.query.label,
            "n": self.query.n,
            "answer": answer_value_to_dict(self.value),
            "backend": self.provenance.backend or self.provenance.estimator,
            "cache_hit": self.provenance.cache_hit,
            "batched": self.provenance.batched,
            "shards": self.provenance.shards,
        }
        if self.provenance.degraded:
            data["degraded"] = True
            data["dropped_shards"] = list(self.provenance.dropped_shards)
            if self.provenance.effective_trials is not None:
                data["effective_trials"] = self.provenance.effective_trials
        return data


def wire_row(answer: Answer) -> dict:
    """What both doors print for one answer: its dict plus the supervision
    ``run`` report when one exists.

    The report rides ``Provenance.report`` and is attached here — at the
    wire layer — rather than inside :meth:`Answer.to_dict`, so recovered
    and clean campaigns keep byte-identical answer payloads.
    """
    row = answer.to_dict()
    report = answer.provenance.report
    if report is not None:
        row["run"] = report.to_dict()
    return row


@dataclass(frozen=True)
class AnswerSet:
    """Ordered answers of one mixed-kind :meth:`ReliabilityEngine.run` call."""

    answers: tuple[Answer, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator[Answer]:
        return iter(self.answers)

    def __getitem__(self, index: int) -> Answer:
        return self.answers[index]

    @property
    def values(self) -> list[object]:
        """Per-query answer values in submission order."""
        return [answer.value for answer in self.answers]

    @property
    def cache_hits(self) -> int:
        return sum(1 for answer in self.answers if answer.provenance.cache_hit)

    def table(self) -> list[dict[str, str]]:
        """Mixed-kind rows for CLI rendering."""
        rows = []
        for answer in self.answers:
            rows.append(
                {
                    "label": answer.query.label or f"{answer.kind}/n={answer.query.n}",
                    "kind": answer.kind,
                    "N": str(answer.query.n),
                    "answer": describe_answer_value(answer.value),
                    "via": answer.provenance.describe(),
                }
            )
        return rows
