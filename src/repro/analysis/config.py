"""Failure configurations (paper §3).

The paper's analysis enumerates the ``2^N`` (or ``3^N`` once crash and
Byzantine outcomes are distinguished) *failure configurations* of a
deployment and classifies each as safe/live under a protocol's invariants.
:class:`FailureConfig` is that object: an assignment of an outcome to every
node for the analysis window.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from repro.errors import InvalidConfigurationError


class FaultKind(enum.Enum):
    """Outcome of one node over the analysis window."""

    CORRECT = "correct"
    CRASH = "crash"
    BYZANTINE = "byzantine"


@dataclass(frozen=True)
class FailureConfig:
    """An immutable assignment of a :class:`FaultKind` to every node.

    Index ``i`` of :attr:`kinds` is node ``i``'s outcome.  Configurations
    are hashable so analysis code can memoise predicate evaluations.
    """

    kinds: tuple[FaultKind, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(k, FaultKind) for k in self.kinds):
            raise InvalidConfigurationError("kinds must all be FaultKind members")

    # -- constructors -------------------------------------------------------
    @classmethod
    def all_correct(cls, n: int) -> "FailureConfig":
        """The failure-free configuration of ``n`` nodes."""
        return cls((FaultKind.CORRECT,) * n)

    @classmethod
    def from_failed_indices(
        cls,
        n: int,
        failed: Iterable[int],
        kind: FaultKind = FaultKind.CRASH,
    ) -> "FailureConfig":
        """Configuration where ``failed`` indices have outcome ``kind``."""
        if kind is FaultKind.CORRECT:
            raise InvalidConfigurationError("failed nodes cannot have kind CORRECT")
        kinds = [FaultKind.CORRECT] * n
        for index in failed:
            if not 0 <= index < n:
                raise InvalidConfigurationError(f"node index {index} out of range for n={n}")
            kinds[index] = kind
        return cls(tuple(kinds))

    @classmethod
    def from_counts(cls, n_correct: int, n_crash: int, n_byzantine: int) -> "FailureConfig":
        """Canonical configuration with the given outcome counts.

        Nodes are laid out correct-first, then crashed, then Byzantine;
        symmetric protocol predicates only look at the counts so the layout
        is immaterial for them.
        """
        for name, value in (
            ("n_correct", n_correct),
            ("n_crash", n_crash),
            ("n_byzantine", n_byzantine),
        ):
            if value < 0:
                raise InvalidConfigurationError(f"{name} must be non-negative, got {value}")
        return cls(
            (FaultKind.CORRECT,) * n_correct
            + (FaultKind.CRASH,) * n_crash
            + (FaultKind.BYZANTINE,) * n_byzantine
        )

    # -- container protocol ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[FaultKind]:
        return iter(self.kinds)

    def __getitem__(self, index: int) -> FaultKind:
        return self.kinds[index]

    # -- derived views ----------------------------------------------------------
    @property
    def n(self) -> int:
        """Deployment size."""
        return len(self.kinds)

    @cached_property
    def correct_indices(self) -> frozenset[int]:
        return frozenset(i for i, k in enumerate(self.kinds) if k is FaultKind.CORRECT)

    @cached_property
    def crashed_indices(self) -> frozenset[int]:
        return frozenset(i for i, k in enumerate(self.kinds) if k is FaultKind.CRASH)

    @cached_property
    def byzantine_indices(self) -> frozenset[int]:
        return frozenset(i for i, k in enumerate(self.kinds) if k is FaultKind.BYZANTINE)

    @cached_property
    def failed_indices(self) -> frozenset[int]:
        return self.crashed_indices | self.byzantine_indices

    @property
    def num_correct(self) -> int:
        return len(self.correct_indices)

    @property
    def num_crashed(self) -> int:
        return len(self.crashed_indices)

    @property
    def num_byzantine(self) -> int:
        return len(self.byzantine_indices)

    @property
    def num_failed(self) -> int:
        return self.num_crashed + self.num_byzantine

    def with_kind(self, index: int, kind: FaultKind) -> "FailureConfig":
        """Return a configuration with node ``index`` reassigned to ``kind``."""
        if not 0 <= index < self.n:
            raise InvalidConfigurationError(f"node index {index} out of range for n={self.n}")
        kinds = list(self.kinds)
        kinds[index] = kind
        return FailureConfig(tuple(kinds))

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``.XB.`` (correct, crash, byz, correct)."""
        symbols = {FaultKind.CORRECT: ".", FaultKind.CRASH: "X", FaultKind.BYZANTINE: "B"}
        return "".join(symbols[k] for k in self.kinds)


def config_probability(
    config: FailureConfig,
    crash_probabilities: Sequence[float],
    byzantine_probabilities: Sequence[float],
) -> float:
    """Probability of ``config`` under independent per-node outcome draws."""
    if len(crash_probabilities) != config.n or len(byzantine_probabilities) != config.n:
        raise InvalidConfigurationError("probability vectors must match configuration size")
    probability = 1.0
    for index, kind in enumerate(config.kinds):
        p_crash = crash_probabilities[index]
        p_byz = byzantine_probabilities[index]
        if kind is FaultKind.CRASH:
            probability *= p_crash
        elif kind is FaultKind.BYZANTINE:
            probability *= p_byz
        else:
            probability *= 1.0 - p_crash - p_byz
    return probability
