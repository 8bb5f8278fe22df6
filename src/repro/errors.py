"""Exception hierarchy for :mod:`repro`.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class InvalidProbabilityError(ReproError, ValueError):
    """A probability argument fell outside the closed interval [0, 1]."""


class InvalidConfigurationError(ReproError, ValueError):
    """A cluster / quorum / protocol configuration is internally inconsistent.

    Examples: a quorum larger than the cluster, a negative node count, or a
    fleet whose per-node crash+Byzantine probabilities exceed 1.
    """


class EstimationError(ReproError, RuntimeError):
    """A probability estimator could not produce a usable estimate."""


class UnknownMethodError(EstimationError, InvalidConfigurationError):
    """An analysis method no estimator answers.  Refused where a scenario
    is built, so it is a configuration error as well as the estimation
    error an unknown method has always raised."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulator reached an inconsistent internal state."""


class ShardExecutionError(ReproError, RuntimeError):
    """A supervised shard exhausted its retry budget (or its worker pool
    could not be kept alive) and the execution policy said to raise.

    Raised by :mod:`repro.runtime` with the failing shard's index
    and failure kind in the message; the original worker exception, when
    there is one, is chained as ``__cause__``.
    """


class FittingError(ReproError, RuntimeError):
    """Fault-curve fitting failed (degenerate data, non-convergence, ...)."""
