"""Execution policies: where the engine runs a scenario set's shards.

An :class:`ExecutionPolicy` is the engine-level counterpart of the
``jobs=``/``pool=`` parameters on the sampling estimators: it picks an
executor (``serial`` / ``thread`` / ``process``), a worker count and an
optional shard size, and :meth:`repro.engine.ReliabilityEngine.run` uses
it to

* fan independent single-estimator scenarios out over the pool, and
* run the sampling estimators' spawned-stream shards and the simulation
  campaigns' replica chunks on that pool.

A policy decides *where* shards run — never what numbers come out or
which dispatcher runs them.  Every value in an
:class:`~repro.engine.AnswerSet` depends on the queries and on
``shard_trials`` only: sampling always draws from ``SeedSequence.spawn``
children (see :mod:`repro.analysis.kernels`) and every fan-out goes
through :func:`repro.runtime.run_supervised`, so the default
:data:`SERIAL` policy, a thread pool and a process pool of any size give
byte-identical answers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import InvalidConfigurationError
from repro.runtime import EXECUTOR_MODES, Supervision


@dataclass(frozen=True)
class ExecutionPolicy:
    """How one :meth:`ReliabilityEngine.run` call executes.

    ``mode``
        ``"serial"`` — every shard runs in the calling thread (the default);
        ``"thread"`` — a thread pool (NumPy kernels release the GIL for
        much of the hot path, and nothing needs to pickle);
        ``"process"`` — a fork-based process pool (fully parallel Python;
        scenarios and estimator outputs must pickle).
    ``jobs``
        Worker count (≥ 1).  ``jobs`` never influences result values —
        only how many shards/scenarios are in flight at once.
    ``shard_trials``
        Optional per-shard trial budget for the sampling estimators under
        this policy; ``None`` uses the kernel layer's default plan.  Part
        of the determinism key (a different shard size is a different
        spawned-stream plan).
    ``timeout`` / ``retries`` / ``backoff`` / ``on_shard_failure``
        Fault-tolerance knobs of simulation campaigns, forwarded to the
        shard runtime as a :class:`~repro.runtime.Supervision` (see
        :attr:`supervision`).  None of them changes any result value —
        a retried shard re-executes the same spawned stream, so they are
        *not* part of the determinism key.  ``on_shard_failure="degrade"``
        opts campaigns into partial, provenance-flagged answers instead
        of a raised :class:`~repro.errors.ShardExecutionError`.
    ``checkpoint_dir``
        Directory for campaign checkpoint journals; ``None`` disables
        checkpoint/resume.  With it set, completed campaign shards journal
        as they finish and a rerun of the same campaign resumes from the
        journal, bit-identical to an uninterrupted run.
    ``chaos``
        Deterministic worker-fault injection for the runtime's own
        self-tests (a :class:`~repro.engine.chaos.ChaosPlan`); never set
        in production use.
    """

    mode: str = "serial"
    jobs: int = 1
    shard_trials: int | None = None
    timeout: float | None = None
    retries: int = 0
    backoff: float = 0.05
    on_shard_failure: str = "raise"
    checkpoint_dir: str | None = None
    chaos: object | None = None

    def __post_init__(self) -> None:
        if self.mode not in EXECUTOR_MODES:
            raise InvalidConfigurationError(
                f"unknown execution mode {self.mode!r}; expected one of {EXECUTOR_MODES}"
            )
        if not isinstance(self.jobs, int) or isinstance(self.jobs, bool):
            raise InvalidConfigurationError(
                f"jobs must be an integer, got {self.jobs!r}"
            )
        if self.jobs < 1:
            raise InvalidConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.mode == "serial" and self.jobs != 1:
            raise InvalidConfigurationError(
                "serial execution cannot use multiple workers; pick mode='thread' "
                "or mode='process'"
            )
        if self.shard_trials is not None:
            if not isinstance(self.shard_trials, int) or isinstance(
                self.shard_trials, bool
            ):
                raise InvalidConfigurationError(
                    f"shard_trials must be an integer, got {self.shard_trials!r}"
                )
            if self.shard_trials <= 0:
                raise InvalidConfigurationError(
                    f"shard_trials must be positive, got {self.shard_trials}"
                )
        # Delegate the supervision knobs' validation to Supervision so the
        # policy and the runtime can never disagree on what's legal.
        self.supervision

    @property
    def supervision(self) -> Supervision:
        """The :class:`~repro.runtime.Supervision` campaigns run under
        (the runtime's one-attempt default when no knob is set)."""
        return Supervision(
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
            on_shard_failure=self.on_shard_failure,
        )

    @property
    def parallel(self) -> bool:
        """Whether this policy runs work outside the calling thread."""
        return self.mode != "serial"

    @classmethod
    def from_jobs(
        cls, jobs: int | None, *, mode: str = "process", **supervision
    ) -> "ExecutionPolicy":
        """CLI-style constructor: ``--jobs N`` → a policy.

        ``None``/``0`` → the serial policy.  Any explicit ``N >= 1`` →
        ``N`` workers in ``mode``.  Negative → one worker per available
        CPU.  The numbers a user sees are identical for *every* value,
        unset included: shard plans never depend on the worker count or
        the executor.  Extra keyword arguments
        (``timeout=...``, ``retries=...``, ``on_shard_failure=...``,
        ``checkpoint_dir=...``) forward to the policy so ``--jobs`` and
        the fault-tolerance flags compose; supervision on a serial policy
        builds an explicit serial policy rather than returning
        :data:`SERIAL`.
        """
        if jobs is not None and (
            not isinstance(jobs, int) or isinstance(jobs, bool)
        ):
            raise InvalidConfigurationError(
                f"jobs must be an integer (or None), got {jobs!r}"
            )
        if jobs is None or jobs == 0:
            return cls(**supervision) if supervision else SERIAL
        if jobs < 0:
            jobs = os.cpu_count() or 1
        return cls(mode=mode, jobs=jobs, **supervision)

    @classmethod
    def for_service(
        cls,
        jobs: int | None,
        *,
        timeout: float | None = 60.0,
        retries: int = 1,
        on_shard_failure: str = "degrade",
        checkpoint_dir: str | None = None,
        shard_trials: int | None = None,
    ) -> "ExecutionPolicy":
        """The always-supervised policy a long-running daemon executes under.

        A shared service cannot afford the batch defaults: one hung or
        poisoned shard must never wedge a request thread (``timeout`` +
        ``retries``), a campaign that exhausts its retries should return a
        partial, provenance-flagged answer instead of a 500
        (``on_shard_failure="degrade"``), and completed shards journal to
        ``checkpoint_dir`` so a daemon restart resumes campaigns instead
        of recomputing them.  The mode is always ``"thread"`` — threads
        rather than processes because the campaign payloads share the
        daemon's warm engine and the NumPy kernels release the GIL on the
        hot path.  As everywhere else, neither the mode nor any
        supervision knob changes an answer value.
        """
        if jobs is not None and jobs < 0:
            jobs = os.cpu_count() or 1
        return cls(
            mode="thread",
            jobs=max(1, jobs or 1),
            shard_trials=shard_trials,
            timeout=timeout,
            retries=retries,
            on_shard_failure=on_shard_failure,
            checkpoint_dir=checkpoint_dir,
        )


#: The default policy: every shard in the calling thread.
SERIAL = ExecutionPolicy()
