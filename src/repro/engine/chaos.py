"""Chaos self-test harness: inject faults into the campaign runtime itself.

The simulator injects faults into *clusters*; this module dogfoods the
same idea onto the execution layer, so every recovery path of
:func:`repro.runtime.run_supervised` can be proven in CI instead
of trusted.  A :class:`ChaosPlan` marks deterministically chosen shards
with worker faults:

``raise``
    The attempt raises :class:`ChaosInjectedError` (retry / degradation
    paths).
``hang``
    The attempt sleeps ``seconds`` before completing (timeout paths; pick
    ``seconds`` well above the supervision timeout).
``delay``
    The attempt sleeps ``seconds`` and then succeeds (slow-but-healthy
    shards must pass untouched).
``kill``
    Under a process pool the attempt kills its worker process outright
    (``os._exit``), exercising ``BrokenProcessPool`` requeue + pool
    rebuild.  Under thread/serial execution — where killing the worker
    would kill the caller — it downgrades to ``raise``.

Faults are deterministic in (shard index, attempt number): each shard's
attempt counter lives in a marker file under ``state_dir``, so the count
survives worker-process death — a ``times=1`` fault hits exactly the
first attempt and the retry succeeds, in every executor mode.  Attempts
for one shard are strictly sequential (the runtime never runs two
attempts of a shard concurrently... a timed-out *thread* attempt may
still be unwinding, so thread-mode hang tests should use ``times=1``,
which the abandoned attempt has already consumed).

The injection subsystem itself supplies the vocabulary:
:func:`chaos_from_fault_plan` compiles a declarative
:class:`repro.injection.FaultPlan` against a fleet of *shards* — crash
events become worker faults for the shards they name (fail-once when the
event schedules a recovery, permanent otherwise) and adversary shards
hang — so the same plan language that attacks simulated clusters attacks
the runtime that runs them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.errors import InvalidConfigurationError

#: Worker-fault kinds a chaos plan may inject.
CHAOS_KINDS = ("raise", "hang", "delay", "kill")

#: ``times`` value meaning "every attempt" (a permanently poisoned shard).
ALWAYS = -1


class ChaosInjectedError(RuntimeError):
    """The deliberate worker failure a ``raise`` chaos fault produces."""


@dataclass(frozen=True)
class ShardFault:
    """One shard's injected worker fault.

    ``times`` bounds how many attempts the fault affects (:data:`ALWAYS`
    = every attempt); ``seconds`` is the sleep for ``hang``/``delay``.
    """

    kind: str
    times: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise InvalidConfigurationError(
                f"unknown chaos fault kind {self.kind!r}; expected one of {CHAOS_KINDS}"
            )
        if self.times != ALWAYS and self.times < 1:
            raise InvalidConfigurationError(
                f"times must be >= 1 (or ALWAYS), got {self.times}"
            )
        if self.seconds < 0:
            raise InvalidConfigurationError(
                f"seconds must be >= 0, got {self.seconds}"
            )


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic shard-level fault assignment for one supervised run.

    ``state_dir`` holds the per-shard attempt markers; use a fresh
    temporary directory per run so attempt counts never leak between
    runs.  The plan travels inside the worker payload (it must pickle for
    process pools), and applies *before* the wrapped worker executes, so
    a faulted attempt never consumes its shard's random stream.
    """

    faults: tuple[tuple[int, ShardFault], ...]
    state_dir: str

    def __post_init__(self) -> None:
        faults = tuple(
            (int(index), fault) for index, fault in dict(self.faults).items()
        ) if isinstance(self.faults, Mapping) else tuple(self.faults)
        object.__setattr__(
            self, "faults", tuple(sorted(faults, key=lambda item: item[0]))
        )
        seen = set()
        for index, fault in self.faults:
            if index < 0:
                raise InvalidConfigurationError(
                    f"chaos shard index must be >= 0, got {index}"
                )
            if index in seen:
                raise InvalidConfigurationError(
                    f"duplicate chaos fault for shard {index}"
                )
            seen.add(index)
            if not isinstance(fault, ShardFault):
                raise InvalidConfigurationError(
                    "chaos faults must map shard index -> ShardFault"
                )
        if not str(self.state_dir):
            raise InvalidConfigurationError("chaos plan needs a state_dir")

    def fault_for(self, index: int) -> ShardFault | None:
        for shard, fault in self.faults:
            if shard == index:
                return fault
        return None

    def _attempt(self, index: int) -> int:
        """Record one attempt of shard ``index``; returns its 0-based number.

        The marker file's size is the attempt count — an append survives
        worker-process death, which is exactly what makes ``kill`` faults
        terminate: the respawned attempt sees the prior one happened.
        """
        directory = Path(self.state_dir)
        directory.mkdir(parents=True, exist_ok=True)
        marker = directory / f"shard-{index}.attempts"
        with marker.open("ab") as handle:
            handle.write(b".")
            handle.flush()
            os.fsync(handle.fileno())
            return handle.tell() - 1

    def apply(self, index: int, mode: str) -> None:
        """Inject shard ``index``'s fault for the current attempt, if any."""
        fault = self.fault_for(index)
        if fault is None:
            return
        attempt = self._attempt(index)
        if fault.times != ALWAYS and attempt >= fault.times:
            return
        if fault.kind == "delay":
            time.sleep(fault.seconds)
            return
        if fault.kind == "hang":
            time.sleep(fault.seconds)
            raise ChaosInjectedError(
                f"chaos hang on shard {index} outlived its sleep "
                "(supervision timeout should have fired first)"
            )
        if fault.kind == "kill" and mode == "process":
            os._exit(17)
        raise ChaosInjectedError(
            f"chaos {fault.kind} fault on shard {index} (attempt {attempt})"
        )

    def bind(self, worker, mode: str) -> "ChaosWorker":
        """Wrap ``worker`` for :func:`repro.runtime.run_supervised`."""
        return ChaosWorker(worker, self, mode)


@dataclass(frozen=True)
class ChaosWorker:
    """Picklable worker wrapper: inject the shard's fault, then delegate.

    The runtime hands it ``(shard_index, payload)`` pairs — the index is
    what makes injection deterministic and independent of worker count.
    """

    worker: object = field()
    plan: ChaosPlan = field()
    mode: str = "process"

    def __call__(self, indexed_payload):
        index, payload = indexed_payload
        self.plan.apply(index, self.mode)
        return self.worker(payload)


def chaos_from_fault_plan(
    plan,
    *,
    shards: int,
    state_dir: str,
    duration: float | None = None,
    hang_seconds: float = 0.5,
    seed: int = 0,
) -> ChaosPlan:
    """Compile a :class:`repro.injection.FaultPlan` into runtime chaos.

    The plan is compiled by :func:`repro.injection.compile_faults` against
    a zero-failure fleet of ``shards`` "nodes" (one per shard), drawing
    any stochastic choices from ``seed``.  Each compiled outage maps to a
    worker fault on its shard: an outage *with* a scheduled recovery
    fails the shard once (retry succeeds), a terminal outage poisons it
    permanently; adversary (Byzantine) shards hang for ``hang_seconds``
    once.  Network events have no runtime analogue and are ignored.
    """
    from repro._rng import as_generator
    from repro.faults.mixture import uniform_fleet
    from repro.injection.campaign import compile_faults

    if shards <= 0:
        raise InvalidConfigurationError(f"shards must be positive, got {shards}")
    span = float(duration) if duration is not None else float(max(shards, 2))
    compiled = compile_faults(
        plan,
        fleet=uniform_fleet(shards, 0.0),
        duration=span,
        crash_window=(0.0, span / 2),
        rng=as_generator(seed),
    )
    faults: dict[int, ShardFault] = {}
    for shard, _, recover in compiled.outages:
        faults[shard] = ShardFault(
            kind="raise", times=1 if recover is not None else ALWAYS
        )
    for shard in compiled.behaviours:
        faults.setdefault(
            shard, ShardFault(kind="hang", times=1, seconds=hang_seconds)
        )
    return ChaosPlan(faults=tuple(sorted(faults.items())), state_dir=state_dir)
