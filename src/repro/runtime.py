"""Fault-tolerant shard execution: the one dispatcher every fan-out uses.

Every sharded execution path in this repository — spawned-stream
Monte-Carlo and importance-sampling shards, engine scenario fan-out,
simulation campaigns — maps its payloads through
:func:`run_supervised`.  With the default :class:`Supervision` that is one
attempt per shard and the chronologically first worker exception
propagating *as itself*; the knobs add per-shard wall-clock **timeouts**,
bounded **retry** with exponential backoff, **worker-loss recovery** (a
``BrokenProcessPool`` or dead worker requeues only the in-flight shards
onto a rebuilt pool instead of raising), **graceful degradation** (a
shard that exhausts its retries can be dropped and reported instead of
failing the campaign) and **checkpoint/resume** through a
:class:`CampaignCheckpoint`.

**Checkpoint contract.**  A checkpoint is a directory holding one file
per completed shard, each written under a private temp name, fsync'd
and atomically renamed into place, then the directory fsync'd.  A shard
file is therefore whole or absent: a crash loses at most the shard being
recorded, and a damaged, oversized or foreign file is skipped and its
shard recomputed (bit-identically, see below) instead of corrupting the
resumed answer.

**Determinism contract.**  A retried shard must be bit-identical to a
first-try shard.  Workers may mutate their payload's generator in place
(thread and serial pools share objects with the caller), so retries
never reuse a possibly-advanced payload: callers pass ``rebuild(index)``,
which reconstructs shard ``index``'s payload from its original
``SeedSequence.spawn`` child (see
:func:`repro.analysis.kernels.spawn_shard_sequences`).  Rebuilding from
the same child sequence yields the same stream, so every jobs/mode
invariance contract survives timeouts, retries and pool rebuilds.
Results merge in shard order regardless of completion order.

**Error contract.**  With ``retries=0`` and ``on_shard_failure="raise"``
(the defaults) a worker exception is re-raised unchanged, original
traceback included — an estimator's ``InvalidConfigurationError`` is what
the CLI prints and what the daemon maps to a 422, at any worker count.
:class:`~repro.errors.ShardExecutionError` is reserved for what has no
single original to re-raise: exhausted retries, timeouts and
unattributed worker loss.

Layering note: this module depends only on the standard library,
:mod:`repro.errors`, and the stdlib-only :mod:`repro.obs` tracing layer;
it sits below :mod:`repro.analysis` and :mod:`repro.engine`, which both
import it at module top.
"""

from __future__ import annotations

import json
import hashlib
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import InvalidConfigurationError, ShardExecutionError
from repro.obs import clock as obs_clock
from repro.obs.trace import current_tracer

#: Executor modes of :func:`run_supervised` (and of an ``ExecutionPolicy``).
EXECUTOR_MODES = ("serial", "thread", "process")

#: What to do with a shard that exhausted its retries.
FAILURE_MODES = ("raise", "degrade")


# ---------------------------------------------------------------------------
# Supervision policy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Supervision:
    """Fault-tolerance parameters of one supervised execution.

    ``timeout``
        Per-shard wall clock in seconds; ``None`` disables.  A timed-out
        thread attempt is abandoned (threads cannot be interrupted — the
        stray attempt's result is discarded when it eventually lands); a
        timed-out process attempt terminates the worker pool, and the
        other in-flight shards are requeued onto a rebuilt pool at no
        cost to their retry budgets.  Only a pooled run enforces it:
        whenever ``jobs <= 1``, there is one shard, or ``mode ==
        "serial"``, :func:`run_supervised` runs every shard in the calling
        thread, which it cannot preempt, so ``timeout`` does nothing there
        (three 0.5 s shards under ``timeout=0.1`` take 1.5 s at
        ``jobs=1`` with no timeout recorded).
    ``retries``
        How many times one shard may be re-executed after a failed
        attempt (worker exception or timeout).  Retries re-execute the
        same spawned shard stream via ``rebuild`` — bit-identical to a
        first-try shard.
    ``backoff``
        Base of the exponential retry delay: attempt ``k``'s retry waits
        ``backoff * 2**(k-1)`` seconds before resubmission.
    ``on_shard_failure``
        ``"raise"`` (default): with ``retries=0`` a worker exception
        propagates as itself; a shard that exhausts a non-zero retry
        budget (or times out, or is lost with its worker) raises
        :class:`~repro.errors.ShardExecutionError`, chaining the last
        worker exception.  ``"degrade"``: the shard is dropped, its
        result slot stays ``None``, and the :class:`RunReport` records the
        drop so callers can return a partial, provenance-flagged answer.
    ``max_pool_rebuilds``
        Bound on *unattributed* pool losses (``BrokenProcessPool`` — the
        runtime cannot know which shard killed the worker, so requeues do
        not consume retry budgets).  Once exceeded, the shards in flight
        at the break are treated as failed (raise or degrade per
        ``on_shard_failure``) so a poisoned shard cannot rebuild forever.
        Timeout-triggered rebuilds are attributed to the overdue shard
        and never count against this bound.
    """

    timeout: float | None = None
    retries: int = 0
    backoff: float = 0.05
    on_shard_failure: str = "raise"
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        if self.timeout is not None and not self.timeout > 0:
            raise InvalidConfigurationError(
                f"timeout must be positive (or None), got {self.timeout}"
            )
        if not isinstance(self.retries, int) or isinstance(self.retries, bool):
            raise InvalidConfigurationError(
                f"retries must be an integer, got {self.retries!r}"
            )
        if self.retries < 0:
            raise InvalidConfigurationError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.backoff < 0:
            raise InvalidConfigurationError(
                f"backoff must be >= 0, got {self.backoff}"
            )
        if self.on_shard_failure not in FAILURE_MODES:
            raise InvalidConfigurationError(
                f"unknown on_shard_failure {self.on_shard_failure!r}; "
                f"expected one of {FAILURE_MODES}"
            )
        if self.max_pool_rebuilds < 0:
            raise InvalidConfigurationError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )


@dataclass(frozen=True)
class RunReport:
    """What one supervised execution survived.

    ``dropped`` holds the shard indices abandoned after exhausting their
    retries (empty unless ``on_shard_failure="degrade"`` let the run
    continue); ``failures`` pairs each dropped shard with its last
    failure kind (``"error"``, ``"timeout"`` or ``"worker-loss"``).
    ``attempts`` counts worker invocations actually dispatched,
    ``restored`` the shards served straight from a checkpoint journal.
    """

    shards: int
    completed: int
    dropped: tuple[int, ...] = ()
    retried: tuple[int, ...] = ()
    failures: tuple[tuple[int, str], ...] = ()
    attempts: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    restored: int = 0

    @property
    def degraded(self) -> bool:
        """Whether the run dropped shards (partial results)."""
        return bool(self.dropped)

    def to_dict(self) -> dict:
        """JSON-ready form (stable schema, used by ``query --json`` rows)."""
        return {
            "shards": self.shards,
            "completed": self.completed,
            "attempts": self.attempts,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "restored": self.restored,
            "retried": list(self.retried),
            "dropped": list(self.dropped),
            "failures": [[index, kind] for index, kind in self.failures],
            "degraded": self.degraded,
        }


# ---------------------------------------------------------------------------
# Checkpoint journal
# ---------------------------------------------------------------------------
def _fsync_dir(path: Path) -> None:
    """Make the entries of directory ``path`` (creations, renames) durable."""
    handle = os.open(path, os.O_RDONLY)
    try:
        os.fsync(handle)
    finally:
        os.close(handle)


class CampaignCheckpoint:
    """Completed shard results of one campaign: a directory, one file per shard.

    Shard ``i`` lives in ``path/shard-{i}.json``, one JSON object naming
    the format, campaign key, shard count and shard index beside the
    ``value``.  :meth:`record` writes it under a temp name of its own
    (pid plus thread id, so two writers never share one), fsyncs it,
    renames it into place with ``os.replace`` and fsyncs the directory:
    a shard file is whole or absent, so a crash loses at most the shard
    being recorded and leaves at worst a temp file :meth:`load` never
    reads.  Writers need no lock: each rename is atomic, and two writers
    of one shard of one campaign write the same bytes.

    :meth:`load` reads only ``shard-0`` … ``shard-{shards-1}`` and skips a
    file that is over :attr:`MAX_SHARD_BYTES`, does not parse, or names
    another format, key, shard count or index.  A skipped shard is
    recomputed; because every shard draws an independent
    ``SeedSequence.spawn`` stream, a resumed campaign is bit-identical to
    an uninterrupted one.

    ``encode``/``decode`` convert one shard's result to/from its JSON
    form (identity by default).
    """

    FORMAT = "repro-campaign-checkpoint/2"

    #: :meth:`load` skips shard files larger than this (a corrupt or
    #: runaway file must not be slurped whole into a request thread).
    MAX_SHARD_BYTES = 64 * 1024 * 1024

    def __init__(
        self,
        path: str | Path,
        *,
        key: str,
        shards: int,
        encode: Callable | None = None,
        decode: Callable | None = None,
    ):
        self.path = Path(path)
        self.key = str(key)
        self.shards = int(shards)
        self._encode = encode if encode is not None else (lambda value: value)
        self._decode = decode if decode is not None else (lambda value: value)

    @staticmethod
    def digest(key: object) -> str:
        """Stable filename-safe digest of a campaign cache key."""
        return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:24]

    def _shard_file(self, index: int) -> Path:
        return self.path / f"shard-{index}.json"

    def load(self) -> dict[int, object]:
        """Completed ``{shard_index: result}`` entries of this campaign."""
        completed: dict[int, object] = {}
        for index in range(self.shards):
            try:
                with open(self._shard_file(index), "rb") as handle:
                    data = handle.read(self.MAX_SHARD_BYTES + 1)
                if len(data) > self.MAX_SHARD_BYTES:
                    continue
                row = json.loads(data)
                if (row["format"], row["key"], row["shards"], row["shard"]) != (
                    self.FORMAT, self.key, self.shards, index
                ):
                    continue
                completed[index] = self._decode(row["value"])
            except (OSError, KeyError, TypeError, ValueError):
                continue  # absent, damaged or foreign: recompute the shard
        return completed

    def record(self, index: int, value: object) -> None:
        """Install one completed shard's file (a crash loses at most it)."""
        index = int(index)
        row = {
            "format": self.FORMAT,
            "key": self.key,
            "shards": self.shards,
            "shard": index,
            "value": self._encode(value),
        }
        target = self._shard_file(index)
        if not self.path.is_dir():
            self.path.mkdir(parents=True, exist_ok=True)
            _fsync_dir(self.path.parent)  # the new directory's own entry
        tmp = self.path / f"{target.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(json.dumps(row).encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        _fsync_dir(self.path)


# ---------------------------------------------------------------------------
# Supervised dispatch
# ---------------------------------------------------------------------------
def _make_pool(mode: str, workers: int):
    if mode == "thread":
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(max_workers=workers)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = (
        multiprocessing.get_context("fork")
        if "fork" in multiprocessing.get_all_start_methods()
        else None
    )
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def _check_mode(mode: str) -> None:
    if mode not in EXECUTOR_MODES:
        raise InvalidConfigurationError(
            f"unknown executor mode {mode!r}; expected one of {EXECUTOR_MODES}"
        )


class _ShardDropped(Exception):
    """Internal control flow: current shard failed permanently (degrade)."""


def _terminate_pool(pool) -> None:
    """Tear a process pool down even when its workers are hung.

    ``shutdown`` alone would join busy workers forever; terminating the
    worker processes directly is the only way to reclaim a hung shard.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
    for process in processes:
        process.join(timeout=2.0)


def run_supervised(
    worker,
    payloads: Sequence,
    *,
    jobs: int,
    mode: str = "process",
    supervision: Supervision | None = None,
    rebuild: Callable[[int], object] | None = None,
    checkpoint: CampaignCheckpoint | None = None,
    chaos=None,
) -> tuple[list, RunReport]:
    """Map ``worker`` over shard payloads: returns ``(results, report)``.

    ``jobs <= 1`` (or a single payload, or ``mode='serial'``) runs in the
    calling thread, where ``supervision.timeout`` is not enforced;
    ``'thread'`` uses a thread pool, ``'process'`` a fork-based process
    pool (payloads and results must pickle).
    ``results`` holds one entry per payload in shard order; dropped
    shards (degrade mode only) leave ``None`` in their slot and are
    listed in the report.  ``rebuild(index)`` must return a fresh,
    never-executed payload for shard ``index`` — it is used for every
    re-execution so retried shards consume pristine spawned streams (see
    the module determinism contract).  Without it, retries reuse
    ``payloads[index]``, which is only sound under a process pool (the
    parent's payload is never advanced by a child).  ``checkpoint``
    journals completed shards and pre-loads any shards a previous
    interrupted run already completed.  ``chaos`` injects deterministic
    worker faults for self-tests (see :mod:`repro.engine.chaos`).
    """
    _check_mode(mode)
    sup = supervision if supervision is not None else Supervision()
    count = len(payloads)
    results: list = [None] * count
    done = [False] * count
    failures_used = [0] * count  # failed attempts so far, per shard
    dropped: list[int] = []
    drop_reasons: list[tuple[int, str]] = []
    retried: set[int] = set()
    stats = {"attempts": 0, "timeouts": 0, "rebuilds": 0}

    # Tracing (no-op unless a tracer is installed on this context).  The
    # run gets one "runtime.supervised" span; every worker dispatch gets a
    # "shard" slice keyed s{index}d{dispatch} (structural — never RNG), and
    # timeouts / retries / pool rebuilds land as instant events on the run
    # span.  None of this touches payloads or streams, so results are
    # bit-identical with tracing on or off.
    tracer = current_tracer()
    trace_on = tracer.enabled
    dispatches = [0] * count  # total dispatches per shard (span keys)

    with tracer.span(
        "runtime.supervised",
        shards=count,
        jobs=jobs,
        mode=mode,
        timeout=sup.timeout,
        retries=sup.retries,
    ) as run_span:

        def attempt_begin(index: int) -> tuple[float, int]:
            """Mark one worker dispatch; returns the span-timing token."""
            if not trace_on:
                return (0.0, 0)
            dispatches[index] += 1
            return (obs_clock.perf(), dispatches[index])

        def attempt_end(index: int, token: tuple[float, int], outcome: str) -> None:
            """Record one dispatched attempt as a slice on the shard track."""
            if not trace_on:
                return
            started, dispatch_no = token
            tracer.record_span(
                "shard",
                started,
                obs_clock.perf(),
                parent=run_span,
                key=f"s{index}d{dispatch_no}",
                track="shards",
                status="ok" if outcome in ("ok", "requeued") else "error",
                shard=index,
                attempt=failures_used[index] + 1,
                outcome=outcome,
            )

        restored = 0
        if checkpoint is not None:
            for index, value in checkpoint.load().items():
                if 0 <= index < count and not done[index]:
                    results[index] = value
                    done[index] = True
                    restored += 1
            if restored:
                run_span.event("restored", shards=restored)

        if chaos is not None:
            worker = chaos.bind(worker, mode)

        def payload_for(index: int) -> object:
            base = (
                rebuild(index)
                if rebuild is not None and failures_used[index] > 0
                else payloads[index]
            )
            return (index, base) if chaos is not None else base

        def finish(index: int, value) -> None:
            results[index] = value
            done[index] = True
            if checkpoint is not None:
                checkpoint.record(index, value)

        def fail(index: int, kind: str, error: BaseException | None) -> float | None:
            """Book one failed attempt; returns the retry-ready time, or
            ``None`` when the shard is permanently failed (raise or drop)."""
            failures_used[index] += 1
            if kind == "timeout":
                stats["timeouts"] += 1
                run_span.event("timeout", shard=index, attempt=failures_used[index])
            if failures_used[index] <= sup.retries:
                retried.add(index)
                delay = sup.backoff * (2 ** (failures_used[index] - 1))
                run_span.event(
                    "retry", shard=index, attempt=failures_used[index], backoff=delay
                )
                return time.monotonic() + delay
            if sup.on_shard_failure == "raise":
                if sup.retries == 0 and kind == "error" and error is not None:
                    # One attempt, one failure: there is an original to
                    # re-raise, so callers see exactly what the worker saw.
                    raise error
                raise ShardExecutionError(
                    f"shard {index} failed permanently after "
                    f"{failures_used[index]} attempt(s) (last failure: {kind}); "
                    "set on_shard_failure='degrade' to keep partial results"
                ) from error
            dropped.append(index)
            drop_reasons.append((index, kind))
            run_span.event("dropped", shard=index, kind=kind)
            raise _ShardDropped

        pending = [index for index in range(count) if not done[index]]

        if jobs <= 1 or count <= 1 or mode == "serial":
            # In-process execution: retries and degradation apply; the calling
            # thread cannot be preempted, so `timeout` is inert here.
            for index in pending:
                while True:
                    stats["attempts"] += 1
                    token = attempt_begin(index)
                    try:
                        value = worker(payload_for(index))
                    except Exception as error:
                        attempt_end(index, token, "error")
                        try:
                            ready_at = fail(index, "error", error)
                        except _ShardDropped:
                            break
                        delay = ready_at - time.monotonic()
                        if delay > 0:
                            time.sleep(delay)
                    else:
                        attempt_end(index, token, "ok")
                        finish(index, value)
                        break
        elif pending:
            _run_pooled(
                worker,
                payload_for,
                pending,
                jobs=jobs,
                mode=mode,
                sup=sup,
                fail=fail,
                finish=finish,
                stats=stats,
                run_span=run_span,
                attempt_begin=attempt_begin,
                attempt_end=attempt_end,
            )

        report = RunReport(
            shards=count,
            completed=sum(done),
            dropped=tuple(sorted(dropped)),
            retried=tuple(sorted(retried)),
            failures=tuple(sorted(drop_reasons)),
            attempts=stats["attempts"],
            timeouts=stats["timeouts"],
            pool_rebuilds=stats["rebuilds"],
            restored=restored,
        )
        if trace_on:
            run_span.set("attempts", report.attempts)
            run_span.set("completed", report.completed)
            run_span.set("timeouts", report.timeouts)
            run_span.set("pool_rebuilds", report.pool_rebuilds)
            run_span.set("restored", report.restored)
            if report.dropped:
                run_span.set("dropped", list(report.dropped))
    return results, report


def _run_pooled(
    worker,
    payload_for,
    pending: list[int],
    *,
    jobs: int,
    mode: str,
    sup: Supervision,
    fail,
    finish,
    stats: dict,
    run_span,
    attempt_begin,
    attempt_end,
) -> None:
    """The supervised pool loop shared by thread and process modes."""
    from concurrent.futures import BrokenExecutor, wait as wait_futures

    workers = min(jobs, len(pending))
    queue: list[tuple[int, float]] = [(index, 0.0) for index in pending]
    inflight: dict = {}  # future -> (index, deadline or None, trace token)
    abandoned = False  # thread attempts we gave up waiting on
    pool = _make_pool(mode, workers)

    def submit_ready(now: float) -> None:
        index_at = 0
        while index_at < len(queue) and len(inflight) < workers:
            index, ready_at = queue[index_at]
            if ready_at <= now:
                queue.pop(index_at)
                stats["attempts"] += 1
                deadline = None if sup.timeout is None else now + sup.timeout
                token = attempt_begin(index)
                inflight[pool.submit(worker, payload_for(index))] = (
                    index,
                    deadline,
                    token,
                )
            else:
                index_at += 1

    def requeue_inflight(now: float) -> None:
        """Put every in-flight shard back, retry budgets untouched."""
        for index, _, token in inflight.values():
            attempt_end(index, token, "requeued")
            queue.append((index, now))
        inflight.clear()

    def retry_or_drop(index: int, kind: str, error) -> None:
        try:
            ready_at = fail(index, kind, error)
        except _ShardDropped:
            return
        queue.append((index, ready_at))

    try:
        while queue or inflight:
            now = time.monotonic()
            submit_ready(now)
            if not inflight:
                # Everything queued is backing off; sleep to the earliest.
                time.sleep(max(0.0, min(at for _, at in queue) - now))
                continue

            horizons = [
                deadline - now
                for _, deadline, _ in inflight.values()
                if deadline is not None
            ]
            if queue and len(inflight) < workers:
                horizons.append(min(at for _, at in queue) - now)
            wait_s = max(0.0, min(horizons)) if horizons else None
            completed, _ = wait_futures(
                list(inflight), timeout=wait_s, return_when="FIRST_COMPLETED"
            )

            broken: list[int] = []
            for future in completed:
                index, _, token = inflight.pop(future)
                try:
                    value = future.result()
                except BrokenExecutor:
                    # The pool died under this shard; the loss is not
                    # attributable to any one shard, so no retry is burnt.
                    attempt_end(index, token, "worker-loss")
                    broken.append(index)
                except Exception as error:
                    attempt_end(index, token, "error")
                    retry_or_drop(index, "error", error)
                else:
                    attempt_end(index, token, "ok")
                    finish(index, value)

            if broken:
                stats["rebuilds"] += 1
                now = time.monotonic()
                casualties = [
                    (index, token) for index, _, token in inflight.values()
                ]
                for index, token in casualties:
                    attempt_end(index, token, "requeued")
                doomed = broken + [index for index, _ in casualties]
                inflight.clear()
                run_span.event(
                    "pool-rebuild", rebuilds=stats["rebuilds"], requeued=len(doomed)
                )
                if stats["rebuilds"] > sup.max_pool_rebuilds:
                    # Some in-flight shard keeps killing workers; fail the
                    # whole in-flight set rather than rebuilding forever.
                    for index in doomed:
                        retry_or_drop(index, "worker-loss", None)
                else:
                    for index in doomed:
                        queue.append((index, now))
                pool.shutdown(wait=False, cancel_futures=True)
                pool = _make_pool(mode, workers)
                continue

            # Enforce per-shard deadlines on whatever is still in flight.
            now = time.monotonic()
            overdue = [
                future
                for future, (_, deadline, _) in inflight.items()
                if deadline is not None and now >= deadline
            ]
            if not overdue:
                continue
            for future in overdue:
                index, _, token = inflight.pop(future)
                attempt_end(index, token, "timeout")
                if mode == "thread":
                    # Threads cannot be interrupted: abandon the attempt
                    # (its eventual result is discarded) and move on.
                    future.cancel()
                    abandoned = True
                retry_or_drop(index, "timeout", None)
            if mode == "process":
                # The hung worker still occupies a process; terminate the
                # pool and requeue the innocent in-flight shards.
                requeue_inflight(now)
                _terminate_pool(pool)
                pool = _make_pool(mode, workers)
    finally:
        clean = not queue and not inflight
        if mode == "process" and not clean:
            # Bailing out mid-run (raise mode): workers may be hung, and a
            # waiting shutdown would join them forever.
            _terminate_pool(pool)
        else:
            # Abandoned (timed-out) threads would block a waiting shutdown.
            pool.shutdown(wait=not abandoned, cancel_futures=True)
