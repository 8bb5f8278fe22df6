"""``repro.serve`` daemon: the reliability engine as a query service.

Everything below PR 7 is batch: a process starts, answers its scenario
file, and exits — the memo cache dies with it.  The daemon turns the
same engine into shared infrastructure: one long-lived
:class:`~repro.engine.ReliabilityEngine` (thread-safe LRU memo + campaign
cache) warm across *all* requests, the existing ``Query``/``QuerySet``
JSON accepted over ``POST /v1/query``, identical in-flight queries
coalesced into a single execution (:mod:`repro.serve.coalesce`), and
every simulation campaign run under the supervised runtime — retries and
graceful degradation, plus per-shard timeouts when the campaign's shards
run on a pool (``jobs`` ≥ 2 and more than one shard).  At the default
``jobs`` (one worker) every shard runs in the request's executor thread,
which the runtime cannot preempt: the timeout does nothing there, and a
hung shard holds its executor thread until it returns.  Completed campaign
shards journal to the checkpoint directory, so a daemon restart resumes
interrupted campaigns bit-identically instead of recomputing them.

The asyncio loop parses, routes, streams — and answers every row whose
work is bounded: the query route walks the rows of every POST, plain or
streamed, one row or many, in one loop, and puts each row first to
:meth:`~repro.engine.ReliabilityEngine.answer_inline`, the one engine
call on the loop, which returns what the memo holds and computes on the
loop only a stock counting, exact or Markov row under its small-``n``
bound (under a millisecond, less than an executor thread may hold the
GIL for).  Such a row is answered without single-flight or the pool (and
cannot queue behind a saturated one); between two rows of one request
computed this way the loop serves whatever else is ready, so it never
runs two of them back to back.  Only the rows it declines — sampling,
simulation campaigns, overridden backends, anything larger
— start at once and execute on a bounded thread pool (the engine's NumPy
hot paths release the GIL; campaign fan-out adds its own policy workers
per query), single-flighted on the memo key they are stored under.  Long
campaigns can opt into progress streaming (``POST /v1/query?stream=1`` →
chunked JSON lines, one per answer as it completes).  ``GET /healthz``
and ``GET /metrics`` expose liveness, the process's peak resident set
size and the service counters (request counts, latency percentiles,
engine cache hit rate, coalescing and campaign/degradation aggregates).

Determinism note: the daemon never changes any answer value.  Its
policy (:meth:`~repro.engine.ExecutionPolicy.for_service`) is a
spawned-stream thread policy, so a response is bit-identical to running
the same query file through ``repro-analyze query --jobs N`` for any
``N`` — proven in ``tests/test_serve.py``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

from repro.engine import ExecutionPolicy, QuerySet, ReliabilityEngine
from repro.engine.result import Answer, wire_row
from repro.errors import InvalidConfigurationError, ReproError
from repro.serve.coalesce import InflightRegistry
from repro.serve.http import (
    HttpError,
    HttpRequest,
    end_chunked_response,
    read_request,
    start_chunked_response,
    write_chunk,
    write_response,
)
from repro.serve.metrics import (
    ServiceMetrics,
    process_max_rss_bytes,
    render_prometheus,
)
from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    register_tracer,
    unregister_tracer,
    use_tracer,
)


def _stream_line(outcome) -> bytes:
    """One ``(index, answer, error, joined)`` outcome as its ndjson line."""
    index, answer, error, _joined = outcome
    if error is not None:
        line = {"index": index, "error": str(error)}
    else:
        line = {"index": index, **wire_row(answer)}
    return (json.dumps(line) + "\n").encode("utf-8")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one daemon process.

    ``jobs`` is the per-campaign shard fan-out (the policy's worker
    count); ``executor_workers`` bounds how many rows execute on the
    request pool concurrently — the rows the event loop does not answer
    itself (memo hits and bounded analytic misses never take a worker).
    ``shard_timeout`` / ``retries`` / ``on_shard_failure`` are the
    supervision knobs every campaign runs under; ``shard_timeout`` is
    enforced only when ``jobs`` is 2 or more and a campaign has more than
    one shard — at the default ``jobs`` (``None``, one worker) shards run
    in the executor thread and it does nothing.  ``checkpoint_dir``
    enables the restart-resume journal.
    ``trace_path`` turns on per-request tracing: every request, query
    and campaign shard is recorded and the trace is written on shutdown
    (Chrome trace-event JSON, or a JSONL span log when the path ends in
    ``.jsonl``).  None of them changes any answer value.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    jobs: int | None = None
    checkpoint_dir: str | None = None
    shard_timeout: float | None = 60.0
    retries: int = 1
    on_shard_failure: str = "degrade"
    shard_trials: int | None = None
    cache_size: int = 4096
    executor_workers: int = 8
    max_body_bytes: int = 8 * 1024 * 1024
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise InvalidConfigurationError(f"port {self.port} outside [0, 65535]")
        if self.executor_workers < 1:
            raise InvalidConfigurationError(
                f"executor_workers must be >= 1, got {self.executor_workers}"
            )
        if self.max_body_bytes <= 0:
            raise InvalidConfigurationError(
                f"max_body_bytes must be positive, got {self.max_body_bytes}"
            )
        if self.cache_size < 0:
            raise InvalidConfigurationError(
                f"cache_size must be >= 0, got {self.cache_size}"
            )

    def policy(self) -> ExecutionPolicy:
        return ExecutionPolicy.for_service(
            self.jobs,
            timeout=self.shard_timeout,
            retries=self.retries,
            on_shard_failure=self.on_shard_failure,
            checkpoint_dir=self.checkpoint_dir,
            shard_trials=self.shard_trials,
        )


class ReliabilityService:
    """One warm engine behind an asyncio HTTP front end."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        engine: ReliabilityEngine | None = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.engine = (
            engine
            if engine is not None
            else ReliabilityEngine(cache_size=self.config.cache_size)
        )
        self.policy = self.config.policy()
        self.metrics = ServiceMetrics()
        self.inflight = InflightRegistry()
        self.port: int | None = None
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.executor_workers,
            thread_name_prefix="repro-serve",
        )
        self._started_at = time.monotonic()
        self._server: asyncio.AbstractServer | None = None
        # Tracing is a config opt-in; the trace id derives from the bind
        # address (a digest — never RNG) and the registry registration
        # lets campaign worker threads re-attach via their payload's span
        # context.  With tracing off, self.tracer is the shared no-op.
        if self.config.trace_path:
            from repro.obs.trace import InMemoryExporter

            self._trace_exporter = InMemoryExporter()
            self.tracer = Tracer.for_key(
                ("repro.serve", self.config.host, self.config.port),
                exporter=self._trace_exporter,
            )
            register_tracer(self.tracer)
        else:
            self._trace_exporter = None
            self.tracer = NULL_TRACER

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> asyncio.AbstractServer:
        """Bind and start serving; resolves ``self.port`` (``port=0`` ok)."""
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self._server

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._pool.shutdown(wait=False, cancel_futures=True)
        if self._trace_exporter is not None:
            unregister_tracer(self.tracer)
            # File I/O stays off the event loop (async-hygiene contract).
            await asyncio.get_running_loop().run_in_executor(
                None, self._flush_trace
            )

    def _flush_trace(self) -> None:
        from repro.obs.export import write_trace

        write_trace(self._trace_exporter.records, self.config.trace_path)

    # -- connection handling -----------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # asyncio's socket transport reads with ``recv(256 KiB)``: on some
        # heap layouts each read grows and then trims the main-thread
        # heap, ≈ 2 minor faults per request.  64 KiB reads take none and
        # still hold any request head (``MAX_HEAD_BYTES``) in one read.  A
        # BufferedProtocol with one reused receive buffer is the later
        # replacement (ROADMAP 17).
        writer.transport.max_size = 64 * 1024
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_body_bytes
                    )
                except HttpError as error:
                    await self._error_response(
                        writer, error.status, error.reason, keep_alive=False
                    )
                    break
                if request is None:
                    break
                started = time.perf_counter()
                keep_alive = request.keep_alive
                with self.tracer.span(
                    "http.request",
                    track="http",
                    method=request.method,
                    path=request.path,
                ) as request_span:
                    try:
                        status = await self._dispatch(request, writer)
                    except (ConnectionResetError, BrokenPipeError):
                        raise
                    except Exception as error:
                        # Nothing a route anticipated (a body nested deeper
                        # than the parser recurses is the known case): the
                        # client still gets an answer, and then a fresh
                        # connection, since how much of a response went
                        # out before the error is unknown.
                        status = 400 if isinstance(error, RecursionError) else 500
                        keep_alive = False
                        request_span.set("error", type(error).__name__)
                        await self._error_response(
                            writer,
                            status,
                            f"{type(error).__name__}: {error}",
                            keep_alive=False,
                        )
                    request_span.set("status", status)
                self.metrics.record_request(
                    request.method,
                    request.path,
                    status,
                    time.perf_counter() - started,
                )
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            # The client went away (or the server is shutting down)
            # mid-exchange; there is nobody left to answer.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                OSError,
                # A shutdown cancel can land while we drain the close; the
                # connection is going away either way, so end the task
                # cleanly rather than spamming the loop's exception hook.
                asyncio.CancelledError,
            ):
                pass

    async def _dispatch(self, request: HttpRequest, writer) -> int:
        if request.path == "/healthz":
            if request.method != "GET":
                return await self._error_response(writer, 405, "GET only")
            body = json.dumps(
                {
                    "status": "ok",
                    "uptime_seconds": time.monotonic() - self._started_at,
                    "max_rss_bytes": process_max_rss_bytes(),
                }
            ).encode("utf-8")
            await write_response(writer, 200, body, keep_alive=request.keep_alive)
            return 200
        if request.path == "/metrics":
            if request.method != "GET":
                return await self._error_response(writer, 405, "GET only")
            snapshot = self.metrics.snapshot(
                engine=self.engine,
                extra={
                    "uptime_seconds": time.monotonic() - self._started_at,
                    "max_rss_bytes": process_max_rss_bytes(),
                    "inflight_queries": len(self.inflight),
                },
            )
            if request.query.get("format") == "prometheus":
                await write_response(
                    writer,
                    200,
                    render_prometheus(snapshot).encode("utf-8"),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                    keep_alive=request.keep_alive,
                )
                return 200
            body = json.dumps(snapshot).encode("utf-8")
            await write_response(writer, 200, body, keep_alive=request.keep_alive)
            return 200
        if request.path == "/v1/query":
            if request.method != "POST":
                return await self._error_response(writer, 405, "POST only")
            return await self._handle_query(request, writer)
        return await self._error_response(
            writer, 404, f"no route for {request.path!r}"
        )

    async def _error_response(
        self, writer, status: int, message: str, *, keep_alive: bool = True
    ) -> int:
        body = json.dumps({"error": message}).encode("utf-8")
        await write_response(writer, status, body, keep_alive=keep_alive)
        return status

    # -- the query route ---------------------------------------------------
    async def _handle_query(self, request: HttpRequest, writer) -> int:
        """``POST /v1/query``: one pass over the rows, plain or streamed.

        Each row, in submission order, is first put to :meth:`_recall`;
        a row it declines starts at once as a :meth:`_tagged_answer`
        task.  One row's work on the loop is bounded, a request's row
        count is not: after each row computed here (anything but a memo
        hit), when more rows follow, the loop first serves whatever else
        is ready — ``/healthz``, other connections, the started tasks — so
        no two computed rows of a request run back to back.  The plain
        reply is written in submission order once the declined rows
        finish.  With ``?stream=1`` the header goes out first, then one
        chunked JSON line per answer tagged with its submission ``index``:
        the loop's rows as they are answered, the declined rows as each
        finishes (a long campaign's finished answers arrive while slower
        ones still run), and last the run summary.
        """
        try:
            text = request.body.decode("utf-8")
            query_set = QuerySet.from_json(text)
        except (
            ReproError,
            json.JSONDecodeError,
            UnicodeDecodeError,
            KeyError,
            TypeError,
            ValueError,
        ) as error:
            return await self._error_response(
                writer, 400, f"invalid query payload: {error}"
            )
        if not len(query_set):
            return await self._error_response(writer, 400, "no queries in payload")
        stream = request.query.get("stream") not in (None, "", "0")
        started = time.perf_counter()
        if stream:
            self.metrics.record_streamed_request()
            await start_chunked_response(writer, 200, keep_alive=request.keep_alive)
        outcomes, tasks = [], []
        last = len(query_set) - 1
        for index, query in enumerate(query_set):
            outcome = self._recall(index, query)
            if outcome is None:
                tasks.append(asyncio.ensure_future(self._tagged_answer(index, query)))
                continue
            outcomes.append(outcome)
            if stream:
                await write_chunk(writer, _stream_line(outcome))
            answer = outcome[1]
            if index < last and (answer is None or not answer.provenance.cache_hit):
                await asyncio.sleep(0)
        if stream:
            for finished in asyncio.as_completed(tasks):
                outcome = await finished
                outcomes.append(outcome)
                await write_chunk(writer, _stream_line(outcome))
            errors = sum(1 for _, _, error, _ in outcomes if error is not None)
            summary = {
                "done": True,
                "answers": len(outcomes) - errors,
                "errors": errors,
                "coalesced": sum(1 for _, _, _, joined in outcomes if joined),
                "seconds": time.perf_counter() - started,
            }
            await write_chunk(writer, (json.dumps(summary) + "\n").encode("utf-8"))
            await end_chunked_response(writer)
            return 200
        if tasks:
            outcomes.extend(await asyncio.gather(*tasks))
            outcomes.sort(key=lambda outcome: outcome[0])
        failures = [
            (index, error) for index, _, error, _ in outcomes if error is not None
        ]
        if failures:
            index, error = failures[0]
            status = 422 if isinstance(error, ReproError) else 500
            body = json.dumps(
                {
                    "error": str(error),
                    "failed_index": index,
                    "failures": len(failures),
                }
            ).encode("utf-8")
            await write_response(writer, status, body, keep_alive=request.keep_alive)
            return status
        rows = [wire_row(answer) for _, answer, _, _ in outcomes]
        coalesced = sum(1 for _, _, _, joined in outcomes if joined)
        body = json.dumps(
            {
                "answers": rows,
                "count": len(rows),
                "coalesced": coalesced,
                "cache_hits": sum(1 for row in rows if row.get("cache_hit")),
                "seconds": time.perf_counter() - started,
            }
        ).encode("utf-8")
        await write_response(writer, 200, body, keep_alive=request.keep_alive)
        return 200

    def _recall(self, index: int, query):
        """Loop-side half of a row: its outcome if it is answered right here.

        The row's one engine call on the loop is
        :meth:`~repro.engine.ReliabilityEngine.answer_inline`: it returns a
        memo hit, or computes a miss whose work the engine bounds (a stock
        counting, exact or Markov row of small ``n``, under a
        millisecond); it takes the engine lock for the memo's dict
        operations and, on a miss, the bound check only.
        Such a row skips single-flight and the executor hop and cannot
        queue behind a saturated pool.  ``None`` is a row it declines —
        nothing counted, no span exported — and the row goes on to
        :meth:`_tagged_answer`.  Traced, an answered row exports the tree
        an executed row does, its ``query.execute`` on ``track="loop"``
        and its ``serve.query`` marked ``memo_hit`` or ``inline``;
        ``use_tracer`` is what lets the engine's spans nest there, the
        tracer being context-local.
        """
        tracer = self.tracer
        started = time.perf_counter()
        with tracer.span(
            "serve.query", kind=query.kind, label=query.label or ""
        ) as query_span:
            try:
                if not tracer.enabled:
                    answer = self.engine.answer_inline(query, self.policy)
                else:
                    with tracer.span(
                        "query.execute", track="loop", kind=query.kind
                    ) as execute_span, use_tracer(tracer):
                        answer = self.engine.answer_inline(query, self.policy)
                        if answer is None:
                            execute_span.discard()
            except Exception as error:
                query_span.set("error", type(error).__name__)
                self.metrics.record_served(
                    query.kind, time.perf_counter() - started
                )
                return index, None, error, False
            if answer is None:
                query_span.discard()
                return None
            inline = not answer.provenance.cache_hit
            query_span.set("inline" if inline else "memo_hit", True)
        self.metrics.record_served(
            query.kind, time.perf_counter() - started, answer, inline=inline
        )
        return index, answer, None, False

    async def _tagged_answer(self, index: int, query):
        """(index, answer, error, joined) — never raises, streams need all.

        The executor path of a row :meth:`_recall` declined.  Rows
        single-flight on the engine's memo key, the key the row is
        then stored under: a joiner is exactly a row the memo would have
        answered, and it gets the shared value under its own query (rows
        that differ only in ``label`` or in a field their key ignores
        coalesce).  A row without a key (unseeded sampling) is never
        reused, so it runs on its own.
        """
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        with self.tracer.span(
            "serve.query", kind=query.kind, label=query.label or ""
        ) as query_span:
            try:
                key = query.cache_key(self.policy.shard_trials)
                start = partial(
                    loop.run_in_executor,
                    self._pool,
                    partial(self._run_query, query, query_span.context()),
                )
                if key is None:
                    (answer, executed_by), joined = await start(), False
                else:
                    (answer, executed_by), joined = await self.inflight.run(key, start)
            except Exception as error:
                query_span.set("error", type(error).__name__)
                self.metrics.record_served(
                    query.kind, time.perf_counter() - started
                )
                return index, None, error, False
            if joined:
                # A coalesced joiner never executed anything: record the
                # link to the one execution span that answered it.
                query_span.set("coalesced", True)
                query_span.link(executed_by)
                answer = Answer(query, answer.value, answer.provenance)
        self.metrics.record_served(
            query.kind, time.perf_counter() - started, answer, coalesced=joined
        )
        return index, answer, None, joined

    def _run_query(self, query, span_context=None):
        """Executor-thread entry: one query through the shared warm engine.

        Returns ``(answer, span id of this execution)`` — the shared
        in-flight result, so a coalesced joiner can link to the execution
        that answered it (``None`` with tracing off).

        Per-query submissions (rather than whole request batches) are
        what make single-flight coalescing and streaming possible; the
        in-batch sharing they give up (same-size DP groups, same-chain
        CTMC models) is exactly what the engine memo provides across
        requests instead, and per-query values are bit-identical to
        batched ones by the engine's batching contracts.

        ``span_context`` (the requesting ``serve.query`` span) parents the
        execution span — executors do not inherit the event loop's
        contextvars, so the hop is explicit; ``use_tracer`` then installs
        the service tracer on this thread so engine/runtime spans nest
        under the execution.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return self.engine.run([query], policy=self.policy)[0], None
        with tracer.span(
            "query.execute", parent=span_context, track="executor", kind=query.kind
        ) as execute_span:
            with use_tracer(tracer):
                answer = self.engine.run([query], policy=self.policy)[0]
            return answer, execute_span.span_id


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
async def _serve_async(config: ServiceConfig, *, announce: bool = True) -> None:
    service = ReliabilityService(config)
    server = await service.start()
    if announce:
        print(
            f"repro-serve listening on http://{config.host}:{service.port} "
            f"(jobs={config.jobs or 1}, checkpoint_dir={config.checkpoint_dir})",
            flush=True,
        )
    try:
        async with server:
            await server.serve_forever()
    finally:
        await service.aclose()


def serve_forever(config: ServiceConfig | None = None) -> None:
    """Blocking CLI entry: serve until interrupted."""
    try:
        asyncio.run(_serve_async(config if config is not None else ServiceConfig()))
    except KeyboardInterrupt:
        return


class BackgroundServer:
    """A daemon on its own event-loop thread (tests, benches, demos).

    ``with BackgroundServer(config) as server:`` yields a running server
    whose ``server.port`` is resolved (use ``port=0`` for an ephemeral
    port) and whose ``server.service`` exposes the live engine/metrics.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        engine: ReliabilityEngine | None = None,
    ):
        self.config = config if config is not None else ServiceConfig(port=0)
        self._engine = engine
        self.service: ReliabilityService | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if self.port is None:
            raise RuntimeError("server failed to start within 30s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        except Exception as error:
            self._startup_error = error
            self._ready.set()
        finally:
            loop.close()

    async def _serve(self) -> None:
        self.service = ReliabilityService(self.config, engine=self._engine)
        await self.service.start()
        self.port = self.service.port
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await self.service.aclose()
        # Keep-alive connection handlers may still be parked in
        # read_request; cancel them so the loop closes without orphans.
        pending = [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        ]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
