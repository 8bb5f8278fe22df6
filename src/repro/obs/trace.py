"""Deterministic structured tracing for campaigns, runtimes, and the service.

Design constraints (they shape everything here):

* **Determinism.**  Trace ids are SHA-256 digests of caller-supplied keys
  (cache keys, query text) and span ids are structural — ``{parent}.{n}``
  counters or explicit ``{parent}.s{shard}a{attempt}`` keys — so no span id
  ever consumes ambient RNG, and tracing never touches the spawned
  :class:`~numpy.random.SeedSequence` streams.  Answers are bit-identical
  with tracing on or off; ``tests/test_obs.py`` pins this.
* **Cheap when off.**  The default tracer is :data:`NULL_TRACER`, whose
  ``span()`` returns a shared no-op span without touching contextvars or
  locks.  ``benchmarks/bench_obs.py`` enforces the ≤5 % disabled-overhead
  budget.
* **Survives the pool hop.**  A :class:`SpanContext` is a picklable
  ``(trace_id, span_id)`` pair.  Shard payloads carry one across
  ``run_supervised``; workers call :func:`resolve_context`
  to re-attach to the live tracer.  Thread-pool workers share the process
  and find it; forked process-pool children fail the pid check and degrade
  to the no-op tracer (the supervisor still records their attempt timeline
  from the parent side).

Timing flows through :mod:`repro.obs.clock`, the declared ``wall-clock``
boundary for this package.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import threading
from dataclasses import dataclass, field
from contextvars import ContextVar
from typing import Iterator, Mapping, Optional, Sequence, Tuple, Union

from repro.obs import clock

__all__ = [
    "Span",
    "SpanContext",
    "SpanRecord",
    "Tracer",
    "InMemoryExporter",
    "NULL_SPAN",
    "NULL_TRACER",
    "current_span",
    "current_tracer",
    "register_tracer",
    "resolve_context",
    "unregister_tracer",
    "use_tracer",
]


@dataclass(frozen=True)
class SpanContext:
    """Picklable handle to a span — attach to payloads crossing pools."""

    trace_id: str
    span_id: str


@dataclass
class SpanRecord:
    """A finished span, as handed to exporters."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: float
    track: str = "main"
    status: str = "ok"
    attributes: dict = field(default_factory=dict)
    events: Tuple[Tuple[float, str, dict], ...] = ()
    links: Tuple[str, ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "track": self.track,
            "status": self.status,
            "attributes": dict(sorted(self.attributes.items())),
            "events": [
                [ts, name, dict(sorted(attrs.items()))] for ts, name, attrs in self.events
            ],
            "links": list(self.links),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SpanRecord":
        return cls(
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=data.get("parent_id"),
            name=str(data["name"]),
            start=float(data["start"]),
            end=float(data["end"]),
            track=str(data.get("track", "main")),
            status=str(data.get("status", "ok")),
            attributes=dict(data.get("attributes", {})),
            events=tuple(
                (float(ts), str(name), dict(attrs))
                for ts, name, attrs in data.get("events", [])
            ),
            links=tuple(str(link) for link in data.get("links", [])),
        )


class InMemoryExporter:
    """Collects finished spans in memory; the default, and the test exporter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list = []

    def export(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    @property
    def records(self) -> list:
        with self._lock:
            return list(self._records)

    def find(self, name: str) -> list:
        return [record for record in self.records if record.name == name]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()


class _NullSpan:
    """Shared do-nothing span — every method is a constant-time no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key, value) -> None:
        pass

    def event(self, name, **attributes) -> None:
        pass

    def link(self, span_id) -> None:
        pass

    def finish(self) -> None:
        pass

    def discard(self) -> None:
        pass

    def context(self) -> None:
        return None


NULL_SPAN = _NullSpan()


class _NullTracer:
    """Disabled tracer: ``span()`` hands back the shared no-op span."""

    __slots__ = ()
    enabled = False
    trace_id = ""

    def span(self, name, **kwargs) -> _NullSpan:
        return NULL_SPAN

    def record_span(self, name, start, end, **kwargs) -> None:
        return None


NULL_TRACER = _NullTracer()

_ACTIVE: ContextVar = ContextVar("repro_obs_active_span", default=None)
_TRACER_VAR: ContextVar = ContextVar("repro_obs_tracer", default=None)

# trace_id → [tracer, refcount] for this process, so pool workers handed a
# bare SpanContext can find the exporter.  Guarded by its own lock;
# refcounted because a long-lived registration (the serve daemon) and
# short ``use_tracer`` scopes of the same tracer may overlap.
_LIVE_LOCK = threading.Lock()
_LIVE: dict = {}


def register_tracer(tracer: "Tracer") -> None:
    """Make ``tracer`` resolvable from its :class:`SpanContext`\\ s."""
    with _LIVE_LOCK:
        entry = _LIVE.get(tracer.trace_id)
        if entry is not None and entry[0] is tracer:
            entry[1] += 1
        else:
            _LIVE[tracer.trace_id] = [tracer, 1]


def unregister_tracer(tracer: "Tracer") -> None:
    """Drop one registration of ``tracer`` (freed once the count hits 0)."""
    with _LIVE_LOCK:
        entry = _LIVE.get(tracer.trace_id)
        if entry is not None and entry[0] is tracer:
            entry[1] -= 1
            if entry[1] <= 0:
                del _LIVE[tracer.trace_id]


class Span:
    """A live span.  Use as a context manager, or call :meth:`finish`."""

    __slots__ = (
        "tracer",
        "name",
        "span_id",
        "parent_id",
        "track",
        "start",
        "end",
        "status",
        "attributes",
        "_events",
        "_links",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: str,
        parent_id: Optional[str],
        track: str,
        attributes: dict,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.track = track
        self.start = clock.perf()
        self.end: Optional[float] = None
        self.status = "ok"
        self.attributes = attributes
        self._events: list = []
        self._links: list = []
        self._token = None

    def set(self, key: str, value) -> None:
        self.attributes[key] = value

    def event(self, name: str, **attributes) -> None:
        self._events.append((clock.perf(), name, attributes))

    def link(self, span_id: Optional[str]) -> None:
        if span_id:
            self._links.append(str(span_id))

    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.tracer.trace_id, span_id=self.span_id)

    def finish(self) -> None:
        if self.end is not None:
            return
        self.end = clock.perf()
        self.tracer._export(
            SpanRecord(
                trace_id=self.tracer.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start=self.start,
                end=self.end,
                track=self.track,
                status=self.status,
                attributes=self.attributes,
                events=tuple(self._events),
                links=tuple(self._links),
            )
        )

    def discard(self) -> None:
        """Close the span without exporting it.

        For a span opened around a probe that may find nothing to report
        (a memo lookup that misses): the trace then holds no record of
        it, and a later :meth:`finish` or ``with`` exit is a no-op.
        """
        if self.end is None:
            self.end = self.start

    def __enter__(self) -> "Span":
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", exc_type.__name__)
        self.finish()
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        return False


_UNSET = object()

ParentLike = Union[Span, SpanContext, None]


class Tracer:
    """Creates spans with structural ids and hands finished ones to an exporter."""

    __slots__ = ("trace_id", "enabled", "exporter", "started_wall", "started_perf", "_lock", "_children", "_pid")

    def __init__(
        self,
        *,
        trace_id: str = "trace",
        exporter=None,
        enabled: bool = True,
    ) -> None:
        self.trace_id = trace_id
        self.enabled = enabled
        self.exporter = exporter if exporter is not None else InMemoryExporter()
        self.started_wall = clock.wall()
        self.started_perf = clock.perf()
        self._lock = threading.Lock()
        self._children: dict = {}
        self._pid = os.getpid()

    @classmethod
    def for_key(cls, key, *, exporter=None, enabled: bool = True) -> "Tracer":
        """Build a tracer whose trace id is a digest of ``key`` (never RNG)."""
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:16]
        return cls(trace_id=digest, exporter=exporter, enabled=enabled)

    def _alloc_id(self, parent_id: Optional[str], key: Optional[str]) -> str:
        prefix = parent_id if parent_id is not None else f"{self.trace_id}:"
        if key is not None:
            return f"{prefix}.{key}" if parent_id is not None else f"{prefix}{key}"
        with self._lock:
            n = self._children.get(prefix, 0)
            self._children[prefix] = n + 1
        return f"{prefix}.{n}" if parent_id is not None else f"{prefix}{n}"

    def _resolve_parent(self, parent) -> Tuple[Optional[str], Optional[str]]:
        """Return ``(parent_id, inherited_track)`` for a parent-ish value."""
        if parent is _UNSET:
            active = _ACTIVE.get()
            if active is not None and active.tracer is self:
                return active.span_id, active.track
            return None, None
        if parent is None:
            return None, None
        if isinstance(parent, Span):
            return parent.span_id, parent.track
        if isinstance(parent, SpanContext):
            return parent.span_id, None
        return str(parent), None

    def span(
        self,
        name: str,
        *,
        parent=_UNSET,
        track: Optional[str] = None,
        key: Optional[str] = None,
        **attributes,
    ):
        """Open a live span.  ``parent`` defaults to the active span (if ours)."""
        if not self.enabled:
            return NULL_SPAN
        parent_id, inherited = self._resolve_parent(parent)
        span_id = self._alloc_id(parent_id, key)
        return Span(self, name, span_id, parent_id, track or inherited or "main", attributes)

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent=None,
        track: str = "main",
        key: Optional[str] = None,
        status: str = "ok",
        events: Sequence[Tuple[float, str, dict]] = (),
        links: Sequence[str] = (),
        **attributes,
    ) -> Optional[str]:
        """Record an already-timed span (supervisor-side attempt timelines)."""
        if not self.enabled:
            return None
        parent_id, _ = self._resolve_parent(parent if parent is not None else None)
        span_id = self._alloc_id(parent_id, key)
        self._export(
            SpanRecord(
                trace_id=self.trace_id,
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                start=start,
                end=end,
                track=track,
                status=status,
                attributes=attributes,
                events=tuple(events),
                links=tuple(links),
            )
        )
        return span_id

    def _export(self, record: SpanRecord) -> None:
        self.exporter.export(record)


def current_tracer() -> Union[Tracer, _NullTracer]:
    """The tracer installed by :func:`use_tracer` on this context, or the no-op."""
    tracer = _TRACER_VAR.get()
    return tracer if tracer is not None else NULL_TRACER


def current_span():
    """The innermost live span on this context, or ``None``."""
    return _ACTIVE.get()


@contextlib.contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the context-local tracer and register it live."""
    token = _TRACER_VAR.set(tracer)
    register_tracer(tracer)
    try:
        yield tracer
    finally:
        _TRACER_VAR.reset(token)
        unregister_tracer(tracer)


def resolve_context(context: Optional[SpanContext]):
    """Re-attach a pickled :class:`SpanContext` to its live tracer.

    Returns ``(tracer, parent_context)``.  Thread-pool workers share the
    process and find the registered tracer; forked process-pool children
    inherit the registry but fail the pid check and degrade to the no-op
    tracer (writing to an inherited exporter fd from a child would corrupt
    the parent's span log).
    """
    if context is None:
        return NULL_TRACER, None
    with _LIVE_LOCK:
        entry = _LIVE.get(context.trace_id)
        tracer = entry[0] if entry is not None else None
    if tracer is None or tracer._pid != os.getpid():
        return NULL_TRACER, None
    return tracer, context
