"""Span-based distributed tracing over the wire-v2 request id.

The paper's split — keyless DSSP nodes at the edge, a keyed home behind
them — makes the system hard to *observe* without weakening the exposure
argument: per-request timing must never carry statement text, bound
parameters, or result rows.  This module records **spans**: named timed
phases of one request, keyed by the wire-v2 request id that already rides
every miss forward, update forward, and invalidation push.  The request
id *is* the trace context, so the protocol is untouched and every node
that sees a frame can contribute spans to the same trace.

Design points (Dapper-style, dependency-free):

* **Head-based sampling by trace id.**  ``SpanRecorder.sampled`` hashes
  the trace id (BLAKE2b) against the sampling rate, so every node makes
  the same keep/drop decision for a given request without coordination —
  one decision at the head governs the whole fleet.
* **Ambient context, not plumbed arguments.**  The net layer opens a
  root span per request with :meth:`SpanRecorder.trace`; library layers
  (cache, crypto, storage, invalidation) call the module-level
  :func:`span` helper, which attaches a child to whatever span is active
  in the current asyncio task and otherwise returns the shared
  :data:`NOOP_SPAN`.  Library code therefore needs no recorder reference
  and pays one ContextVar read, and allocates nothing, when tracing is
  off.
* **Exposure-safe attributes by construction.**  Attribute keys and
  values are bounded and restricted to scalars; anything else is
  replaced by its type name.  Callers physically cannot attach a
  statement, a parameter tuple, or a row set to a span.
* **JSON-lines sinks.**  Each process appends finished spans to its own
  span log; the assembler (:mod:`repro.obs.assemble`) joins the logs of
  N nodes into trace trees after the fact.
"""

from __future__ import annotations

import json
import time
from contextlib import AbstractContextManager, contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import IO, Iterator

__all__ = [
    "NOOP_SPAN",
    "Span",
    "SpanRecorder",
    "SpanSink",
    "current_trace_id",
    "span",
    "trace_sampled",
]

#: Bounds enforced on span attributes (exposure safety by construction).
MAX_ATTRS = 16
MAX_KEY_CHARS = 48
MAX_VALUE_CHARS = 120

#: Span names used on the request hot path, in call order.  Kept here so
#: the assembler and the docs agree on the vocabulary.
PHASES = (
    "client.request",
    "client.exchange",
    "server.decode",
    "server.handle",
    "dssp.cache_lookup",
    "dssp.miss_forward",
    "dssp.update_forward",
    "dssp.invalidate",
    "dssp.stream_apply",
    "home.crypto_open",
    "home.db_execute",
    "home.db_apply",
    "home.crypto_seal",
    "home.fanout_enqueue",
    "home.push_send",
    "storage.execute",
)


def _clean_value(value: object) -> bool | int | float | str:
    """Clamp one attribute value to a bounded exposure-safe scalar."""
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        return value[:MAX_VALUE_CHARS]
    # Structured values (rows, tuples, envelopes, ...) are never
    # serialized: only the type name survives.
    return f"<{type(value).__name__}>"


def _clean_attrs(attrs: dict) -> dict:
    cleaned = {}
    for key, value in attrs.items():
        if len(cleaned) >= MAX_ATTRS:
            break
        cleaned[str(key)[:MAX_KEY_CHARS]] = _clean_value(value)
    return cleaned


@dataclass(slots=True)
class Span:
    """One named, timed phase of a request on one node.

    ``start_s`` is wall-clock epoch seconds (shared across processes on
    one host, so the assembler can stitch cross-node parent/child links
    by time containment); ``duration_s`` is measured with the monotonic
    performance counter.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    node: str
    start_s: float
    duration_s: float = 0.0
    attrs: dict = field(default_factory=dict)
    status: str = "ok"

    #: Distinguishes real spans from :data:`NOOP_SPAN` without isinstance.
    recorded = True

    def set(self, key: str, value: object) -> None:
        """Attach a bounded, exposure-safe attribute."""
        if len(self.attrs) < MAX_ATTRS or str(key)[:MAX_KEY_CHARS] in self.attrs:
            self.attrs[str(key)[:MAX_KEY_CHARS]] = _clean_value(value)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def to_dict(self) -> dict:
        record = {
            "trace": self.trace_id,
            "span": self.span_id,
            "name": self.name,
            "node": self.node,
            "ts": round(self.start_s, 6),
            "dur": round(self.duration_s, 9),
        }
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        if self.attrs:
            record["attrs"] = self.attrs
        if self.status != "ok":
            record["status"] = self.status
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        return cls(
            trace_id=record["trace"],
            span_id=record["span"],
            parent_id=record.get("parent"),
            name=record["name"],
            node=record["node"],
            start_s=float(record["ts"]),
            duration_s=float(record["dur"]),
            attrs=dict(record.get("attrs", {})),
            status=record.get("status", "ok"),
        )


class _NoopSpan:
    """Absorbs attribute writes when the trace is unsampled or inactive.

    It is its own context manager, so ``with tracer.trace(...)`` on an
    unsampled request enters and leaves the one shared instance and
    allocates nothing.
    """

    __slots__ = ()
    recorded = False

    def set(self, key: str, value: object) -> None:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class SpanSink:
    """Per-process span collector: JSON-lines file plus a bounded buffer.

    The in-memory buffer lets a co-located consumer (loadgen's per-phase
    report, the tests) read back recent spans without re-parsing the
    file; the file is the durable cross-process artifact the assembler
    joins.  Every emit is flushed so a SIGTERM'd server leaves a
    complete, parseable log.
    """

    def __init__(
        self, path: str | Path | None = None, *, buffer_limit: int = 20000
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.buffer_limit = buffer_limit
        self._buffer: list[Span] = []
        self._file: IO[str] | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")

    def emit(self, span: Span) -> None:
        if len(self._buffer) < self.buffer_limit:
            self._buffer.append(span)
        if self._file is not None:
            self._file.write(
                json.dumps(span.to_dict(), separators=(",", ":")) + "\n"
            )
            self._file.flush()

    @property
    def spans(self) -> tuple[Span, ...]:
        return tuple(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def trace_sampled(trace_id: str, rate: float) -> bool:
    """The fleet-wide head-based sampling decision for one trace id.

    Deterministic in the trace id alone: every node hashing the same id
    at the same rate keeps or drops the whole trace together.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    digest = blake2b(trace_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") < int(rate * 2**64)


#: (recorder, span) active in the current asyncio task, or None.
_ACTIVE: ContextVar[tuple["SpanRecorder", Span] | None] = ContextVar(
    "repro_active_span", default=None
)


class SpanRecorder:
    """Records spans for one node into one sink, under one sampling rate.

    A recorder with no sink (the default on every server and client) is
    permanently disabled: :meth:`trace` is then one attribute check that
    returns the shared :data:`NOOP_SPAN` — no generator, no context
    manager object, no hash.  With a sink, an unsampled trace id costs
    one BLAKE2b hash and still allocates nothing.
    """

    def __init__(
        self,
        node_id: str,
        sink: SpanSink | None = None,
        *,
        sample_rate: float = 1.0,
    ) -> None:
        self.node_id = node_id
        self.sink = sink
        self.sample_rate = sample_rate
        self._sequence = 0

    @property
    def enabled(self) -> bool:
        return self.sink is not None and self.sample_rate > 0.0

    def sampled(self, trace_id: str | None) -> bool:
        if trace_id is None or not self.enabled:
            return False
        return trace_sampled(trace_id, self.sample_rate)

    def _next_span_id(self) -> str:
        self._sequence += 1
        return f"{self._sequence:08x}"

    def trace(
        self, trace_id: str | None, name: str, **attrs: object
    ) -> AbstractContextManager[Span | _NoopSpan]:
        """Open a root (or ambient-child) span for ``trace_id``.

        The net layer calls this at request entry; if an ambient span of
        the same trace is already active in this task (e.g. a nested
        client call inside a server handler), the new span becomes its
        child so one node's spans form a proper tree.
        """
        if not self.sampled(trace_id):
            return NOOP_SPAN
        active = _ACTIVE.get()
        parent_id = (
            active[1].span_id
            if active is not None and active[1].trace_id == trace_id
            else None
        )
        return _recording(self, trace_id, parent_id, name, attrs)

    def record(
        self,
        trace_id: str | None,
        name: str,
        *,
        start_s: float,
        duration_s: float,
        **attrs: object,
    ) -> None:
        """Emit one already-timed span directly (no ambient context).

        Used where one timed operation serves several traces at once —
        a batched invalidation push covers every coalesced entry's trace
        — or where the work runs outside any request task.
        """
        if not self.sampled(trace_id):
            return
        self.sink.emit(
            Span(
                trace_id=trace_id,
                span_id=self._next_span_id(),
                parent_id=None,
                name=name,
                node=self.node_id,
                start_s=start_s,
                duration_s=duration_s,
                attrs=_clean_attrs(attrs) if attrs else {},
            )
        )

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()


@contextmanager
def _recording(
    recorder: SpanRecorder,
    trace_id: str,
    parent_id: str | None,
    name: str,
    attrs: dict,
) -> Iterator[Span]:
    """Time one sampled span as the ambient span of this task, then emit."""
    current = Span(
        trace_id=trace_id,
        span_id=recorder._next_span_id(),
        parent_id=parent_id,
        name=name,
        node=recorder.node_id,
        start_s=time.time(),
        attrs=_clean_attrs(attrs) if attrs else {},
    )
    token = _ACTIVE.set((recorder, current))
    started = time.perf_counter()
    try:
        yield current
    except BaseException:
        current.status = "error"
        raise
    finally:
        current.duration_s = time.perf_counter() - started
        _ACTIVE.reset(token)
        recorder.sink.emit(current)


def span(
    name: str, **attrs: object
) -> AbstractContextManager[Span | _NoopSpan]:
    """Attach a child span to whatever trace is active in this task.

    Library layers (cache lookup, crypto seal/open, storage execute,
    invalidation) use this: they never hold a recorder, and when no
    sampled trace is active the cost is one ContextVar read and the
    shared :data:`NOOP_SPAN` comes back.
    """
    active = _ACTIVE.get()
    if active is None:
        return NOOP_SPAN
    recorder, parent = active
    return _recording(recorder, parent.trace_id, parent.span_id, name, attrs)


def current_trace_id() -> str | None:
    """The trace id of the span active in this task, if any."""
    active = _ACTIVE.get()
    return active[1].trace_id if active is not None else None
