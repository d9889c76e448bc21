"""Benchmark-owned span recording around each layer's public functions.

Nothing under ``src/`` is edited and the program's own ``SpanRecorder``
stays off.  The traced run builds its deployment from the subclasses and
the proxy below; each times one public call into a layer and appends a
span to an in-memory :class:`SpanLog`.  ``net.wire`` and ``sql`` cannot
be wrapped from outside, so the traced run also captures raw frames with
the servers' public ``frame_observer=`` hook and ``ledger.replay_frames``
times them offline.

A span is the list ``[name, start, end, parent, rid, note]``: ``parent``
is the index of the span that was current in the same task when it
opened (-1 for none), ``rid`` the wire request id where the call site
knows it.  Server-side spans run in the server's own task, so their
parent is found afterwards from the request id (``ledger.adopt_orphans``).
"""

from __future__ import annotations

import contextvars
import json
from time import perf_counter

from repro.crypto.envelope import EnvelopeCodec
from repro.dssp import DsspNode, HomeServer
from repro.net import DsspNetServer, HomeNetServer

from deploy import Deployment
from ledger import END, NOTE, PARENT, START

__all__ = ["SpanLog", "TracedDeployment"]


class SpanLog:
    """Spans and captured frames of one traced window, in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.frames: list[bytes] = []
        self._current = contextvars.ContextVar("e2e-span", default=-1)

    def open(self, name: str, rid: str | None = None) -> int:
        """Start a span that may have children; returns its index."""
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._current.get(), rid, None])
        self._current.set(index)
        self.spans[index][START] = perf_counter()
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = perf_counter()
        self._current.set(span[PARENT])

    def annotate(self, index: int, note) -> None:
        self.spans[index][NOTE] = note

    def leaf(self, name: str, started: float, note=None) -> None:
        """Record a finished childless span that began at ``started``."""
        self.spans.append(
            [name, started, perf_counter(), self._current.get(), None, note]
        )

    def reset(self) -> None:
        """Forget everything recorded so far (between warm-up and window).

        Only valid while no span is open, which holds whenever the load
        driver is not inside a page."""
        self.spans.clear()
        self.frames.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                record = dict(
                    zip(("name", "start", "end", "parent", "rid", "note"), span)
                )
                record["id"] = index
                out.write(json.dumps(record) + "\n")


def _timed(base, method: str, span_name: str = "", *, name_attr: str = ""):
    """``base.method`` recorded as a childless span named ``span_name``, or
    by the instance attribute ``name_attr`` where the name varies."""
    inner = getattr(base, method)

    def timed(self, *args):
        started = perf_counter()
        try:
            return inner(self, *args)
        finally:
            self.log.leaf(span_name or getattr(self, name_attr), started)

    timed.__name__ = method
    return timed


class _TracedCodec(EnvelopeCodec):
    def __init__(self, keyring, log: SpanLog, side: str) -> None:
        super().__init__(keyring)
        self.log = log
        self._seal = f"crypto.{side}_seal"
        self._open = f"crypto.{side}_open"
        self._seal_result = f"crypto.{side}_seal_result"

    seal_query = _timed(EnvelopeCodec, "seal_query", name_attr="_seal")
    seal_update = _timed(EnvelopeCodec, "seal_update", name_attr="_seal")
    seal_result = _timed(EnvelopeCodec, "seal_result", name_attr="_seal_result")
    open_result = _timed(EnvelopeCodec, "open_result", name_attr="_open")
    open_query = _timed(EnvelopeCodec, "open_query", name_attr="_open")
    open_update = _timed(EnvelopeCodec, "open_update", name_attr="_open")


class _TracedNode(DsspNode):
    log: SpanLog

    lookup = _timed(DsspNode, "lookup", "dssp.cache.lookup")
    admit = _timed(DsspNode, "admit", "dssp.cache.admit")
    invalidate_for = _timed(DsspNode, "invalidate_for", "dssp.invalidation")


class _TracedHome(HomeServer):
    log: SpanLog

    def serve_query(self, envelope):
        span = self.log.open("dssp.homeserver.serve_query")
        try:
            return super().serve_query(envelope)
        finally:
            self.log.close(span)

    def apply_update(self, envelope):
        span = self.log.open("dssp.homeserver.apply_update")
        try:
            return super().apply_update(envelope)
        finally:
            self.log.close(span)


class _TracedDatabase:
    """Proxy timing ``Database.execute`` / ``Database.apply``."""

    def __init__(self, database, log: SpanLog) -> None:
        self._database = database
        self._log = log

    def __getattr__(self, name):
        return getattr(self._database, name)

    def execute(self, select):
        started = perf_counter()
        result = None
        try:
            result = self._database.execute(select)
            return result
        finally:
            self._log.leaf(
                "storage.execute",
                started,
                None if result is None else len(result),
            )

    def apply(self, statement):
        started = perf_counter()
        try:
            return self._database.apply(statement)
        finally:
            self._log.leaf("storage.apply", started)


class _TracedDsspNet(DsspNetServer):
    log: SpanLog

    async def handle(self, frame, context):
        span = self.log.open("net.dssp_server.handle", context.request_id)
        try:
            return await super().handle(frame, context)
        finally:
            self.log.close(span)


class _TracedHomeNet(HomeNetServer):
    log: SpanLog

    async def handle(self, frame, context):
        span = self.log.open("net.home_server.handle", context.request_id)
        try:
            return await super().handle(frame, context)
        finally:
            self.log.close(span)


class TracedDeployment(Deployment):
    """The same topology with every layer boundary timed into ``log``."""

    def __init__(self, inputs, log: SpanLog) -> None:
        self.log = log
        super().__init__(inputs)

    def make_codec(self, side):
        return _TracedCodec(self.inputs.keyring, self.log, side)

    def wrap_database(self, database):
        return _TracedDatabase(database, self.log)

    def make_home(self, database):
        inputs = self.inputs
        home = _TracedHome(
            inputs.workload.app,
            database,
            inputs.spec.registry,
            inputs.policy,
            inputs.keyring,
        )
        home.log = self.log
        return home

    def make_home_net(self, home):
        server = _TracedHomeNet(home)
        server.log = self.log
        return server

    def make_node(self, cache_capacity):
        node = _TracedNode(cache_capacity=cache_capacity)
        node.log = self.log
        return node

    def make_dssp_net(self, node, node_id):
        # One observer per DSSP server sees every frame exactly once: its
        # own client hop, plus (through the home client it builds with the
        # same observer) the home hop and the invalidation stream.
        server = _TracedDsspNet(
            node, node_id=node_id, frame_observer=self.log.frames.append
        )
        server.log = self.log
        return server
