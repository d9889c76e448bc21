"""Answered from the read: what an inline request must still do.

A server steps each request from the connection's read callback until
its handler first waits (see :mod:`repro.net.service`).  A request
answered there costs no task, but it is the same request: it is counted
per application, traced, logged and timed exactly as one that waited.
One that waits moves into a task that runs in the same copied context,
so a handler parked inside a span never becomes the ambient parent of the
next frame read on its connection, and it still gets the request
deadline.  And a server that answers from the read must stop reading
when its answers stop draining.
"""

from __future__ import annotations

import asyncio
import logging

import pytest

from repro.dssp.invalidation import StrategyClass
from repro.errors import NetTimeoutError
from repro.net import RetryPolicy, WireClient, wire
from repro.net.service import WireServer
from repro.obs import SpanSink
from tests.net import streams
from tests.net.test_end_to_end import Topology


def _ctx(record: logging.LogRecord) -> dict:
    return getattr(record, "ctx", None) or {}


def _spans(sink: SpanSink, trace_id: str) -> dict[str, list]:
    by_name: dict[str, list] = {}
    for span in sink.spans:
        if span.trace_id == trace_id:
            by_name.setdefault(span.name, []).append(span)
    return by_name


class TestInlineHit:
    async def test_an_inline_hit_is_counted_traced_and_logged(
        self, toystore, toystore_db, caplog
    ):
        caplog.set_level(logging.DEBUG, logger="repro.net.service")
        sink = SpanSink()
        topology = Topology(
            toystore, toystore_db, StrategyClass.MSIS, span_sink=sink
        )
        async with topology as top:
            client = top.clients[0]
            server = top.dssp_nets[0]
            envelope = top.seal_query(toystore.query("Q2").bind([1]))
            assert (await client.query(envelope)).cache_hit is False
            requests = server.metrics.counter("server.app_requests.toystore")
            before = requests.value
            outcome = await client.query(envelope, request_id="inline-hit")
            assert outcome.cache_hit is True
            assert requests.value == before + 1

        spans = _spans(sink, "inline-hit")
        (decode,) = spans["server.decode"]
        (handle,) = spans["server.handle"]
        (lookup,) = spans["dssp.cache_lookup"]
        assert decode.node == handle.node == "dssp-0"
        assert lookup.parent_id == handle.span_id
        assert "error" not in handle.attrs
        served = [
            record
            for record in caplog.records
            if record.getMessage() == "request served"
            and _ctx(record).get("request_id") == "inline-hit"
        ]
        assert [_ctx(record)["server"] for record in served] == ["dssp-0"]

    async def test_a_parked_miss_is_not_the_next_frames_parent(
        self, toystore, toystore_db
    ):
        """A traced miss parks inside ``dssp.miss_forward``; an untraced
        hit read right behind it on the same connection records nothing.
        Were the miss stepped in the read's own context, the hit's
        ``dssp.cache_lookup`` would join the miss's trace."""
        sink = SpanSink()
        topology = Topology(
            toystore, toystore_db, StrategyClass.MSIS, span_sink=sink
        )
        release = asyncio.Event()

        async def hold_the_miss(frame, request_id):
            if request_id == "parked-miss":
                await release.wait()

        async with topology as top:
            top.home_net.fault_hook = hold_the_miss
            q2 = toystore.query("Q2")
            hit = wire.encode_frame(
                wire.QueryRequest(top.seal_query(q2.bind([1])))
            )
            miss = wire.encode_frame(
                wire.QueryRequest(top.seal_query(q2.bind([2]))),
                request_id="parked-miss",
            )
            reader, writer = await asyncio.open_connection(
                *top.dssp_nets[0].address
            )
            try:
                writer.write(hit)  # untraced warm-up fills the cache
                (frame, rid) = await streams.read_traced(reader)
                assert frame.cache_hit is False and rid is None
                writer.write(miss + hit)  # one read: the miss, then the hit
                (frame, rid) = await streams.read_traced(reader)
                assert frame.cache_hit is True and rid is None
                parked = _spans(sink, "parked-miss")
                assert "server.handle" not in parked  # the miss is open
                lookups = parked["dssp.cache_lookup"]
                release.set()
                (frame, rid) = await streams.read_traced(reader)
                assert frame.cache_hit is False and rid == "parked-miss"
            finally:
                writer.close()
                await writer.wait_closed()

        spans = _spans(sink, "parked-miss")
        (handle,) = spans["server.handle"]
        assert [span.parent_id for span in lookups] == [handle.span_id]
        assert [
            span.parent_id for span in spans["dssp.cache_lookup"]
        ] == [handle.span_id]
        # The untraced hits recorded no lookup of their own.
        assert [
            span.trace_id
            for span in sink.spans
            if span.name == "dssp.cache_lookup"
        ] == ["parked-miss"]


class TestWaitingRequests:
    async def test_a_fault_hook_stall_waits_in_a_task_and_times_out(self):
        stalls = [3600.0, 0.01]

        async def stall(frame, request_id):
            await asyncio.sleep(stalls.pop(0))

        server = WireServer(request_timeout_s=0.05, fault_hook=stall)
        host, port = await server.start()
        client = WireClient(host, port, retry=RetryPolicy(attempts=1))
        try:
            with pytest.raises(NetTimeoutError, match="exceeded 0.05s"):
                await client.stats()
            # A short stall is a wait like any other: answered, in time.
            snapshot = await client.stats()
            assert snapshot["metrics"]["counters"]["server.timeouts"] == 1
        finally:
            await client.aclose()
            await server.stop()


class TestNonReadingPeer:
    REQUESTS = 10_000

    async def test_a_peer_that_never_reads_does_not_grow_the_server(self):
        """10,000 STATS requests on one socket that never reads: the
        server stops reading once its answers back up, instead of
        buffering every answer."""
        server = WireServer(max_in_flight=64)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            request = wire.encode_frame(wire.StatsRequest())
            writer.write(request * self.REQUESTS)  # never drained, never read
            served = server.metrics.counter("server.requests")
            seen = -1
            while served.value != seen:  # until the server stops answering
                seen = served.value
                await asyncio.sleep(0.2)
            (context,) = server._contexts
            buffered = context.writer._transport.get_write_buffer_size()
            response = len(wire.encode_frame(server._stats_response()))
        finally:
            writer.transport.abort()
            await server.stop()
        assert served.value < self.REQUESTS
        assert server.metrics.counter("server.shed").value == 0
        # High water, plus the answers to the frames of the one read
        # that crossed it.
        one_read = 4096 // len(request) + 1
        assert buffered <= 64 * 1024 + one_read * response
