"""Answered from the read: what an inline request must still do.

A server steps each request from the connection's read callback until
its handler first waits (see :mod:`repro.net.service`).  A request
answered there costs no task, but it is the same request: it is counted
per application, traced, logged and timed exactly as one that waited.
One that waits — parked on its forward's reply and stepped on from the
read that brings it, or carried on in a task — runs in the same copied
context, so a handler parked inside a span never becomes the ambient
parent of the next frame read on its connection, and it still gets the
request deadline; whatever ends the wait for a reply (the reply, the
deadline, the home connection lost, the handler's own failure) answers
the client as it did when the wait was a task's.  And a server that
answers from the read must stop reading when its answers stop draining.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import replace

import pytest

from repro.analysis.exposure import ExposureLevel
from repro.crypto.envelope import QueryEnvelope, ResultEnvelope
from repro.dssp import DsspNode
from repro.dssp.invalidation import StrategyClass
from repro.errors import (
    HomeUnreachableError,
    NetError,
    NetTimeoutError,
    ReproError,
)
from repro.net import DsspNetServer, RetryPolicy, WireClient, wire
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


QUERY = QueryEnvelope("toystore", ExposureLevel.STMT, "Q2", (1,))


async def home_answering_once(hang_up: bool):
    """A home that answers the first query it reads with a sealed result,
    then reads request frames and never answers; with ``hang_up``, it
    closes the connection at the first it does not answer."""
    answered = False

    async def serve(reader, writer):
        nonlocal answered
        try:
            while (traced := await streams.read_traced(reader)) is not None:
                frame, request_id = traced
                if not isinstance(frame, wire.QueryRequest):
                    continue  # the node's subscribe: left unanswered
                if answered and hang_up:
                    return
                if not answered:
                    answered = True
                    result = ResultEnvelope("toystore", ciphertext=b"rows")
                    writer.write(
                        wire.encode_frame(
                            wire.QueryResponse(result, cache_hit=False),
                            request_id=request_id,
                        )
                    )
        except ConnectionError:
            pass
        finally:
            writer.close()

    return await asyncio.start_server(serve, "127.0.0.1", 0)


async def second_miss(toystore, hang_up: bool, **dssp_options):
    """Two misses through a DSSP whose home is
    ``home_answering_once(hang_up)``: the first opens the home channel,
    so the second waits for its reply parked on it.  The second's
    exception, how long it took, and the DSSP's books after it (requests
    in flight, the home channel's pending replies)."""
    home = await home_answering_once(hang_up)
    server = DsspNetServer(DsspNode(), **dssp_options)
    server.register_application(
        "toystore", toystore, home.sockets[0].getsockname()
    )
    host, port = await server.start()
    client = WireClient(host, port, retry=RetryPolicy(attempts=1))
    try:
        await client.query(QUERY)
        started = asyncio.get_running_loop().time()
        with pytest.raises(ReproError) as raised:
            await client.query(replace(QUERY, params=(2,)))
        took = asyncio.get_running_loop().time() - started
        (home_client,) = server._home_clients.values()
        channel = home_client._channel
        books = (server._in_flight, channel._pending)
    finally:
        await client.aclose()
        await server.stop()
        home.close()
        await home.wait_closed()
    return raised.value, took, books


class TestParkedForward:
    """A miss waits for its forward's reply with no task; whatever ends
    that wait answers the client as a task's end did."""

    async def test_a_home_that_never_answers_times_out_at_the_dssp(
        self, toystore
    ):
        error, took, books = await second_miss(
            toystore, hang_up=False, request_timeout_s=0.2
        )
        assert isinstance(error, NetTimeoutError)
        assert "exceeded 0.2s" in str(error)  # the DSSP's, not the home's
        assert took < 5.0  # the home channel's own deadline is 30 s
        assert books == (0, {})

    @pytest.mark.parametrize("attempts", [1, 2])
    async def test_a_home_connection_lost_mid_forward_is_miss_forwarded(
        self, toystore, attempts
    ):
        """Lost with the miss parked on it, the connection wakes the miss;
        a second attempt waits out its backoff in a task."""
        error, _, books = await second_miss(
            toystore,
            hang_up=True,
            home_retry=RetryPolicy(
                attempts=attempts, backoff_s=0.001, max_backoff_s=0.002
            ),
        )
        assert isinstance(error, HomeUnreachableError)
        assert books == (0, {})

    async def test_an_admission_that_raises_answers_typed_and_spares_the_home(
        self, toystore, toystore_db
    ):
        topology = Topology(toystore, toystore_db, StrategyClass.MSIS, nodes=1)
        async with topology as top:
            client = top.clients[0]
            node = top.nodes[0]
            q2 = toystore.query("Q2")

            def refuse(*args):
                raise RuntimeError("admission failed")

            await client.query(top.seal_query(q2.bind([1])))
            (home_client,) = top.dssp_nets[0]._home_clients.values()
            connection = home_client._channel._connection
            node.admit = refuse
            with pytest.raises(NetError, match="admission failed"):
                await client.query(top.seal_query(q2.bind([2])))
            del node.admit
            # The home connection the failed miss came back on still
            # serves the next forward, which is admitted.
            outcome = await client.query(top.seal_query(q2.bind([3])))
            assert outcome.cache_hit is False and len(node.cache) == 2
            assert home_client._channel._connection is connection


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
