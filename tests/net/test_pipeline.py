"""Pipelined transport: out-of-order completion, window bounds, failures.

The property test drives the pending-map machinery through arbitrary
completion orders (with duplicate responses thrown in): every response
must land on the future that sent its request id — never on another
request's — and the channel must end each run with an empty pending map
and a fully released window.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.exposure import ExposureLevel
from repro.crypto.envelope import QueryEnvelope, ResultEnvelope, UpdateEnvelope
from repro.errors import NetConnectionError, NetTimeoutError
from repro.net import wire
from repro.net.client import RetryPolicy, WireClient
from repro.net.wire import QueryRequest, QueryResponse, UpdateResponse

QUERY = QueryEnvelope(
    app_id="toystore", level=ExposureLevel.BLIND, sealed_statement=b"k1"
)
UPDATE = UpdateEnvelope(
    app_id="toystore", level=ExposureLevel.BLIND, sealed_statement=b"u1"
)

ONE_SHOT = RetryPolicy(attempts=1)


def echo_response(request_id: str) -> QueryResponse:
    """A RESULT frame that names the request it answers.

    The rid travels in the ciphertext too, so the awaiting caller can
    prove *its* response (not just *a* response) resolved its future.
    """
    return QueryResponse(
        ResultEnvelope(app_id="toystore", ciphertext=request_id.encode()),
        cache_hit=False,
    )


class PermutingServer:
    """Collects ``expect`` requests, then answers them in ``order``.

    ``order`` indexes into arrival order; ``duplicates`` lists arrival
    indexes whose response is sent twice (the second copy must be counted
    as unmatched by the client, never delivered to a different caller).
    """

    def __init__(self, expect, order, *, duplicates=(), delay_s=0.0):
        self.expect = expect
        self.order = list(order)
        self.duplicates = set(duplicates)
        self.delay_s = delay_s
        self._server = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        self._server.close()
        await self._server.wait_closed()

    async def _serve(self, reader, writer):
        try:
            arrived = []
            for _ in range(self.expect):
                traced = await wire.read_traced(reader)
                if traced is None:
                    return
                _, request_id = traced
                arrived.append(request_id)
            for index in self.order:
                if self.delay_s:
                    await asyncio.sleep(self.delay_s)
                rid = arrived[index]
                await wire.write_frame(
                    writer, echo_response(rid), request_id=rid
                )
                if index in self.duplicates:
                    await wire.write_frame(
                        writer, echo_response(rid), request_id=rid
                    )
        finally:
            writer.close()


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 8))
    order = draw(st.permutations(list(range(n))))
    duplicates = draw(
        st.lists(st.integers(0, n - 1), max_size=3, unique=True)
    )
    return n, order, duplicates


class TestOutOfOrderCompletion:
    @given(scenario=scenarios())
    @settings(max_examples=25, deadline=None)
    def test_every_response_lands_on_its_own_request(self, scenario):
        asyncio.run(self._run(*scenario))

    async def _run(self, n, order, duplicates):
        async with PermutingServer(n, order, duplicates=duplicates) as server:
            client = WireClient(
                "127.0.0.1",
                server.port,
                pipeline=n,
                retry=ONE_SHOT,
                request_timeout_s=5.0,
            )
            try:
                outcomes = await asyncio.gather(
                    *(
                        client.query(QUERY, request_id=f"rid-{i}")
                        for i in range(n)
                    )
                )
                # No cross-talk: caller i observed the response tagged
                # with *its* request id, whatever order the wire used.
                for i, outcome in enumerate(outcomes):
                    assert outcome.result.ciphertext == f"rid-{i}".encode()
                # No orphans: the pending map drained and every window
                # slot was released.
                channel = client._channel
                assert channel._pending == {}
                assert channel._slots._value == n
                # Duplicate responses were counted, not delivered.
                unmatched = client.metrics.counter(
                    "client.pipeline_unmatched"
                )
                assert unmatched.value == len(duplicates)
            finally:
                await client.aclose()

    async def test_barrier_server_needs_pipelining(self):
        """A server that answers nothing until all N requests arrive can
        only be satisfied by a client with N requests in flight — this
        deadlocks under the serial transport."""
        n = 4
        async with PermutingServer(n, range(n)) as server:
            client = WireClient(
                "127.0.0.1",
                server.port,
                pipeline=n,
                retry=ONE_SHOT,
                request_timeout_s=5.0,
            )
            try:
                outcomes = await asyncio.gather(
                    *(
                        client.query(QUERY, request_id=f"rid-{i}")
                        for i in range(n)
                    )
                )
            finally:
                await client.aclose()
        assert len(outcomes) == n


class TestWindowBound:
    async def test_full_window_surfaces_typed_timeout(self):
        """A request that cannot get a slot fails with a typed TIMEOUT
        naming the window — provably unsent, so retry-safe."""
        release = asyncio.Event()

        async def stall_blocker(frame, request_id):
            if request_id == "blocker":
                await release.wait()

        async def serve(reader, writer):
            try:
                while True:
                    traced = await wire.read_traced(reader)
                    if traced is None:
                        return
                    _, rid = traced
                    await wire.write_frame(
                        writer, echo_response(rid), request_id=rid
                    )
            finally:
                writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = WireClient(
            "127.0.0.1",
            port,
            pipeline=1,
            retry=ONE_SHOT,
            request_timeout_s=0.2,
            fault_hook=stall_blocker,
        )
        try:
            blocked = asyncio.ensure_future(
                client.query(QUERY, request_id="blocker")
            )
            await asyncio.sleep(0.05)  # let it occupy the only slot
            with pytest.raises(NetTimeoutError, match="pipeline window"):
                await client.query(QUERY, request_id="starved")
            timeouts = client.metrics.counter(
                "client.pipeline_window_timeouts"
            )
            assert timeouts.value == 1
            release.set()  # unblock the slot holder; it must still finish
            outcome = await blocked
            assert outcome.result.ciphertext == b"blocker"
        finally:
            await client.aclose()
            server.close()
            await server.wait_closed()


class TestChannelFailure:
    async def test_connection_death_fails_every_pending_request(self):
        """The reader loop poisons all in-flight futures with a typed
        connection error; non-idempotent updates must not retry (fate
        unknown: the request reached the wire)."""
        n = 3
        accepted = asyncio.Event()

        async def serve(reader, writer):
            for _ in range(n):
                await wire.read_traced(reader)
            accepted.set()
            writer.close()  # die with every request unanswered

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = WireClient(
            "127.0.0.1",
            port,
            pipeline=n,
            retry=ONE_SHOT,
            request_timeout_s=5.0,
        )
        try:
            results = await asyncio.gather(
                *(
                    client.update(UPDATE, request_id=f"u-{i}")
                    for i in range(n)
                ),
                return_exceptions=True,
            )
            await accepted.wait()
            assert all(
                isinstance(r, NetConnectionError) for r in results
            ), results
            assert client._channel._pending == {}
        finally:
            await client.aclose()
            server.close()
            await server.wait_closed()

    async def test_queries_reconnect_and_retry_after_channel_death(self):
        """Idempotent requests ride the normal retry discipline onto a
        fresh connection after the channel is poisoned."""
        connections = 0

        async def serve(reader, writer):
            nonlocal connections
            connections += 1
            first = connections == 1
            try:
                while True:
                    traced = await wire.read_traced(reader)
                    if traced is None:
                        return
                    _, rid = traced
                    if first:
                        return  # drop without answering
                    await wire.write_frame(
                        writer, echo_response(rid), request_id=rid
                    )
            finally:
                writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = WireClient(
            "127.0.0.1",
            port,
            pipeline=2,
            retry=RetryPolicy(attempts=3, backoff_s=0.001, max_backoff_s=0.01),
            request_timeout_s=5.0,
        )
        try:
            outcome = await client.query(QUERY, request_id="q-1")
            assert outcome.result.ciphertext == b"q-1"
            assert connections == 2
        finally:
            await client.aclose()
            server.close()
            await server.wait_closed()

    async def test_server_answers_acks_out_of_order(self):
        """Mixed frame types resolve by rid as well — an UPDATE_ACK for a
        later request may overtake an earlier query's RESULT."""

        async def serve(reader, writer):
            try:
                pending = []
                for _ in range(2):
                    frame, rid = await wire.read_traced(reader)
                    pending.append((frame, rid))
                for frame, rid in reversed(pending):
                    if isinstance(frame, QueryRequest):
                        await wire.write_frame(
                            writer, echo_response(rid), request_id=rid
                        )
                    else:
                        await wire.write_frame(
                            writer, UpdateResponse(1, 2), request_id=rid
                        )
            finally:
                writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = WireClient(
            "127.0.0.1",
            port,
            pipeline=2,
            retry=ONE_SHOT,
            request_timeout_s=5.0,
        )
        try:
            query_outcome, update_outcome = await asyncio.gather(
                client.query(QUERY, request_id="q"),
                client.update(UPDATE, request_id="u"),
            )
            assert query_outcome.result.ciphertext == b"q"
            assert update_outcome.invalidated == 2
        finally:
            await client.aclose()
            server.close()
            await server.wait_closed()
