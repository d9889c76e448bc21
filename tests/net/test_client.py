"""Client-side behavior against a scripted fake server.

Covers typed error mapping (wire codes back to exceptions), the retry
discipline (idempotent queries retry on shed/timeout; updates only when
provably unprocessed), and the request window on the client's one
connection.  Responses are matched to requests by wire request id only, so
every fake server here echoes the id of the request it answers — as every
real server does.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.analysis.exposure import ExposureLevel
from repro.crypto.envelope import QueryEnvelope, ResultEnvelope, UpdateEnvelope
from repro.errors import (
    HomeUnreachableError,
    NetError,
    NetTimeoutError,
    ServerOverloadedError,
    UnknownApplicationError,
    WireError,
)
from repro.net import wire
from repro.net.client import RetryPolicy, WireClient
from repro.net.wire import (
    ErrorCode,
    ErrorResponse,
    QueryRequest,
    QueryResponse,
    UpdateRequest,
    UpdateResponse,
)
from tests.net import streams

QUERY = QueryEnvelope(
    app_id="toystore", level=ExposureLevel.BLIND, sealed_statement=b"k1"
)
UPDATE = UpdateEnvelope(
    app_id="toystore", level=ExposureLevel.BLIND, sealed_statement=b"u1"
)
RESULT = ResultEnvelope(app_id="toystore", ciphertext=b"sealed")


class FakeServer:
    """Replies to each request with the next scripted frame, under its id."""

    def __init__(self, script):
        self.script = list(script)
        self.received = []
        self.connections = 0
        self._server = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        self._server.close()
        await self._server.wait_closed()

    async def _serve(self, reader, writer):
        self.connections += 1
        try:
            while True:
                traced = await streams.read_traced(reader)
                if traced is None:
                    break
                frame, request_id = traced
                self.received.append(frame)
                if not self.script:
                    break
                reply = self.script.pop(0)
                if reply == "drop":
                    break  # close without answering
                await streams.write_frame(writer, reply, request_id=request_id)
        finally:
            writer.close()


FAST_RETRY = RetryPolicy(attempts=3, backoff_s=0.001, max_backoff_s=0.01)


def client_for(server: FakeServer, **kwargs) -> WireClient:
    kwargs.setdefault("retry", FAST_RETRY)
    return WireClient("127.0.0.1", server.port, **kwargs)


class TestErrorMapping:
    @pytest.mark.parametrize(
        ("code", "expected"),
        [
            (ErrorCode.MISS_FORWARDED, HomeUnreachableError),
            (ErrorCode.BAD_FRAME, WireError),
            (ErrorCode.INTERNAL, NetError),
        ],
    )
    async def test_code_maps_to_exception(self, code, expected):
        # Non-retryable path: a single scripted error must surface typed.
        async with FakeServer([ErrorResponse(code, "boom")] * 3) as server:
            client = client_for(server)
            try:
                with pytest.raises(expected):
                    await client.update(UPDATE)
            finally:
                await client.aclose()

    async def test_unknown_app_round_trips_app_id(self):
        script = [ErrorResponse(ErrorCode.UNKNOWN_APP, "ghost-app")] * 3
        async with FakeServer(script) as server:
            client = client_for(server)
            try:
                with pytest.raises(UnknownApplicationError) as excinfo:
                    await client.query(QUERY)
            finally:
                await client.aclose()
        assert excinfo.value.app_id == "ghost-app"

    async def test_overloaded_surfaces_after_retries_exhausted(self):
        script = [ErrorResponse(ErrorCode.OVERLOADED, "shed")] * 3
        async with FakeServer(script) as server:
            client = client_for(server)
            try:
                with pytest.raises(ServerOverloadedError):
                    await client.query(QUERY)
            finally:
                await client.aclose()
        assert len(server.received) == 3  # all attempts used


class TestRetryDiscipline:
    async def test_query_retries_past_transient_shed(self):
        script = [
            ErrorResponse(ErrorCode.OVERLOADED, "shed"),
            ErrorResponse(ErrorCode.OVERLOADED, "shed"),
            QueryResponse(RESULT, cache_hit=True),
        ]
        async with FakeServer(script) as server:
            client = client_for(server)
            try:
                outcome = await client.query(QUERY)
            finally:
                await client.aclose()
        assert outcome.cache_hit is True
        assert len(server.received) == 3

    async def test_query_retries_on_timeout_code(self):
        script = [
            ErrorResponse(ErrorCode.TIMEOUT, "slow"),
            QueryResponse(RESULT, cache_hit=False),
        ]
        async with FakeServer(script) as server:
            client = client_for(server)
            try:
                outcome = await client.query(QUERY)
            finally:
                await client.aclose()
        assert outcome.result.ciphertext == b"sealed"

    async def test_query_retries_on_connection_drop(self):
        script = ["drop", QueryResponse(RESULT, cache_hit=False)]
        async with FakeServer(script) as server:
            client = client_for(server)
            try:
                outcome = await client.query(QUERY)
            finally:
                await client.aclose()
        assert outcome.cache_hit is False
        assert server.connections == 2  # dropped conn was discarded

    async def test_single_attempt_policy_gives_up_immediately(self):
        script = [
            ErrorResponse(ErrorCode.OVERLOADED, "shed"),
            QueryResponse(RESULT, cache_hit=True),
        ]
        async with FakeServer(script) as server:
            client = client_for(server, retry=RetryPolicy(attempts=1))
            try:
                with pytest.raises(ServerOverloadedError):
                    await client.query(QUERY)
            finally:
                await client.aclose()
        assert len(server.received) == 1

    async def test_update_not_retried_on_timeout(self):
        """A timed-out update may have been applied: never resend it."""
        script = [
            ErrorResponse(ErrorCode.TIMEOUT, "slow"),
            UpdateResponse(1, 1),
        ]
        async with FakeServer(script) as server:
            client = client_for(server)
            try:
                with pytest.raises(NetTimeoutError):
                    await client.update(UPDATE)
            finally:
                await client.aclose()
        assert len(server.received) == 1

    async def test_update_retried_when_shed(self):
        """OVERLOADED means unprocessed, so even updates may retry."""
        script = [
            ErrorResponse(ErrorCode.OVERLOADED, "shed"),
            UpdateResponse(2, 1),
        ]
        async with FakeServer(script) as server:
            client = client_for(server)
            try:
                outcome = await client.update(UPDATE)
            finally:
                await client.aclose()
        assert outcome.rows_affected == 2
        assert len(server.received) == 2

    async def test_update_not_retried_after_send_then_drop(self):
        """Request reached the wire, connection died: ack is lost, not
        the update — resending could apply it twice."""
        script = ["drop", UpdateResponse(1, 1)]
        async with FakeServer(script) as server:
            client = client_for(server)
            try:
                with pytest.raises(NetError):
                    await client.update(UPDATE)
            finally:
                await client.aclose()
        assert len(server.received) == 1

    async def test_update_retried_when_connect_fails_first(self):
        """Connection refused = provably unsent, safe to retry."""
        async with FakeServer([UpdateResponse(1, 0)]) as server:
            port = server.port
        # Server gone: first attempts fail at connect time.
        client = WireClient("127.0.0.1", port, retry=FAST_RETRY)
        try:
            with pytest.raises(NetError):
                await client.update(UPDATE)
        finally:
            await client.aclose()

    async def test_origin_travels_with_update(self):
        async with FakeServer([UpdateResponse(1, 0)]) as server:
            client = client_for(server)
            try:
                await client.update(UPDATE, origin="dssp-7")
            finally:
                await client.aclose()
        (received,) = server.received
        assert isinstance(received, UpdateRequest)
        assert received.origin == "dssp-7"


class TestWindow:
    async def test_sequential_requests_reuse_one_connection(self):
        script = [QueryResponse(RESULT, cache_hit=False)] * 5
        async with FakeServer(script) as server:
            client = client_for(server, pool_size=4)
            try:
                for _ in range(5):
                    await client.query(QUERY)
            finally:
                await client.aclose()
        assert server.connections == 1
        assert all(isinstance(f, QueryRequest) for f in server.received)

    @pytest.mark.parametrize(
        ("window", "bound"),
        [({"pool_size": 2}, 2), ({"pool_size": 2, "pipeline": 3}, 3)],
    )
    async def test_window_bounds_requests_in_flight_on_one_connection(
        self, window, bound
    ):
        """``pool_size=N`` (or ``pipeline=N``, which wins) is N requests in
        flight on one connection, never N connections."""
        release = asyncio.Event()
        connections = 0
        in_flight = peak = 0
        answers: set = set()

        async def answer(writer, request_id):
            nonlocal in_flight
            await release.wait()
            in_flight -= 1
            await streams.write_frame(
                writer, QueryResponse(RESULT, cache_hit=False),
                request_id=request_id,
            )

        async def serve(reader, writer):
            nonlocal connections, in_flight, peak
            connections += 1
            while (traced := await streams.read_traced(reader)) is not None:
                in_flight += 1
                peak = max(peak, in_flight)
                task = asyncio.ensure_future(answer(writer, traced[1]))
                answers.add(task)
                task.add_done_callback(answers.discard)
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = WireClient("127.0.0.1", port, retry=FAST_RETRY, **window)
        try:
            tasks = [
                asyncio.ensure_future(client.query(QUERY)) for _ in range(6)
            ]
            await asyncio.sleep(0.05)  # let every task try to take a slot
            assert peak == bound
            release.set()
            outcomes = await asyncio.gather(*tasks)
        finally:
            await client.aclose()
            server.close()
            await server.wait_closed()
        assert len(outcomes) == 6
        assert connections == 1
        assert peak == bound

    async def test_late_response_at_window_one_never_answers_the_next(self):
        """A request that timed out leaves its connection open; its late
        response is counted as unmatched and dropped by id — the next
        request on the same connection still gets its own answer."""
        connections = 0

        async def serve(reader, writer):
            nonlocal connections
            connections += 1
            try:
                while (traced := await streams.read_traced(reader)) is not None:
                    _, request_id = traced
                    if request_id == "late":
                        # Answered long after the client gave up; "next"
                        # is already waiting on the wire behind it.
                        await asyncio.sleep(0.7)
                    await streams.write_frame(
                        writer,
                        QueryResponse(
                            ResultEnvelope(
                                app_id="toystore",
                                ciphertext=request_id.encode(),
                            ),
                            cache_hit=False,
                        ),
                        request_id=request_id,
                    )
            finally:
                writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = WireClient(
            "127.0.0.1",
            port,
            pool_size=1,
            request_timeout_s=0.5,
            retry=RetryPolicy(attempts=1),
        )
        try:
            with pytest.raises(NetTimeoutError, match="no response"):
                await client.query(QUERY, request_id="late")
            outcome = await client.query(QUERY, request_id="next")
            unmatched = client.metrics.counter("client.pipeline_unmatched")
            opened = client.metrics.counter("client.connections_opened")
        finally:
            await client.aclose()
            server.close()
            await server.wait_closed()
        assert outcome.result.ciphertext == b"next"
        assert unmatched.value == 1
        assert opened.value == connections == 1


class TestRetryExhaustion:
    async def test_silent_server_surfaces_typed_timeout(self):
        """A server that never answers exhausts every retry; the failure
        must surface as NetTimeoutError, not a bare asyncio.TimeoutError."""
        requests_seen = 0

        async def serve(reader, writer):
            nonlocal requests_seen
            try:
                while await streams.read_frame(reader) is not None:
                    requests_seen += 1  # swallow it: no reply, ever
            finally:
                writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = WireClient(
            "127.0.0.1",
            port,
            request_timeout_s=0.05,
            retry=RetryPolicy(attempts=3, backoff_s=0.001, max_backoff_s=0.01),
        )
        try:
            with pytest.raises(NetTimeoutError):
                await client.query(QUERY)
        finally:
            await client.aclose()
            server.close()
            await server.wait_closed()
        assert requests_seen == 3  # the query used every attempt


class TestRetryPolicyJitter:
    def test_jittered_delay_stays_within_decorrelated_bounds(self):
        policy = RetryPolicy(
            attempts=8,
            backoff_s=0.05,
            multiplier=2.0,
            max_backoff_s=0.4,
            seed=123,
        )
        for attempt in range(8):
            ceiling = min(0.05 * 2.0 ** (attempt + 1), 0.4)
            floor = min(0.05, ceiling)
            delay = policy.delay(attempt)
            assert floor <= delay <= ceiling

    def test_no_jitter_is_plain_exponential(self):
        policy = RetryPolicy(
            backoff_s=0.05, multiplier=2.0, max_backoff_s=0.4, jitter=False
        )
        assert [policy.delay(a) for a in range(5)] == [
            0.05,
            0.1,
            0.2,
            0.4,
            0.4,
        ]

    def test_same_seed_agrees_different_seeds_diverge(self):
        draws_a = [RetryPolicy(seed=7).delay(a) for a in range(6)]
        draws_b = [RetryPolicy(seed=7).delay(a) for a in range(6)]
        draws_c = [RetryPolicy(seed=8).delay(a) for a in range(6)]
        assert draws_a == draws_b
        assert draws_a != draws_c

    def test_unseeded_instances_decorrelate(self):
        """Two identically configured clients must not back off in
        lockstep — that re-creates the load spike that killed the server."""
        draws_a = [RetryPolicy().delay(a) for a in range(8)]
        draws_b = [RetryPolicy().delay(a) for a in range(8)]
        assert draws_a != draws_b
