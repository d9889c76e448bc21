"""WireServer dispatch: failures always answer with a typed ERROR frame.

In particular an unexpected exception from a handler (a plain bug, not a
``ReproError``) must come back as ``INTERNAL`` on the same connection —
never tear the connection down silently, which a client could misread as
"my update was never sent".
"""

from __future__ import annotations

import asyncio

import pytest

from repro.analysis.exposure import ExposureLevel
from repro.crypto.envelope import QueryEnvelope, UpdateEnvelope
from repro.dssp import DsspNode
from repro.errors import NetConnectionError, NetError, UnknownApplicationError
from repro.net import DsspNetServer, RetryPolicy, WireClient
from repro.net.service import WireServer
from repro.net.wire import UpdateResponse
from repro.obs import per_app_counters

UPDATE = UpdateEnvelope(
    app_id="toystore", level=ExposureLevel.BLIND, sealed_statement=b"u1"
)


class CrashingServer(WireServer):
    async def handle(self, frame, context):
        raise AttributeError("handler bug")


class TestDispatchCatchAll:
    async def test_handler_crash_becomes_internal_error_frame(self):
        server = CrashingServer()
        host, port = await server.start()
        client = WireClient(host, port, retry=RetryPolicy(attempts=1))
        try:
            with pytest.raises(NetError, match="AttributeError"):
                await client.update(UPDATE)
            # The connection survived the crash: the next request on the
            # same pooled connection gets another typed answer, not a
            # connection drop.
            with pytest.raises(NetError, match="AttributeError"):
                await client.update(UPDATE)
        finally:
            await client.aclose()
            await server.stop()


class OverflowingServer(WireServer):
    async def handle(self, frame, context):
        return UpdateResponse(rows_affected=2**32, invalidated=0)


class TestUnencodableResponse:
    async def test_connection_is_closed_not_left_waiting(self):
        """A response the codec cannot write is a ``WireError``, which
        closes the connection; it used to be an ``OverflowError`` that
        killed the request task and left the client waiting out its
        timeout."""
        server = OverflowingServer()
        host, port = await server.start()
        client = WireClient(
            host, port, retry=RetryPolicy(attempts=1), request_timeout_s=10.0
        )
        try:
            with pytest.raises(NetConnectionError):
                await asyncio.wait_for(client.update(UPDATE), timeout=5.0)
        finally:
            await client.aclose()
            await server.stop()


class TestPerApplicationBooks:
    async def test_unknown_app_ids_do_not_grow_the_registry(
        self, simple_toystore
    ):
        """``app_id`` is unauthenticated wire input: per-application
        counters exist only for applications the server registered."""
        server = DsspNetServer(DsspNode())
        # No home listens there: only the books are under test.
        server.register_application(
            "toystore", simple_toystore, ("127.0.0.1", 1)
        )
        host, port = await server.start()
        client = WireClient(host, port, retry=RetryPolicy(attempts=1))

        async def bogus(count: int) -> int:
            for index in range(count):
                envelope = QueryEnvelope(
                    app_id=f"bogus-{count}-{index}",
                    level=ExposureLevel.BLIND,
                    sealed_statement=b"k",
                )
                with pytest.raises(UnknownApplicationError):
                    await client.query(envelope)
            return len(server.metrics.snapshot()["counters"])

        try:
            assert await bogus(50) == await bogus(1)
            counters = server.metrics.snapshot()["counters"]
            assert counters["server.unknown_app_requests"] == 51
            assert counters["server.requests"] == 51
            served = per_app_counters(
                server.metrics.snapshot(), "server.app_requests"
            )
            assert served == {"toystore": 0.0}
        finally:
            await client.aclose()
            await server.stop()
