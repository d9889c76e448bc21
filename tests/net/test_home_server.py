"""Home-server fan-out: the update ack never waits on a slow subscriber.

A subscriber whose channel cannot take pushes (full TCP buffer, dead peer)
must not delay the update acknowledgement, must not starve healthy
subscribers, and must be *dropped by closing its channel* so the DSSP
node's reconnect-and-flush safety net restores correctness.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.analysis.exposure import ExposurePolicy
from repro.crypto import Keyring
from repro.dssp import HomeServer
from repro.dssp.invalidation import StrategyClass
from repro.net import (
    HomeNetServer,
    InvalidationPush,
    WireClient,
    home_server,
    wire,
)
from repro.net.wire import UpdateRequest, UpdateResponse
from tests.net import streams


class StickyHome(HomeNetServer):
    """Fan-out pushes to the named nodes hang forever (stuck socket)."""

    def __init__(self, *args, stuck_nodes=frozenset(), **kwargs):
        super().__init__(*args, **kwargs)
        self.stuck_nodes = set(stuck_nodes)

    async def _send(self, context, frame, **kwargs):
        if isinstance(frame, InvalidationPush):
            for subscriber in list(self._subscribers):
                if (
                    subscriber.context is context
                    and subscriber.node_id in self.stuck_nodes
                ):
                    await asyncio.sleep(3600)
        await super()._send(context, frame, **kwargs)


def make_home(registry, database):
    policy = ExposurePolicy.uniform(
        registry, StrategyClass.MTIS.exposure_level
    )
    return HomeServer(
        "toystore", database, registry, policy, Keyring("toystore", b"k" * 32)
    ), policy


class TestFanOutDecoupling:
    async def test_stuck_subscriber_does_not_block_ack_or_peers(
        self, simple_toystore, toystore_db
    ):
        home, policy = make_home(simple_toystore, toystore_db.clone())
        server = StickyHome(
            home, stuck_nodes={"stuck"}, push_timeout_s=0.05
        )
        host, port = await server.start()
        stuck_client = WireClient(host, port)
        ok_client = WireClient(host, port)
        updater = WireClient(host, port)
        try:
            stuck_sub, _ = await streams.subscribe(
                stuck_client, "stuck", ("toystore",)
            )
            ok_sub, ok_pushes = await streams.subscribe(
                ok_client, "ok", ("toystore",)
            )
            assert server.subscriber_count == 2

            bound = simple_toystore.update("U1").bind([5])
            sealed = home.codec.seal_update(
                bound, policy.update_level("U1")
            )
            started = time.monotonic()
            # The ack must come back without waiting out the stuck push.
            ack = await asyncio.wait_for(updater.update(sealed), 2.0)
            assert time.monotonic() - started < 2.0
            assert ack.rows_affected == 1

            # The healthy subscriber still receives its push.
            push, _ = await asyncio.wait_for(ok_pushes.get(), 2.0)
            assert isinstance(push, InvalidationPush)
            assert push.envelope.app_id == "toystore"

            # The stuck subscriber is dropped by closing its channel, so
            # its stream ends — the node-side reconnect-flush can fire.
            assert await asyncio.wait_for(stuck_sub.wait_ended(), 2.0) is None
            assert server.subscriber_count == 1
            await stuck_sub.aclose()
            await ok_sub.aclose()
        finally:
            await stuck_client.aclose()
            await ok_client.aclose()
            await updater.aclose()
            await server.stop()

    async def test_dead_subscriber_dropped_and_fanout_continues(
        self, simple_toystore, toystore_db
    ):
        """A subscriber whose connection vanished is dropped on the next
        push; later updates still reach the survivors."""
        home, policy = make_home(simple_toystore, toystore_db.clone())
        server = HomeNetServer(home, push_timeout_s=0.2)
        host, port = await server.start()
        dead_client = WireClient(host, port)
        ok_client = WireClient(host, port)
        updater = WireClient(host, port)
        try:
            dead_sub, _ = await streams.subscribe(
                dead_client, "dead", ("toystore",)
            )
            ok_sub, ok_pushes = await streams.subscribe(
                ok_client, "ok", ("toystore",)
            )
            await dead_sub.aclose()  # peer goes away without unsubscribing

            for toy_id in (5, 7):
                bound = simple_toystore.update("U1").bind([toy_id])
                await updater.update(
                    home.codec.seal_update(bound, policy.update_level("U1"))
                )

            for _ in range(2):
                await asyncio.wait_for(ok_pushes.get(), 2.0)
            await ok_sub.aclose()
        finally:
            await dead_client.aclose()
            await ok_client.aclose()
            await updater.aclose()
            await server.stop()

    async def test_a_full_push_queue_drops_its_subscriber(
        self, simple_toystore, toystore_db
    ):
        """A subscriber whose sender is stuck accumulates pushes up to
        ``PUSH_QUEUE_SIZE``; the next update drops it by closing its
        channel instead of queueing without bound or delaying the ack."""
        home, policy = make_home(simple_toystore, toystore_db.clone())
        server = StickyHome(home, stuck_nodes={"stuck"}, push_timeout_s=60)
        host, port = await server.start()
        stuck_client = WireClient(host, port)
        updater = WireClient(host, port)
        try:
            stuck_sub, _ = await streams.subscribe(
                stuck_client, "stuck", ("toystore",)
            )
            bound = simple_toystore.update("U1").bind([5])
            sealed = home.codec.seal_update(bound, policy.update_level("U1"))
            # The first push is taken by the sender, which then hangs; the
            # rest fill the queue to its bound.
            for index in range(1 + home_server.PUSH_QUEUE_SIZE):
                await updater.update(sealed, request_id=f"fill-{index}")
            assert server.subscriber_count == 1
            counters = server.metrics.snapshot()["counters"]
            assert counters["home.subscribers_dropped"] == 0

            ack = await asyncio.wait_for(
                updater.update(sealed, request_id="overflow"), 2.0
            )
            assert isinstance(ack, UpdateResponse)
            assert server.subscriber_count == 0
            counters = server.metrics.snapshot()["counters"]
            assert counters["home.subscribers_dropped"] == 1
            assert await asyncio.wait_for(stuck_sub.wait_ended(), 2.0) is None
            await stuck_sub.aclose()
        finally:
            await stuck_client.aclose()
            await updater.aclose()
            await server.stop()


class TestUpdateIdempotency:
    async def test_duplicated_update_frame_applied_once(
        self, simple_toystore, toystore_db
    ):
        """Idempotency regression: the same UPDATE frame delivered twice
        (chaos duplication, or a client retry after a lost ack) must be
        acked twice but applied once — the second ack is replayed from the
        dedup log, and the invalidation stream fans out only once."""
        home, policy = make_home(simple_toystore, toystore_db.clone())
        server = HomeNetServer(home)
        host, port = await server.start()
        subscriber = WireClient(host, port)
        try:
            subscription, pushes = await streams.subscribe(
                subscriber, "other", ("toystore",)
            )
            bound = simple_toystore.update("U1").bind([5])
            sealed = home.codec.seal_update(bound, policy.update_level("U1"))
            raw = wire.encode_frame(
                UpdateRequest(sealed, origin="dssp-0"), request_id="op-0-0"
            )
            # A raw socket resends byte-identical frames, exactly what a
            # duplicating proxy does.
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(raw + raw)  # the duplicate, back to back
                await writer.drain()
                first = await streams.read_frame(reader)
                second = await streams.read_frame(reader)
            finally:
                writer.close()
                await writer.wait_closed()
            assert isinstance(first, UpdateResponse)
            assert second == first  # the remembered ack, not a re-apply
            assert first.rows_affected == 1
            assert home.updates_applied == 1  # applied exactly once
            assert server.update_dedup.hits == 1

            # Exactly one push reaches the stream; a second would make
            # every non-origin node double-count the invalidation.
            push, _ = await asyncio.wait_for(pushes.get(), 2.0)
            assert isinstance(push, InvalidationPush)
            with pytest.raises(asyncio.TimeoutError):  # the stream is silent
                await asyncio.wait_for(pushes.get(), 0.05)
            await subscription.aclose()
        finally:
            await subscriber.aclose()
            await server.stop()

    async def test_same_id_different_update_is_not_deduped(
        self, simple_toystore, toystore_db
    ):
        """A trace-id collision between two *different* updates must not
        swallow the second one."""
        home, policy = make_home(simple_toystore, toystore_db.clone())
        server = HomeNetServer(home)
        host, port = await server.start()
        client = WireClient(host, port)
        try:
            for toy_id in (5, 6):
                bound = simple_toystore.update("U1").bind([toy_id])
                sealed = home.codec.seal_update(
                    bound, policy.update_level("U1")
                )
                ack = await client.update(sealed, request_id="reused-rid")
                assert ack.rows_affected == 1
            assert home.updates_applied == 2
            assert server.update_dedup.hits == 0
        finally:
            await client.aclose()
            await server.stop()
