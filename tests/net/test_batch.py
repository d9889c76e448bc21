"""Invalidation batch coalescing: negotiation, no-loss framing, dedup.

Coalescing changes only the *framing* of the invalidation stream, never
its content: across any sequence of INVALIDATE / INVALIDATE_BATCH frames,
every fanned-out invalidation arrives exactly once (modulo literal
re-pushes of the same update, which dedup to one).  Negotiation is per
channel — an old-style subscriber on the same home keeps receiving
singleton frames.
"""

from __future__ import annotations

import asyncio
import time

from repro.analysis.exposure import ExposurePolicy
from repro.crypto import Keyring
from repro.dssp import DsspNode, HomeServer
from repro.dssp.invalidation import StrategyClass
from repro.net import (
    DsspNetServer,
    HomeNetServer,
    InvalidationBatch,
    InvalidationPush,
    WireClient,
)


async def eventually(predicate, *, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached before timeout")
        await asyncio.sleep(0.01)


def make_home(registry, database):
    policy = ExposurePolicy.uniform(
        registry, StrategyClass.MTIS.exposure_level
    )
    return (
        HomeServer(
            "toystore",
            database,
            registry,
            policy,
            Keyring("toystore", b"k" * 32),
        ),
        policy,
    )


async def burst(client, home, policy, registry, toy_ids, *, prefix="op"):
    """Apply one update per toy id, back to back, via ``client``."""
    for index, toy_id in enumerate(toy_ids):
        bound = registry.update("U1").bind([toy_id])
        sealed = home.codec.seal_update(bound, policy.update_level("U1"))
        await client.update(sealed, request_id=f"{prefix}-{index}")


async def collect_events(subscription, count, *, timeout_s=5.0):
    """Gather stream events until ``count`` invalidations have arrived."""
    events = []
    delivered = 0

    async def pump():
        nonlocal delivered
        async for frame, request_id in subscription.events():
            events.append(frame)
            delivered += (
                len(frame.entries)
                if isinstance(frame, InvalidationBatch)
                else 1
            )
            if delivered >= count:
                return

    await asyncio.wait_for(pump(), timeout_s)
    return events


def delivered_identities(events) -> list[tuple]:
    """Every invalidation across all frames, in delivery order."""
    ids = []
    for frame in events:
        if isinstance(frame, InvalidationBatch):
            ids.extend(envelope.identity for _, envelope in frame.entries)
        else:
            ids.append(frame.envelope.identity)
    return ids


class TestNegotiation:
    async def test_batching_is_the_and_of_both_sides(
        self, simple_toystore, toystore_db
    ):
        home, _ = make_home(simple_toystore, toystore_db.clone())
        batching = HomeNetServer(home)
        legacy = HomeNetServer(home, batch_pushes=False)
        host_b, port_b = await batching.start()
        host_l, port_l = await legacy.start()
        client = WireClient(host_b, port_b)
        legacy_client = WireClient(host_l, port_l)
        try:
            on = await client.subscribe(
                "n1", ("toystore",), supports_batch=True
            )
            off = await client.subscribe("n2", ("toystore",))
            refused = await legacy_client.subscribe(
                "n3", ("toystore",), supports_batch=True
            )
            assert on.batch_enabled is True
            assert off.batch_enabled is False
            assert refused.batch_enabled is False
            for subscription in (on, off, refused):
                await subscription.aclose()
        finally:
            await client.aclose()
            await legacy_client.aclose()
            await batching.stop()
            await legacy.stop()


class TestCoalescing:
    async def test_burst_coalesces_into_one_batch_frame(
        self, simple_toystore, toystore_db
    ):
        """With a coalesce dwell, a burst of distinct updates arrives as a
        single INVALIDATE_BATCH carrying each invalidation exactly once,
        with its originating trace id on the entry."""
        home, policy = make_home(simple_toystore, toystore_db.clone())
        server = HomeNetServer(home, push_coalesce_s=0.15)
        host, port = await server.start()
        subscriber = WireClient(host, port)
        updater = WireClient(host, port)
        try:
            subscription = await subscriber.subscribe(
                "node", ("toystore",), supports_batch=True
            )
            toy_ids = [5, 6, 7, 8]
            await burst(
                updater, home, policy, simple_toystore, toy_ids
            )
            events = await collect_events(subscription, len(toy_ids))
            batches = [
                e for e in events if isinstance(e, InvalidationBatch)
            ]
            assert len(events) == 1 and len(batches) == 1
            entry_rids = [rid for rid, _ in batches[0].entries]
            assert entry_rids == [f"op-{i}" for i in range(len(toy_ids))]
            assert len(delivered_identities(events)) == len(toy_ids)
            metrics = server.metrics.snapshot()
            assert metrics["counters"]["home.push_frames"] == 1
            assert metrics["counters"]["home.pushes_sent"] == len(toy_ids)
            await subscription.aclose()
        finally:
            await subscriber.aclose()
            await updater.aclose()
            await server.stop()

    async def test_no_invalidation_lost_or_doubled_across_batch_split(
        self, simple_toystore, toystore_db
    ):
        """Two separated bursts arrive as separate frames; the union of
        all frames is every invalidation exactly once, in order."""
        home, policy = make_home(simple_toystore, toystore_db.clone())
        server = HomeNetServer(home, push_coalesce_s=0.1)
        host, port = await server.start()
        subscriber = WireClient(host, port)
        updater = WireClient(host, port)
        try:
            subscription = await subscriber.subscribe(
                "node", ("toystore",), supports_batch=True
            )
            await burst(
                updater, home, policy, simple_toystore, [5, 6], prefix="a"
            )
            first = await collect_events(subscription, 2)
            await burst(
                updater, home, policy, simple_toystore, [7, 8], prefix="b"
            )
            second = await collect_events(subscription, 2)
            ids = delivered_identities(first + second)
            assert len(ids) == 4
            assert len(set(ids)) == 4  # nothing doubled across the split
            await subscription.aclose()
        finally:
            await subscriber.aclose()
            await updater.aclose()
            await server.stop()

    async def test_literal_repush_dedups_to_singleton_frame(
        self, simple_toystore, toystore_db
    ):
        """The same envelope identity queued twice collapses to one
        entry — and a one-survivor coalesce uses the singleton framing,
        byte-identical to the unbatched protocol."""
        home, policy = make_home(simple_toystore, toystore_db.clone())
        server = HomeNetServer(home, push_coalesce_s=0.15)
        host, port = await server.start()
        subscriber = WireClient(host, port)
        updater = WireClient(host, port)
        try:
            subscription = await subscriber.subscribe(
                "node", ("toystore",), supports_batch=True
            )
            bound = simple_toystore.update("U1").bind([5])
            sealed = home.codec.seal_update(bound, policy.update_level("U1"))
            # Distinct request ids: both updates apply (not request-level
            # duplicates), but they push the same invalidation twice.
            await updater.update(sealed, request_id="first")
            await updater.update(sealed, request_id="second")
            events = await collect_events(subscription, 1)
            assert len(events) == 1
            assert isinstance(events[0], InvalidationPush)
            await asyncio.sleep(0.05)  # nothing else may follow
            metrics = server.metrics.snapshot()
            assert metrics["counters"]["home.push_dedup_dropped"] == 1
            assert metrics["counters"]["home.pushes_sent"] == 1
            await subscription.aclose()
        finally:
            await subscriber.aclose()
            await updater.aclose()
            await server.stop()

    async def test_mixed_subscribers_see_the_same_invalidations(
        self, simple_toystore, toystore_db
    ):
        """Framing is per channel: a legacy subscriber gets singletons,
        a batching one gets a batch — identical content either way."""
        home, policy = make_home(simple_toystore, toystore_db.clone())
        server = HomeNetServer(home, push_coalesce_s=0.15)
        host, port = await server.start()
        batching_client = WireClient(host, port)
        legacy_client = WireClient(host, port)
        updater = WireClient(host, port)
        try:
            batching = await batching_client.subscribe(
                "new-node", ("toystore",), supports_batch=True
            )
            legacy = await legacy_client.subscribe("old-node", ("toystore",))
            toy_ids = [5, 6, 7]
            await burst(
                updater, home, policy, simple_toystore, toy_ids
            )
            batched_events = await collect_events(batching, len(toy_ids))
            legacy_events = await collect_events(legacy, len(toy_ids))
            assert all(
                isinstance(e, InvalidationPush) for e in legacy_events
            )
            assert len(legacy_events) == len(toy_ids)
            assert delivered_identities(batched_events) == (
                delivered_identities(legacy_events)
            )
            await batching.aclose()
            await legacy.aclose()
        finally:
            await batching_client.aclose()
            await legacy_client.aclose()
            await updater.aclose()
            await server.stop()


class TestNodeAppliesBatches:
    async def test_dssp_node_applies_every_batch_entry(
        self, simple_toystore, toystore_db
    ):
        """End to end: a coalesced batch reaching a live DSSP node counts
        every entry toward stream_pushes_applied (the oracle's convergence
        accounting), with the batch metrics recording the coalescing."""
        home, policy = make_home(simple_toystore, toystore_db.clone())
        home_net = HomeNetServer(home, push_coalesce_s=0.15)
        await home_net.start()
        node_server = DsspNetServer(DsspNode(), node_id="dssp-0")
        node_server.register_application(
            "toystore", simple_toystore, home_net.address
        )
        await node_server.start()
        updater = WireClient(*home_net.address)
        try:
            await eventually(lambda: home_net.subscriber_count == 1)
            toy_ids = [5, 6, 7, 8]
            # Updates arrive directly at the home with a foreign origin,
            # so the stream must deliver all of them to this node.
            await burst(
                updater, home, policy, simple_toystore, toy_ids
            )
            await eventually(
                lambda: node_server.stream_pushes_applied == len(toy_ids)
            )
            metrics = node_server.metrics.snapshot()
            assert metrics["counters"]["dssp.stream_batches"] >= 1
            assert metrics["counters"]["dssp.stream_pushes"] == len(toy_ids)
        finally:
            await updater.aclose()
            await node_server.stop()
            await home_net.stop()
