"""Invalidation batch coalescing: no-loss framing, dedup, atomic apply.

The home's sender coalesces whatever its queue holds when it wakes, so a
pipelined burst of updates — read by the home in one go — leaves as one
frame.  Coalescing changes only the *framing* of the invalidation stream,
never its content: across any sequence of INVALIDATE / INVALIDATE_BATCH
frames, every fanned-out invalidation arrives exactly once (modulo literal
re-pushes of the same update, which dedup to one).
"""

from __future__ import annotations

import asyncio

from repro.analysis.exposure import ExposurePolicy
from repro.crypto import Keyring
from repro.dssp import HomeServer
from repro.dssp.invalidation import StrategyClass
from repro.net import (
    Deployment,
    HomeNetServer,
    InvalidationBatch,
    InvalidationPush,
    WireClient,
    eventually,
)
from tests.net import streams


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


async def updater_for(host, port) -> WireClient:
    """A client whose connection is already open, so a burst it issues
    leaves in one loop turn: every update is in flight at once."""
    client = WireClient(host, port, pipeline=8)
    await client.stats()
    return client


async def burst(client, home, policy, registry, toy_ids, *, prefix="op"):
    """Apply one update per toy id, all pipelined on ``client``: the home
    reads them in one go, and its sender finds them all queued."""
    updates = []
    for index, toy_id in enumerate(toy_ids):
        bound = registry.update("U1").bind([toy_id])
        sealed = home.codec.seal_update(bound, policy.update_level("U1"))
        updates.append(client.update(sealed, request_id=f"{prefix}-{index}"))
    await asyncio.gather(*updates)


def sealed_updates(home, policy, registry, toy_ids):
    """One sealed ``U1`` envelope per toy id."""
    return [
        home.codec.seal_update(
            registry.update("U1").bind([toy_id]), policy.update_level("U1")
        )
        for toy_id in toy_ids
    ]


async def collect_events(pushes: asyncio.Queue, count, *, timeout_s=5.0):
    """Gather stream frames until ``count`` invalidations have arrived."""
    events = []
    delivered = 0
    while delivered < count:
        frame, _ = await asyncio.wait_for(pushes.get(), timeout_s)
        events.append(frame)
        delivered += (
            len(frame.entries) if isinstance(frame, InvalidationBatch) else 1
        )
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


class TestCoalescing:
    async def test_burst_coalesces_into_one_batch_frame(
        self, simple_toystore, toystore_db
    ):
        """A pipelined burst of distinct updates arrives as a single
        INVALIDATE_BATCH carrying each invalidation exactly once, with its
        originating trace id on the entry."""
        home, policy = make_home(simple_toystore, toystore_db.clone())
        server = HomeNetServer(home)
        host, port = await server.start()
        subscriber = WireClient(host, port)
        updater = await updater_for(host, port)
        try:
            subscription, pushes = await streams.subscribe(
                subscriber, "node", ("toystore",)
            )
            toy_ids = [5, 6, 7, 8]
            await burst(updater, home, policy, simple_toystore, toy_ids)
            events = await collect_events(pushes, len(toy_ids))
            assert len(events) == 1
            assert isinstance(events[0], InvalidationBatch)
            entry_rids = [rid for rid, _ in events[0].entries]
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
        server = HomeNetServer(home)
        host, port = await server.start()
        subscriber = WireClient(host, port)
        updater = await updater_for(host, port)
        try:
            subscription, pushes = await streams.subscribe(
                subscriber, "node", ("toystore",)
            )
            await burst(
                updater, home, policy, simple_toystore, [5, 6], prefix="a"
            )
            first = await collect_events(pushes, 2)
            await burst(
                updater, home, policy, simple_toystore, [7, 8], prefix="b"
            )
            second = await collect_events(pushes, 2)
            assert len(first) == len(second) == 1
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
        entry — and a one-survivor coalesce ships as a plain INVALIDATE."""
        home, policy = make_home(simple_toystore, toystore_db.clone())
        server = HomeNetServer(home)
        host, port = await server.start()
        subscriber = WireClient(host, port)
        updater = await updater_for(host, port)
        try:
            subscription, pushes = await streams.subscribe(
                subscriber, "node", ("toystore",)
            )
            bound = simple_toystore.update("U1").bind([5])
            sealed = home.codec.seal_update(bound, policy.update_level("U1"))
            # Distinct request ids: both updates apply (not request-level
            # duplicates), but they push the same invalidation twice.
            await asyncio.gather(
                updater.update(sealed, request_id="first"),
                updater.update(sealed, request_id="second"),
            )
            events = await collect_events(pushes, 1)
            assert len(events) == 1
            assert isinstance(events[0], InvalidationPush)
            await asyncio.sleep(0.05)  # nothing else may follow
            assert pushes.empty()
            metrics = server.metrics.snapshot()
            assert metrics["counters"]["home.push_dedup_dropped"] == 1
            assert metrics["counters"]["home.pushes_sent"] == 1
            await subscription.aclose()
        finally:
            await subscriber.aclose()
            await updater.aclose()
            await server.stop()

    async def test_every_subscriber_sees_the_same_invalidations(
        self, simple_toystore, toystore_db
    ):
        """Each channel has its own sender and queue; the invalidations
        a burst delivers are identical on every one."""
        home, policy = make_home(simple_toystore, toystore_db.clone())
        server = HomeNetServer(home)
        host, port = await server.start()
        first_client = WireClient(host, port)
        second_client = WireClient(host, port)
        updater = await updater_for(host, port)
        try:
            first, first_pushes = await streams.subscribe(
                first_client, "node-a", ("toystore",)
            )
            second, second_pushes = await streams.subscribe(
                second_client, "node-b", ("toystore",)
            )
            toy_ids = [5, 6, 7]
            await burst(updater, home, policy, simple_toystore, toy_ids)
            first_events = await collect_events(first_pushes, len(toy_ids))
            second_events = await collect_events(second_pushes, len(toy_ids))
            assert len(delivered_identities(first_events)) == len(toy_ids)
            assert delivered_identities(first_events) == (
                delivered_identities(second_events)
            )
            await first.aclose()
            await second.aclose()
        finally:
            await first_client.aclose()
            await second_client.aclose()
            await updater.aclose()
            await server.stop()


class TestNodeAppliesPushes:
    async def test_dssp_node_applies_every_batch_entry(
        self, simple_toystore, toystore_db
    ):
        """End to end: a coalesced batch reaching a live DSSP node counts
        every entry toward stream_pushes_applied (the oracle's convergence
        accounting), with the batch metrics recording the coalescing."""
        home, policy = make_home(simple_toystore, toystore_db.clone())
        async with Deployment(home) as fleet:
            node_server = fleet.servers[0]
            updater = await updater_for(*fleet.home_net.address)
            try:
                toy_ids = [5, 6, 7, 8]
                # Updates arrive directly at the home with a foreign
                # origin, so the stream must deliver all of them here.
                await burst(updater, home, policy, simple_toystore, toy_ids)
                await eventually(
                    lambda: node_server.stream_pushes_applied
                    == len(toy_ids)
                )
                metrics = node_server.metrics.snapshot()
                assert metrics["counters"]["dssp.stream_batches"] >= 1
                assert metrics["counters"]["dssp.stream_pushes"] == len(
                    toy_ids
                )
            finally:
                await updater.aclose()

    async def test_a_push_is_applied_from_the_read_with_no_task(
        self, simple_toystore, toystore_db
    ):
        """The node applies a pushed update inside the read that brings
        it: no task is woken to run the invalidation."""
        home, policy = make_home(simple_toystore, toystore_db.clone())
        async with Deployment(home) as fleet:
            node_server = fleet.servers[0]
            node = node_server.node
            tasks = []

            def invalidate_for(envelope, _inner=node.invalidate_for):
                tasks.append(asyncio.current_task())
                return _inner(envelope)

            node.invalidate_for = invalidate_for
            updater = await updater_for(*fleet.home_net.address)
            try:
                await burst(updater, home, policy, simple_toystore, [5])
                await eventually(
                    lambda: node_server.stream_pushes_applied == 1
                )
            finally:
                await updater.aclose()
            assert tasks == [None]


class TestCoalesceFraming:
    """What one wake of a sender makes of the entries it drained."""

    async def test_one_entry_ships_as_a_plain_push_under_its_trace_id(
        self, simple_toystore, toystore_db
    ):
        home, policy = make_home(simple_toystore, toystore_db.clone())
        server = HomeNetServer(home)
        [envelope] = sealed_updates(home, policy, simple_toystore, [5])
        frame, request_id, delivered = server._coalesce(
            [(InvalidationPush(envelope), "op-0")]
        )
        assert frame == InvalidationPush(envelope)
        assert (request_id, delivered) == ("op-0", 1)

    async def test_several_entries_ship_as_one_batch_in_queue_order(
        self, simple_toystore, toystore_db
    ):
        home, policy = make_home(simple_toystore, toystore_db.clone())
        server = HomeNetServer(home)
        envelopes = sealed_updates(home, policy, simple_toystore, [7, 5, 6])
        entries = [
            (InvalidationPush(envelope), f"op-{index}")
            for index, envelope in enumerate(envelopes)
        ]
        frame, request_id, delivered = server._coalesce(entries)
        assert frame == InvalidationBatch(
            tuple((rid, push.envelope) for push, rid in entries)
        )
        assert (request_id, delivered) == (None, 3)

    async def test_only_literal_repeats_collapse(
        self, simple_toystore, toystore_db
    ):
        """A repeat of an identity keeps its first entry and trace id; two
        distinct updates never merge."""
        home, policy = make_home(simple_toystore, toystore_db.clone())
        server = HomeNetServer(home)
        five, six = sealed_updates(home, policy, simple_toystore, [5, 6])
        frame, request_id, delivered = server._coalesce(
            [
                (InvalidationPush(five), "a"),
                (InvalidationPush(six), "b"),
                (InvalidationPush(five), "c"),
            ]
        )
        assert frame == InvalidationBatch((("a", five), ("b", six)))
        assert (request_id, delivered) == (None, 2)
        counters = server.metrics.snapshot()["counters"]
        assert counters["home.push_dedup_dropped"] == 1
