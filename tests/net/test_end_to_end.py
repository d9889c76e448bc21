"""Acceptance: a real networked topology over localhost sockets.

One home server + two DSSP nodes, driven through the async client, for
two strategy classes (MTIS and MVIS).  Asserts that (a) cache hits occur,
(b) an update entering through one node fans out its invalidation to
both, and (c) a network observer of every wire byte never sees plaintext
results below ``view`` exposure.
"""

from __future__ import annotations

import asyncio
import logging

import pytest

from repro.analysis.exposure import ExposurePolicy
from repro.crypto import Keyring
from repro.dssp import DsspNode, HomeServer
from repro.dssp.invalidation import StrategyClass
from repro.net import (
    Deployment,
    DsspNetServer,
    HomeNetServer,
    RetryPolicy,
    WireClient,
    eventually,
)
from repro.net.wire import ErrorCode, ErrorResponse, QueryRequest
from repro.obs.trace import SpanRecorder, SpanSink


FAST_RESUBSCRIBE = RetryPolicy(attempts=1_000, backoff_s=0.01, max_backoff_s=0.05)


def mtis_home(registry, database) -> HomeServer:
    policy = ExposurePolicy.uniform(registry, StrategyClass.MTIS.exposure_level)
    return HomeServer(
        "toystore", database, registry, policy, Keyring("toystore", b"k" * 32)
    )


class Topology(Deployment):
    """The toystore home + DSSP nodes (two by default) + one client each,
    with every frame on the wire in ``wire_bytes``."""

    def __init__(
        self,
        registry,
        database,
        strategy: StrategyClass = StrategyClass.MTIS,
        span_sink=None,
        *,
        nodes: int = 2,
        **options,
    ) -> None:
        self.span_sink = span_sink
        self.wire_bytes: list[bytes] = []
        level = strategy.exposure_level
        self.policy = ExposurePolicy.uniform(registry, level)
        keyring = Keyring("toystore", b"k" * 32)
        self.home = HomeServer(
            "toystore", database, registry, self.policy, keyring
        )
        self.codec = self.home.codec
        self.nodes = [DsspNode() for _ in range(nodes)]
        super().__init__(self.home, nodes=self.nodes, **options)

    @property
    def dssp_nets(self) -> list[DsspNetServer]:
        return self.servers

    def home_server(self, **options):
        options["frame_observer"] = self.wire_bytes.append
        return super().home_server(**options)

    def dssp_server(self, handle, **options):
        options["frame_observer"] = self.wire_bytes.append
        if self.span_sink is not None:
            options["tracer"] = SpanRecorder(handle.name, self.span_sink)
        return super().dssp_server(handle, **options)

    def client(self, handle, host, port, **options):
        options["frame_observer"] = self.wire_bytes.append
        return super().client(handle, host, port, **options)

    def seal_query(self, bound):
        return self.codec.seal_query(
            bound, self.policy.query_level(bound.template.name)
        )

    def seal_update(self, bound):
        return self.codec.seal_update(
            bound, self.policy.update_level(bound.template.name)
        )


@pytest.fixture(params=[StrategyClass.MTIS, StrategyClass.MVIS])
def strategy(request) -> StrategyClass:
    return request.param


async def run_scenario(topology: Topology, registry):
    """Drive the acceptance scenario; returns the observed wire bytes."""
    async with topology as top:
        client_a, client_b = top.clients
        q2_of_5 = registry.query("Q2").bind([5])

        # (a) Cache hits occur: the second read of the same view on the
        # same node is answered by the DSSP without touching home.
        first = await client_a.query(top.seal_query(q2_of_5))
        assert first.cache_hit is False
        second = await client_a.query(top.seal_query(q2_of_5))
        assert second.cache_hit is True
        served_before = top.home.queries_served

        # Seed the same view on node B so fan-out has something to kill.
        await client_b.query(top.seal_query(q2_of_5))
        assert (await client_b.query(top.seal_query(q2_of_5))).cache_hit

        # (b) An update through node A invalidates BOTH nodes: A
        # synchronously (reflected in the ack), B via the home's
        # invalidation stream.
        ack = await client_a.update(
            top.seal_update(registry.update("U1").bind([5]))
        )
        assert ack.rows_affected == 1
        assert ack.invalidated >= 1  # node A, synchronous
        await eventually(lambda: top.dssp_nets[1].stream_pushes_applied >= 1)

        # Both nodes must now miss: the deleted row's view is gone.
        re_read_a = await client_a.query(top.seal_query(q2_of_5))
        assert re_read_a.cache_hit is False
        re_read_b = await client_b.query(top.seal_query(q2_of_5))
        assert re_read_b.cache_hit is False
        assert re_read_b.result is not None
        assert top.home.queries_served > served_before

        # The fresh result reflects the delete once opened at the client.
        opened = top.codec.open_result(re_read_a.result)
        assert opened.rows == ()
    return b"".join(top.wire_bytes)


class TestEndToEnd:
    async def test_hits_fanout_and_wire_exposure(
        self, strategy, simple_toystore, toystore_db
    ):
        topology = Topology(simple_toystore, toystore_db.clone(), strategy)
        observed = await run_scenario(topology, simple_toystore)

        assert observed  # the observer really saw traffic
        # (c) Serialized plaintext result sets have a distinctive JSON
        # shell; below `view` it must never cross the wire.
        if strategy.exposure_level.name == "VIEW":
            assert b'"columns"' in observed
        else:
            assert b'"columns"' not in observed
            assert b'"rows"' not in observed

    async def test_stream_connects_when_home_starts_late(
        self, simple_toystore, toystore_db
    ):
        """A DSSP node brought up before its home must keep retrying the
        invalidation-stream subscription, then connect and apply pushes."""
        # Reserve a port for the home, then free it so the DSSP node's
        # first subscribe attempts fail with a connection error.
        probe = await asyncio.start_server(
            lambda r, w: w.close(), "127.0.0.1", 0
        )
        host, port = probe.sockets[0].getsockname()[:2]
        probe.close()
        await probe.wait_closed()

        dssp = DsspNetServer(
            DsspNode(),
            node_id="early-bird",
            subscribe_retry=RetryPolicy(
                attempts=1_000, backoff_s=0.01, max_backoff_s=0.05
            ),
        )
        dssp.register_application("toystore", simple_toystore, (host, port))
        await dssp.start()
        # Let several subscribe attempts fail while the home is down.
        await eventually(lambda: dssp.stream_subscribe_failures >= 2)

        policy = ExposurePolicy.uniform(
            simple_toystore, StrategyClass.MTIS.exposure_level
        )
        home = HomeServer(
            "toystore",
            toystore_db.clone(),
            simple_toystore,
            policy,
            Keyring("toystore", b"k" * 32),
        )
        home_net = HomeNetServer(home, host=host, port=port)
        updater = None
        try:
            await home_net.start()
            await eventually(lambda: home_net.subscriber_count == 1)
            # The stream is genuinely live: an update entering at the home
            # reaches the node as an invalidation push.
            updater = WireClient(host, port)
            bound = simple_toystore.update("U1").bind([5])
            await updater.update(
                home.codec.seal_update(bound, policy.update_level("U1"))
            )
            await eventually(lambda: dssp.stream_pushes_applied >= 1)
        finally:
            if updater is not None:
                await updater.aclose()
            await dssp.stop()
            await home_net.stop()

    async def test_a_refused_subscribe_is_retried_not_fatal(
        self, simple_toystore, toystore_db, caplog
    ):
        """A home that does not master every application a node streams
        from it refuses the SUBSCRIBE with UNKNOWN_APP.  The node counts
        the refusal, warns naming the app and retries; its stream task
        must not die (it used to, silently: the error is not a NetError)."""
        caplog.set_level(logging.WARNING, logger="repro.net.dssp_server")
        home = mtis_home(simple_toystore, toystore_db.clone())
        home_net = HomeNetServer(home)
        dssp = DsspNetServer(DsspNode(), subscribe_retry=FAST_RESUBSCRIBE)
        try:
            address = await home_net.start()
            dssp.register_application("toystore", simple_toystore, address)
            dssp.register_application("auction", simple_toystore, address)
            await dssp.start()
            await eventually(lambda: dssp.stream_subscribe_failures >= 2)
            [stream] = dssp._stream_tasks
            assert not stream.done()
            assert dssp.stream_flushes == 0  # never subscribed
            warnings = [
                record.getMessage()
                for record in caplog.records
                if record.levelno == logging.WARNING
            ]
            assert any("'auction'" in message for message in warnings)
        finally:
            await dssp.stop()
            await home_net.stop()

    async def test_an_unknown_app_error_mid_stream_reconnects(
        self, simple_toystore, toystore_db
    ):
        """The same error arriving on a live stream ends that stream, not
        the task: the node resubscribes and flushes again."""

        class RetractingHome(HomeNetServer):
            """Refuses the first subscription right after accepting it."""

            retracted = False

            def _subscribe(self, frame, context):
                response = super()._subscribe(frame, context)
                if not self.retracted:
                    self.retracted = True
                    refusal = ErrorResponse(ErrorCode.UNKNOWN_APP, "toystore")
                    self.refusal = asyncio.create_task(
                        self._send(context, refusal)
                    )
                return response

        home = mtis_home(simple_toystore, toystore_db.clone())
        home_net = RetractingHome(home)
        dssp = DsspNetServer(DsspNode(), subscribe_retry=FAST_RESUBSCRIBE)
        try:
            address = await home_net.start()
            dssp.register_application("toystore", simple_toystore, address)
            await dssp.start()
            await eventually(lambda: dssp.stream_flushes == 2)
            [stream] = dssp._stream_tasks
            assert not stream.done()
            await eventually(lambda: home_net.subscriber_count == 1)
        finally:
            await dssp.stop()
            await home_net.stop()

    async def test_update_through_one_node_counts_once(
        self, simple_toystore, toystore_db
    ):
        """The origin node is skipped by fan-out: no double invalidation."""
        topology = Topology(
            simple_toystore, toystore_db.clone(), StrategyClass.MTIS
        )
        async with topology as top:
            client_a, _ = top.clients
            bound = simple_toystore.query("Q2").bind([7])
            await client_a.query(top.seal_query(bound))
            await client_a.update(
                top.seal_update(simple_toystore.update("U1").bind([7]))
            )
            # Node A must NOT receive its own push: once the fan-out has
            # demonstrably reached node B, A's counter is authoritative.
            await eventually(
                lambda: top.dssp_nets[1].stream_pushes_applied == 1
            )
            assert top.dssp_nets[0].stream_pushes_applied == 0

    @pytest.mark.parametrize("level", [StrategyClass.MSIS, StrategyClass.MVIS])
    async def test_visible_update_reads_its_bucket_through_the_index(
        self, level, simple_toystore, toystore_db
    ):
        """Default nodes behind a default home narrow a stmt-visible update
        to the matching view; STATS and the span both say so."""
        sink = SpanSink()
        topology = Topology(simple_toystore, toystore_db.clone(), level, sink)
        async with topology as top:
            client = top.clients[0]
            for toy_id in (5, 7):
                bound = simple_toystore.query("Q2").bind([toy_id])
                await client.query(top.seal_query(bound))
            delete = simple_toystore.update("U1").bind([5])
            ack = await client.update(top.seal_update(delete))
            assert ack.invalidated == 1
            gauges = (await client.stats())["metrics"]["gauges"]
        assert gauges["dssp.index_narrowed"] == 1  # Q2(7) never visited
        assert gauges["dssp.invalidation_checks"] == 2  # bucket + Q2(5)
        paths = [
            span.attrs["path"]
            for span in sink.spans
            if span.name == "dssp.invalidate" and span.node == "dssp-0"
        ]
        assert paths == ["indexed"]

    @pytest.mark.parametrize("level", [StrategyClass.MTIS, StrategyClass.MSIS])
    async def test_a_name_or_arity_the_registry_lacks_is_refused_at_the_dssp(
        self, level, simple_toystore, toystore_db
    ):
        """BAD_FRAME, typed, without a hop: the home sees no request and
        the cache no entry.  (Before wire v3 the home ran whatever SQL the
        envelope carried, whatever it was named.)"""
        from dataclasses import replace

        from repro.crypto.envelope import QueryEnvelope, UpdateEnvelope
        from repro.errors import WireError

        topology = Topology(simple_toystore, toystore_db.clone(), level)
        async with topology as top:
            client, node = top.clients[0], top.nodes[0]
            query = top.seal_query(simple_toystore.query("Q2").bind([5]))
            update = top.seal_update(simple_toystore.update("U1").bind([5]))
            await client.query(query)
            forged_queries = [
                replace(query, template_name="Q99"),  # unregistered
                replace(query, template_name="U1"),  # an update's name
            ]
            forged_updates = [
                replace(update, template_name="U99"),
                replace(update, template_name="Q2"),  # a query's name
            ]
            if level is StrategyClass.MSIS:  # arity is visible with the params
                forged_queries.append(replace(query, params=(5, 6)))
                forged_updates.append(replace(update, params=()))
            home_requests = top.home_net.metrics.counter("server.requests")
            served, cached = home_requests.value, len(node.cache)
            rows = toystore_db.row_count("toys")
            for forged in forged_queries:
                assert isinstance(forged, QueryEnvelope)
                with pytest.raises(WireError):
                    await client.query(forged)
            for forged in forged_updates:
                assert isinstance(forged, UpdateEnvelope)
                with pytest.raises(WireError):
                    await client.update(forged)
            assert home_requests.value == served
            assert len(node.cache) == cached
            assert top.home.database.row_count("toys") == rows
            bad_frames = top.dssp_nets[0].metrics.counter("server.bad_frames")
            assert bad_frames.value == len(forged_queries) + len(forged_updates)
            assert (await client.query(query)).cache_hit  # and still serving
            # The home answers the same way to whoever skips the DSSP.
            direct = WireClient(*top.home_net.address)
            try:
                for forged in forged_queries:
                    with pytest.raises(WireError):
                        await direct.query(forged)
                for forged in forged_updates:
                    with pytest.raises(WireError):
                        await direct.update(forged)
            finally:
                await direct.aclose()
            assert top.home.database.row_count("toys") == rows
            assert top.home.queries_served == 1 and top.home.updates_applied == 0

    async def test_a_clients_origin_claim_is_ignored_by_the_dssp(
        self, simple_toystore, toystore_db
    ):
        """``origin`` is a claimed field: a client naming *another* node as
        the forwarder must not talk the home out of pushing to it."""
        topology = Topology(
            simple_toystore, toystore_db.clone(), StrategyClass.MSIS
        )
        async with topology as top:
            client_a, client_b = top.clients
            view = top.seal_query(simple_toystore.query("Q2").bind([7]))
            await client_b.query(view)
            await client_a.update(
                top.seal_update(simple_toystore.update("U1").bind([7])),
                origin="dssp-1",
            )
            await eventually(
                lambda: top.dssp_nets[1].stream_pushes_applied == 1
            )
            assert (await client_b.query(view)).cache_hit is False


class TestFillRace:
    """A miss fill must not outlive the invalidation it raced.

    The home answers node A's read of Q2(5) from the old row, and the
    answer is held on its way back (what a DELAY on the dssp<-home link
    does) while U1(5) deletes the row and the delete's invalidation
    reaches A — synchronously when it entered through A, over the stream
    when it entered through B.  The late answer may be served, never
    cached: a cached copy would be a stale hit that no later push repairs.
    """

    HOLD_S = 0.3

    @pytest.mark.parametrize("via", ["same_node", "other_node"])
    async def test_a_fill_that_raced_an_invalidation_is_not_cached(
        self, via, strategy, simple_toystore, toystore_db
    ):
        topology = Topology(simple_toystore, toystore_db.clone(), strategy)
        async with topology as top:
            home_net = top.home_net
            answer = home_net.handle
            held = asyncio.Event()

            async def hold_first_query_answer(frame, context):
                response = await answer(frame, context)
                if isinstance(frame, QueryRequest) and not held.is_set():
                    held.set()  # computed from the old row, now in transit
                    await asyncio.sleep(self.HOLD_S)
                return response

            home_net.handle = hold_first_query_answer
            client_a, client_b = top.clients
            q2_of_5 = top.seal_query(simple_toystore.query("Q2").bind([5]))
            read = asyncio.ensure_future(client_a.query(q2_of_5))
            await held.wait()

            writer = client_a if via == "same_node" else client_b
            ack = await writer.update(
                top.seal_update(simple_toystore.update("U1").bind([5]))
            )
            assert ack.rows_affected == 1
            if via == "other_node":
                await eventually(
                    lambda: top.dssp_nets[0].stream_pushes_applied >= 1
                )
            assert not read.done()  # the invalidation beat the answer

            raced = await read
            assert raced.cache_hit is False
            assert top.codec.open_result(raced.result).rows  # old, once
            re_read = await client_a.query(q2_of_5)
            assert re_read.cache_hit is False
            assert top.codec.open_result(re_read.result).rows == ()
            assert top.nodes[0].stats.fill_refused == 1
