"""The one deployment: readiness barrier, failed starts, restarts, stop.

Every networked topology starts through one
:class:`~repro.net.deploy.Deployment`, so its lifecycle is pinned here
once: a started fleet has every stream up and flushed, a start that fails
part-way leaves nothing open, a restarted server's streams come back
re-flushed, and ``stop()`` is always safe.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.chaos import ChaosLog, FaultPlan
from repro.net.deploy import Deployment, eventually
from repro.net.scenarios import deploy_scenario
from tests.net.test_end_to_end import Topology


async def refuses_connections(port: int) -> bool:
    try:
        _, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError:
        return True
    writer.close()
    await writer.wait_closed()
    return False


async def push_reaches_dssp_1(top: Topology, registry) -> None:
    update = top.seal_update(registry.update("U1").bind([5]))
    await top.clients[0].update(update)
    receiver = top.handle("dssp-1").server
    await eventually(lambda: receiver.stream_pushes_applied >= 1)


async def test_a_deployed_scenario_has_every_stream_up_and_flushed():
    """Without the barrier, deploy_scenario returned before any stream was
    subscribed: an update applied then reached no one, and the late
    connect flush threw away views the run had already cached."""
    deployment = await deploy_scenario(
        "steady", scale=0.1, seed=3, nodes=2, trace_pages=50
    )
    try:
        servers = deployment.servers
        flushes = [server.stream_flushes for server in servers]
        subscribed = [
            deployment.home_net.has_subscriber(s.node_id) for s in servers
        ]
    finally:
        await deployment.stop()
    assert len(flushes) == 2 and all(count >= 1 for count in flushes)
    assert all(subscribed)


async def test_a_node_that_cannot_bind_leaves_nothing_open(
    simple_toystore, toystore_db
):
    taken = await asyncio.start_server(
        lambda reader, writer: writer.close(), "127.0.0.1", 0
    )
    top = Topology(simple_toystore, toystore_db.clone())
    await top.stop()  # safe before any start, too
    top.handles[1].port = taken.sockets[0].getsockname()[1]
    try:
        with pytest.raises(OSError):
            await top.start()
    finally:
        taken.close()
        await taken.wait_closed()
    # The home and dssp-0 came up before dssp-1 failed to bind.
    assert top.home_port and top.handles[0].port
    assert await refuses_connections(top.home_port)
    assert await refuses_connections(top.handles[0].port)
    assert not [
        task
        for task in asyncio.all_tasks()
        if "_stream_loop" in repr(task.get_coro())
    ]
    await top.stop()  # and again after a partial start


async def test_home_restart_re_establishes_and_re_flushes_every_stream(
    simple_toystore, toystore_db
):
    async with Topology(simple_toystore, toystore_db.clone()) as top:
        before = [server.stream_flushes for server in top.servers]
        port = top.home_port
        await top.restart("home")
        assert top.home_port == port
        for server, flushes in zip(top.servers, before):
            assert server.stream_flushes > flushes
            assert top.home_net.has_subscriber(server.node_id)
        await push_reaches_dssp_1(top, simple_toystore)


async def test_node_restart_re_establishes_and_re_flushes_its_stream(
    simple_toystore, toystore_db
):
    async with Topology(simple_toystore, toystore_db.clone()) as top:
        handle = top.handle("dssp-1")
        old_server, port = handle.server, handle.port
        await handle.client.query(
            top.seal_query(simple_toystore.query("Q2").bind([5]))
        )
        assert len(handle.node.cache) == 1  # warm before the kill
        await top.restart("dssp-1")
        assert handle.server is not old_server
        assert handle.server.address[1] == port
        assert handle.server.stream_flushes >= 1
        assert top.home_net.has_subscriber("dssp-1")
        assert len(handle.node.cache) == 0  # the reconnect flush ran
        await push_reaches_dssp_1(top, simple_toystore)


async def test_nodes_served_elsewhere_get_only_a_proxied_client(
    simple_toystore, toystore_db
):
    async with Topology(simple_toystore, toystore_db.clone()) as top:
        host, port = top.servers[0].address
        log = ChaosLog()
        remote = Deployment(
            nodes=[(host, port)], plan=FaultPlan(seed=0), log=log
        )
        async with remote:
            [handle] = remote.handles
            assert handle.name == f"{host}:{port}" and handle.server is None
            assert handle.client_proxy.link == f"client->{host}:{port}"
            query = top.seal_query(simple_toystore.query("Q2").bind([5]))
            outcome = await remote.clients[0].query(query)
        assert top.codec.open_result(outcome.result).rows
        assert len(log) == 0
