"""The DSSP side of the invalidation stream, driven frame by frame.

A :class:`~repro.net.client.Subscription` is called back from the read
that brings a frame, like the request channel: the first frame answers
the ``SUBSCRIBE``, every later push goes to ``on_push`` before the read
returns, and anything else ends the stream.  The connection is fed the
way a selector transport feeds it (``streams.feed``), so "inside the
read" is asserted as "before ``feed`` returns", not by timing.
"""

from __future__ import annotations

import pytest

from repro.analysis.exposure import ExposureLevel
from repro.crypto.envelope import UpdateEnvelope
from repro.errors import NetConnectionError, UnknownApplicationError, WireError
from repro.net import wire
from repro.net.client import Subscription
from repro.net.wire import (
    ErrorCode,
    ErrorResponse,
    InvalidationBatch,
    InvalidationPush,
    SubscribeResponse,
    UpdateResponse,
)
from tests.net import streams

FIRST = UpdateEnvelope("toystore", ExposureLevel.BLIND, sealed_statement=b"u1")
SECOND = UpdateEnvelope("toystore", ExposureLevel.BLIND, sealed_statement=b"u2")
SUBSCRIBED = wire.encode_frame(SubscribeResponse())


class ClosableTransport(streams.FakeTransport):
    """A fake transport a subscription may close when its stream ends."""

    def __init__(self) -> None:
        super().__init__()
        self.closed = False

    def close(self) -> None:
        self.closed = True


def open_subscription(**kwargs):
    """A subscription on a fake transport, and the pushes it hands out."""
    pushes: list = []
    subscription = Subscription(
        max_frame=wire.MAX_FRAME_BYTES,
        on_push=lambda *push: pushes.append(push),
        **kwargs,
    )
    transport = ClosableTransport()
    subscription.connection_made(transport)
    return subscription, transport, pushes


async def subscribe_outcome(subscription) -> BaseException | None:
    try:
        await subscription._subscribed
    except BaseException as error:  # noqa: BLE001 - the outcome under test
        return error
    return None


class TestHandshake:
    async def test_subscribed_completes_the_subscribe(self):
        subscription, transport, pushes = open_subscription()
        streams.feed(subscription, SUBSCRIBED)
        assert await subscribe_outcome(subscription) is None
        assert pushes == []
        assert not transport.closed

    async def test_an_error_answer_fails_the_subscribe_typed(self):
        subscription, transport, pushes = open_subscription()
        refusal = ErrorResponse(ErrorCode.UNKNOWN_APP, "toystore")
        streams.feed(subscription, wire.encode_frame(refusal))
        error = await subscribe_outcome(subscription)
        assert isinstance(error, UnknownApplicationError)
        assert error.app_id == "toystore"
        assert await subscription.wait_ended() is error
        assert transport.closed
        assert pushes == []

    async def test_a_push_before_subscribed_is_refused(self):
        subscription, transport, pushes = open_subscription()
        streams.feed(subscription, wire.encode_frame(InvalidationPush(FIRST)))
        error = await subscribe_outcome(subscription)
        assert isinstance(error, WireError)
        assert str(error) == "expected SUBSCRIBED frame, got InvalidationPush"
        assert pushes == []
        assert transport.closed

    async def test_a_close_before_subscribed_fails_the_subscribe(self):
        subscription, _, _ = open_subscription()
        subscription.eof_received()
        error = await subscribe_outcome(subscription)
        assert isinstance(error, NetConnectionError)
        assert "server closed the connection" in str(error)
        assert await subscription.wait_ended() is None


class TestPushes:
    async def test_pushes_are_handed_out_inside_the_read_in_order(self):
        """Every push in one read reaches ``on_push`` before the read
        returns: a singleton with the trace id it came under, a batch with
        none (its entries carry their own)."""
        subscription, _, pushes = open_subscription()
        batch = InvalidationBatch((("op-1", FIRST), ("op-2", SECOND)))
        streams.feed(
            subscription,
            SUBSCRIBED
            + wire.encode_frame(InvalidationPush(FIRST), request_id="op-0")
            + wire.encode_frame(batch)
            + wire.encode_frame(InvalidationPush(SECOND)),
        )
        assert pushes == [
            (InvalidationPush(FIRST), "op-0"),
            (batch, None),
            (InvalidationPush(SECOND), None),
        ]
        assert await subscribe_outcome(subscription) is None

    async def test_a_frame_that_is_not_a_push_ends_the_stream(self):
        subscription, transport, pushes = open_subscription()
        streams.feed(
            subscription,
            SUBSCRIBED
            + wire.encode_frame(UpdateResponse(1, 0))
            + wire.encode_frame(InvalidationPush(FIRST)),
        )
        ended = await subscription.wait_ended()
        assert isinstance(ended, WireError)
        assert str(ended) == "unexpected UpdateResponse on subscription channel"
        assert pushes == []  # nothing after the end is handed out
        assert transport.closed
        assert not transport.reading

    async def test_an_undecodable_push_ends_the_stream(self):
        subscription, _, pushes = open_subscription()
        good = wire.encode_frame(InvalidationPush(FIRST))
        header = wire._HEADER.pack(
            wire.MAGIC, wire.VERSION, wire.FrameType.INVALIDATE, 0, 3
        )
        streams.feed(subscription, SUBSCRIBED + good + header + b"\xff\xff\xff")
        ended = await subscription.wait_ended()
        assert isinstance(ended, WireError)
        assert pushes == [(InvalidationPush(FIRST), None)]

    async def test_a_clean_close_ends_the_stream_with_none(self):
        subscription, transport, pushes = open_subscription()
        streams.feed(subscription, SUBSCRIBED)
        subscription.eof_received()
        assert await subscription.wait_ended() is None
        assert transport.closed
        assert pushes == []

    async def test_a_close_inside_a_frame_ends_the_stream_with_its_cut(self):
        subscription, _, _ = open_subscription()
        push = wire.encode_frame(InvalidationPush(FIRST))
        streams.feed(subscription, SUBSCRIBED + push[:-1])
        subscription.eof_received()
        ended = await subscription.wait_ended()
        assert isinstance(ended, WireError)
        assert str(ended).startswith("connection closed mid-frame")

    @pytest.mark.parametrize("split", [1, wire.HEADER_SIZE, 7])
    async def test_the_observer_sees_every_frame_as_it_arrived(self, split):
        seen: list[bytes] = []
        subscription, _, pushes = open_subscription(observer=seen.append)
        push = wire.encode_frame(InvalidationPush(FIRST), request_id="op-0")
        stream = SUBSCRIBED + push
        streams.feed(subscription, stream[:split])
        streams.feed(subscription, stream[split:])
        assert seen == [SUBSCRIBED, push]
        assert pushes == [(InvalidationPush(FIRST), "op-0")]
