"""Property tests: hostile bytes never hang or crash the wire decoder.

The chaos proxy truncates and garbles frames on purpose, so the decoder's
failure contract is load-bearing: for *any* byte string it must either
produce a frame or raise :class:`~repro.errors.WireError` — no other
exception type, no hang.  The framing every socket reads with
(:class:`~repro.net.framing.FrameConnection`) must likewise terminate on
any input followed by EOF: whole frames, then a clean end or a
``WireError``.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.exposure import ExposureLevel
from repro.crypto.envelope import QueryEnvelope, ResultEnvelope, UpdateEnvelope
from repro.errors import WireError
from repro.net import wire
from repro.storage.rows import ResultSet
from tests.net import streams

SAMPLE_FRAMES = [
    wire.QueryRequest(
        QueryEnvelope(
            app_id="toystore", level=ExposureLevel.BLIND, sealed_statement=b"k1"
        )
    ),
    wire.UpdateRequest(
        UpdateEnvelope(
            app_id="toystore", level=ExposureLevel.BLIND, sealed_statement=b"u1"
        ),
        origin="dssp-0",
    ),
    wire.QueryRequest(
        QueryEnvelope("toystore", ExposureLevel.STMT, "Q2", (5, "x", None, 1.5))
    ),
    wire.InvalidationPush(
        UpdateEnvelope(
            "toystore", ExposureLevel.TEMPLATE, "U1", sealed_params=b"token"
        )
    ),
    wire.QueryRequest(
        QueryEnvelope(
            "toystore", ExposureLevel.TEMPLATE, "Q1", sealed_params=b"token"
        )
    ),
    wire.InvalidationBatch(
        (
            ("rid-a", UpdateEnvelope("toystore", ExposureLevel.STMT, "U1", (5,))),
            (
                None,
                UpdateEnvelope(
                    "toystore", ExposureLevel.BLIND, sealed_statement=b"u"
                ),
            ),
        )
    ),
    wire.SubscribeRequest("dssp-1", ("toystore", "bboard")),
    wire.SubscribeRequest("dssp-0", ("toystore",), shards=("dssp-0", "dssp-1")),
    wire.SubscribeResponse(),
    wire.QueryResponse(
        ResultEnvelope(app_id="toystore", ciphertext=b"sealed"),
        cache_hit=True,
    ),
    wire.QueryResponse(
        ResultEnvelope(
            app_id="toystore",
            plaintext=ResultSet(("qty", "name"), ((10, "a"), (None, "b"))),
        ),
        cache_hit=False,
    ),
    wire.UpdateResponse(rows_affected=3, invalidated=2),
    wire.ErrorResponse(wire.ErrorCode.OVERLOADED, "shed"),
    wire.StatsResponse("dssp-0", '{"hits": 1}'),
]

ENCODED = [
    wire.encode_frame(frame, request_id=f"rid-{i}")
    for i, frame in enumerate(SAMPLE_FRAMES)
]


def decode_or_wire_error(data: bytes) -> None:
    """The decoder's whole contract: a Frame or a WireError, nothing else."""
    try:
        frame, _ = wire.decode_traced(data)
    except WireError:
        return
    assert frame is not None


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=2048))
def test_arbitrary_bytes_decode_or_raise_wire_error(data):
    decode_or_wire_error(data)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(ENCODED) - 1),
    st.data(),
)
def test_bit_flipped_valid_frame_never_escapes_typed_errors(which, data):
    original = ENCODED[which]
    position = data.draw(
        st.integers(min_value=0, max_value=len(original) - 1)
    )
    bit = data.draw(st.integers(min_value=0, max_value=7))
    mutated = bytearray(original)
    mutated[position] ^= 1 << bit
    decode_or_wire_error(bytes(mutated))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(ENCODED) - 1),
    st.data(),
)
def test_any_strict_prefix_raises_wire_error(which, data):
    original = ENCODED[which]
    cut = data.draw(st.integers(min_value=0, max_value=len(original) - 1))
    try:
        wire.decode_traced(original[:cut])
    except WireError:
        return
    raise AssertionError("truncated frame decoded successfully")


async def _frames_then_end(data: bytes, chunk: int) -> list[bytes]:
    """Frames a ``FrameConnection`` cuts from ``data`` + EOF.

    Bytes arrive ``chunk`` at a time until the input ends (a real
    transport stops reading there); the receiver must then drain to a
    clean end or a ``WireError`` within the timeout, never hang.
    """
    connection, transport = streams.connect(max_frame=wire.MAX_FRAME_BYTES)
    for start in range(0, len(data), chunk):
        if not transport.reading:
            break
        streams.feed(connection, data[start : start + chunk])
    connection.eof_received()
    frames: list[bytes] = []
    try:
        while (
            raw := await asyncio.wait_for(connection.receive(), timeout=2.0)
        ) is not None:
            frames.append(raw)
    except WireError:
        pass
    return frames


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=2048), st.integers(min_value=1, max_value=64))
def test_framing_terminates_on_arbitrary_bytes(data, chunk):
    frames = asyncio.run(_frames_then_end(data, chunk))
    # Whatever came out is whole frames, cut exactly from the input.
    assert data.startswith(b"".join(frames))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(ENCODED), max_size=4), st.binary(max_size=64))
def test_framing_hands_out_good_frames_before_garbage(frames, garbage):
    got = asyncio.run(_frames_then_end(b"".join(frames) + garbage, 7))
    assert got[: len(frames)] == frames


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(ENCODED) - 1),
    st.data(),
)
def test_framing_terminates_on_truncated_stream(which, data):
    """A stream severed mid-frame (the proxy's TRUNCATE fault) must end in
    WireError, not a hang waiting for bytes that will never come."""
    original = ENCODED[which]
    cut = data.draw(st.integers(min_value=1, max_value=len(original) - 1))
    assert asyncio.run(_frames_then_end(original[:cut], 5)) == []


def test_samples_round_trip():
    """Sanity: the corpus frames themselves decode back intact."""
    for index, raw in enumerate(ENCODED):
        frame, request_id = wire.decode_traced(raw)
        assert frame == SAMPLE_FRAMES[index]
        assert request_id == f"rid-{index}"
        frame_type, peeked_rid = wire.peek_raw(raw)
        assert peeked_rid == request_id


# -- malformed envelopes: well-framed, but level, parameters or lengths lie ------

BLIND, TEMPLATE, STMT, VIEW = (int(level) for level in ExposureLevel)
APP = b"toystore"


def _frame(payload: bytes, frame_type=wire.FrameType.QUERY) -> bytes:
    """A frame around ``payload``, its bytes exactly as given."""
    header = wire._HEADER.pack(
        wire.MAGIC, wire.VERSION, frame_type, 0, len(payload)
    )
    return header + payload


def _envelope(level, name=None, body=b"") -> bytes:
    """An envelope in the layout ``name`` picks: blind without one."""
    if name is None:
        return wire._BLIND.pack(level, len(APP), len(body)) + APP + body
    fixed = wire._NAMED.pack(level, len(APP), len(name), len(body))
    return fixed + APP + name + body


def _envelope_frame(level, name=None, body=b"", frame_type=wire.FrameType.QUERY):
    return _frame(_envelope(level, name, body), frame_type)


GOOD_STMT = _envelope(STMT, b"Q2", b"[5]")

MALFORMED_ENVELOPES = {
    "unknown-level": _envelope_frame(9, b"Q2", b"[5]"),
    "view-update": _envelope_frame(
        VIEW, b"U1", b"[5]", frame_type=wire.FrameType.INVALIDATE
    ),
    # each parameter is int | float | str | None
    "params-boolean": _envelope_frame(STMT, b"Q2", b"[true]"),
    "params-nested-list": _envelope_frame(STMT, b"Q2", b"[[5]]"),
    "params-object-member": _envelope_frame(STMT, b"Q2", b'[{"a":1}]'),
    "params-nan": _envelope_frame(STMT, b"Q2", b"[NaN]"),
    "params-infinity": _envelope_frame(STMT, b"Q2", b"[-Infinity]"),
    "params-overflowing-float": _envelope_frame(STMT, b"Q2", b"[1e999]"),
    "params-not-an-array": _envelope_frame(STMT, b"Q2", b'{"a":1}'),
    "params-bare-scalar": _envelope_frame(STMT, b"Q2", b"5"),
    "params-not-json": _envelope_frame(STMT, b"Q2", b"[5,"),
    "params-not-utf8": _envelope_frame(STMT, b"Q2", b'["\xff"]'),
    "params-too-deep": _envelope_frame(STMT, b"Q2", b"[" * 100_000),
    # a length in the fixed part runs past the payload, or stops short of it
    "app-overruns": _frame(wire._BLIND.pack(BLIND, 99, 1) + APP + b"t"),
    "sealed-statement-overruns": _frame(
        wire._BLIND.pack(BLIND, len(APP), 2**32 - 1) + APP + b"t"
    ),
    "name-overruns": _frame(wire._NAMED.pack(STMT, len(APP), 9, 3) + APP + b"Q2[5]"),
    "params-overrun": _frame(wire._NAMED.pack(STMT, len(APP), 2, 4) + APP + b"Q2[5]"),
    "sealed-params-overrun": _frame(
        wire._NAMED.pack(TEMPLATE, len(APP), 2, 6) + APP + b"Q1token"[:-1]
    ),
    "fixed-part-cut": _frame(GOOD_STMT[: wire._NAMED.size - 1]),
    "trailing-byte": _frame(GOOD_STMT + b"\x00"),
    "origin-overruns": _frame(
        (99).to_bytes(4, "big") + GOOD_STMT, wire.FrameType.UPDATE
    ),
    "update-trailing-byte": _frame(
        bytes(4) + GOOD_STMT + b"\x00", wire.FrameType.UPDATE
    ),
    "batch-entry-overruns": _frame(
        (2).to_bytes(4, "big") + bytes(4) + GOOD_STMT,
        wire.FrameType.INVALIDATE_BATCH,
    ),
    "batch-trailing-byte": _frame(
        (1).to_bytes(4, "big") + bytes(4) + GOOD_STMT + b"\x00",
        wire.FrameType.INVALIDATE_BATCH,
    ),
}


#: Shapes no level names: each level's layout has no slot for them, so
#: they cannot be written down as bytes at all; the encoder refuses them.
MISFIT_SHAPES = {
    "blind-with-name": (BLIND, "Q2", None, None, b"t"),
    "blind-with-params": (BLIND, None, (5,), None, b"t"),
    "blind-sealing-params": (BLIND, None, None, b"t", None),
    "blind-empty": (BLIND, None, None, None, None),
    "template-without-name": (TEMPLATE, None, None, b"t", None),
    "template-with-clear-params": (TEMPLATE, "Q2", (5,), b"t", None),
    "template-sealing-statement": (TEMPLATE, "Q2", None, None, b"t"),
    "stmt-without-params": (STMT, "Q2", None, None, None),
    "stmt-without-name": (STMT, None, (5,), None, None),
    "stmt-with-sealed-params-too": (STMT, "Q2", (5,), b"t", None),
    "stmt-shaped-as-blind": (STMT, None, None, None, b"t"),
    "view-shaped-as-template": (VIEW, "Q2", None, b"t", None),
}


@pytest.mark.parametrize("label", sorted(MISFIT_SHAPES))
def test_a_misfit_shape_is_refused_before_any_byte_is_sent(label):
    level, name, params, sealed_params, sealed_statement = MISFIT_SHAPES[label]
    fields = (
        "toystore",
        ExposureLevel(level),
        name,
        params,
        sealed_params,
        sealed_statement,
    )
    for frame in (
        wire.QueryRequest(QueryEnvelope(*fields)),
        wire.UpdateRequest(UpdateEnvelope(*fields), origin="dssp-0"),
        wire.InvalidationBatch(((None, UpdateEnvelope(*fields)),)),
    ):
        with pytest.raises(WireError, match="do not fit exposure level"):
            wire.encode_frame(frame)


@pytest.mark.parametrize("label", sorted(MALFORMED_ENVELOPES))
def test_malformed_envelope_is_a_wire_error(label):
    with pytest.raises(WireError):
        wire.decode_traced(MALFORMED_ENVELOPES[label])


def test_the_malformed_table_builder_can_build_a_good_frame():
    """Sanity: the cases above fail for their stated reason, not framing."""
    frame, _ = wire.decode_traced(_envelope_frame(STMT, b"Q2", b"[5, 1.5]"))
    assert frame.envelope == QueryEnvelope(
        "toystore", ExposureLevel.STMT, "Q2", (5, 1.5)
    )
    batch = (1).to_bytes(4, "big") + bytes(4) + GOOD_STMT
    wire.decode_traced(_frame(bytes(4) + GOOD_STMT, wire.FrameType.UPDATE))
    wire.decode_traced(_frame(batch, wire.FrameType.INVALIDATE_BATCH))
