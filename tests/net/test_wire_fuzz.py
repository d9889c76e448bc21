"""Property tests: hostile bytes never hang or crash the wire decoder.

The chaos proxy truncates and garbles frames on purpose, so the decoder's
failure contract is load-bearing: for *any* byte string it must either
produce a frame or raise :class:`~repro.errors.WireError` — no other
exception type, no hang.  The async readers must likewise terminate on any
input followed by EOF (clean ``None``, a frame, or ``WireError``).
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
    wire.SubscribeRequest("dssp-1", ("toystore", "bboard")),
    wire.QueryResponse(
        ResultEnvelope(app_id="toystore", ciphertext=b"sealed"),
        cache_hit=True,
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


async def _feed_and_read(data: bytes, read):
    """Read frames from ``data`` + EOF; must terminate within the timeout."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    try:
        while True:
            got = await asyncio.wait_for(read(reader), timeout=2.0)
            if got is None:  # clean EOF between frames
                return
    except WireError:
        return


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=2048))
def test_read_traced_terminates_on_arbitrary_bytes(data):
    asyncio.run(_feed_and_read(data, wire.read_traced))


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=2048))
def test_read_raw_frame_terminates_on_arbitrary_bytes(data):
    asyncio.run(_feed_and_read(data, wire.read_raw_frame))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(ENCODED) - 1),
    st.data(),
)
def test_reader_terminates_on_truncated_stream(which, data):
    """A stream severed mid-frame (the proxy's TRUNCATE fault) must end in
    WireError, not a hang waiting for bytes that will never come."""
    original = ENCODED[which]
    cut = data.draw(st.integers(min_value=1, max_value=len(original) - 1))
    asyncio.run(_feed_and_read(original[:cut], wire.read_traced))


def test_samples_round_trip():
    """Sanity: the corpus frames themselves decode back intact."""
    for index, raw in enumerate(ENCODED):
        frame, request_id = wire.decode_traced(raw)
        assert frame == SAMPLE_FRAMES[index]
        assert request_id == f"rid-{index}"
        frame_type, peeked_rid = wire.peek_raw(raw)
        assert peeked_rid == request_id


# -- malformed envelopes: well-framed, but shape, level or parameters lie ---------

BLIND, TEMPLATE, STMT, VIEW = (int(level) for level in ExposureLevel)


def _envelope_frame(
    level,
    name=None,
    params=None,
    sealed_statement=None,
    sealed_params=None,
    frame_type=wire.FrameType.QUERY,
) -> bytes:
    """A frame whose envelope fields are written exactly as given."""
    writer = wire._Writer()
    writer.text("toystore")
    writer.u8(level)
    writer.opt_text(name)
    writer.opt_blob(params)
    writer.opt_blob(sealed_statement)
    writer.opt_blob(sealed_params)
    payload = writer.getvalue()
    header = wire._HEADER.pack(
        wire.MAGIC, wire.VERSION, frame_type, 0, len(payload)
    )
    return header + payload


MALFORMED_ENVELOPES = {
    # exactly one of params / sealed_params / sealed_statement, named by level
    "blind-with-name": _envelope_frame(BLIND, "Q2", sealed_statement=b"t"),
    "blind-with-params": _envelope_frame(BLIND, params=b"[5]", sealed_statement=b"t"),
    "blind-sealing-params": _envelope_frame(BLIND, sealed_params=b"t"),
    "blind-empty": _envelope_frame(BLIND),
    "template-without-name": _envelope_frame(TEMPLATE, sealed_params=b"t"),
    "template-with-clear-params": _envelope_frame(
        TEMPLATE, "Q2", params=b"[5]", sealed_params=b"t"
    ),
    "template-sealing-statement": _envelope_frame(
        TEMPLATE, "Q2", sealed_statement=b"t"
    ),
    "stmt-without-params": _envelope_frame(STMT, "Q2"),
    "stmt-without-name": _envelope_frame(STMT, params=b"[5]"),
    "stmt-with-sealed-params-too": _envelope_frame(
        STMT, "Q2", params=b"[5]", sealed_params=b"t"
    ),
    "stmt-shaped-as-blind": _envelope_frame(STMT, sealed_statement=b"t"),
    "view-shaped-as-template": _envelope_frame(VIEW, "Q2", sealed_params=b"t"),
    "unknown-level": _envelope_frame(9, "Q2", params=b"[5]"),
    "view-update": _envelope_frame(
        VIEW, "U1", params=b"[5]", frame_type=wire.FrameType.INVALIDATE
    ),
    # each parameter is int | float | str | None
    "params-boolean": _envelope_frame(STMT, "Q2", params=b"[true]"),
    "params-nested-list": _envelope_frame(STMT, "Q2", params=b"[[5]]"),
    "params-object-member": _envelope_frame(STMT, "Q2", params=b'[{"a":1}]'),
    "params-nan": _envelope_frame(STMT, "Q2", params=b"[NaN]"),
    "params-infinity": _envelope_frame(STMT, "Q2", params=b"[-Infinity]"),
    "params-overflowing-float": _envelope_frame(STMT, "Q2", params=b"[1e999]"),
    "params-not-an-array": _envelope_frame(STMT, "Q2", params=b'{"a":1}'),
    "params-bare-scalar": _envelope_frame(STMT, "Q2", params=b"5"),
    "params-not-json": _envelope_frame(STMT, "Q2", params=b"[5,"),
    "params-not-utf8": _envelope_frame(STMT, "Q2", params=b'["\xff"]'),
    "params-too-deep": _envelope_frame(STMT, "Q2", params=b"[" * 100_000),
}


@pytest.mark.parametrize("label", sorted(MALFORMED_ENVELOPES))
def test_malformed_envelope_is_a_wire_error(label):
    with pytest.raises(WireError):
        wire.decode_traced(MALFORMED_ENVELOPES[label])


def test_the_malformed_table_builder_can_build_a_good_frame():
    """Sanity: the cases above fail for their stated reason, not framing."""
    frame, _ = wire.decode_traced(_envelope_frame(STMT, "Q2", params=b"[5, 1.5]"))
    assert frame.envelope == QueryEnvelope(
        "toystore", ExposureLevel.STMT, "Q2", (5, 1.5)
    )
