"""Property tests for the wire codecs.

Round-trip: ``decode_frame(encode_frame(x)) == x`` for every envelope type
× all exposure levels × every frame type.  Rejection: truncated frames,
oversized frames, bad magic/version/frame types all raise ``WireError``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.exposure import ExposureLevel
from repro.crypto.envelope import QueryEnvelope, ResultEnvelope, UpdateEnvelope
from repro.errors import WireError
from repro.net import wire
from repro.net.wire import (
    ErrorCode,
    ErrorResponse,
    FrameType,
    InvalidationBatch,
    InvalidationPush,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    StatsResponse,
    SubscribeRequest,
    SubscribeResponse,
    UpdateRequest,
    UpdateResponse,
    decode_frame,
    decode_traced,
    encode_frame,
)
from repro.storage.rows import ResultSet

_text = st.text(max_size=40)
_opt_text = st.none() | _text
_blob = st.binary(max_size=60)
_opt_blob = st.none() | _blob
_levels = st.sampled_from(list(ExposureLevel))
_update_levels = st.sampled_from(
    [ExposureLevel.BLIND, ExposureLevel.TEMPLATE, ExposureLevel.STMT]
)
#: Everything a statement parameter may be (``Scalar``), and nothing else.
_scalars = (
    st.none()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12)
)
_params = st.lists(_scalars, max_size=4).map(tuple)


def _envelopes(kind, levels):
    """Every envelope the wire can carry: the level names the sealed part."""

    @st.composite
    def build(draw):
        app_id, level = draw(_text), draw(levels)
        if level is ExposureLevel.BLIND:
            return kind(app_id, level, sealed_statement=draw(_blob))
        name = draw(_text)
        if level is ExposureLevel.TEMPLATE:
            return kind(app_id, level, name, sealed_params=draw(_blob))
        return kind(app_id, level, name, draw(_params))

    return build


query_envelopes = _envelopes(QueryEnvelope, _levels)
update_envelopes = _envelopes(UpdateEnvelope, _update_levels)


_cells = st.none() | st.integers(-(2**31), 2**31) | st.text(max_size=12)


@st.composite
def result_sets(draw) -> ResultSet:
    width = draw(st.integers(0, 4))
    columns = tuple(f"c{i}" for i in range(width))
    rows = draw(
        st.lists(
            st.tuples(*([_cells] * width)),
            max_size=5,
        )
    )
    return ResultSet(
        columns=columns, rows=tuple(rows), ordered=draw(st.booleans())
    )


@st.composite
def result_envelopes(draw) -> ResultEnvelope:
    return ResultEnvelope(
        app_id=draw(_text),
        plaintext=draw(st.none() | result_sets()),
        ciphertext=draw(_opt_blob),
    )


_json_values = st.none() | st.integers(-(2**31), 2**31) | st.text(max_size=12)
_stats_payloads = st.dictionaries(
    st.text(max_size=12), _json_values, max_size=4
).map(lambda d: json.dumps(d, sort_keys=True))

#: Request ids as they appear on the wire: absent, or short UTF-8 text.
_request_ids = st.none() | st.text(
    min_size=1, max_size=wire.MAX_REQUEST_ID_BYTES // 4
)


@st.composite
def frames(draw):
    kind = draw(st.sampled_from(list(FrameType)))
    if kind is FrameType.QUERY:
        return QueryRequest(draw(query_envelopes()))
    if kind is FrameType.UPDATE:
        return UpdateRequest(draw(update_envelopes()), origin=draw(_opt_text))
    if kind is FrameType.SUBSCRIBE:
        sharded = draw(st.booleans())
        return SubscribeRequest(
            draw(_text),
            tuple(draw(st.lists(_text, max_size=4))),
            supports_batch=draw(st.booleans()),
            shards=(
                tuple(draw(st.lists(_text, min_size=1, max_size=4)))
                if sharded
                else ()
            ),
            vnodes=draw(st.integers(1, 256)) if sharded else 0,
        )
    if kind is FrameType.RESULT:
        return QueryResponse(draw(result_envelopes()), draw(st.booleans()))
    if kind is FrameType.UPDATE_ACK:
        return UpdateResponse(
            draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
        )
    if kind is FrameType.SUBSCRIBED:
        return SubscribeResponse(
            tuple(draw(st.lists(_text, max_size=4))),
            batch_enabled=draw(st.booleans()),
            shard_filtered=draw(st.booleans()),
        )
    if kind is FrameType.INVALIDATE:
        return InvalidationPush(draw(update_envelopes()))
    if kind is FrameType.INVALIDATE_BATCH:
        return InvalidationBatch(
            tuple(
                draw(
                    st.lists(
                        st.tuples(_request_ids, update_envelopes()),
                        min_size=1,
                        max_size=4,
                    )
                )
            )
        )
    if kind is FrameType.STATS:
        return StatsRequest()
    if kind is FrameType.STATS_RESULT:
        return StatsResponse(draw(_text), draw(_stats_payloads))
    return ErrorResponse(draw(st.sampled_from(list(ErrorCode))), draw(_text))


class TestNoSqlOnTheWire:
    """The wire is the envelope minus its bound-AST slot: no SQL crosses."""

    def test_the_codec_cannot_parse_or_render_sql(self):
        import inspect

        assert "repro.sql" not in inspect.getsource(wire)

    def test_the_bound_ast_slot_is_never_encoded(self, simple_toystore):
        bound = simple_toystore.query("Q2").bind([5])
        bare = QueryEnvelope("toystore", ExposureLevel.STMT, "Q2", (5,))
        filled = replace(bare, statement=bound.select)
        raw = encode_frame(QueryRequest(filled))
        assert raw == encode_frame(QueryRequest(bare))
        assert b"SELECT" not in raw and b"qty" not in raw
        assert decode_frame(raw).envelope.statement is None


class TestRoundTrip:
    @given(envelope=query_envelopes(), level=_levels)
    @settings(max_examples=200)
    def test_query_envelope(self, envelope, level):
        frame = QueryRequest(envelope)
        assert decode_frame(encode_frame(frame)) == frame

    @given(envelope=update_envelopes())
    @settings(max_examples=200)
    def test_update_envelope(self, envelope):
        frame = UpdateRequest(envelope)
        assert decode_frame(encode_frame(frame)) == frame

    @given(envelope=result_envelopes(), hit=st.booleans())
    @settings(max_examples=200)
    def test_result_envelope(self, envelope, hit):
        frame = QueryResponse(envelope, hit)
        assert decode_frame(encode_frame(frame)) == frame

    @given(frame=frames())
    @settings(max_examples=300)
    def test_every_frame_type(self, frame):
        assert decode_frame(encode_frame(frame)) == frame

    def test_sealed_codec_envelopes_round_trip(self, simple_toystore):
        """Envelopes produced by the real codec survive the wire."""
        from repro.crypto import Keyring
        from repro.crypto.envelope import EnvelopeCodec

        codec = EnvelopeCodec(Keyring("toystore", b"k" * 32))
        query = simple_toystore.query("Q1").bind(["toy5"])
        update = simple_toystore.update("U1").bind([5])
        for level in ExposureLevel:
            frame = QueryRequest(codec.seal_query(query, level))
            assert decode_frame(encode_frame(frame)) == frame
            if level is not ExposureLevel.VIEW:
                push = InvalidationPush(codec.seal_update(update, level))
                assert decode_frame(encode_frame(push)) == push


class TestRequestId:
    """The trace-id slot (since protocol v2)."""

    @given(frame=frames(), request_id=_request_ids)
    @settings(max_examples=200)
    def test_round_trip(self, frame, request_id):
        encoded = encode_frame(frame, request_id=request_id)
        decoded, decoded_id = decode_traced(encoded)
        assert decoded == frame
        assert decoded_id == request_id

    @given(frame=frames(), request_id=_request_ids)
    @settings(max_examples=100)
    def test_decode_frame_ignores_the_id(self, frame, request_id):
        assert decode_frame(encode_frame(frame, request_id=request_id)) == frame

    def test_oversized_id_rejected_at_encode_time(self):
        frame = StatsRequest()
        with pytest.raises(WireError, match="request id"):
            encode_frame(
                frame, request_id="x" * (wire.MAX_REQUEST_ID_BYTES + 1)
            )

    def test_oversized_id_rejected_by_header_check(self):
        header = wire._HEADER.pack(
            wire.MAGIC, wire.VERSION, FrameType.STATS, 255, 0
        )
        with pytest.raises(WireError, match="request id"):
            decode_frame(header + b"x" * 255)

    def test_non_utf8_id_rejected(self):
        encoded = bytearray(
            encode_frame(StatsRequest(), request_id="abcd")
        )
        encoded[wire.HEADER_SIZE] = 0xFF  # first rid byte
        with pytest.raises(WireError, match="UTF-8"):
            decode_traced(bytes(encoded))

    @given(frame=frames(), request_id=_request_ids, data=st.data())
    @settings(max_examples=100)
    def test_any_truncation_rejected(self, frame, request_id, data):
        encoded = encode_frame(frame, request_id=request_id)
        cut = data.draw(st.integers(0, len(encoded) - 1))
        with pytest.raises(WireError):
            decode_traced(encoded[:cut])


class TestStatsFrames:
    def test_stats_result_payload_must_be_json(self):
        encoded = encode_frame(StatsResponse("node", '{"ok": 1}'))
        corrupted = encoded.replace(b'{"ok": 1}', b'{"ok": 1!')
        with pytest.raises(WireError, match="not JSON"):
            decode_frame(corrupted)

    def test_stats_request_is_empty(self):
        encoded = encode_frame(StatsRequest())
        assert len(encoded) == wire.HEADER_SIZE
        assert decode_frame(encoded) == StatsRequest()


class TestRejection:
    @given(frame=frames(), data=st.data())
    @settings(max_examples=100)
    def test_any_truncation_rejected(self, frame, data):
        encoded = encode_frame(frame)
        cut = data.draw(st.integers(0, len(encoded) - 1))
        with pytest.raises(WireError):
            decode_frame(encoded[:cut])

    @given(frame=frames())
    @settings(max_examples=50)
    def test_trailing_bytes_rejected(self, frame):
        with pytest.raises(WireError):
            decode_frame(encode_frame(frame) + b"\x00")

    def test_bad_magic_rejected(self):
        encoded = bytearray(encode_frame(ErrorResponse(ErrorCode.INTERNAL, "")))
        encoded[0:2] = b"ZZ"
        with pytest.raises(WireError, match="magic"):
            decode_frame(bytes(encoded))

    def test_bad_version_rejected(self):
        encoded = bytearray(encode_frame(ErrorResponse(ErrorCode.INTERNAL, "")))
        encoded[2] = 99
        with pytest.raises(WireError, match="version"):
            decode_frame(bytes(encoded))

    def test_unknown_frame_type_rejected(self):
        encoded = bytearray(encode_frame(ErrorResponse(ErrorCode.INTERNAL, "")))
        encoded[3] = 200
        with pytest.raises(WireError, match="frame type"):
            decode_frame(bytes(encoded))

    def test_oversized_frame_rejected_by_header_check(self):
        header = wire._HEADER.pack(
            wire.MAGIC, wire.VERSION, FrameType.ERROR, 0, 2**31
        )
        with pytest.raises(WireError, match="exceeds"):
            decode_frame(header + b"")

    def test_oversized_payload_rejected_at_encode_time(self):
        frame = ErrorResponse(ErrorCode.INTERNAL, "x" * 100)
        with pytest.raises(WireError, match="exceeds"):
            encode_frame(frame, max_frame=10)

    @pytest.mark.parametrize("version", [1, 2])
    def test_earlier_versions_rejected_alike(self, version):
        encoded = bytearray(encode_frame(ErrorResponse(ErrorCode.INTERNAL, "")))
        encoded[2] = version
        with pytest.raises(
            WireError, match=f"^unsupported protocol version {version}$"
        ):
            decode_frame(bytes(encoded))

    def test_params_that_are_not_json_rejected(self):
        frame = QueryRequest(
            QueryEnvelope("a", ExposureLevel.STMT, "Q2", ("marker",))
        )
        corrupted = encode_frame(frame).replace(b'["marker"]', b'["marker"[')
        with pytest.raises(WireError, match="parameters"):
            decode_frame(corrupted)

    def test_view_level_update_rejected(self):
        query_frame = encode_frame(
            QueryRequest(QueryEnvelope("a", ExposureLevel.VIEW, "U1", (7,)))
        )
        as_push = bytearray(query_frame)
        as_push[3] = FrameType.INVALIDATE
        with pytest.raises(WireError, match="no 'view' level"):
            decode_frame(bytes(as_push))


class TestWriterIntegers:
    """An integer field that does not fit is a ``WireError`` at encode
    time — never a silently truncated byte, never a bare ``OverflowError``
    (which ``WireServer._serve_request`` does not catch)."""

    @pytest.mark.parametrize("value", [256, 511, -1, 2**64])
    def test_u8_out_of_range(self, value):
        with pytest.raises(WireError, match="u8 field"):
            wire._Writer().u8(value)

    @pytest.mark.parametrize("value", [2**32, -1, 2**70])
    def test_u32_out_of_range(self, value):
        with pytest.raises(WireError, match="u32 field"):
            wire._Writer().u32(value)

    @pytest.mark.parametrize(
        "frame",
        [
            UpdateResponse(rows_affected=2**32, invalidated=0),
            UpdateResponse(rows_affected=-1, invalidated=0),
            UpdateResponse(rows_affected=0, invalidated=2**32),
            SubscribeRequest("n", ("a",), shards=("n",), vnodes=2**32),
        ],
    )
    def test_frames_with_unencodable_integers(self, frame):
        with pytest.raises(WireError, match="out of range"):
            encode_frame(frame)

    @given(st.integers(0, 255), st.integers(0, 2**32 - 1))
    def test_every_value_in_range_is_written_exactly(self, small, large):
        writer = wire._Writer()
        writer.u8(small)
        writer.u32(large)
        reader = wire._Reader(writer.getvalue())
        assert (reader.u8(), reader.u32()) == (small, large)
        reader.done()


class TestReaderErrors:
    """The single-pass reader says what the per-field ``_take`` said."""

    @pytest.mark.parametrize(
        "data, read, message",
        [
            (b"", "u8", "wanted 1 bytes at offset 0, have 0"),
            (b"\x00\x00\x01", "u32", "wanted 4 bytes at offset 0, have 3"),
            (b"\x00\x00", "blob", "wanted 4 bytes at offset 0, have 2"),
            (b"\x00\x00\x00\x05ab", "blob", "wanted 5 bytes at offset 4, have 2"),
            (b"", "opt_blob", "wanted 1 bytes at offset 0, have 0"),
            (b"\x02", "opt_blob", "bad presence flag 2"),
            (b"\x00\x00\x00\x01\xff", "text", "invalid UTF-8"),
        ],
    )
    def test_error_texts(self, data, read, message):
        with pytest.raises(WireError, match=message):
            getattr(wire._Reader(data), read)()

    def test_trailing_bytes(self):
        reader = wire._Reader(b"\x01\x02")
        reader.u8()
        with pytest.raises(WireError, match="^1 trailing bytes after payload$"):
            reader.done()

    def test_unknown_level(self):
        with pytest.raises(WireError, match="^unknown exposure level 9$"):
            wire._read_level(wire._Reader(b"\x09"))


class TestBatchCapability:
    """The trailing capability byte must not disturb pre-batching peers."""

    def test_default_subscribe_is_byte_identical_to_pre_batch_layout(self):
        off = encode_frame(SubscribeRequest("n1", ("app",)))
        on = encode_frame(SubscribeRequest("n1", ("app",), supports_batch=True))
        # The flag is emitted only when set: default frames carry no
        # trace of the capability, advertising appends exactly one byte.
        assert on[wire.HEADER_SIZE :] == off[wire.HEADER_SIZE :] + b"\x01"
        assert decode_frame(off) == SubscribeRequest("n1", ("app",))
        assert decode_frame(on).supports_batch is True

    def test_default_subscribed_is_byte_identical_to_pre_batch_layout(self):
        off = encode_frame(SubscribeResponse(("app",)))
        on = encode_frame(SubscribeResponse(("app",), batch_enabled=True))
        assert on[wire.HEADER_SIZE :] == off[wire.HEADER_SIZE :] + b"\x01"
        assert decode_frame(off) == SubscribeResponse(("app",))
        assert decode_frame(on).batch_enabled is True

    def test_bad_capability_byte_rejected(self):
        encoded = bytearray(
            encode_frame(SubscribeRequest("n1", ("app",), supports_batch=True))
        )
        encoded[-1] = 7
        with pytest.raises(WireError, match="capability"):
            decode_frame(bytes(encoded))


class TestShardTopology:
    """Shard declarations ride behind the capability byte, invisibly to
    unsharded peers."""

    def test_unsharded_subscribe_carries_no_topology_bytes(self):
        plain = encode_frame(SubscribeRequest("n1", ("app",)))
        decoded = decode_frame(plain)
        assert decoded.shards == ()
        assert decoded.vnodes == 0

    def test_sharded_subscribe_round_trips(self):
        frame = SubscribeRequest(
            "dssp-0",
            ("toystore",),
            supports_batch=True,
            shards=("dssp-0", "dssp-1", "dssp-2"),
            vnodes=64,
        )
        assert decode_frame(encode_frame(frame)) == frame

    def test_sharded_subscribe_without_batch_keeps_positions(self):
        # The capability byte must be written (as 0) when topology
        # follows, or the decoder would read vnodes as a capability.
        frame = SubscribeRequest(
            "dssp-0", ("toystore",), shards=("dssp-0",), vnodes=8
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded.supports_batch is False
        assert decoded.shards == ("dssp-0",)
        assert decoded.vnodes == 8

    def test_shards_require_vnodes(self):
        with pytest.raises(WireError, match="vnodes"):
            encode_frame(
                SubscribeRequest("n1", ("app",), shards=("n1",), vnodes=0)
            )

    def test_shard_filtered_response_round_trips(self):
        frame = SubscribeResponse(
            ("toystore",), batch_enabled=True, shard_filtered=True
        )
        assert decode_frame(encode_frame(frame)) == frame
        unfiltered = SubscribeResponse(("toystore",), batch_enabled=True)
        assert decode_frame(encode_frame(unfiltered)) == unfiltered


class TestBatchFrame:
    """INVALIDATE_BATCH bounds are enforced on both sides of the codec."""

    ENVELOPE = UpdateEnvelope(
        app_id="a", level=ExposureLevel.BLIND, sealed_statement=b"u1"
    )

    def test_empty_batch_rejected_at_construction(self):
        with pytest.raises(WireError, match="must not be empty"):
            InvalidationBatch(())

    def test_oversized_batch_rejected_at_construction(self):
        entries = tuple(
            (None, self.ENVELOPE)
            for _ in range(wire.MAX_BATCH_ENTRIES + 1)
        )
        with pytest.raises(WireError, match="exceeds"):
            InvalidationBatch(entries)

    def test_full_batch_round_trips(self):
        frame = InvalidationBatch(
            (("rid-1", self.ENVELOPE), (None, self.ENVELOPE))
        )
        assert decode_frame(encode_frame(frame)) == frame

    def test_zero_count_rejected_on_decode(self):
        payload = (0).to_bytes(4, "big")
        header = wire._HEADER.pack(
            wire.MAGIC, wire.VERSION, FrameType.INVALIDATE_BATCH, 0, len(payload)
        )
        with pytest.raises(WireError, match="batch entry count"):
            decode_frame(header + payload)

    def test_implausible_count_rejected_before_reading_entries(self):
        payload = (2**31).to_bytes(4, "big")
        header = wire._HEADER.pack(
            wire.MAGIC, wire.VERSION, FrameType.INVALIDATE_BATCH, 0, len(payload)
        )
        with pytest.raises(WireError, match="batch entry count"):
            decode_frame(header + payload)


class TestErrorCodeStability:
    """Error codes are wire bytes, frozen across protocol versions.

    The client's retry-safety logic keys on the decoded code (OVERLOADED
    may re-send an update; TIMEOUT must not), so a renumbering would
    silently change retry semantics between peers of different builds.
    """

    FROZEN = {
        ErrorCode.UNKNOWN_APP: 1,
        ErrorCode.MISS_FORWARDED: 2,
        ErrorCode.TIMEOUT: 3,
        ErrorCode.BAD_FRAME: 4,
        ErrorCode.OVERLOADED: 5,
        ErrorCode.INTERNAL: 6,
    }

    def test_values_match_the_frozen_table(self):
        assert {code: int(code) for code in ErrorCode} == self.FROZEN

    def test_encoded_byte_is_the_frozen_value(self):
        for code, value in self.FROZEN.items():
            encoded = encode_frame(ErrorResponse(code, ""))
            assert encoded[wire.HEADER_SIZE] == value
            assert decode_frame(encoded).code is code

    def test_unknown_code_rejected(self):
        encoded = bytearray(encode_frame(ErrorResponse(ErrorCode.INTERNAL, "")))
        encoded[wire.HEADER_SIZE] = 200
        with pytest.raises(WireError, match="error code"):
            decode_frame(bytes(encoded))


class TestExposureOnTheWire:
    """The bytes on the wire expose exactly what the level permits."""

    @pytest.fixture
    def codec(self):
        from repro.crypto import Keyring
        from repro.crypto.envelope import EnvelopeCodec

        return EnvelopeCodec(Keyring("toystore", b"k" * 32))

    def test_blind_query_hides_everything(self, codec, simple_toystore):
        bound = simple_toystore.query("Q1").bind(["marker-toy"])
        raw = encode_frame(
            QueryRequest(codec.seal_query(bound, ExposureLevel.BLIND))
        )
        assert b"marker-toy" not in raw
        assert b"SELECT" not in raw
        assert b"Q1" not in raw

    def test_template_query_hides_params(self, codec, simple_toystore):
        bound = simple_toystore.query("Q1").bind(["marker-toy"])
        raw = encode_frame(
            QueryRequest(codec.seal_query(bound, ExposureLevel.TEMPLATE))
        )
        assert b"marker-toy" not in raw  # parameters sealed
        assert b"Q1" in raw  # template identity is exposed by design
        assert b"SELECT" not in raw  # ...by name: the DSSP has the text

    def test_stmt_query_exposes_statement(self, codec, simple_toystore):
        bound = simple_toystore.query("Q1").bind(["marker-toy"])
        raw = encode_frame(
            QueryRequest(codec.seal_query(bound, ExposureLevel.STMT))
        )
        assert b"marker-toy" in raw and b"Q1" in raw
        assert b"SELECT" not in raw and b"toy_name" not in raw

    def test_sub_view_result_is_ciphertext_only(self, codec):
        result = ResultSet(
            columns=("toy_name",), rows=(("marker-plaintext",),)
        )
        for level in (
            ExposureLevel.BLIND,
            ExposureLevel.TEMPLATE,
            ExposureLevel.STMT,
        ):
            raw = encode_frame(
                QueryResponse(codec.seal_result(result, level), False)
            )
            assert b"marker-plaintext" not in raw

    def test_view_result_is_plaintext(self, codec):
        result = ResultSet(
            columns=("toy_name",), rows=(("marker-plaintext",),)
        )
        raw = encode_frame(
            QueryResponse(codec.seal_result(result, ExposureLevel.VIEW), False)
        )
        assert b"marker-plaintext" in raw
