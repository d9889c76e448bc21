"""A repeat costs a lookup, and a lookup never vouches for new bytes.

Three memos key on bytes a receiver was handed: ``wire.query_envelopes``
(a QUERY payload → its decoded frame), ``wire.result_frames`` (a RESULT
payload → its decoded frame, rows parsed) and ``crypto.open_result`` (a
result ciphertext → its opened rows).  Every check the decoder or the
codec runs still runs on the miss, a refused byte string is never stored,
and a hit is only ever an exact repeat — so warm decoding must equal cold
decoding, byte string for byte string, outcome for outcome.

The send side mirrors it: ``wire.query_payloads`` encodes a query
envelope once per envelope object, and a decoded result is re-sent as
the bytes it arrived as — neither may ever put other bytes on the wire
than encoding from scratch would.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.exposure import ExposureLevel
from repro.crypto import EnvelopeCodec, Keyring
from repro.crypto.envelope import QueryEnvelope, ResultEnvelope
from repro.errors import CryptoError, WireError
from repro.net import wire
from repro.storage.rows import ResultSet
from tests.net.test_wire_fuzz import ENCODED, MALFORMED_ENVELOPES

RESULT = ResultSet(("qty", "name"), ((10, "a"), (None, "b")), ordered=True)

WIRE_MEMOS = (wire._query_requests, wire._result_frames, wire._query_payloads)


def _clear_wire_memos() -> None:
    for memo in WIRE_MEMOS:
        memo._data.clear()


def _result_frame(body: bytes, kind=wire._ROWS, hit=True) -> bytes:
    """A RESULT frame whose rows (or ciphertext) are exactly ``body``."""
    app = b"toystore"
    payload = (
        (b"\x01" if hit else b"\x00")
        + wire._RESULT_BODY.pack(kind, len(app), len(body))
        + app
        + body
    )
    header = wire._HEADER.pack(
        wire.MAGIC, wire.VERSION, wire.FrameType.RESULT, 0, len(payload)
    )
    return header + payload


def _outcome(raw: bytes):
    """What decoding ``raw`` gives: the frame and its re-encoding, or the
    error text."""
    try:
        frame, request_id = wire.decode_traced(raw)
    except WireError as error:
        return ("error", str(error))
    encoded = wire.encode_frame(frame, request_id=request_id)
    return ("frame", frame, request_id, encoded)


@pytest.fixture
def codec():
    return EnvelopeCodec(Keyring("toystore", b"k" * 32))


def _flipped(token: bytes) -> bytes:
    return token[:-1] + bytes([token[-1] ^ 1])


class TestOpenResultMemo:
    """Mirrors ``test_envelope.py::TestOpenQuery`` for the client side."""

    @pytest.mark.parametrize(
        "forge", [_flipped, lambda token: bytes(len(token))], ids=["bit", "zero"]
    )
    def test_tampered_ciphertext_rejected_after_an_honest_open(self, codec, forge):
        envelope = codec.seal_result(RESULT, ExposureLevel.STMT)
        assert codec.open_result(envelope) == RESULT
        memo = codec._open_result_memo
        size = len(memo)
        forged = replace(envelope, ciphertext=forge(envelope.ciphertext))
        for _ in range(2):  # every attempt: a failure is never stored
            with pytest.raises(CryptoError):
                codec.open_result(forged)
        assert len(memo) == size

    def test_another_apps_envelope_is_refused_before_the_memo(self, codec):
        envelope = codec.seal_result(RESULT, ExposureLevel.TEMPLATE)
        codec.open_result(envelope)
        memo = codec._open_result_memo
        books = (memo.hits, memo.misses)
        with pytest.raises(CryptoError, match="belongs to 'other-app'"):
            codec.open_result(replace(envelope, app_id="other-app"))
        assert (memo.hits, memo.misses) == books

    def test_opens_do_not_stand_in_for_each_other(self, codec):
        other = ResultSet(("qty", "name"), ((11, "a"),), ordered=True)
        first = codec.seal_result(RESULT, ExposureLevel.BLIND)
        second = codec.seal_result(other, ExposureLevel.BLIND)
        for _ in range(2):  # the second round is answered by the memo
            assert codec.open_result(first) == RESULT
            assert codec.open_result(second) == other
        assert codec._open_result_memo.hits >= 2

    def test_view_plaintext_bypasses_the_memo(self, codec):
        envelope = codec.seal_result(RESULT, ExposureLevel.VIEW)
        assert codec.open_result(envelope) is RESULT
        assert len(codec._open_result_memo) == 0


MALFORMED_QUERIES = sorted(
    label
    for label, raw in MALFORMED_ENVELOPES.items()
    if raw[3] == wire.FrameType.QUERY
)


class TestRefusedBytesAreNeverStored:
    @pytest.mark.parametrize("label", MALFORMED_QUERIES)
    def test_malformed_query_payload(self, label):
        raw = MALFORMED_ENVELOPES[label]
        memo = wire._query_requests
        size = len(memo)
        texts = set()
        for _ in range(3):
            with pytest.raises(WireError) as caught:
                wire.decode_frame(raw)
            texts.add(str(caught.value))
        assert len(texts) == 1
        assert len(memo) == size

    def test_query_payload_with_trailing_bytes(self):
        good = ENCODED[0]  # a QUERY frame
        *fields, length = wire._HEADER.unpack(good[: wire.HEADER_SIZE])
        header = wire._HEADER.pack(*fields, length + 1)
        raw = header + good[wire.HEADER_SIZE :] + b"\x00"
        wire.decode_frame(good)  # the prefix is stored; the whole is refused
        size = len(wire._query_requests)
        for _ in range(2):
            with pytest.raises(WireError, match="^1 trailing bytes after payload$"):
                wire.decode_frame(raw)
        assert len(wire._query_requests) == size

    @pytest.mark.parametrize(
        "plaintext",
        [
            b'{"columns":[[1],null],"ordered":{"a":1},"rows":[]}',
            b'{"columns":["a"],"ordered":"yes","rows":[[1]]}',
            b'{"columns":["a"],"ordered":false,"rows":[[true]]}',
            b'{"columns":["a"],"ordered":false,"rows":[[1,2]]}',
            b"not json",
            b"\xff",
        ],
    )
    def test_malformed_view_plaintext(self, plaintext):
        raw = _result_frame(plaintext)
        memo = wire._result_frames
        size = len(memo)
        texts = set()
        for _ in range(3):
            with pytest.raises(WireError, match="malformed result payload") as caught:
                wire.decode_frame(raw)
            texts.add(str(caught.value))
        assert len(texts) == 1
        assert len(memo) == size


#: Frames worth flipping bits in: the fuzz corpus, a view result (canonical
#: and not), and the malformed envelopes.
CORPUS = [
    *ENCODED,
    _result_frame(b'{"columns":["qty"],"ordered":true,"rows":[[10],[null]]}'),
    _result_frame(b'{ "columns" : ["qty"], "rows": [[1]], "ordered": false }'),
    _result_frame(b"sealed", wire._SEALED, hit=False),
    *MALFORMED_ENVELOPES.values(),
]


class TestWarmEqualsCold:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=len(CORPUS) - 1),
        st.data(),
    )
    def test_bit_flipped_frames(self, which, data):
        original = CORPUS[which]
        position = data.draw(st.integers(min_value=0, max_value=len(original) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        mutated = bytearray(original)
        mutated[position] ^= 1 << bit
        mutated = bytes(mutated)
        _clear_wire_memos()
        cold = _outcome(mutated)
        _outcome(original)
        warm = [_outcome(mutated) for _ in range(2)]
        assert warm == [cold, cold]

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=512))
    def test_arbitrary_bytes(self, data):
        _clear_wire_memos()
        cold = _outcome(data)
        assert _outcome(data) == cold

    def test_a_hit_is_an_exact_repeat(self):
        frame = wire.QueryRequest(
            QueryEnvelope("toystore", ExposureLevel.STMT, "Q2", (5,))
        )
        raw = wire.encode_frame(frame)
        _clear_wire_memos()
        first = wire.decode_frame(raw)
        hits = wire._query_requests.hits
        assert wire.decode_frame(raw) is first
        assert wire._query_requests.hits == hits + 1
        # 5 == 5.0 as Python values, but different bytes: a different key
        other = wire.decode_frame(
            wire.encode_frame(
                wire.QueryRequest(
                    QueryEnvelope("toystore", ExposureLevel.STMT, "Q2", (5.0,))
                )
            )
        )
        assert other is not first
        assert type(other.envelope.params[0]) is float


class TestViewBytes:
    def test_a_decoded_view_re_encodes_byte_identically(self):
        # Not the canonical serialisation: a re-send is the received bytes.
        plaintext = b'{ "rows": [[1, "x"]], "columns": ["a","b"], "ordered": false }'
        raw = _result_frame(plaintext)
        frame = wire.decode_frame(raw)
        assert frame.result.plaintext == ResultSet(("a", "b"), ((1, "x"),))
        # The whole result-envelope body as received, hit flag excluded.
        assert frame.result.payload == raw[wire.HEADER_SIZE + 1 :]
        assert wire.encode_frame(frame) == raw

    @given(st.booleans(), st.booleans())
    def test_round_trip_through_the_codec(self, hit, ordered):
        result = replace(RESULT, ordered=ordered)
        envelope = ResultEnvelope(app_id="toystore", plaintext=result)
        raw = wire.encode_frame(wire.QueryResponse(envelope, hit))
        decoded = wire.decode_frame(raw)
        assert decoded.result == envelope
        assert decoded.result.plaintext == result
        assert wire.encode_frame(decoded) == raw

    def test_payload_is_not_part_of_the_value(self):
        bare = ResultEnvelope(app_id="toystore", plaintext=RESULT)
        carried = replace(bare, payload=b"anything")
        assert carried == bare and hash(carried) == hash(bare)
        assert "anything" not in repr(carried)

    def test_a_sealed_result_carries_no_payload(self, codec):
        """Only a received result carries bytes; one a codec seals (what a
        home sends) is serialised from its fields."""
        sealed = codec.seal_result(RESULT, ExposureLevel.STMT)
        assert sealed.payload is None
        raw = wire.encode_frame(wire.QueryResponse(sealed, True))
        received = wire.decode_frame(raw).result
        assert received.payload == raw[wire.HEADER_SIZE + 1 :]
        assert received == sealed


class TestSendSideBytes:
    def test_a_query_payload_is_encoded_once_per_envelope(self):
        envelope = QueryEnvelope("toystore", ExposureLevel.STMT, "Q2", (5,))
        _clear_wire_memos()
        first = wire.encode_frame(wire.QueryRequest(envelope), request_id="a")
        hits = wire._query_payloads.hits
        second = wire.encode_frame(wire.QueryRequest(envelope), request_id="b")
        assert wire._query_payloads.hits == hits + 1
        assert second[wire.HEADER_SIZE + 1 :] == first[wire.HEADER_SIZE + 1 :]
        assert wire.decode_frame(second).envelope == envelope

    def test_a_recycled_id_never_gets_another_envelopes_bytes(self):
        mine = QueryEnvelope("toystore", ExposureLevel.STMT, "Q2", (5,))
        theirs = QueryEnvelope("toystore", ExposureLevel.STMT, "Q2", (6,))
        _clear_wire_memos()
        stale = wire.encode_frame(wire.QueryRequest(theirs))
        # What an id recycled after a clear could leave behind: an entry
        # under this envelope's id, pinned to another envelope.
        wire._query_payloads._data[id(mine)] = (
            theirs,
            stale[wire.HEADER_SIZE :],
        )
        raw = wire.encode_frame(wire.QueryRequest(mine))
        assert wire.decode_frame(raw).envelope == mine
        assert wire._query_payloads._data[id(mine)][0] is mine

    @pytest.mark.parametrize(
        "envelope",
        [
            ResultEnvelope(app_id="toystore", plaintext=RESULT),
            ResultEnvelope(app_id="toystore", ciphertext=b"sealed"),
        ],
        ids=["view", "sealed"],
    )
    def test_a_hit_re_sends_the_frame_encoding_would_make(self, envelope):
        """A result as a home sends it, received by a DSSP and answered
        from its cache: byte for byte the frame encoding it from scratch
        (what every earlier version sent) makes."""
        from_home = wire.encode_frame(
            wire.QueryResponse(envelope, cache_hit=False), request_id="fwd"
        )
        cached = wire.decode_frame(from_home).result
        assert cached.payload is not None
        for hit in (True, False):
            resent = wire.encode_frame(
                wire.QueryResponse(cached, hit), request_id="r17"
            )
            fresh = wire.encode_frame(
                wire.QueryResponse(replace(cached, payload=None), hit),
                request_id="r17",
            )
            assert resent == fresh
