"""Length-prefixed binary wire protocol for the DSSP service layer.

Framing, protocol version 4 (all integers big-endian)::

    +-------+---------+------------+---------+--------------+========+=========+
    | magic | version | frame type | rid len | payload len  |  rid   | payload |
    |  2 B  |   1 B   |    1 B     |   1 B   |     4 B      | rid B  |  len B  |
    +-------+---------+------------+---------+--------------+========+=========+

``rid`` is an optional request (trace) id — UTF-8, at most
:data:`MAX_REQUEST_ID_BYTES` bytes, empty when absent.  Clients mint one
per logical request (:func:`repro.obs.new_request_id`), servers echo it on
the response, and a DSSP node forwards the *same* id on its miss/update
hop to the home server, so one id correlates the whole request path.
Earlier versions are rejected, not translated: version 1 had no rid slot;
a version 2 envelope carried its statement as SQL text beside a
sender-supplied cache key, and accepting one would accept the claims
version 3 existed to make inexpressible; version 3 gave every envelope
field a presence flag, so its bytes could say shapes no level names.

A payload is one fixed part — a precompiled :class:`struct.Struct` of
the frame's flags, level, kind, counts and the lengths of its variable
fields — then those variable fields' bytes, in order.  A byte of the
fixed part says which variable fields there are.  A statement travels as
``(template name, parameters)`` and nothing else, and the level byte
picks its envelope's layout (query and update envelopes share them)::

    blind       level  len(app)  len(stmt)                app  sealed stmt
    template    level  len(app)  len(name)  len(params)   app  name  sealed params
    stmt, view  level  len(app)  len(name)  len(params)   app  name  params
                 u8      u32       u32        u32

``params`` is the canonical JSON array of
:func:`repro.crypto.envelope.encode_params` — the same bytes the
``template`` level encrypts into ``sealed_params``.  Nothing here parses
or renders SQL: each receiver binds the pair through the template registry
it already holds, and derives the cache key from the decoded fields.  A
result body is ``kind  len(app)  len(body)  app  body`` (u8, u32, u32):
kind 0 is the ``view`` rows as :func:`serialize_result` writes them, kind
1 their ciphertext.  An optional string (an update's origin, a batch
entry's trace id) stores its length plus one, so 0 says absent.

Security invariant: the wire *is* the envelope, minus its bound-AST slot —
and a field the level withholds has no slot to travel in.  Envelopes carry
plaintext only for what their exposure level permits (see
:mod:`repro.crypto.envelope`); the encoder refuses an envelope whose set
fields are not the ones its level names, and never drops one.  The
DSSP-visible bytes of a sealed envelope on the wire are therefore exactly
the DSSP-visible fields in memory; nothing is opened or re-sealed en
route.  Decode refuses any parameter that is not a scalar.

Every decode error raises :class:`~repro.errors.WireError` (the ``BAD_FRAME``
wire code): truncated or oversized frames, bad magic/version, unknown frame
types or levels, a flag byte other than 0 or 1, lengths that run past the
payload, trailing bytes, and malformed envelopes.

A repeat costs a lookup, both ways.  A QUERY payload and a RESULT body
are decoded once per distinct byte string (``wire.query_envelopes``,
``wire.result_frames``), every check running on the miss and nothing
refused being stored.  A query envelope is encoded once per envelope
object (``wire.query_payloads``), and a decoded result envelope keeps its
body as received (:attr:`ResultEnvelope.payload`), so a DSSP re-sends a
cached result as one flag byte plus the bytes it arrived as.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.exposure import ExposureLevel
from repro.crypto.envelope import (
    Envelope,
    QueryEnvelope,
    ResultEnvelope,
    UpdateEnvelope,
    decode_params,
    deserialize_result,
    encode_params,
    serialize_result,
)
from repro.errors import CryptoError, WireError
from repro.obs.memo import BoundedMemo

if TYPE_CHECKING:  # framing builds on this module
    from repro.net.framing import FrameConnection

__all__ = [
    "ErrorCode",
    "ErrorResponse",
    "Frame",
    "FrameType",
    "HEADER_SIZE",
    "InvalidationBatch",
    "InvalidationPush",
    "MAX_BATCH_ENTRIES",
    "MAX_FRAME_BYTES",
    "MAX_REQUEST_ID_BYTES",
    "QueryRequest",
    "QueryResponse",
    "StatsRequest",
    "StatsResponse",
    "SubscribeRequest",
    "SubscribeResponse",
    "UpdateRequest",
    "UpdateResponse",
    "decode_checked",
    "decode_frame",
    "decode_traced",
    "encode_frame",
    "peek_raw",
    "write_frame",
]

MAGIC = b"DW"
VERSION = 4
_HEADER = struct.Struct(">2sBBBI")
HEADER_SIZE = _HEADER.size
#: Default ceiling on payload size; a frame claiming more is rejected
#: before any allocation happens.
MAX_FRAME_BYTES = 8 * 1024 * 1024
#: Ceiling on the request-id slot in the header.
MAX_REQUEST_ID_BYTES = 64
#: Ceiling on entries in one ``INVALIDATE_BATCH`` frame.
MAX_BATCH_ENTRIES = 4096


class FrameType(enum.IntEnum):
    """One byte on the wire selecting the payload codec."""

    QUERY = 1
    UPDATE = 2
    SUBSCRIBE = 3
    RESULT = 4
    UPDATE_ACK = 5
    SUBSCRIBED = 6
    INVALIDATE = 7
    ERROR = 8
    STATS = 9
    STATS_RESULT = 10
    INVALIDATE_BATCH = 11


#: A hit's frame types as ints: an enum member lookup is a call on 3.11.
_QUERY, _RESULT = int(FrameType.QUERY), int(FrameType.RESULT)


class ErrorCode(enum.IntEnum):
    """Typed wire error codes (replaces exception text on the boundary).

    Values are the on-wire byte and are frozen: never renumber an existing
    member; new codes take fresh values at the end.
    """

    UNKNOWN_APP = 1
    MISS_FORWARDED = 2
    TIMEOUT = 3
    BAD_FRAME = 4
    OVERLOADED = 5
    INTERNAL = 6


# -- frame dataclasses -----------------------------------------------------------


@dataclass(frozen=True)
class QueryRequest:
    """Client → DSSP (or DSSP → home, on a miss): serve this query."""

    envelope: QueryEnvelope


@dataclass(frozen=True)
class UpdateRequest:
    """Client → DSSP → home: apply this update.

    ``origin`` identifies the forwarding DSSP node so the home's
    invalidation stream can skip it (the origin invalidates synchronously
    before acknowledging its client).
    """

    envelope: UpdateEnvelope
    origin: str | None = None


@dataclass(frozen=True)
class SubscribeRequest:
    """DSSP → home: open the invalidation-stream channel.

    ``supports_batch`` advertises that the subscriber understands
    ``INVALIDATE_BATCH`` frames.  ``shards``/``vnodes`` declare the sharded
    topology the subscriber is part of: the full ring membership plus the
    virtual-node count, enough for the home to rebuild the placement ring
    and narrow its fan-out to owning shards; ``()`` and 0 when unsharded.
    Every field travels in every frame.
    """

    node_id: str
    app_ids: tuple[str, ...]
    supports_batch: bool = False
    shards: tuple[str, ...] = ()
    vnodes: int = 0


@dataclass(frozen=True)
class QueryResponse:
    """Answer to a :class:`QueryRequest` (still sealed per policy)."""

    result: ResultEnvelope
    cache_hit: bool


@dataclass(frozen=True)
class UpdateResponse:
    """Answer to an :class:`UpdateRequest`."""

    rows_affected: int
    invalidated: int


@dataclass(frozen=True)
class SubscribeResponse:
    """Answer to a :class:`SubscribeRequest`; the channel stays open.

    ``batch_enabled`` confirms the home will coalesce pushes into
    ``INVALIDATE_BATCH`` frames on this channel; ``shard_filtered``
    confirms it accepted the declared shard topology and will narrow
    invalidation fan-out to owning shards.
    """

    app_ids: tuple[str, ...]
    batch_enabled: bool = False
    shard_filtered: bool = False


@dataclass(frozen=True)
class InvalidationPush:
    """Home → subscribed DSSP node: a completed update to invalidate for."""

    envelope: UpdateEnvelope


@dataclass(frozen=True)
class InvalidationBatch:
    """Home → subscribed DSSP node: several coalesced pushes, one frame.

    Each entry pairs the originating request's trace id (optional) with
    the sealed update envelope, exactly as the equivalent sequence of
    singleton ``INVALIDATE`` frames would have carried them.  The frame's
    own header rid slot stays empty — per-entry ids preserve tracing
    across coalescing.
    """

    entries: tuple[tuple[str | None, UpdateEnvelope], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise WireError("invalidation batch must not be empty")
        if len(self.entries) > MAX_BATCH_ENTRIES:
            raise WireError(
                f"invalidation batch of {len(self.entries)} entries "
                f"exceeds limit {MAX_BATCH_ENTRIES}"
            )


@dataclass(frozen=True)
class ErrorResponse:
    """Any failure crossing the boundary, as a typed code + message."""

    code: ErrorCode
    message: str


@dataclass(frozen=True)
class StatsRequest:
    """Ask a live node for its observability snapshot."""


@dataclass(frozen=True)
class StatsResponse:
    """A node's snapshot: its identity plus a JSON document.

    ``payload`` is the JSON serialization of the node's stats snapshot
    (counters, gauges, histogram quantiles).  It travels as text so the
    frame codec stays schema-free while the decoder still rejects
    non-JSON payloads at the boundary.
    """

    node_id: str
    payload: str


Frame = (
    QueryRequest
    | UpdateRequest
    | SubscribeRequest
    | QueryResponse
    | UpdateResponse
    | SubscribeResponse
    | InvalidationPush
    | InvalidationBatch
    | ErrorResponse
    | StatsRequest
    | StatsResponse
)


# -- layouts ---------------------------------------------------------------------

_U32 = struct.Struct(">I")
#: Envelope fixed parts; the level byte that leads both picks one.
_BLIND = struct.Struct(">BII")  # level, len(app), len(sealed statement)
_NAMED = struct.Struct(">BIII")  # level, len(app), len(name), len(params)
#: A result body: kind, len(app), len(rows or ciphertext).
_RESULT_BODY = struct.Struct(">BII")
_ROWS, _SEALED = 0, 1
#: batch, vnodes, len(node id), app-id count, shard count.
_SUBSCRIBE = struct.Struct(">BIIII")
#: batch, shard filtered, app-id count.
_SUBSCRIBED = struct.Struct(">BBI")
_UPDATE_ACK = struct.Struct(">II")  # rows affected, invalidated
_ERROR = struct.Struct(">BI")  # code, len(message)
_STATS_RESULT = struct.Struct(">II")  # len(node id), len(payload)
#: Ceiling on the strings of one list field (app ids, shards).
_MAX_LIST = 4096

_LEVELS = {int(level): level for level in ExposureLevel}
#: level -> which of (template_name, params, sealed_statement,
#: sealed_params) an envelope at that level sets: the level names the
#: sealed part, and its layout has a slot for exactly these.
_CARRIES = {
    ExposureLevel.BLIND: (False, False, True, False),
    ExposureLevel.TEMPLATE: (True, False, False, True),
    ExposureLevel.STMT: (True, True, False, False),
    ExposureLevel.VIEW: (True, True, False, False),
}


def _overrun(end: int, size: int) -> WireError:
    """The error for a payload of ``size`` bytes whose fields end at ``end``."""
    if end > size:
        return WireError(f"truncated payload: fields end at {end}, have {size}")
    return WireError(f"{size - end} trailing bytes after payload")


def _text(data: bytes, start: int, end: int) -> str:
    """The string in ``data[start:end]``, once that slice fits ``data``."""
    if end > len(data):
        raise _overrun(end, len(data))
    return data[start:end].decode()


def _flag(byte: int) -> bool:
    """A one-byte flag: 0 or 1, and no other byte says either."""
    if byte > 1:
        raise WireError(f"bad flag byte {byte}")
    return byte == 1


# -- encoding --------------------------------------------------------------------


def _envelope_bytes(envelope: Envelope) -> bytes:
    """An envelope in its level's layout, refused — never trimmed — unless
    the fields it sets are the ones that layout has slots for."""
    level = envelope.level
    if (
        envelope.template_name is not None,
        envelope.params is not None,
        envelope.sealed_statement is not None,
        envelope.sealed_params is not None,
    ) != _CARRIES[level]:
        raise WireError(
            f"envelope fields do not fit exposure level {level.name.lower()!r}"
        )
    app = envelope.app_id.encode()
    if level is ExposureLevel.BLIND:
        sealed = envelope.sealed_statement
        return _BLIND.pack(level, len(app), len(sealed)) + app + sealed
    name = envelope.template_name.encode()
    if level is ExposureLevel.TEMPLATE:
        body = envelope.sealed_params
    else:
        body = encode_params(envelope.params)
    fixed = _NAMED.pack(level, len(app), len(name), len(body))
    return b"".join((fixed, app, name, body))


def _result_body(result: ResultEnvelope) -> bytes:
    if (result.plaintext is None) == (result.ciphertext is None):
        raise WireError("a result carries exactly one of rows and ciphertext")
    if result.plaintext is None:
        kind, body = _SEALED, result.ciphertext
    else:
        kind, body = _ROWS, serialize_result(result.plaintext)
    app = result.app_id.encode()
    return _RESULT_BODY.pack(kind, len(app), len(body)) + app + body


def _opt_text(value: str | None) -> bytes:
    """An optional string: its length plus one (0 says absent), its bytes."""
    if value is None:
        return bytes(_U32.size)
    raw = value.encode()
    return _U32.pack(len(raw) + 1) + raw


def _texts(values: tuple[str, ...]) -> bytes:
    """A list of strings (its count is in the fixed part): each one's
    length, then its bytes."""
    encoded = [value.encode() for value in values]
    return b"".join(_U32.pack(len(raw)) + raw for raw in encoded)


def _encode_payload(frame: Frame) -> tuple[int, bytes]:
    if isinstance(frame, QueryResponse):
        hit = b"\x01" if frame.cache_hit else b"\x00"
        return _RESULT, hit + _result_body(frame.result)
    if isinstance(frame, UpdateRequest):
        payload = _opt_text(frame.origin) + _envelope_bytes(frame.envelope)
        return FrameType.UPDATE, payload
    if isinstance(frame, UpdateResponse):
        payload = _UPDATE_ACK.pack(frame.rows_affected, frame.invalidated)
        return FrameType.UPDATE_ACK, payload
    if isinstance(frame, InvalidationPush):
        return FrameType.INVALIDATE, _envelope_bytes(frame.envelope)
    if isinstance(frame, InvalidationBatch):
        payload = _U32.pack(len(frame.entries)) + b"".join(
            _opt_text(entry_rid) + _envelope_bytes(envelope)
            for entry_rid, envelope in frame.entries
        )
        return FrameType.INVALIDATE_BATCH, payload
    if isinstance(frame, SubscribeRequest):
        node = frame.node_id.encode()
        counts = len(node), len(frame.app_ids), len(frame.shards)
        fixed = _SUBSCRIBE.pack(frame.supports_batch, frame.vnodes, *counts)
        payload = fixed + node + _texts(frame.app_ids) + _texts(frame.shards)
        return FrameType.SUBSCRIBE, payload
    if isinstance(frame, SubscribeResponse):
        fixed = _SUBSCRIBED.pack(
            frame.batch_enabled, frame.shard_filtered, len(frame.app_ids)
        )
        return FrameType.SUBSCRIBED, fixed + _texts(frame.app_ids)
    if isinstance(frame, ErrorResponse):
        message = frame.message.encode()
        return FrameType.ERROR, _ERROR.pack(frame.code, len(message)) + message
    if isinstance(frame, StatsRequest):
        return FrameType.STATS, b""
    if isinstance(frame, StatsResponse):
        node, text = frame.node_id.encode(), frame.payload.encode()
        fixed = _STATS_RESULT.pack(len(node), len(text))
        return FrameType.STATS_RESULT, fixed + node + text
    raise WireError(f"cannot encode {type(frame).__name__}")


# -- decoding --------------------------------------------------------------------

# A payload is cut by the lengths its fixed part holds: a ``struct.error``
# (a fixed part past the end) and a ``UnicodeDecodeError`` (a string field)
# are turned into ``WireError`` once, in :func:`decode_checked`.


def _read_envelope(data: bytes, pos: int, kind: type[Envelope]):
    """The envelope at ``pos`` of ``data``, and the offset after it."""
    if pos >= len(data):
        raise _overrun(pos + 1, len(data))
    level = _LEVELS.get(data[pos])
    if level is None:
        raise WireError(f"unknown exposure level {data[pos]}")
    if level is ExposureLevel.BLIND:
        _, app_length, length = _BLIND.unpack_from(data, pos)
        app_at = pos + _BLIND.size
        name_at = body_at = app_at + app_length
    else:
        _, app_length, name_length, length = _NAMED.unpack_from(data, pos)
        app_at = pos + _NAMED.size
        name_at = app_at + app_length
        body_at = name_at + name_length
    end = body_at + length
    if end > len(data):
        raise _overrun(end, len(data))
    app_id = data[app_at:name_at].decode()
    body = data[body_at:end]
    if level is ExposureLevel.BLIND:
        return kind(app_id, level, sealed_statement=body), end
    name = data[name_at:body_at].decode()
    if level is ExposureLevel.TEMPLATE:
        return kind(app_id, level, name, sealed_params=body), end
    if level is ExposureLevel.VIEW and kind is UpdateEnvelope:
        raise WireError("update envelopes have no 'view' level")
    try:
        params = decode_params(body)
    except ValueError as error:
        raise WireError(f"bad statement parameters: {error}") from error
    return kind(app_id, level, name, params), end


def _read_opt_text(data: bytes, pos: int) -> tuple[str | None, int]:
    (stored,) = _U32.unpack_from(data, pos)
    pos += _U32.size
    if stored == 0:
        return None, pos
    end = pos + stored - 1
    return _text(data, pos, end), end


def _read_texts(data: bytes, pos: int, count: int) -> tuple[tuple[str, ...], int]:
    if count > _MAX_LIST:
        raise WireError(f"implausible string count {count}")
    values = []
    for _ in range(count):
        (length,) = _U32.unpack_from(data, pos)
        pos += _U32.size + length
        values.append(_text(data, pos - length, pos))
    return tuple(values), pos


# What the sender sends is a pure function of what it has (the cipher is
# deterministic), so the bytes a receiver is given repeat, and decoding
# them is a pure function of them: each decode memo below keys on the
# bytes, runs every check on the miss, and stores nothing a check
# refused.  Sized for a web workload's working set of popular queries and
# results, not for every distinct frame.

#: QUERY payload -> its QueryRequest (updates, pushes and batches are
#: decoded once each: not memoized).
_query_requests = BoundedMemo("wire.query_envelopes", 2048)
#: RESULT body (the payload after its hit flag) -> its ResultEnvelope,
#: which keeps that same bytes object as its payload: one entry, and one
#: copy of the bytes, serves a result whether it arrives as a hit or not.
_result_frames = BoundedMemo("wire.result_frames", 2048)
#: ``id(query envelope)`` -> its QUERY payload, the envelope pinned.  An
#: envelope is immutable, and the ones sent again are shared objects: a
#: client's come from ``crypto.seal_query``, a DSSP's forwards from
#: ``wire.query_envelopes``.
_query_payloads = BoundedMemo("wire.query_payloads", 2048)


def _decode_query(payload: bytes) -> QueryRequest:
    envelope, end = _read_envelope(payload, 0, QueryEnvelope)
    if end != len(payload):
        raise _overrun(end, len(payload))
    return QueryRequest(envelope)


def _read_result(body: bytes) -> ResultEnvelope:
    kind, app_length, length = _RESULT_BODY.unpack_from(body)
    start = _RESULT_BODY.size + app_length
    end = start + length
    if end != len(body):
        raise _overrun(end, len(body))
    app_id = body[_RESULT_BODY.size : start].decode()
    if kind == _SEALED:
        return ResultEnvelope(app_id, ciphertext=body[start:], payload=body)
    if kind != _ROWS:
        raise WireError(f"unknown result kind {kind}")
    try:
        rows = deserialize_result(body[start:])
    except CryptoError as error:
        raise WireError(str(error)) from error
    return ResultEnvelope(app_id, plaintext=rows, payload=body)


def _decode_payload(frame_type: int, payload: bytes) -> Frame:
    if frame_type == _QUERY:
        return _query_requests.get(payload, _decode_query, payload)
    if frame_type == _RESULT:
        body = payload[1:]
        envelope = _result_frames.get(body, _read_result, body)
        hit = payload[0]
        if hit > 1:  # as _flag does, with no call on a hit's path
            raise WireError(f"bad flag byte {hit}")
        return QueryResponse(envelope, hit == 1)
    if frame_type == FrameType.UPDATE:
        origin, end = _read_opt_text(payload, 0)
        envelope, end = _read_envelope(payload, end, UpdateEnvelope)
        frame: Frame = UpdateRequest(envelope, origin=origin)
    elif frame_type == FrameType.UPDATE_ACK:
        frame = UpdateResponse(*_UPDATE_ACK.unpack_from(payload))
        end = _UPDATE_ACK.size
    elif frame_type == FrameType.INVALIDATE:
        envelope, end = _read_envelope(payload, 0, UpdateEnvelope)
        frame = InvalidationPush(envelope)
    elif frame_type == FrameType.INVALIDATE_BATCH:
        (count,) = _U32.unpack_from(payload)
        if not 0 < count <= MAX_BATCH_ENTRIES:
            raise WireError(f"implausible batch entry count {count}")
        entries, end = [], _U32.size
        for _ in range(count):
            entry_rid, end = _read_opt_text(payload, end)
            envelope, end = _read_envelope(payload, end, UpdateEnvelope)
            entries.append((entry_rid, envelope))
        frame = InvalidationBatch(tuple(entries))
    elif frame_type == FrameType.SUBSCRIBE:
        batch, vnodes, node_length, apps, shards = _SUBSCRIBE.unpack_from(payload)
        end = _SUBSCRIBE.size + node_length
        node_id = _text(payload, _SUBSCRIBE.size, end)
        app_ids, end = _read_texts(payload, end, apps)
        shard_ids, end = _read_texts(payload, end, shards)
        batch = _flag(batch)
        frame = SubscribeRequest(node_id, app_ids, batch, shard_ids, vnodes)
    elif frame_type == FrameType.SUBSCRIBED:
        batch, filtered, apps = _SUBSCRIBED.unpack_from(payload)
        app_ids, end = _read_texts(payload, _SUBSCRIBED.size, apps)
        frame = SubscribeResponse(app_ids, _flag(batch), _flag(filtered))
    elif frame_type == FrameType.ERROR:
        code_id, length = _ERROR.unpack_from(payload)
        try:
            code = ErrorCode(code_id)
        except ValueError:
            raise WireError(f"unknown error code {code_id}") from None
        end = _ERROR.size + length
        frame = ErrorResponse(code, _text(payload, _ERROR.size, end))
    elif frame_type == FrameType.STATS:
        frame, end = StatsRequest(), 0
    elif frame_type == FrameType.STATS_RESULT:
        node_length, length = _STATS_RESULT.unpack_from(payload)
        start = _STATS_RESULT.size + node_length
        end = start + length
        text = _text(payload, start, end)
        try:
            json.loads(text)
        except ValueError as error:
            raise WireError(f"stats payload is not JSON: {error}") from error
        frame = StatsResponse(payload[_STATS_RESULT.size : start].decode(), text)
    else:
        raise WireError(f"unknown frame type {frame_type}")
    if end != len(payload):
        raise _overrun(end, len(payload))
    return frame


def _decode_request_id(raw: bytes) -> str | None:
    if not raw:
        return None
    try:
        return raw.decode()
    except UnicodeDecodeError as error:
        raise WireError(f"invalid UTF-8 in request id: {error}") from error


def encode_frame(
    frame: Frame,
    *,
    request_id: str | None = None,
    max_frame: int = MAX_FRAME_BYTES,
) -> bytes:
    """Serialize one frame, header (and optional request id) included."""
    if isinstance(frame, QueryRequest):
        envelope = frame.envelope
        frame_type = _QUERY
        payload = _query_payloads.get_pinned(
            id(envelope), envelope, _envelope_bytes, envelope
        )
    elif isinstance(frame, QueryResponse) and frame.result.payload is not None:
        # A result re-sent as it arrived: only the hit flag is new.
        frame_type = _RESULT
        payload = (b"\x01" if frame.cache_hit else b"\x00") + frame.result.payload
    else:
        try:
            frame_type, payload = _encode_payload(frame)
        except struct.error as error:
            raise WireError(f"field value out of range: {error}") from None
    if len(payload) > max_frame:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds limit {max_frame}"
        )
    rid = b"" if request_id is None else request_id.encode()
    if len(rid) > MAX_REQUEST_ID_BYTES:
        raise WireError(
            f"request id of {len(rid)} bytes exceeds "
            f"limit {MAX_REQUEST_ID_BYTES}"
        )
    header = _HEADER.pack(MAGIC, VERSION, frame_type, len(rid), len(payload))
    return b"".join((header, rid, payload))


def _check_header(
    data, offset: int = 0, *, max_frame: int
) -> tuple[int, int, int]:
    """Check the header at ``offset`` of ``data``: its type, rid and
    payload lengths."""
    magic, version, frame_type, rid_length, length = _HEADER.unpack_from(
        data, offset
    )
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported protocol version {version}")
    if rid_length > MAX_REQUEST_ID_BYTES:
        raise WireError(
            f"request id of {rid_length} bytes exceeds "
            f"limit {MAX_REQUEST_ID_BYTES}"
        )
    if length > max_frame:
        raise WireError(f"frame of {length} bytes exceeds limit {max_frame}")
    return frame_type, rid_length, length


def decode_traced(
    data: bytes, *, max_frame: int = MAX_FRAME_BYTES
) -> tuple[Frame, str | None]:
    """Inverse of :func:`encode_frame`: ``(frame, request_id)``.

    Raises:
        WireError: on any protocol violation, including partial frames and
            trailing bytes.
    """
    if len(data) < HEADER_SIZE:
        raise WireError(f"truncated header: {len(data)} of {HEADER_SIZE} bytes")
    _, rid_length, length = _check_header(data, max_frame=max_frame)
    if len(data) != HEADER_SIZE + rid_length + length:
        raise WireError(
            f"frame length mismatch: header says {rid_length}+{length}, "
            f"have {len(data) - HEADER_SIZE}"
        )
    return decode_checked(data)


def decode_checked(data: bytes) -> tuple[Frame, str | None]:
    """:func:`decode_traced` of a frame whose header and length are
    checked already, as :class:`~repro.net.framing.FrameConnection` checks
    every frame it cuts: the header is not parsed a second time."""
    start = HEADER_SIZE + data[4]
    request_id = _decode_request_id(data[HEADER_SIZE:start])
    try:
        return _decode_payload(data[3], data[start:]), request_id
    except struct.error as error:
        raise WireError(f"truncated payload: {error}") from None
    except UnicodeDecodeError as error:
        raise WireError(f"invalid UTF-8 in string field: {error}") from error


def decode_frame(data: bytes, *, max_frame: int = MAX_FRAME_BYTES) -> Frame:
    """:func:`decode_traced` for callers that ignore the request id."""
    return decode_traced(data, max_frame=max_frame)[0]


def peek_raw(data: bytes) -> tuple[int, str | None]:
    """``(frame_type, request_id)`` of a raw frame without decoding it.

    The chaos proxy keys its fault decisions on the frame type and logs
    the trace id of the frame it mutates; neither requires (or should
    risk) running the payload codecs.  The header must already have been
    validated, as :class:`~repro.net.framing.FrameConnection` does before
    it hands out a frame.
    """
    rid = data[HEADER_SIZE : HEADER_SIZE + data[4]]
    return data[3], _decode_request_id(rid)


# -- sending ---------------------------------------------------------------------


async def write_frame(
    writer: FrameConnection,
    frame: Frame,
    *,
    request_id: str | None = None,
    max_frame: int = MAX_FRAME_BYTES,
    observer=None,
) -> None:
    """Serialize and send one frame; wait only if the connection is not
    writable (closed, or above its high water).

    The frame is one synchronous ``write`` of its whole bytes, so frames
    written concurrently on one connection never interleave.

    Raises:
        ConnectionResetError: the connection is gone.
    """
    data = encode_frame(frame, request_id=request_id, max_frame=max_frame)
    if observer is not None:
        observer(data)
    writer.write(data)
    if not writer.writable:
        await writer.drain()
