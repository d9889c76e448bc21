"""Envelopes: what the DSSP actually sees at each exposure level.

A statement is ``Q_T(Q_P)`` — a registered template's name plus its
parameters (paper Section 2.1) — and that pair is its *only*
representation, in memory and on the wire.  The exposure level decides
which part of the pair is sealed (paper Figure 5), nothing else:

===========  =========================  ===================================
Level        In the clear               Identity (cache key, footnote 3)
===========  =========================  ===================================
blind        nothing                    app ‖ Enc(name ‖ params)
template     template name              app ‖ name ‖ Enc(params)
stmt         template name + params     app ‖ name ‖ params
view         + plaintext result         app ‖ name ‖ params
===========  =========================  ===================================

No SQL text, no key and no id travels with an envelope: every receiver
holds the application's template registry and binds ``(name, params)``
through it, and :attr:`Envelope.identity` is computed from the fields
above by whoever needs it.  A statement outside the registered set, a
key that disagrees with its statement, or a name that disagrees with its
statement therefore cannot be written down.

Update envelopes are identical minus the ``view`` row.  Result envelopes
are plaintext only at ``view``; below that they hold an encrypted payload
that only holders of the application's keyring can open.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

from repro.analysis.exposure import ExposureLevel
from repro.crypto.cipher import decrypt, encrypt
from repro.crypto.keyring import Keyring, Purpose
from repro.errors import CryptoError
from repro.obs.memo import BoundedMemo
from repro.sql.ast import Scalar, Select, Statement
from repro.storage.rows import ResultSet
from repro.templates.registry import TemplateRegistry
from repro.templates.template import BoundQuery, BoundUpdate

__all__ = [
    "Envelope",
    "EnvelopeCodec",
    "QueryEnvelope",
    "ResultEnvelope",
    "UpdateEnvelope",
    "decode_params",
    "deserialize_result",
    "encode_params",
    "serialize_result",
]

#: The one serialisation of parameters (and of the blind ``[name, params]``
#: pair): compact JSON.  ``allow_nan=False`` because NaN never equals
#: itself — a statement carrying one could be neither cached nor indexed.
_to_json = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def encode_params(params: tuple[Scalar, ...]) -> bytes:
    """Canonical bytes of a parameter tuple: sealed at ``template``, sent
    as they are at ``stmt``/``view``."""
    return _to_json(params).encode()


def decode_params(data: bytes) -> tuple[Scalar, ...]:
    """Inverse of :func:`encode_params`, for bytes nobody authenticated.

    Raises:
        ValueError: not a JSON array of ``int | float | str | None`` —
            booleans, containers and non-finite floats are refused.
    """
    try:
        params = json.loads(data)
    except RecursionError:
        raise ValueError("parameters nest too deeply") from None
    if type(params) is not list:
        raise ValueError("parameters are not a JSON array")
    _require_scalars(params, "parameter")
    return tuple(params)


_SCALAR_TYPES = frozenset({int, float, str, type(None)})


def _require_scalars(values: list, what: str) -> None:
    """The scalar rule for decoded JSON: ``int | float | str | None`` only.

    One C-level pass over the types; the values are looked at again only
    to name an offender or when there are floats to check for finiteness.
    """
    kinds = set(map(type, values))
    if not kinds <= _SCALAR_TYPES:
        value = next(v for v in values if type(v) not in _SCALAR_TYPES)
        raise ValueError(f"{what} {value!r} is not a scalar")
    if float in kinds:
        for value in values:
            if type(value) is float and not math.isfinite(value):
                raise ValueError(f"non-finite {what} {value!r}")


@dataclass(frozen=True)
class Envelope:
    """A statement as it crosses the DSSP: ``(template_name, params)``,
    each part in the clear or sealed as :attr:`level` dictates.

    Exactly one of ``params`` / ``sealed_params`` / ``sealed_statement``
    is set; ``template_name`` is set unless the envelope is ``blind``.
    """

    app_id: str
    level: ExposureLevel
    template_name: str | None = None
    params: tuple[Scalar, ...] | None = None
    #: Ciphertexts the home server (key holder) opens; opaque to the DSSP.
    sealed_params: bytes | None = None
    sealed_statement: bytes | None = None
    #: The sealer's own bound AST, kept where it was already at hand.  It
    #: is not part of the envelope's value: never compared, never encoded,
    #: so no receiver across a wire sees it and none consults it.
    statement: Statement | None = field(default=None, compare=False, repr=False)

    @property
    def template_visible(self) -> bool:
        """True if the DSSP may use template identity (TIS and up)."""
        return self.template_name is not None

    @property
    def statement_visible(self) -> bool:
        """True if the DSSP may read the parameters (SIS and up)."""
        return self.params is not None

    @property
    def identity(self) -> tuple:
        """What makes two envelopes the same statement to a DSSP.

        The view-cache key, the shard-placement key and the update
        dedup/coalesce id are all this value; it is derived from the
        fields the receiver was given — never carried — and always names
        the application.  The three shapes cannot collide: they differ
        in length or in the type of their last member.
        """
        if self.params is not None:
            return (self.app_id, self.template_name, self.params)
        if self.sealed_params is not None:
            return (self.app_id, self.template_name, self.sealed_params)
        return (self.app_id, self.sealed_statement)

    def bound(self, registry: TemplateRegistry):
        """The statement as far as a keyless holder of ``registry`` may
        read it: the bound instance at ``stmt``/``view``, else None.

        Raises:
            TemplateError, BindingError: a visible name that is not one
                of the registry's templates of this kind, or parameters
                of the wrong arity.
        """
        if self.template_name is None:
            return None
        template = self._template(registry, self.template_name)
        return None if self.params is None else template.bind(self.params)


class QueryEnvelope(Envelope):
    """A query as it crosses the DSSP, with level-appropriate visibility."""

    _template = staticmethod(TemplateRegistry.query)


class UpdateEnvelope(Envelope):
    """An update as it crosses the DSSP on its way to the home server."""

    _template = staticmethod(TemplateRegistry.update)


@dataclass(frozen=True)
class ResultEnvelope:
    """A query result: plaintext at ``view`` exposure, ciphertext below."""

    app_id: str
    plaintext: ResultSet | None = None
    ciphertext: bytes | None = None
    #: The ``view`` plaintext's bytes as they arrived on the wire, kept so
    #: a cached view is re-sent as those bytes.  Like
    #: :attr:`Envelope.statement`, not part of the value: never compared.
    payload: bytes | None = field(default=None, compare=False, repr=False)

    @property
    def visible(self) -> bool:
        """True if the DSSP may inspect the rows (VIS only)."""
        return self.plaintext is not None


def serialize_result(result: ResultSet) -> bytes:
    """Canonical byte form of a result set (also used on the wire)."""
    payload = {
        "columns": list(result.columns),
        "ordered": result.ordered,
        "rows": [list(row) for row in result.rows],
    }
    return json.dumps(payload, separators=(",", ":")).encode()


def deserialize_result(data: bytes) -> ResultSet:
    """Inverse of :func:`serialize_result`.

    Raises:
        CryptoError: if the payload is not a serialized result set — string
            column names, a boolean ``ordered``, and rows of the header's
            width whose cells pass the scalar rule :func:`decode_params`
            holds parameters to.
    """
    try:
        payload = json.loads(data.decode())
        columns, rows, ordered = (
            payload["columns"], payload["rows"], payload["ordered"]
        )
        if type(columns) is not list or set(map(type, columns)) - {str}:
            raise ValueError("columns are not an array of strings")
        if type(ordered) is not bool:
            raise ValueError("'ordered' is not a boolean")
        if (
            type(rows) is not list
            or set(map(type, rows)) - {list}
            or set(map(len, rows)) - {len(columns)}
        ):
            raise ValueError("rows are not arrays of the header's width")
        _require_scalars(list(chain.from_iterable(rows)), "cell")
        return ResultSet(
            columns=tuple(columns), rows=tuple(map(tuple, rows)), ordered=ordered
        )
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as error:
        raise CryptoError(f"malformed result payload: {error}") from error


class EnvelopeCodec:
    """Seals and opens envelopes for one application's keyring.

    Lives at the home server and in the application's trusted client
    library — never at the DSSP.
    """

    #: Entries kept per memo before clearing (envelopes are small; the
    #: working set is the application's live statement population).
    MEMO_LIMIT = 8192

    def __init__(self, keyring: Keyring) -> None:
        self._keyring = keyring
        self._params_key = keyring.key_for(Purpose.PARAMS)
        self._statement_key = keyring.key_for(Purpose.STATEMENT)
        self._result_key = keyring.key_for(Purpose.RESULT)
        # Sealing is deterministic (SIV) and opening inverts it, so both
        # are pure functions of their input — and web workloads re-seal
        # and re-open the same popular queries constantly.  BoundQuery
        # hashes by (template name, params), which keeps lookups cheap.
        # Updates are sealed and opened once each: not memoized.
        self._seal_query_memo = BoundedMemo("crypto.seal_query", self.MEMO_LIMIT)
        self._open_query_memo = BoundedMemo("crypto.open_query", self.MEMO_LIMIT)
        # The client's mirror of open_query: a popular result's ciphertext
        # repeats until an update changes it.  2,048, not MEMO_LIMIT: the
        # values are whole result sets.
        self._open_result_memo = BoundedMemo("crypto.open_result", 2048)

    @property
    def app_id(self) -> str:
        """Application this codec seals for."""
        return self._keyring.app_id

    # -- sealing (client side) ---------------------------------------------

    def seal_query(self, query: BoundQuery, level: ExposureLevel) -> QueryEnvelope:
        """Produce the DSSP-visible form of a bound query."""
        return self._seal_query_memo.get(
            (query, level), self._envelope, QueryEnvelope, query, query.select, level
        )

    def seal_update(
        self, update: BoundUpdate, level: ExposureLevel
    ) -> UpdateEnvelope:
        """Produce the DSSP-visible form of a bound update.

        Raises:
            CryptoError: if asked for ``view`` level (updates have none).
        """
        if level is ExposureLevel.VIEW:
            raise CryptoError("update envelopes have no 'view' level")
        return self._envelope(UpdateEnvelope, update, update.statement, level)

    def _envelope(self, kind, bound, statement: Statement, level: ExposureLevel):
        name = bound.template.name
        if level >= ExposureLevel.STMT:
            return kind(
                self.app_id, level, name, bound.params, statement=statement
            )
        if level is ExposureLevel.TEMPLATE:
            token = encrypt(self._params_key, encode_params(bound.params))
            return kind(self.app_id, level, name, sealed_params=token)
        pair = _to_json((name, bound.params)).encode()
        return kind(
            self.app_id,
            level,
            sealed_statement=encrypt(self._statement_key, pair),
        )

    # -- results -----------------------------------------------------------------

    def seal_result(
        self, result: ResultSet, level: ExposureLevel
    ) -> ResultEnvelope:
        """Seal a query result: plaintext only at ``view`` exposure."""
        if level is ExposureLevel.VIEW:
            return ResultEnvelope(app_id=self.app_id, plaintext=result)
        token = encrypt(self._result_key, serialize_result(result))
        return ResultEnvelope(app_id=self.app_id, ciphertext=token)

    def open_result(self, envelope: ResultEnvelope) -> ResultSet:
        """Recover the plaintext result (client side).

        Raises:
            CryptoError: wrong application's codec, or tampered payload.
        """
        self._check_app(envelope.app_id)
        if envelope.plaintext is not None:
            return envelope.plaintext
        assert envelope.ciphertext is not None
        # Keyed on the ciphertext, as open_query is: an equal ciphertext
        # opens to the same rows, any other one is decrypted — and its SIV
        # tag checked — on every attempt; a failure stores nothing.
        return self._open_result_memo.get(
            envelope.ciphertext, self._decrypt_result, envelope.ciphertext
        )

    def _decrypt_result(self, ciphertext: bytes) -> ResultSet:
        return deserialize_result(decrypt(self._result_key, ciphertext))

    # -- opening (home-server side) --------------------------------------------------

    def open_query(self, envelope: QueryEnvelope, registry) -> Select:
        """Recover the bound SELECT from a query envelope (requires keys).

        Args:
            envelope: As received from the DSSP.
            registry: The application's template registry; the statement
                that runs is always one of its templates, bound.

        Raises:
            CryptoError: wrong application or tampered payload.
            TemplateError, BindingError: a name or arity the registry
                does not have.
        """
        self._check_app(envelope.app_id)
        if envelope.params is not None:
            return self._bind(envelope, registry).select
        # Keyed on the ciphertext itself — the bytes the SIV check
        # authenticates on the miss: an equal ciphertext opens to the
        # same statement, a tampered one is a different key and is
        # decrypted (and rejected) on every attempt.
        if envelope.sealed_params is not None:
            key = (envelope.template_name, envelope.sealed_params)
        else:
            key = envelope.sealed_statement
        return self._open_query_memo.get(
            key, self._bind, envelope, registry
        ).select

    def open_update(self, envelope: UpdateEnvelope, registry):
        """Recover the bound update statement from an update envelope.

        Raises:
            CryptoError, TemplateError, BindingError: as :meth:`open_query`.
        """
        self._check_app(envelope.app_id)
        return self._bind(envelope, registry).statement

    def _bind(self, envelope: Envelope, registry):
        """The one open path: recover ``(name, params)``, bind them."""
        name, params = envelope.template_name, envelope.params
        if envelope.sealed_params is not None:
            params = decode_params(
                decrypt(self._params_key, envelope.sealed_params)
            )
        elif params is None:
            assert envelope.sealed_statement is not None
            name, params = json.loads(
                decrypt(self._statement_key, envelope.sealed_statement)
            )
        return envelope._template(registry, name).bind(params)

    def _check_app(self, app_id: str) -> None:
        if app_id != self.app_id:
            raise CryptoError(
                f"envelope belongs to {app_id!r}, codec is for {self.app_id!r}"
            )
