"""Envelopes: what the DSSP actually sees at each exposure level.

The home server *seals* statements and results into envelopes according to
the application's exposure policy; the DSSP handles envelopes only.  By
construction an envelope carries plaintext fields **only** for information
its exposure level permits (paper Figure 5):

===========  =====================================  =======================
Level        Query envelope exposes                 Cache key (footnote 3)
===========  =====================================  =======================
blind        nothing                                Enc(statement)
template     template name + template SQL           template ‖ Enc(params)
stmt         + bound statement (AST and SQL)        statement SQL
view         + plaintext result                     statement SQL
===========  =====================================  =======================

Update envelopes are identical minus the ``view`` row.  Result envelopes
are plaintext only at ``view``; below that they hold an encrypted payload
that only holders of the application's keyring can open.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.analysis.exposure import ExposureLevel
from repro.crypto.cipher import decrypt, encrypt
from repro.crypto.keyring import Keyring, Purpose
from repro.errors import CryptoError
from repro.obs.memo import BoundedMemo
from repro.sql.ast import Delete, Insert, Select, Update
from repro.sql.parser import parse
from repro.storage.rows import ResultSet
from repro.templates.template import BoundQuery, BoundUpdate

__all__ = [
    "EnvelopeCodec",
    "QueryEnvelope",
    "ResultEnvelope",
    "UpdateEnvelope",
    "deserialize_result",
    "serialize_result",
]


@dataclass(frozen=True)
class QueryEnvelope:
    """A query as it crosses the DSSP, with level-appropriate visibility."""

    app_id: str
    level: ExposureLevel
    cache_key: str
    template_name: str | None = None
    template_sql: str | None = None
    statement: Select | None = None
    statement_sql: str | None = None
    #: Ciphertexts the home server (key holder) uses to recover the query;
    #: opaque to the DSSP.
    sealed_statement: bytes | None = None
    sealed_params: bytes | None = None

    @property
    def template_visible(self) -> bool:
        """True if the DSSP may use template identity (TIS and up)."""
        return self.template_name is not None

    @property
    def statement_visible(self) -> bool:
        """True if the DSSP may use the bound statement (SIS and up)."""
        return self.statement is not None


@dataclass(frozen=True)
class UpdateEnvelope:
    """An update as it crosses the DSSP on its way to the home server."""

    app_id: str
    level: ExposureLevel
    opaque_id: str
    template_name: str | None = None
    template_sql: str | None = None
    statement: Insert | Delete | Update | None = None
    statement_sql: str | None = None
    #: Ciphertexts for the home server; opaque to the DSSP.
    sealed_statement: bytes | None = None
    sealed_params: bytes | None = None

    @property
    def template_visible(self) -> bool:
        """True if the DSSP may use template identity."""
        return self.template_name is not None

    @property
    def statement_visible(self) -> bool:
        """True if the DSSP may use the bound statement."""
        return self.statement is not None


@dataclass(frozen=True)
class ResultEnvelope:
    """A query result: plaintext at ``view`` exposure, ciphertext below."""

    app_id: str
    plaintext: ResultSet | None = None
    ciphertext: bytes | None = None

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
        CryptoError: if the payload is not a serialized result set.
    """
    try:
        payload = json.loads(data.decode())
        return ResultSet(
            columns=tuple(payload["columns"]),
            rows=tuple(tuple(row) for row in payload["rows"]),
            ordered=payload["ordered"],
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

    @property
    def app_id(self) -> str:
        """Application this codec seals for."""
        return self._keyring.app_id

    # -- queries -----------------------------------------------------------

    def seal_query(self, query: BoundQuery, level: ExposureLevel) -> QueryEnvelope:
        """Produce the DSSP-visible form of a bound query."""
        return self._seal_query_memo.get(
            (query, level), self._seal_query, query, level
        )

    def _seal_query(self, query: BoundQuery, level: ExposureLevel) -> QueryEnvelope:
        app = self.app_id
        if level >= ExposureLevel.STMT:
            return QueryEnvelope(
                app_id=app,
                level=level,
                cache_key=f"{app}|stmt|{query.sql}",
                template_name=query.template.name,
                template_sql=query.template.sql,
                statement=query.select,
                statement_sql=query.sql,
            )
        if level is ExposureLevel.TEMPLATE:
            token = self._encrypt_params(query.params)
            return QueryEnvelope(
                app_id=app,
                level=level,
                cache_key=f"{app}|tmpl|{query.template.name}|{token.hex()}",
                template_name=query.template.name,
                template_sql=query.template.sql,
                sealed_params=token,
            )
        token = encrypt(self._statement_key, query.sql.encode())
        return QueryEnvelope(
            app_id=app,
            level=level,
            cache_key=f"{app}|blind|{token.hex()}",
            sealed_statement=token,
        )

    # -- updates ---------------------------------------------------------------

    def seal_update(
        self, update: BoundUpdate, level: ExposureLevel
    ) -> UpdateEnvelope:
        """Produce the DSSP-visible form of a bound update.

        Raises:
            CryptoError: if asked for ``view`` level (updates have none).
        """
        if level is ExposureLevel.VIEW:
            raise CryptoError("update envelopes have no 'view' level")
        app = self.app_id
        if level is ExposureLevel.STMT:
            return UpdateEnvelope(
                app_id=app,
                level=level,
                opaque_id=f"{app}|stmt|{update.sql}",
                template_name=update.template.name,
                template_sql=update.template.sql,
                statement=update.statement,
                statement_sql=update.sql,
            )
        if level is ExposureLevel.TEMPLATE:
            token = self._encrypt_params(update.params)
            return UpdateEnvelope(
                app_id=app,
                level=level,
                opaque_id=f"{app}|tmpl|{update.template.name}|{token.hex()}",
                template_name=update.template.name,
                template_sql=update.template.sql,
                sealed_params=token,
            )
        token = encrypt(self._statement_key, update.sql.encode())
        return UpdateEnvelope(
            app_id=app,
            level=level,
            opaque_id=f"{app}|blind|{token.hex()}",
            sealed_statement=token,
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
        if envelope.app_id != self.app_id:
            raise CryptoError(
                f"envelope belongs to {envelope.app_id!r}, "
                f"codec is for {self.app_id!r}"
            )
        if envelope.plaintext is not None:
            return envelope.plaintext
        assert envelope.ciphertext is not None
        return deserialize_result(decrypt(self._result_key, envelope.ciphertext))

    # -- opening (home-server side) --------------------------------------------------

    def open_query(self, envelope: QueryEnvelope, registry) -> Select:
        """Recover the bound SELECT from a query envelope (requires keys).

        Args:
            envelope: As received from the DSSP.
            registry: The application's template registry, needed to rebuild
                statements from ``template``-level envelopes.

        Raises:
            CryptoError: wrong application or tampered payload.
        """
        self._check_app(envelope.app_id)
        if envelope.statement is not None:
            return envelope.statement
        # Keyed on the ciphertext itself — the bytes the SIV check
        # authenticates on the miss — never on ``cache_key``, which is the
        # sender's unauthenticated claim: an equal ciphertext opens to the
        # same statement, a tampered one is a different key and is
        # decrypted (and rejected) on every attempt.
        if envelope.sealed_params is not None:
            key = (envelope.template_name, envelope.sealed_params)
        else:
            key = envelope.sealed_statement
        return self._open_query_memo.get(
            key, self._open_sealed_query, envelope, registry
        )

    def _open_sealed_query(self, envelope: QueryEnvelope, registry) -> Select:
        if envelope.sealed_params is not None:
            assert envelope.template_name is not None
            params = self._decrypt_params(envelope.sealed_params)
            template = registry.query(envelope.template_name)
            return template.bind(params).select
        assert envelope.sealed_statement is not None
        sql = decrypt(self._statement_key, envelope.sealed_statement).decode()
        statement = parse(sql)
        if not isinstance(statement, Select):
            raise CryptoError("sealed query does not decode to a SELECT")
        return statement

    def open_update(self, envelope: UpdateEnvelope, registry):
        """Recover the bound update statement from an update envelope.

        Raises:
            CryptoError: wrong application or tampered payload.
        """
        self._check_app(envelope.app_id)
        if envelope.statement is not None:
            return envelope.statement
        if envelope.sealed_params is not None:
            assert envelope.template_name is not None
            params = self._decrypt_params(envelope.sealed_params)
            template = registry.update(envelope.template_name)
            return template.bind(params).statement
        assert envelope.sealed_statement is not None
        sql = decrypt(self._statement_key, envelope.sealed_statement).decode()
        statement = parse(sql)
        if isinstance(statement, Select):
            raise CryptoError("sealed update decodes to a SELECT")
        return statement

    def _check_app(self, app_id: str) -> None:
        if app_id != self.app_id:
            raise CryptoError(
                f"envelope belongs to {app_id!r}, codec is for {self.app_id!r}"
            )

    # -- helpers ------------------------------------------------------------------

    def _encrypt_params(self, params: tuple) -> bytes:
        payload = json.dumps(list(params), separators=(",", ":")).encode()
        return encrypt(self._params_key, payload)

    def _decrypt_params(self, token: bytes) -> tuple:
        payload = json.loads(decrypt(self._params_key, token).decode())
        return tuple(payload)
