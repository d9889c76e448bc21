"""Tests for envelopes: what the DSSP sees at each exposure level."""

from dataclasses import fields, replace

import pytest

from repro.analysis.exposure import ExposureLevel
from repro.crypto import EnvelopeCodec, Keyring, QueryEnvelope, UpdateEnvelope
from repro.crypto.cipher import encrypt
from repro.crypto.envelope import (
    ResultEnvelope,
    decode_params,
    deserialize_result,
    encode_params,
    serialize_result,
)
from repro.errors import BindingError, CryptoError, TemplateError
from repro.storage.rows import ResultSet


@pytest.fixture
def codec():
    return EnvelopeCodec(Keyring("toystore", b"k" * 32))


@pytest.fixture
def other_codec():
    return EnvelopeCodec(Keyring("other-app", b"o" * 32))


@pytest.fixture
def bound_query(simple_toystore):
    return simple_toystore.query("Q2").bind([5])


@pytest.fixture
def bound_update(simple_toystore):
    return simple_toystore.update("U1").bind([5])


#: Levels at which the home recovers the statement from ciphertext.
SEALED_LEVELS = [ExposureLevel.BLIND, ExposureLevel.TEMPLATE]


def _zeroed(envelope):
    """Same identifiers, all-zero ciphertext of the same length."""
    if envelope.sealed_params is not None:
        return replace(envelope, sealed_params=bytes(len(envelope.sealed_params)))
    return replace(
        envelope, sealed_statement=bytes(len(envelope.sealed_statement))
    )


class TestQueryEnvelopes:
    def test_view_level_exposes_statement(self, codec, bound_query):
        env = codec.seal_query(bound_query, ExposureLevel.VIEW)
        assert env.statement_visible
        assert env.template_visible
        assert (env.template_name, env.params) == ("Q2", (5,))

    def test_stmt_level_exposes_statement(self, codec, bound_query):
        env = codec.seal_query(bound_query, ExposureLevel.STMT)
        assert env.statement_visible
        assert env.identity == ("toystore", "Q2", (5,))

    def test_template_level_hides_parameters(self, codec, bound_query):
        env = codec.seal_query(bound_query, ExposureLevel.TEMPLATE)
        assert env.template_visible
        assert not env.statement_visible
        assert env.statement is None
        assert env.params is None
        assert env.identity == ("toystore", "Q2", env.sealed_params)

    def test_blind_level_hides_everything(self, codec, bound_query):
        env = codec.seal_query(bound_query, ExposureLevel.BLIND)
        assert not env.template_visible
        assert not env.statement_visible
        assert env.template_name is None
        assert env.params is None and env.sealed_params is None
        assert env.identity == ("toystore", env.sealed_statement)

    def test_identities_deterministic(self, codec, bound_query):
        for level in ExposureLevel:
            a = codec.seal_query(bound_query, level)
            b = codec.seal_query(bound_query, level)
            assert a.identity == b.identity

    def test_identities_distinguish_parameters(self, codec, simple_toystore):
        q = simple_toystore.query("Q2")
        for level in ExposureLevel:
            a = codec.seal_query(q.bind([5]), level)
            b = codec.seal_query(q.bind([7]), level)
            assert a.identity != b.identity

    def test_identities_scoped_by_app(
        self, codec, other_codec, bound_query
    ):
        a = codec.seal_query(bound_query, ExposureLevel.STMT)
        b = other_codec.seal_query(bound_query, ExposureLevel.STMT)
        assert a.identity != b.identity


class TestOneRepresentation:
    """A statement is (template_name, params); nothing else can be said."""

    @pytest.mark.parametrize("kind", [QueryEnvelope, UpdateEnvelope])
    def test_no_field_restates_the_statement(self, kind):
        names = {field.name for field in fields(kind)}
        assert names == {
            "app_id",
            "level",
            "template_name",
            "params",
            "sealed_params",
            "sealed_statement",
            "statement",
            "payload",
        }
        assert not names & {
            "cache_key", "opaque_id", "template_sql", "statement_sql"
        }

    def test_bound_ast_slot_is_not_part_of_the_value(self, codec, bound_query):
        sealed = codec.seal_query(bound_query, ExposureLevel.STMT)
        bare = replace(sealed, statement=None)
        assert sealed.statement == bound_query.select
        assert sealed == bare and sealed.identity == bare.identity
        assert "SELECT" not in repr(sealed) and "Select" not in repr(sealed)

    def test_unregistered_name_and_wrong_arity_do_not_open(
        self, codec, simple_toystore, bound_query
    ):
        env = codec.seal_query(bound_query, ExposureLevel.STMT)
        with pytest.raises(TemplateError):
            codec.open_query(replace(env, template_name="Q99"), simple_toystore)
        with pytest.raises(BindingError):
            codec.open_query(replace(env, params=(5, 6)), simple_toystore)
        with pytest.raises(TemplateError):  # an update's name on a query
            codec.open_query(replace(env, template_name="U1"), simple_toystore)


class TestOpenQuery:
    @pytest.mark.parametrize(
        "level",
        [
            ExposureLevel.BLIND,
            ExposureLevel.TEMPLATE,
            ExposureLevel.STMT,
            ExposureLevel.VIEW,
        ],
    )
    def test_open_recovers_statement(
        self, codec, simple_toystore, bound_query, level
    ):
        env = codec.seal_query(bound_query, level)
        recovered = codec.open_query(env, simple_toystore)
        assert recovered == bound_query.select

    def test_wrong_codec_cannot_open(
        self, codec, other_codec, simple_toystore, bound_query
    ):
        env = codec.seal_query(bound_query, ExposureLevel.BLIND)
        with pytest.raises(CryptoError):
            other_codec.open_query(env, simple_toystore)

    # The open memo is keyed on the ciphertext, so one envelope's open can
    # never stand in for another's, and a hit must not skip the SIV check.

    @pytest.mark.parametrize("level", SEALED_LEVELS)
    def test_opens_do_not_stand_in_for_each_other(
        self, codec, simple_toystore, level
    ):
        template = simple_toystore.query("Q2")
        query_a, query_b = template.bind([5]), template.bind([7])
        env_a = codec.seal_query(query_a, level)
        env_b = codec.seal_query(query_b, level)
        for _ in range(2):  # second round is answered by the memo
            assert codec.open_query(env_a, simple_toystore) == query_a.select
            assert codec.open_query(env_b, simple_toystore) == query_b.select

    def test_a_memo_hit_does_not_skip_the_application_check(
        self, codec, simple_toystore, bound_query
    ):
        env = codec.seal_query(bound_query, ExposureLevel.TEMPLATE)
        codec.open_query(env, simple_toystore)
        with pytest.raises(CryptoError):
            codec.open_query(replace(env, app_id="other-app"), simple_toystore)

    @pytest.mark.parametrize("level", SEALED_LEVELS)
    def test_tampered_payload_rejected_after_an_honest_open(
        self, codec, simple_toystore, bound_query, level
    ):
        env = codec.seal_query(bound_query, level)
        codec.open_query(env, simple_toystore)
        for _ in range(2):  # rejected every time: a failure is never stored
            with pytest.raises(CryptoError):
                codec.open_query(_zeroed(env), simple_toystore)


class TestUpdateEnvelopes:
    @pytest.mark.parametrize(
        "level",
        [ExposureLevel.BLIND, ExposureLevel.TEMPLATE, ExposureLevel.STMT],
    )
    def test_open_recovers_update(
        self, codec, simple_toystore, bound_update, level
    ):
        env = codec.seal_update(bound_update, level)
        recovered = codec.open_update(env, simple_toystore)
        assert recovered == bound_update.statement

    @pytest.mark.parametrize("level", SEALED_LEVELS)
    def test_an_honest_open_does_not_stand_in_for_the_payload(
        self, codec, simple_toystore, level
    ):
        template = simple_toystore.update("U1")
        update_a, update_b = template.bind([5]), template.bind([7])
        env_a = codec.seal_update(update_a, level)
        env_b = codec.seal_update(update_b, level)
        codec.open_update(env_a, simple_toystore)
        with pytest.raises(CryptoError):
            codec.open_update(_zeroed(env_a), simple_toystore)
        assert env_a.identity != env_b.identity
        assert codec.open_update(env_a, simple_toystore) == update_a.statement
        assert codec.open_update(env_b, simple_toystore) == update_b.statement

    def test_view_level_rejected_for_updates(self, codec, bound_update):
        with pytest.raises(CryptoError):
            codec.seal_update(bound_update, ExposureLevel.VIEW)

    def test_template_level_hides_parameters(self, codec, bound_update):
        env = codec.seal_update(bound_update, ExposureLevel.TEMPLATE)
        assert env.template_visible
        assert not env.statement_visible


class TestResultEnvelopes:
    @pytest.fixture
    def result(self):
        return ResultSet(("qty",), ((10,), (None,), (3,)), ordered=True)

    def test_view_level_plaintext(self, codec, result):
        env = codec.seal_result(result, ExposureLevel.VIEW)
        assert env.visible
        assert env.plaintext is result

    @pytest.mark.parametrize(
        "level",
        [ExposureLevel.BLIND, ExposureLevel.TEMPLATE, ExposureLevel.STMT],
    )
    def test_below_view_is_ciphertext(self, codec, result, level):
        env = codec.seal_result(result, level)
        assert not env.visible
        assert env.ciphertext is not None

    @pytest.mark.parametrize(
        "level",
        [
            ExposureLevel.BLIND,
            ExposureLevel.TEMPLATE,
            ExposureLevel.STMT,
            ExposureLevel.VIEW,
        ],
    )
    def test_open_round_trips(self, codec, result, level):
        env = codec.seal_result(result, level)
        opened = codec.open_result(env)
        assert opened.equivalent(result)
        assert opened.columns == result.columns

    def test_other_app_cannot_open(self, codec, other_codec, result):
        env = codec.seal_result(result, ExposureLevel.STMT)
        with pytest.raises(CryptoError):
            other_codec.open_result(env)

    def test_serialization_preserves_types(self, codec):
        result = ResultSet(("a", "b", "c"), ((1, 1.5, "x"), (None, 2.0, "y''z")))
        opened = codec.open_result(codec.seal_result(result, ExposureLevel.BLIND))
        assert opened.rows == result.rows


class TestDecodeParams:
    """Parameter bytes are UTF-8 JSON; any other bytes are refused with
    the ``ValueError`` malformed JSON gets."""

    @pytest.mark.parametrize(
        "data",
        [
            b'["x"',
            b'["\xff"]',
            '["x"]'.encode("utf-16"),
            '["x"]'.encode("utf-16-le"),
            '["x"]'.encode("utf-32"),
        ],
        ids=["bad-json", "bad-utf8", "utf16", "utf16-le", "utf32"],
    )
    def test_refused(self, data):
        with pytest.raises(ValueError):
            decode_params(data)

    def test_utf8_round_trips(self):
        params = (1, "caf\u00e9", None, 2.5)
        assert decode_params(encode_params(params)) == params


class TestMalformedResultPayloads:
    """A result opens only as rows of scalars of the header's width —
    the rule ``decode_params`` holds parameters to."""

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"columns":["a","b"],"rows":[[1,[2,3]]],"ordered":false}',
            b'{"columns":["a","b"],"rows":[[1,{"x":2}]],"ordered":false}',
            b'{"columns":["a","b"],"rows":[[1,true]],"ordered":false}',
            b'{"columns":["a","b"],"rows":[[1,NaN]],"ordered":false}',
            b'{"columns":["a","b"],"rows":[[1,2],[3]],"ordered":false}',
            b'{"columns":["a","b"],"rows":[[1,2,3]],"ordered":true}',
            b'{"columns":["a","b"],"rows":[[1,2],"xy"],"ordered":false}',
            b'{"columns":["a","b"],"rows":{"0":[1,2]},"ordered":false}',
            b'{"columns":"ab","rows":[[1,2]],"ordered":false}',
            b'{"columns":["a"],"rows":[[1]]}',
            b'[["a"],[[1]],false]',
            # column names are strings and ``ordered`` is a boolean: these
            # two used to open to an unhashable / order-claiming ResultSet
            b'{"columns":[[1],null],"ordered":{"a":1},"rows":[]}',
            b'{"columns":["a"],"ordered":"yes","rows":[[1]]}',
        ],
    )
    def test_refused_at_every_level(self, codec, payload):
        with pytest.raises(CryptoError, match="malformed result payload"):
            deserialize_result(payload)
        sealed = ResultEnvelope(
            app_id=codec.app_id,
            ciphertext=encrypt(codec._result_key, payload),
        )
        with pytest.raises(CryptoError, match="malformed result payload"):
            codec.open_result(sealed)

    def test_well_formed_payload_still_opens(self):
        result = ResultSet(("a", "b"), ((1, "x"), (None, 2.5), (3, "")), ordered=True)
        opened = deserialize_result(serialize_result(result))
        assert opened == result
        assert deserialize_result(
            b'{"columns":["a"],"rows":[],"ordered":false}'
        ) == ResultSet(("a",), ())
