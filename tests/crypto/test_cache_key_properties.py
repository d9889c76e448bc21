"""Properties of the derived envelope identity (paper footnote 3) and
binding safety.

Two families of guarantees:

* **key discipline** — the identity a DSSP derives from an envelope's
  fields is equal for equal ``(application, template, parameters)`` and
  distinct otherwise, at every exposure level (a collision would serve one
  query's result for another; a split would never hit), and it reveals no
  more than the level does;
* **injection resistance** — parameter values are data, never syntax: a
  malicious string parameter cannot change the bound statement's structure,
  because binding substitutes AST literals and the canonical formatter
  escapes on the way out.
"""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.exposure import ExposureLevel, ExposurePolicy
from repro.crypto import EnvelopeCodec, Keyring
from repro.dssp import DsspNode, HomeServer
from repro.sql.ast import Delete, Literal, Select
from repro.sql.parser import parse
from repro.templates import QueryTemplate, UpdateTemplate

LEVELS = [
    ExposureLevel.BLIND,
    ExposureLevel.TEMPLATE,
    ExposureLevel.STMT,
    ExposureLevel.VIEW,
]

_params = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.text(alphabet=string.printable, max_size=30),
)
_app_ids = st.text(alphabet=string.ascii_lowercase + "|-", min_size=1, max_size=8)


@pytest.fixture(scope="module")
def codec():
    return EnvelopeCodec(Keyring("app", b"k" * 32))


@pytest.fixture(scope="module")
def template():
    return QueryTemplate.from_sql(
        "byname", "SELECT toy_id FROM toys WHERE toy_name = ?"
    )


class TestKeyDiscipline:
    @settings(
        max_examples=150,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(a=_params, b=_params)
    def test_equal_params_iff_equal_identity(self, codec, template, a, b):
        for level in LEVELS:
            key_a = codec.seal_query(template.bind([a]), level).identity
            key_b = codec.seal_query(template.bind([b]), level).identity
            assert (key_a == key_b) == (a == b), (level, a, b)

    def test_distinct_templates_distinct_identities(self, codec):
        a = QueryTemplate.from_sql("qa", "SELECT qty FROM toys WHERE toy_id = ?")
        b = QueryTemplate.from_sql(
            "qb", "SELECT toy_name FROM toys WHERE toy_id = ?"
        )
        for level in LEVELS:
            assert (
                codec.seal_query(a.bind([1]), level).identity
                != codec.seal_query(b.bind([1]), level).identity
            )

    @settings(max_examples=60, deadline=None)
    @given(app_a=_app_ids, app_b=_app_ids, value=_params)
    def test_applications_never_share_an_identity(self, app_a, app_b, value):
        """Same template, same parameters, even the same key material:
        two applications' entries cannot meet in a shared cache."""
        template = QueryTemplate.from_sql(
            "byname", "SELECT toy_id FROM toys WHERE toy_name = ?"
        )
        bound = template.bind([value])
        for level in LEVELS:
            key_a = EnvelopeCodec(Keyring(app_a, b"k" * 32)).seal_query(
                bound, level
            ).identity
            key_b = EnvelopeCodec(Keyring(app_b, b"k" * 32)).seal_query(
                bound, level
            ).identity
            assert key_a[0] == app_a
            assert (key_a == key_b) == (app_a == app_b)

    def test_identities_of_different_levels_cannot_collide(self, codec, template):
        bound = template.bind(["needle"])
        shapes = {
            level: [type(part) for part in codec.seal_query(bound, level).identity]
            for level in LEVELS
        }
        assert shapes[ExposureLevel.BLIND] == [str, bytes]
        assert shapes[ExposureLevel.TEMPLATE] == [str, str, bytes]
        assert shapes[ExposureLevel.STMT] == [str, str, tuple]
        assert shapes[ExposureLevel.VIEW] == shapes[ExposureLevel.STMT]

    def test_identity_reveals_no_more_than_the_level(self, codec, template):
        bound = template.bind(["needle-in-the-params"])
        at_template = repr(codec.seal_query(bound, ExposureLevel.TEMPLATE).identity)
        at_blind = repr(codec.seal_query(bound, ExposureLevel.BLIND).identity)
        assert "byname" in at_template and "needle" not in at_template
        assert "byname" not in at_blind and "needle" not in at_blind


class TestNumericAndTextParameters:
    """``5`` / ``5.0`` / ``"5"``: what the derivation decides, pinned, and
    whatever it decides the rows served are the rows a fresh execute gives.

    In the clear the identity compares parameters as Python values — the
    storage engine's, and ``templates.bind``'s, own notion of equality —
    so ``5`` and ``5.0`` are one entry and ``"5"`` another.  Sealed, the
    identity is the ciphertext of whichever spelling the client bound.
    """

    VALUES = (5, 5.0, "5")

    @pytest.mark.parametrize("level", LEVELS)
    def test_pinned_and_served_rows_are_fresh(
        self, level, toystore_db, simple_toystore
    ):
        policy = ExposurePolicy.uniform(simple_toystore, level)
        home = HomeServer("toystore", toystore_db, simple_toystore, policy)
        node = DsspNode()
        node.register_application(home)
        template = simple_toystore.query("Q2")
        envelopes = [
            home.codec.seal_query(template.bind([value]), level)
            for value in self.VALUES
        ]
        identities = [envelope.identity for envelope in envelopes]
        assert identities[2] not in identities[:2]
        if level >= ExposureLevel.STMT:
            assert identities[0] == identities[1]
        for _ in range(2):  # second round is served from the cache
            for value, envelope in zip(self.VALUES, envelopes):
                served = home.codec.open_result(node.query(envelope).result)
                fresh = toystore_db.execute(template.bind([value]).select)
                assert served.equivalent(fresh), (level, value)
        assert len(node.cache) == len(set(identities))


class TestInjectionResistance:
    MALICIOUS = [
        "'; DELETE FROM toys --",
        "' OR 1 = 1",
        "x' AND toy_id = 5",
        "a||b",
        'quote " double',
        "back\\slash",
        "multi\nline",
    ]

    @pytest.mark.parametrize("payload", MALICIOUS)
    def test_bound_statement_structure_is_unchanged(self, template, payload):
        bound = template.bind([payload])
        # The bound AST is still the same SELECT with one literal...
        assert isinstance(bound.select, Select)
        assert len(bound.select.where) == 1
        assert bound.select.where[0].right == Literal(payload)
        # ...and its canonical text re-parses to the identical statement.
        reparsed = parse(bound.sql)
        assert reparsed == bound.select

    @pytest.mark.parametrize("payload", MALICIOUS)
    def test_payload_executes_as_inert_data(self, toystore_db, payload):
        template = QueryTemplate.from_sql(
            "byname", "SELECT toy_id FROM toys WHERE toy_name = ?"
        )
        before = toystore_db.row_count("toys")
        result = toystore_db.execute(template.bind([payload]).select)
        assert result.empty  # no toy has that name
        assert toystore_db.row_count("toys") == before  # nothing deleted

    @pytest.mark.parametrize("payload", MALICIOUS)
    def test_update_parameters_equally_inert(self, toystore_db, payload):
        template = UpdateTemplate.from_sql(
            "rename", "UPDATE toys SET toy_name = ? WHERE toy_id = ?"
        )
        bound = template.bind([payload, 1])
        assert not isinstance(bound.statement, Delete)  # structure intact
        assert parse(bound.sql) == bound.statement
        toystore_db.apply(bound.statement)
        stored = toystore_db.execute(
            parse("SELECT toy_name FROM toys WHERE toy_id = 1")
        )
        assert stored.rows == ((payload,),)  # stored verbatim, as data
        assert toystore_db.row_count("toys") == 8
