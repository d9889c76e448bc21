"""A statement is ``(template, parameters)``: what a client can and cannot say.

The property (DESIGN.md §9, adversarial-envelope invariant): whatever
envelopes a key-holding client interleaves with honest traffic — any
registered or unregistered name, any scalars, any bytes as tokens, any
level — every answer to an honest query equals a fresh execute of that
statement, and every answer to the other kind is a typed rejection or the
fresh execute of ``registry.query(name).bind(params)``, sealed at the
policy's level for ``name``.  Checked in-process with every hop through
``encode_frame``/``decode_frame``, for all four applications.

Plus the three forgeries wire v2 allowed, in the nearest form v3 can
express them, and the claimed ``level`` field shown harmless.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import design_exposure_policy
from repro.analysis.exposure import ExposureLevel, ExposurePolicy
from repro.crypto import Keyring, Purpose, decrypt
from repro.crypto.envelope import QueryEnvelope, ResultEnvelope, UpdateEnvelope
from repro.dssp import DsspNode, HomeServer
from repro.errors import ReproError, WireError
from repro.net.wire import (
    QueryRequest,
    QueryResponse,
    UpdateRequest,
    decode_frame,
    encode_frame,
)
from repro.workloads import APPLICATIONS, get_application, toystore_spec

LEVELS = list(ExposureLevel)


def _over_the_wire(frame):
    return decode_frame(encode_frame(frame, request_id="rid"))


class Hops:
    """client → DSSP → home, as the two servers' handlers run it, with
    every frame encoded and decoded on every hop."""

    def __init__(self, app: str, policy_of, seed: int = 1) -> None:
        spec = toystore_spec() if app == "toystore" else get_application(app)
        instance = spec.instantiate(scale=0.1, seed=seed)
        self.registry = spec.registry
        self.policy = policy_of(spec.registry)
        self.keyring = Keyring(app, b"k" * 32)
        self.database = instance.database
        self.sampler = instance.sampler
        self.home = HomeServer(
            app, self.database, spec.registry, self.policy, self.keyring
        )
        self.codec = self.home.codec
        self.node = DsspNode()
        self.node.register_remote(app, spec.registry)

    def query(self, envelope: QueryEnvelope) -> ResultEnvelope:
        envelope = _over_the_wire(QueryRequest(envelope)).envelope
        cached = self.node.lookup(envelope)
        if cached is None:
            lease = self.node.lease(envelope)
            forwarded = _over_the_wire(QueryRequest(envelope)).envelope
            answer = self.home.serve_query(forwarded)
            cached = _over_the_wire(QueryResponse(answer, False)).result
            self.node.admit(envelope, cached, lease)
        return _over_the_wire(QueryResponse(cached, True)).result

    def update(self, envelope: UpdateEnvelope) -> int:
        envelope = _over_the_wire(UpdateRequest(envelope)).envelope
        self.node.visible(envelope)
        forwarded = _over_the_wire(UpdateRequest(envelope, origin="dssp"))
        rows = self.home.apply_update(forwarded.envelope)
        self.node.invalidate_for(envelope)
        return rows

    # -- the honest client --------------------------------------------------

    def seal(self, bound, level=None):
        name = bound.template.name
        if hasattr(bound, "select"):
            level = self.policy.query_level(name) if level is None else level
            return self.codec.seal_query(bound, level)
        level = self.policy.update_level(name) if level is None else level
        return self.codec.seal_update(bound, min(level, ExposureLevel.STMT))

    def fresh(self, bound):
        return self.database.execute(bound.select)

    def assert_current(self, bound) -> None:
        served = self.codec.open_result(self.query(self.seal(bound)))
        assert served.equivalent(self.fresh(bound)), bound.template.name

    # -- the oracle's reading of a foreign envelope -------------------------

    def claimed_pair(self, envelope):
        """``(name, params)`` an envelope says, read with the app's keys."""
        if envelope.params is not None:
            return envelope.template_name, envelope.params
        if envelope.sealed_params is not None:
            key = self.keyring.key_for(Purpose.PARAMS)
            return envelope.template_name, tuple(
                json.loads(decrypt(key, envelope.sealed_params))
            )
        key = self.keyring.key_for(Purpose.STATEMENT)
        name, params = json.loads(decrypt(key, envelope.sealed_statement))
        return name, tuple(params)


POLICIES = {
    "stmt": lambda registry: ExposurePolicy.uniform(registry, ExposureLevel.STMT),
    "template": lambda registry: ExposurePolicy.uniform(
        registry, ExposureLevel.TEMPLATE
    ),
    "mixed": lambda registry: design_exposure_policy(registry).final,
}

_scalars = (
    st.none()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=6)
)
_mutations = st.lists(
    st.sampled_from(["name", "params", "level", "token", "kind"]),
    max_size=2,
    unique=True,
)


def _adversarial(hops: Hops, draw, rng: random.Random):
    """An honest operation sealed at any level, then up to two lies."""
    operation = rng.choice(hops.sampler.sample_page(rng))
    envelope = hops.seal(operation.bound, draw(st.sampled_from(LEVELS)))
    registered = [t.name for t in hops.registry.queries + hops.registry.updates]
    for mutation in draw(_mutations):
        if mutation == "name":
            name = draw(st.none() | st.sampled_from(registered) | st.text(max_size=4))
            envelope = replace(envelope, template_name=name)
        elif mutation == "params":
            params = draw(st.none() | st.lists(_scalars, max_size=4).map(tuple))
            envelope = replace(envelope, params=params)
        elif mutation == "level":
            envelope = replace(envelope, level=draw(st.sampled_from(LEVELS)))
        elif mutation == "token":
            token = draw(st.none() | st.binary(max_size=40))
            which = draw(st.sampled_from(["sealed_params", "sealed_statement"]))
            envelope = replace(envelope, **{which: token})
        else:  # the other frame type, same fields
            other = (
                UpdateEnvelope
                if isinstance(envelope, QueryEnvelope)
                else QueryEnvelope
            )
            envelope = other(
                envelope.app_id,
                envelope.level,
                envelope.template_name,
                envelope.params,
                envelope.sealed_params,
                envelope.sealed_statement,
            )
    return envelope


def _check_adversarial_query(hops: Hops, envelope: QueryEnvelope) -> None:
    try:
        answer = hops.query(envelope)
    except (ReproError, TypeError):
        return  # refused, or the engine refused to compare str with int
    name, params = hops.claimed_pair(envelope)
    bound = hops.registry.query(name).bind(params)
    assert hops.codec.open_result(answer).equivalent(hops.fresh(bound))
    exposed = envelope.template_name is not None and (
        hops.policy.query_level(envelope.template_name) is ExposureLevel.VIEW
    )
    assert answer.visible == exposed


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("app", ["toystore", *sorted(APPLICATIONS)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_no_envelope_makes_an_honest_answer_stale(app, policy, data):
    hops = Hops(app, POLICIES[policy])
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    asked = []
    for _ in range(data.draw(st.integers(5, 25))):
        if data.draw(st.booleans()):
            for operation in hops.sampler.sample_page(rng):
                if operation.is_update:
                    try:
                        hops.update(hops.seal(operation.bound))
                    except ReproError:
                        # The sampler believes in rows an operation it gave
                        # the adversary (who mangled it) would have created.
                        pass
                else:
                    hops.assert_current(operation.bound)
                    asked.append(operation.bound)
            continue
        envelope = _adversarial(hops, data.draw, rng)
        if isinstance(envelope, QueryEnvelope):
            _check_adversarial_query(hops, envelope)
        else:
            try:
                hops.update(envelope)
            except (ReproError, TypeError):
                pass
        for bound in asked[-6:]:  # nothing it did may show in honest answers
            hops.assert_current(bound)
    for bound in asked:
        hops.assert_current(bound)


# -- the three forgeries of wire v2, as near as v3 can say them ---------------------


@pytest.fixture
def toystore():
    return Hops("toystore", POLICIES["stmt"])


def test_forgery_1_a_key_cannot_disagree_with_its_statement(toystore):
    """v2: ``cache_key`` said Q2(5), ``statement`` said Q2(6); 6's rows were
    then served for 5 and no update on 5 could invalidate them.  v3 has one
    place to say which statement: the key is derived from it."""
    q2 = toystore.registry.query("Q2")
    five, six = q2.bind([5]), q2.bind([6])
    forged = replace(toystore.seal(six), statement=five.select)  # all that's left
    toystore.query(forged)
    assert forged.identity == toystore.seal(six).identity
    assert toystore.seal(five).identity not in toystore.node.cache
    toystore.assert_current(five)
    delete = toystore.registry.update("U1").bind([5])
    toystore.update(toystore.seal(delete))
    assert toystore.seal(five).identity not in toystore.node.cache
    toystore.assert_current(five)
    toystore.assert_current(six)


def test_forgery_2_a_name_cannot_disagree_with_its_statement():
    """v2: an envelope *named* Q1 (policy: view) carrying a SELECT on
    ``credit_card`` came back as DSSP-visible plaintext.  v3: the name is
    the statement; the card query has its own name and its own policy."""
    spec = toystore_spec()
    secret = next(
        t.name for t in spec.registry.queries if "credit_card" in t.sql
    )
    public = next(
        t.name for t in spec.registry.queries if "credit_card" not in t.sql
    )
    levels = {t.name: ExposureLevel.VIEW for t in spec.registry.queries}
    levels[secret] = ExposureLevel.STMT
    hops = Hops(
        "toystore",
        lambda registry: ExposurePolicy(
            levels, {t.name: ExposureLevel.STMT for t in registry.updates}
        ),
    )
    card = hops.registry.query(secret).bind([1])
    named_public = replace(
        hops.seal(card), template_name=public, statement=card.select
    )
    raw = encode_frame(QueryRequest(named_public))
    assert b"credit_card" not in raw and b"SELECT" not in raw
    try:
        answer = hops.query(named_public)
    except ReproError:
        return  # the public template takes other parameters
    # What ran is the *public* template, bound — never the forged AST.
    opened = hops.codec.open_result(answer)
    expected = hops.fresh(hops.registry.query(public).bind(card.params))
    assert opened.equivalent(expected)
    # And asked for by its real name, the card query stays sealed.
    assert not hops.query(hops.seal(card)).visible


def test_forgery_3_no_statement_outside_the_template_set(toystore):
    """v2: an update named U1 carrying ``DELETE FROM credit_card WHERE
    cid > 0`` emptied the table.  v3: U1 is U1; there is nowhere to put the
    other statement, and a name that is not registered is refused."""
    from repro.sql.parser import parse

    before = {
        table: toystore.database.row_count(table)
        for table in ("toys", "credit_card")
    }
    wipe = parse("DELETE FROM credit_card WHERE cid > 0")
    u1 = toystore.seal(toystore.registry.update("U1").bind([5]))
    forged = replace(u1, statement=wipe)
    assert b"credit_card" not in encode_frame(UpdateRequest(forged))
    toystore.update(forged)  # runs U1(5): one toy, no card
    assert toystore.database.row_count("credit_card") == before["credit_card"]
    assert toystore.database.row_count("toys") == before["toys"] - 1
    with pytest.raises(ReproError):
        toystore.update(replace(u1, template_name="wipe_cards"))
    assert toystore.database.row_count("credit_card") == before["credit_card"]


# -- ``level`` stays a claimed field: lying in it is harmless -----------------------


@pytest.mark.parametrize(
    "policy_level, claimed",
    [
        (ExposureLevel.STMT, ExposureLevel.VIEW),
        (ExposureLevel.VIEW, ExposureLevel.STMT),
    ],
)
def test_lying_about_the_level_stores_nothing_the_home_did_not_reveal(
    policy_level, claimed
):
    hops = Hops(
        "toystore", lambda registry: ExposurePolicy.uniform(registry, policy_level)
    )
    bound = hops.registry.query("Q2").bind([5])
    honest = hops.seal(bound)
    liar = replace(honest, level=claimed)
    answer = hops.query(liar)
    # The home seals by its policy, whatever the envelope claims...
    assert answer.visible == (policy_level is ExposureLevel.VIEW)
    # ...and the one entry (the level is not part of the identity) holds
    # plaintext rows only if both the claim and the home's sealing say so.
    entry = hops.node.cache.get(honest.identity)
    assert liar.identity == honest.identity and len(hops.node.cache) == 1
    assert entry.view_rows is None
    assert entry.result.visible == answer.visible
    hops.update(hops.seal(hops.registry.update("U1").bind([5])))
    hops.assert_current(bound)


def test_a_shape_the_level_does_not_name_never_reaches_a_server(toystore):
    honest = toystore.seal(toystore.registry.query("Q2").bind([5]))
    for lie in (ExposureLevel.BLIND, ExposureLevel.TEMPLATE):
        with pytest.raises(WireError, match="do not fit exposure level"):
            toystore.query(replace(honest, level=lie))
    assert len(toystore.node.cache) == 0
