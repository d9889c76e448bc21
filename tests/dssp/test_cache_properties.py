"""Property-based invariants of the O(1) ViewCache (hypothesis).

A reference model (an OrderedDict of key → (app, template) in recency
order, evicting from the front) is driven in lockstep with the real cache
through random interleavings of puts, touches, and the three invalidation
entry points.  Keys are the identities the cache derives from real
``(template, params)`` envelopes.  The invariants checked after every
step:

* the template buckets exactly partition the live keys (no stale
  membership after a refresh, no empty buckets left behind);
* the per-app index agrees with the entries;
* capacity is never exceeded and eviction follows access order (any
  divergence from true LRU shows up as a membership mismatch against the
  model);
* ``invalidate_*`` return counts equal the number of entries dropped;
* the predicate index's posting count equals the postings recomputed from
  the resident entries (``app-a`` has an indexer, ``app-b`` none).
"""

from collections import OrderedDict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.analysis.exposure import ExposureLevel
from repro.crypto.envelope import QueryEnvelope, ResultEnvelope
from repro.dssp.cache import ViewCache
from repro.dssp.predicate_index import PredicateIndexer
from repro.dssp.stats import DsspStats

from tests.dssp.index_utils import REGISTRY, assert_index_consistent

APPS = ("app-a", "app-b")
#: Blind, one pinned attribute, two (one sometimes NULL), refused aggregate.
TEMPLATES = (None, "point", "multi", "total")
NUMBERS = range(6)

apps = st.sampled_from(APPS)
templates = st.sampled_from(TEMPLATES)


def _put_args(app: str, number: int, template: str | None):
    """A real envelope for statement ``number`` of ``template``, with what
    the admitting node would have bound; number 3 hides its parameters (an
    entry admitted at ``template`` exposure)."""
    result = ResultEnvelope(app_id=app, ciphertext=b"sealed")
    if template is None:
        token = f"statement-{number}".encode()
        blind = QueryEnvelope(app, ExposureLevel.BLIND, sealed_statement=token)
        return blind, result, None
    if number == 3:
        token = f"params-{number}".encode()
        return (
            QueryEnvelope(app, ExposureLevel.TEMPLATE, template, sealed_params=token),
            result,
            None,
        )
    params = {
        "point": (number,),
        "multi": ("xy"[number % 2], ("a", "b", None)[number % 3]),
        "total": ("ab"[number % 2],),
    }[template]
    envelope = QueryEnvelope(app, ExposureLevel.STMT, template, params)
    return envelope, result, REGISTRY.query(template).bind(params)


SLOTS = tuple(
    (app, number, template)
    for app in APPS
    for number in NUMBERS
    for template in TEMPLATES
)
KEYS = tuple(dict.fromkeys(_put_args(*slot)[0].identity for slot in SLOTS))
keys = st.sampled_from(KEYS)
slots = st.sampled_from(SLOTS)


class CacheMachine(RuleBasedStateMachine):
    @initialize(capacity=st.sampled_from((None, 1, 2, 3, 5, 8)))
    def setup(self, capacity):
        self.capacity = capacity
        self.stats = DsspStats()
        self.cache = ViewCache(capacity=capacity, stats=self.stats)
        self.indexer = PredicateIndexer(REGISTRY)
        self.cache.register_indexer("app-a", self.indexer)
        #: key → (app, template) in recency order (LRU first).
        self.model: OrderedDict[tuple, tuple[str, str | None]] = OrderedDict()
        self.model_evictions = 0

    # -- operations ---------------------------------------------------------

    @rule(slot=slots)
    def put(self, slot):
        app, _, template = slot
        envelope, result, bound = _put_args(*slot)
        key = self.cache.put(envelope, result, bound).key
        assert key == envelope.identity
        self.model[key] = (app, template)
        self.model.move_to_end(key)
        if self.capacity is not None:
            while len(self.model) > self.capacity:
                self.model.popitem(last=False)
                self.model_evictions += 1

    @rule(key=keys)
    def get(self, key):
        entry = self.cache.get(key)
        if key in self.model:
            app, template = self.model[key]
            assert entry is not None
            assert (entry.app_id, entry.template_name) == (app, template)
            self.model.move_to_end(key)
        else:
            assert entry is None

    @rule(key=keys)
    def invalidate(self, key):
        existed = self.cache.invalidate(key)
        assert existed == (key in self.model)
        self.model.pop(key, None)

    @rule(app=apps, template=templates)
    def invalidate_bucket(self, app, template):
        expected = [
            key
            for key, identity in self.model.items()
            if identity == (app, template)
        ]
        count = self.cache.invalidate_bucket(app, template)
        assert count == len(expected)
        for key in expected:
            del self.model[key]

    @rule(app=apps)
    def invalidate_app(self, app):
        expected = [
            key for key, (owner, _) in self.model.items() if owner == app
        ]
        count = self.cache.invalidate_app(app)
        assert count == len(expected)
        for key in expected:
            del self.model[key]

    @rule()
    def clear(self):
        self.cache.clear()
        self.model.clear()

    # -- invariants ---------------------------------------------------------

    @invariant()
    def membership_matches_model(self):
        assert len(self.cache) == len(self.model)
        for key in KEYS:
            assert (key in self.cache) == (key in self.model)

    @invariant()
    def capacity_respected(self):
        if self.capacity is not None:
            assert len(self.cache) <= self.capacity

    @invariant()
    def buckets_partition_live_keys(self):
        seen: set[tuple] = set()
        for app in APPS:
            for name in self.cache.bucket_names(app):
                entries = self.cache.bucket(app, name)
                assert entries, "empty bucket left unpruned"
                for entry in entries:
                    assert entry.key not in seen, "key in two buckets"
                    seen.add(entry.key)
                    assert self.model[entry.key] == (app, name)
        assert seen == set(self.model)

    @invariant()
    def app_index_matches_model(self):
        for app in APPS:
            expected = {
                key for key, (owner, _) in self.model.items() if owner == app
            }
            got = {entry.key for entry in self.cache.entries_for_app(app)}
            assert got == expected

    @invariant()
    def eviction_counter_matches_model(self):
        assert self.stats.evictions == self.model_evictions

    @invariant()
    def postings_match_resident_entries(self):
        expected = 0
        for entry in self.cache.entries_for_app("app-a"):
            name = entry.template_name
            if name is None or self.indexer.query_attributes(name) is None:
                continue  # blind or refused bucket: unindexed
            # A stmt-level key is (app, template, params).
            values = entry.statement and self.indexer.entry_values(
                name, entry.key[2]
            )
            expected += sum(map(len, values.values())) if values else 1
        assert self.cache.index_postings() == expected
        assert_index_consistent(self.cache)


TestCacheProperties = CacheMachine.TestCase
TestCacheProperties.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
