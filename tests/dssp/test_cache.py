"""Unit tests for the view cache."""

import pytest

from repro.analysis.exposure import ExposureLevel
from repro.crypto import EnvelopeCodec, Keyring
from repro.dssp.cache import ViewCache
from repro.errors import CacheError
from repro.storage.rows import ResultSet


@pytest.fixture
def codec():
    return EnvelopeCodec(Keyring("app", b"k" * 32))


@pytest.fixture
def make_entry(codec, simple_toystore):
    def build(cache, template="Q2", params=(5,), level=ExposureLevel.STMT):
        bound = simple_toystore.query(template).bind(list(params))
        envelope = codec.seal_query(bound, level)
        result = codec.seal_result(ResultSet(("qty",), ((10,),)), level)
        visible = bound if level >= ExposureLevel.STMT else None
        return cache.put(envelope, result, visible), envelope

    return build


class TestPutGet:
    def test_miss_returns_none(self):
        assert ViewCache().get(("app", "Q2", (404,))) is None

    def test_put_then_get(self, make_entry):
        cache = ViewCache()
        entry, envelope = make_entry(cache)
        assert cache.get(envelope.identity) is entry
        assert len(cache) == 1

    def test_put_same_key_overwrites(self, make_entry):
        cache = ViewCache()
        make_entry(cache)
        make_entry(cache)
        assert len(cache) == 1

    def test_app_mismatch_rejected(self, codec, simple_toystore):
        cache = ViewCache()
        bound = simple_toystore.query("Q2").bind([5])
        envelope = codec.seal_query(bound, ExposureLevel.STMT)
        other = EnvelopeCodec(Keyring("other", b"o" * 32))
        result = other.seal_result(ResultSet(("qty",), ()), ExposureLevel.STMT)
        with pytest.raises(CacheError):
            cache.put(envelope, result)

    def test_view_rows_only_stored_at_view_level(self, make_entry):
        cache = ViewCache()
        stmt_entry, _ = make_entry(cache, params=(5,), level=ExposureLevel.STMT)
        view_entry, _ = make_entry(cache, params=(7,), level=ExposureLevel.VIEW)
        assert stmt_entry.view_rows is None
        assert view_entry.view_rows is not None


class TestBuckets:
    def test_bucketing_by_template(self, make_entry):
        cache = ViewCache()
        make_entry(cache, template="Q1", params=("a",))
        make_entry(cache, template="Q2", params=(1,))
        make_entry(cache, template="Q2", params=(2,))
        assert len(cache.bucket("app", "Q2")) == 2
        assert len(cache.bucket("app", "Q1")) == 1

    def test_blind_entries_bucket_under_none(self, make_entry):
        cache = ViewCache()
        make_entry(cache, level=ExposureLevel.BLIND)
        assert len(cache.bucket("app", None)) == 1
        assert cache.bucket_names("app") == (None,)

    def test_invalidate_bucket(self, make_entry):
        cache = ViewCache()
        make_entry(cache, template="Q2", params=(1,))
        make_entry(cache, template="Q2", params=(2,))
        make_entry(cache, template="Q1", params=("a",))
        assert cache.invalidate_bucket("app", "Q2") == 2
        assert len(cache) == 1

    def test_invalidate_app(self, make_entry):
        cache = ViewCache()
        make_entry(cache, template="Q2", params=(1,))
        make_entry(cache, template="Q1", params=("a",))
        assert cache.invalidate_app("app") == 2
        assert len(cache) == 0

    def test_bucket_names_skips_empty(self, make_entry):
        cache = ViewCache()
        _, envelope = make_entry(cache, template="Q2", params=(1,))
        cache.invalidate(envelope.identity)
        assert cache.bucket_names("app") == ()


class TestInvalidation:
    def test_invalidate_missing_returns_false(self):
        assert not ViewCache().invalidate(("app", "Q2", (404,)))

    def test_invalidate_many_counts_existing(self, make_entry):
        cache = ViewCache()
        _, e1 = make_entry(cache, params=(1,))
        _, e2 = make_entry(cache, params=(2,))
        n = cache.invalidate_many([e1.identity, e2.identity, ("app", "Q2", (404,))])
        assert n == 2

    def test_clear(self, make_entry):
        cache = ViewCache()
        make_entry(cache)
        cache.clear()
        assert len(cache) == 0


class TestCapacity:
    def test_lru_eviction(self, make_entry):
        cache = ViewCache(capacity=2)
        _, e1 = make_entry(cache, params=(1,))
        _, e2 = make_entry(cache, params=(2,))
        cache.get(e1.identity)  # touch e1 so e2 is the LRU victim
        make_entry(cache, params=(3,))
        assert e1.identity in cache
        assert e2.identity not in cache
        assert len(cache) == 2
