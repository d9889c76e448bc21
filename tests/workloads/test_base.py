"""Unit tests for the workload base classes."""

import random

import pytest

from repro.errors import WorkloadError
from repro.workloads import simple_toystore_spec, toystore_spec
from repro.workloads.base import Operation, PageClass, PageSampler


class TestOperation:
    def test_query_wrapper(self, simple_toystore):
        bound = simple_toystore.query("Q2").bind([1])
        operation = Operation.query(bound)
        assert not operation.is_update
        assert operation.bound is bound

    def test_update_wrapper(self, simple_toystore):
        bound = simple_toystore.update("U1").bind([1])
        operation = Operation.update(bound)
        assert operation.is_update


class TestPageSampler:
    def test_empty_mix_rejected(self, simple_toystore):
        with pytest.raises(WorkloadError):
            PageSampler(simple_toystore, [])

    def test_weighted_selection(self, simple_toystore):
        pages = [
            PageClass("always", 1.0, lambda s, rng: [s.query("Q2", 1)]),
            PageClass("never", 0.0, lambda s, rng: [s.update("U1", 1)]),
        ]
        sampler = PageSampler(simple_toystore, pages)
        rng = random.Random(0)
        for _ in range(50):
            page = sampler.sample_page(rng)
            assert not page[0].is_update

    def test_helper_binding(self, simple_toystore):
        pages = [PageClass("x", 1.0, lambda s, rng: [])]
        sampler = PageSampler(simple_toystore, pages)
        operation = sampler.query("Q1", "toy1")
        assert operation.bound.sql == "SELECT toy_id FROM toys WHERE toy_name = 'toy1'"


class TestAppSpec:
    def test_invalid_scale_rejected(self):
        with pytest.raises(WorkloadError):
            toystore_spec().instantiate(scale=0)

    def test_instances_are_independent(self):
        spec = simple_toystore_spec()
        a = spec.instantiate(scale=0.3, seed=1)
        b = spec.instantiate(scale=0.3, seed=1)
        a.database.apply(
            spec.registry.update("U1").bind([1]).statement
        )
        assert a.database.row_count("toys") == b.database.row_count("toys") - 1

    def test_sampler_keeps_registry(self):
        instance = toystore_spec().instantiate(scale=0.3, seed=1)
        assert instance.sampler.registry is instance.spec.registry

    def test_unknown_application_raises(self):
        from repro.workloads import get_application

        with pytest.raises(KeyError):
            get_application("nosuchapp")
