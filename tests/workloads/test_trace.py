"""Tests for workload trace record/replay."""

import random

import pytest

from repro.errors import WorkloadError
from repro.workloads import get_application, toystore_spec
from repro.workloads.trace import Trace, record_trace


@pytest.fixture
def toystore_instance():
    return toystore_spec().instantiate(scale=0.3, seed=2)


class TestRecord:
    def test_records_requested_pages(self, toystore_instance):
        trace = record_trace(toystore_instance.sampler, pages=20, seed=1)
        assert len(trace) == 20

    def test_recording_is_deterministic(self):
        a = record_trace(
            toystore_spec().instantiate(scale=0.3, seed=2).sampler, 15, seed=9
        )
        b = record_trace(
            toystore_spec().instantiate(scale=0.3, seed=2).sampler, 15, seed=9
        )
        assert a.pages == b.pages


class TestReplay:
    def test_replay_matches_recording(self, toystore_instance):
        spec = toystore_spec()
        trace = record_trace(toystore_instance.sampler, 10, seed=3)
        trace.bind(spec.registry)
        for recorded_page in trace.iter_pages():
            replayed = trace.sample_page(random.Random(0))
            assert len(replayed) == len(recorded_page)
            for op, (kind, name, params) in zip(replayed, recorded_page):
                assert op.is_update == (kind == "update")
                assert op.bound.template.name == name
                assert list(op.bound.params) == params

    def test_replay_wraps_around(self, toystore_instance):
        spec = toystore_spec()
        trace = record_trace(toystore_instance.sampler, 3, seed=3)
        trace.bind(spec.registry)
        pages = [trace.sample_page() for _ in range(7)]
        assert len(pages) == 7  # cycles past the recorded length

    def test_replay_without_bind_rejected(self, toystore_instance):
        trace = record_trace(toystore_instance.sampler, 2, seed=3)
        with pytest.raises(WorkloadError, match="bind"):
            trace.sample_page()

    def test_empty_trace_rejected(self):
        trace = Trace(application="x", pages=[])
        trace.bind(toystore_spec().registry)
        with pytest.raises(WorkloadError, match="empty"):
            trace.sample_page()


class TestSerialization:
    def test_json_round_trip(self, toystore_instance):
        trace = record_trace(
            toystore_instance.sampler, 8, seed=4, application="toystore"
        )
        loaded = Trace.from_json(trace.to_json())
        assert loaded.application == "toystore"
        assert loaded.pages == trace.pages

    def test_malformed_json_rejected(self):
        with pytest.raises(WorkloadError, match="malformed"):
            Trace.from_json("{not json")

    def test_wrong_version_rejected(self):
        with pytest.raises(WorkloadError, match="version"):
            Trace.from_json('{"version": 99, "application": "x", "pages": []}')

    def test_param_types_survive_json(self):
        """int vs str params must not blur through serialization — the
        DSSP cache keys on exact parameter values."""
        trace = Trace(
            application="toystore",
            pages=[
                [
                    ("query", "Q1", ["toy5"]),
                    ("query", "Q2", [5]),
                    ("update", "U1", [5]),
                ]
            ],
        )
        loaded = Trace.from_json(trace.to_json())
        ((q1, q2, u1),) = loaded.pages
        assert q1[2] == ["toy5"] and isinstance(q1[2][0], str)
        assert q2[2] == [5] and isinstance(q2[2][0], int)
        assert u1[2] == [5]

    def test_file_persistence_round_trip(self, toystore_instance, tmp_path):
        """The loadgen's --trace file workflow: record, save, reload, replay."""
        spec = toystore_spec()
        trace = record_trace(
            toystore_instance.sampler, 6, seed=4, application="toystore"
        )
        path = tmp_path / "trace.json"
        path.write_text(trace.to_json())
        loaded = Trace.from_json(path.read_text()).bind(spec.registry)
        assert loaded.pages == trace.pages
        replayed = [loaded.sample_page() for _ in range(len(loaded))]
        assert [len(page) for page in replayed] == [
            len(page) for page in trace.pages
        ]

    def test_round_trip_preserves_replay_semantics(self, toystore_instance):
        """Binding a deserialized trace yields the same bound operations."""
        spec = toystore_spec()
        original = record_trace(toystore_instance.sampler, 5, seed=11)
        original.bind(spec.registry)
        reloaded = Trace.from_json(original.to_json()).bind(spec.registry)
        for _ in range(5):
            for a, b in zip(original.sample_page(), reloaded.sample_page()):
                assert a.is_update == b.is_update
                assert a.bound.template.name == b.bound.template.name
                assert list(a.bound.params) == list(b.bound.params)


class TestCrossStrategyFairness:
    def test_same_trace_drives_both_deployments(self):
        """A trace makes strategy comparisons operation-identical."""
        from repro.dssp import StrategyClass
        from repro.simulation.sweep import SweepTask, deploy

        spec = get_application("bookstore")
        recorder = spec.instantiate(scale=0.15, seed=6)
        trace = record_trace(recorder.sampler, 60, seed=7)

        streams = []
        for strategy in (StrategyClass.MVIS, StrategyClass.MBS):
            node, home, _ = deploy(
                SweepTask("bookstore", strategy, scale=0.15, data_seed=6)
            )
            replay = Trace.from_json(trace.to_json()).bind(spec.registry)
            seen = []
            for _ in range(len(replay)):
                for operation in replay.sample_page():
                    seen.append(
                        (operation.bound.template.name, operation.bound.params)
                    )
                    if operation.is_update:
                        level = home.policy.update_level(
                            operation.bound.template.name
                        )
                        node.update(
                            home.codec.seal_update(operation.bound, level)
                        )
                    else:
                        level = home.policy.query_level(
                            operation.bound.template.name
                        )
                        node.query(home.codec.seal_query(operation.bound, level))
            streams.append(seen)
        assert streams[0] == streams[1]  # literally identical op streams
