"""Unit tests for span recording: sampling, ambient context, bounds."""

from __future__ import annotations

import asyncio
import itertools
import json

import pytest

from repro.obs import (
    NOOP_SPAN,
    Span,
    SpanRecorder,
    SpanSink,
    current_trace_id,
    span,
    trace_sampled,
)
from repro.obs import trace as trace_module
from repro.obs.trace import MAX_ATTRS, MAX_VALUE_CHARS, PHASES


class TestSampling:
    def test_rate_one_keeps_everything(self):
        assert all(trace_sampled(f"{i:016x}", 1.0) for i in range(50))

    def test_rate_zero_drops_everything(self):
        assert not any(trace_sampled(f"{i:016x}", 0.0) for i in range(50))

    def test_deterministic_across_calls(self):
        ids = [f"{i:016x}" for i in range(200)]
        first = [trace_sampled(tid, 0.3) for tid in ids]
        second = [trace_sampled(tid, 0.3) for tid in ids]
        assert first == second

    def test_rate_controls_fraction(self):
        ids = [f"{i:016x}" for i in range(2000)]
        kept = sum(trace_sampled(tid, 0.1) for tid in ids)
        assert 100 < kept < 320  # ~200 expected

    def test_lower_rate_samples_subset(self):
        """Head sampling is monotone: every trace kept at 5% is also kept
        at 20% — nodes at different rates still agree on the 5% core."""
        ids = [f"{i:016x}" for i in range(500)]
        low = {tid for tid in ids if trace_sampled(tid, 0.05)}
        high = {tid for tid in ids if trace_sampled(tid, 0.20)}
        assert low <= high


class TestSpanAttrs:
    def test_non_scalar_values_reduced_to_type_name(self):
        recorded = Span("t", "1", None, "n", "node", 0.0)
        recorded.set("rows", [("alice", "4111")])
        recorded.set("stmt", {"sql": "SELECT *"})
        assert recorded.attrs == {"rows": "<list>", "stmt": "<dict>"}

    def test_string_values_truncated(self):
        recorded = Span("t", "1", None, "n", "node", 0.0)
        recorded.set("k", "x" * 500)
        assert len(recorded.attrs["k"]) == MAX_VALUE_CHARS

    def test_attr_count_bounded(self):
        recorded = Span("t", "1", None, "n", "node", 0.0)
        for i in range(MAX_ATTRS + 10):
            recorded.set(f"key{i}", i)
        assert len(recorded.attrs) == MAX_ATTRS

    def test_round_trip_through_dict(self):
        original = Span("t", "7", "3", "phase", "node", 12.5, 0.25)
        original.set("hit", True)
        original.status = "error"
        restored = Span.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert restored.trace_id == "t"
        assert restored.parent_id == "3"
        assert restored.attrs == {"hit": True}
        assert restored.status == "error"


class TestRecorder:
    def test_disabled_without_sink(self):
        recorder = SpanRecorder("node")
        assert not recorder.enabled
        with recorder.trace("a" * 16, "server.handle") as current:
            assert current is NOOP_SPAN

    def test_trace_emits_to_sink(self):
        sink = SpanSink()
        recorder = SpanRecorder("node", sink)
        with recorder.trace("a" * 16, "server.handle", frame="Q") as current:
            assert current.recorded
        assert len(sink) == 1
        emitted = sink.spans[0]
        assert emitted.name == "server.handle"
        assert emitted.node == "node"
        assert emitted.attrs == {"frame": "Q"}
        assert emitted.duration_s >= 0.0

    def test_exception_marks_error_and_still_emits(self):
        sink = SpanSink()
        recorder = SpanRecorder("node", sink)
        with pytest.raises(RuntimeError):
            with recorder.trace("a" * 16, "server.handle"):
                raise RuntimeError("boom")
        assert sink.spans[0].status == "error"

    def test_ambient_child_nests_under_active_span(self):
        sink = SpanSink()
        recorder = SpanRecorder("node", sink)
        with recorder.trace("a" * 16, "server.handle") as root:
            with span("dssp.cache_lookup", hit=False) as child:
                assert child.parent_id == root.span_id
                assert current_trace_id() == "a" * 16
        names = [emitted.name for emitted in sink.spans]
        assert names == ["dssp.cache_lookup", "server.handle"]

    def test_nested_trace_same_id_becomes_child(self):
        """A nested client call on a node (the DSSP's forward) parents
        under the active server span when the trace id matches."""
        sink = SpanSink()
        recorder = SpanRecorder("node", sink)
        with recorder.trace("a" * 16, "server.handle") as outer:
            with recorder.trace("a" * 16, "client.request") as inner:
                assert inner.parent_id == outer.span_id

    def test_nested_trace_different_id_is_root(self):
        sink = SpanSink()
        recorder = SpanRecorder("node", sink)
        with recorder.trace("a" * 16, "server.handle"):
            with recorder.trace("b" * 16, "server.handle") as other:
                assert other.parent_id is None

    def test_module_span_is_noop_outside_any_trace(self):
        with span("dssp.cache_lookup") as current:
            assert current is NOOP_SPAN
        assert current_trace_id() is None

    def test_unsampled_trace_records_nothing_including_children(self):
        sink = SpanSink()
        recorder = SpanRecorder("node", sink, sample_rate=0.0)
        with recorder.trace("a" * 16, "server.handle") as current:
            assert current is NOOP_SPAN
            with span("dssp.cache_lookup") as child:
                assert child is NOOP_SPAN
        assert len(sink) == 0

    def test_record_emits_directly(self):
        sink = SpanSink()
        recorder = SpanRecorder("home", sink)
        recorder.record(
            "a" * 16, "home.push_send", start_s=100.0, duration_s=0.01,
            subscriber="dssp-1",
        )
        emitted = sink.spans[0]
        assert emitted.name == "home.push_send"
        assert emitted.start_s == 100.0
        assert emitted.parent_id is None

    def test_context_isolated_across_asyncio_tasks(self):
        """Two concurrent requests never see each other's ambient span."""
        sink = SpanSink()
        recorder = SpanRecorder("node", sink)

        async def handle(trace_id):
            with recorder.trace(trace_id, "server.handle") as root:
                await asyncio.sleep(0.001)
                with span("dssp.cache_lookup") as child:
                    assert child.trace_id == trace_id
                    assert child.parent_id == root.span_id
                await asyncio.sleep(0.001)

        async def main():
            await asyncio.gather(handle("a" * 16), handle("b" * 16))

        asyncio.run(main())
        by_trace = {}
        for emitted in sink.spans:
            by_trace.setdefault(emitted.trace_id, set()).add(emitted.name)
        assert by_trace == {
            "a" * 16: {"server.handle", "dssp.cache_lookup"},
            "b" * 16: {"server.handle", "dssp.cache_lookup"},
        }


class TestSink:
    def test_writes_json_lines(self, tmp_path):
        path = tmp_path / "spans" / "node.jsonl"
        sink = SpanSink(path)
        recorder = SpanRecorder("node", sink)
        with recorder.trace("a" * 16, "server.handle"):
            pass
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["trace"] == "a" * 16
        assert record["name"] == "server.handle"

    def test_buffer_bounded(self):
        sink = SpanSink(buffer_limit=3)
        recorder = SpanRecorder("node", sink)
        for i in range(10):
            with recorder.trace(f"{i:016x}", "server.handle"):
                pass
        assert len(sink) == 3

    def test_known_phase_names_are_the_instrumented_vocabulary(self):
        assert "server.handle" in PHASES
        assert "storage.execute" in PHASES
        assert "dssp.stream_apply" in PHASES


class TestOffMeansFree:
    """A disabled or unsampled recorder hands back the one shared no-op."""

    def test_sinkless_trace_is_the_shared_noop(self):
        recorder = SpanRecorder("node")
        assert recorder.trace("a" * 16, "server.handle", frame="Q") is NOOP_SPAN

    def test_unsampled_and_idless_traces_are_the_shared_noop(self):
        recorder = SpanRecorder("node", SpanSink(), sample_rate=0.0)
        assert recorder.trace("a" * 16, "server.handle") is NOOP_SPAN
        assert SpanRecorder("node", SpanSink()).trace(None, "x") is NOOP_SPAN

    def test_module_span_outside_a_trace_is_the_shared_noop(self):
        assert span("dssp.cache_lookup", hit=True) is NOOP_SPAN

    def test_noop_is_its_own_context_manager_and_reraises(self):
        with NOOP_SPAN as current:
            assert current is NOOP_SPAN
        with pytest.raises(RuntimeError):
            with NOOP_SPAN:
                raise RuntimeError("boom")


#: Span log of the scenario below as written by the generator-based
#: ``trace()``/``span()`` this module had before they became plain
#: functions, under the same fake clocks.
GOLDEN_SPAN_LOG = (
    '{"trace":"aaaaaaaaaaaaaaaa","span":"00000002","name":"dssp.cache_lookup",'
    '"node":"dssp-0","ts":1001.0,"dur":0.001,"parent":"00000001",'
    '"attrs":{"hit":false,"rows":"<tuple>"}}\n'
    '{"trace":"aaaaaaaaaaaaaaaa","span":"00000004","name":"client.exchange",'
    '"node":"dssp-0","ts":1003.0,"dur":0.001,"parent":"00000003",'
    '"attrs":{"attempt":0}}\n'
    '{"trace":"aaaaaaaaaaaaaaaa","span":"00000003","name":"client.request",'
    '"node":"dssp-0","ts":1002.0,"dur":0.003,"parent":"00000001"}\n'
    '{"trace":"aaaaaaaaaaaaaaaa","span":"00000001","name":"server.handle",'
    '"node":"dssp-0","ts":1000.0,"dur":0.007,'
    '"attrs":{"frame":"QueryRequest","error":"timeout"}}\n'
    '{"trace":"bbbbbbbbbbbbbbbb","span":"00000005","name":"server.decode",'
    '"node":"dssp-0","ts":1004.0,"dur":0.001,"status":"error"}\n'
    '{"trace":"aaaaaaaaaaaaaaaa","span":"00000006","name":"home.push_send",'
    '"node":"dssp-0","ts":5.0,"dur":0.25,"attrs":{"batch":2}}\n'
)


class _FakeClock:
    def __init__(self) -> None:
        self._wall = itertools.count(1000)
        self._ticks = itertools.count(0)

    def time(self) -> float:
        return float(next(self._wall))

    def perf_counter(self) -> float:
        return next(self._ticks) * 0.001


def test_enabled_span_log_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setattr(trace_module, "time", _FakeClock())
    path = tmp_path / "spans.jsonl"
    recorder = SpanRecorder("dssp-0", SpanSink(path))
    rid = "a" * 16
    with recorder.trace(rid, "server.handle", frame="QueryRequest") as root:
        with span("dssp.cache_lookup", hit=False) as child:
            child.set("rows", (1, 2))
        with recorder.trace(rid, "client.request"):
            with span("client.exchange", attempt=0):
                pass
        root.set("error", "timeout")
    with pytest.raises(RuntimeError):
        with recorder.trace("b" * 16, "server.decode"):
            raise RuntimeError("boom")
    with recorder.trace(None, "server.handle"):
        with span("dssp.cache_lookup"):
            pass
    recorder.record(
        rid, "home.push_send", start_s=5.0, duration_s=0.25, batch=2
    )
    recorder.close()
    assert path.read_text() == GOLDEN_SPAN_LOG
