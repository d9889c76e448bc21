"""The fault plan is a pure function and the log has a canonical order.

Determinism of the whole chaos harness reduces to three local properties
pinned down here: ``FaultPlan.decide`` consumes nothing (same inputs, same
verdict, on any instance with the same seed), flow counters advance per
(direction, frame type) so concurrent links cannot perturb each other,
and the log's canonical ordering is independent of arrival order.  The
home's idempotency log rides along since retry-until-ack leans on it.
"""

from __future__ import annotations

import json

import pytest

from repro.net.chaos import (
    ChaosLog,
    FaultEvent,
    FaultKind,
    FaultPlan,
    _FlowState,
)
from repro.net.home_server import UpdateDedup
from repro.net.wire import FrameType, UpdateResponse
from repro.obs import MetricsRegistry


class TestFaultPlan:
    def test_decide_is_pure_and_seed_stable(self):
        plan_a = FaultPlan(seed=42, drop_rate=0.2, delay_rate=0.2)
        plan_b = FaultPlan(seed=42, drop_rate=0.2, delay_rate=0.2)
        for index in range(200):
            first = plan_a.decide("link", "c2s", int(FrameType.QUERY), index)
            again = plan_a.decide("link", "c2s", int(FrameType.QUERY), index)
            other = plan_b.decide("link", "c2s", int(FrameType.QUERY), index)
            assert first == again == other

    def test_different_seeds_diverge(self):
        plan_a = FaultPlan(seed=1, drop_rate=0.5)
        plan_b = FaultPlan(seed=2, drop_rate=0.5)
        verdicts_a = [
            plan_a.decide("l", "c2s", int(FrameType.QUERY), i).kind
            for i in range(100)
        ]
        verdicts_b = [
            plan_b.decide("l", "c2s", int(FrameType.QUERY), i).kind
            for i in range(100)
        ]
        assert verdicts_a != verdicts_b

    def test_rates_must_not_exceed_one(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, drop_rate=0.6, truncate_rate=0.5)

    def test_uniform_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError):
            FaultPlan.uniform(0, 1.5)

    def test_certain_drop_and_certain_pass(self):
        dropper = FaultPlan(seed=0, drop_rate=1.0)
        quiet = FaultPlan(seed=0)
        for index in range(50):
            assert (
                dropper.decide("l", "s2c", int(FrameType.RESULT), index).kind
                is FaultKind.DROP
            )
            assert (
                quiet.decide("l", "s2c", int(FrameType.RESULT), index).kind
                is FaultKind.PASS
            )

    def test_duplicate_only_for_c2s_requests(self):
        plan = FaultPlan(seed=0, duplicate_rate=1.0)
        assert (
            plan.decide("l", "c2s", int(FrameType.QUERY), 0).kind
            is FaultKind.DUPLICATE
        )
        assert (
            plan.decide("l", "c2s", int(FrameType.UPDATE), 0).kind
            is FaultKind.DUPLICATE
        )
        # Responses and stream frames are never duplicated: the client
        # expects exactly one answer per request.
        assert (
            plan.decide("l", "s2c", int(FrameType.RESULT), 0).kind
            is FaultKind.PASS
        )
        assert (
            plan.decide("l", "c2s", int(FrameType.SUBSCRIBE), 0).kind
            is FaultKind.PASS
        )

    def test_delay_bounded_by_max_delay(self):
        plan = FaultPlan(seed=3, delay_rate=1.0, max_delay_s=0.01)
        for index in range(50):
            decision = plan.decide("l", "c2s", int(FrameType.QUERY), index)
            assert decision.kind is FaultKind.DELAY
            assert 0.0 <= decision.delay_s <= 0.01

    def test_truncate_keep_fraction_in_unit_interval(self):
        plan = FaultPlan(seed=3, truncate_rate=1.0)
        for index in range(50):
            decision = plan.decide("l", "s2c", int(FrameType.RESULT), index)
            assert decision.kind is FaultKind.TRUNCATE
            assert 0.0 <= decision.keep_fraction < 1.0

    def test_kill_schedule_round_robins_targets(self):
        plan = FaultPlan(
            seed=0, kill_every=4, kill_targets=("dssp-0", "home")
        )
        assert plan.kill_target(0) is None  # never before the first op
        assert plan.kill_target(3) is None
        assert plan.kill_target(4) == "dssp-0"
        assert plan.kill_target(8) == "home"
        assert plan.kill_target(12) == "dssp-0"

    def test_kill_disabled_without_schedule_or_targets(self):
        assert FaultPlan(seed=0).kill_target(4) is None
        assert FaultPlan(seed=0, kill_every=4).kill_target(4) is None


class TestFlowState:
    def test_counters_advance_per_direction_and_type(self):
        flow = _FlowState()
        assert flow.next_index("c2s", 1) == 0
        assert flow.next_index("c2s", 1) == 1
        assert flow.next_index("c2s", 2) == 0  # independent per type
        assert flow.next_index("s2c", 1) == 0  # independent per direction
        assert flow.next_index("c2s", 1) == 2


class TestChaosLog:
    @staticmethod
    def event(index: int, kind: str = "drop") -> FaultEvent:
        return FaultEvent(
            link="l", direction="c2s", frame_type=1, index=index, kind=kind
        )

    def test_canonical_order_ignores_arrival_order(self):
        forward, backward = ChaosLog(), ChaosLog()
        events = [self.event(i) for i in range(5)]
        for item in events:
            forward.append(item)
        for item in reversed(events):
            backward.append(item)
        assert forward.canonical() == backward.canonical()
        assert forward.events != backward.events

    def test_counts_and_json(self):
        log = ChaosLog()
        log.append(self.event(0, "drop"))
        log.append(self.event(1, "delay"))
        log.append(self.event(2, "drop"))
        assert log.counts() == {"delay": 1, "drop": 2}
        payload = json.loads(log.to_json())
        assert payload["counts"] == {"delay": 1, "drop": 2}
        assert [e["index"] for e in payload["events"]] == [0, 1, 2]
        assert len(log) == 3

    def test_metrics_counters_track_kinds(self):
        metrics = MetricsRegistry()
        log = ChaosLog(metrics)
        log.append(self.event(0, "drop"))
        log.append(self.event(1, "drop"))
        assert metrics.counter("chaos.drop").value == 2


class TestUpdateDedup:
    ACK = UpdateResponse(rows_affected=1, invalidated=2)

    def test_remembers_ack_for_same_request(self):
        dedup = UpdateDedup()
        assert dedup.get("rid", "op-a") is None
        dedup.put("rid", "op-a", self.ACK)
        assert dedup.get("rid", "op-a") == self.ACK
        assert dedup.hits == 1

    def test_id_reuse_by_different_update_is_not_deduped(self):
        dedup = UpdateDedup()
        dedup.put("rid", "op-a", self.ACK)
        assert dedup.get("rid", "op-b") is None
        assert dedup.hits == 0

    def test_capacity_evicts_least_recently_seen(self):
        dedup = UpdateDedup(capacity=2)
        dedup.put("r1", "o1", self.ACK)
        dedup.put("r2", "o2", self.ACK)
        assert dedup.get("r1", "o1") is not None  # refresh r1
        dedup.put("r3", "o3", self.ACK)  # evicts r2
        assert dedup.get("r2", "o2") is None
        assert dedup.get("r1", "o1") is not None
        assert dedup.get("r3", "o3") is not None
        assert len(dedup) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            UpdateDedup(capacity=0)
