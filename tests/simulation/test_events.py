"""Unit tests for the discrete-event simulator core."""

import pytest

from repro.errors import SimulationError
from repro.simulation.events import Simulator
from repro.simulation.servers import Station


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        fired = []
        for label in "abc":
            sim.schedule(1.0, lambda label=label: fired.append(label))
        sim.run_until(2.0)
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [2.5]
        assert sim.now == 10.0

    def test_events_beyond_horizon_not_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.run_until(4.0)
        assert fired == []
        assert sim.pending == 1

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(sim.now)
            sim.schedule(1.0, lambda: fired.append(sim.now))

        sim.schedule(1.0, first)
        sim.run_until(5.0)
        assert fired == [1.0, 2.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)


class TestStation:
    def test_single_worker_serializes(self):
        sim = Simulator()
        station = Station(sim, workers=1)
        done = []
        station.submit(1.0, lambda: done.append(sim.now))
        station.submit(1.0, lambda: done.append(sim.now))
        sim.run_until(10.0)
        assert done == [1.0, 2.0]  # second job queued behind first

    def test_two_workers_parallelize(self):
        sim = Simulator()
        station = Station(sim, workers=2)
        done = []
        station.submit(1.0, lambda: done.append(sim.now))
        station.submit(1.0, lambda: done.append(sim.now))
        sim.run_until(10.0)
        assert done == [1.0, 1.0]

    def test_jobs_queue_behind_the_one_worker(self):
        sim = Simulator()
        station = Station(sim, workers=1)
        done = []
        for _ in range(3):
            station.submit(1.0, lambda: done.append(sim.now))
        sim.run_until(10.0)
        assert done == [1.0, 2.0, 3.0]
        assert station.jobs_completed == 3

    def test_utilization(self):
        sim = Simulator()
        station = Station(sim, workers=1)
        station.submit(2.0, lambda: None)
        sim.run_until(10.0)
        assert station.utilization(10.0) == pytest.approx(0.2)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            Station(Simulator(), workers=0)
