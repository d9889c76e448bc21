"""FIFO multi-worker queueing stations for the DES."""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.simulation.events import Simulator

__all__ = ["Station"]


class Station:
    """A server with ``workers`` parallel slots and a FIFO queue.

    ``submit(service_time, done)`` enqueues a job; ``done()`` fires when
    the job completes (after queueing + service).  Utilization statistics
    are tracked for reporting.
    """

    def __init__(self, sim: Simulator, workers: int, name: str = "") -> None:
        if workers < 1:
            raise ValueError("a station needs at least one worker")
        self._sim = sim
        self._workers = workers
        self._busy = 0
        self._queue: deque[tuple[float, Callable[[], None]]] = deque()
        self.name = name
        self.jobs_completed = 0
        self.busy_time = 0.0

    def submit(self, service_time: float, done: Callable[[], None]) -> None:
        """Enqueue a job; ``done`` runs when service completes."""
        if self._busy < self._workers:
            self._start(service_time, done)
        else:
            self._queue.append((service_time, done))

    def _start(self, service_time: float, done: Callable[[], None]) -> None:
        self._busy += 1
        self.busy_time += service_time

        def finish() -> None:
            self._busy -= 1
            self.jobs_completed += 1
            if self._queue:
                next_service, next_done = self._queue.popleft()
                self._start(next_service, next_done)
            done()

        self._sim.schedule(service_time, finish)

    def utilization(self, elapsed: float) -> float:
        """Average fraction of worker capacity used over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * self._workers))
