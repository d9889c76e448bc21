"""The benchmark's own load drivers: closed loop and open loop.

Unlike ``repro.net.loadgen`` these keep every raw page latency (no
buckets), run a fixed list of pages rather than a fixed duration, check
the type of every answer, and — open loop — start a page's clock at the
instant it was *due*, so a stalled event loop is charged for the wait it
imposes on later arrivals.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.storage.rows import ResultSet

from deploy import MAX_OUTSTANDING, Deployment

__all__ = ["LoadResult", "poisson_schedule", "run_closed", "run_open"]


def poisson_schedule(rate: float, duration_s: float, seed: int) -> list[float]:
    """Arrival offsets (seconds) of a Poisson process over ``duration_s``,
    conditioned on its expected count.

    Given their number, the arrivals of a Poisson process are independent
    uniform draws; fixing the number at ``rate * duration_s`` keeps the
    offered work the same for every seed while the spacing stays
    memoryless.  A pure function of its arguments: the same seed offers
    the identical load.
    """
    rng = random.Random(f"e2e-arrivals:{seed}")
    count = round(rate * duration_s)
    return sorted(rng.uniform(0.0, duration_s) for _ in range(count))


@dataclass
class LoadResult:
    """Raw measurements of one window."""

    attempted: int = 0
    completed: int = 0
    #: Pages with a failed, shed, timed-out or wrong-typed operation.
    failed: int = 0
    #: Open loop: arrivals refused at the outstanding guard.
    dropped: int = 0
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    #: One latency per completed page, seconds, in completion order.
    latencies: list[float] = field(default_factory=list)
    #: Open loop: how late each arrival was launched, seconds.
    sched_lag: list[float] = field(default_factory=list)


class _Driver:
    """Runs pages against a deployment and keeps the books."""

    def __init__(self, deployment: Deployment, log=None) -> None:
        self.deployment = deployment
        self.codec = deployment.codec
        self.policy = deployment.inputs.policy
        self.log = log
        self.result = LoadResult()
        self._rid = 0

    async def page(self, lane: int, operations, started: float) -> None:
        """One page: every operation in order; latency from ``started``."""
        client = self.deployment.clients[lane % len(self.deployment.clients)]
        result = self.result
        run_op = self._op if self.log is None else self._traced_op
        ok = True
        try:
            for operation in operations:
                self._rid += 1
                rid = f"{lane:02x}{self._rid:014x}"
                ok = await run_op(client, operation, rid) and ok
        except ReproError:
            ok = False
        if ok:
            result.completed += 1
            result.latencies.append(time.perf_counter() - started)
        else:
            result.failed += 1

    async def _op(self, client, operation, rid: str) -> bool:
        bound = operation.bound
        name = bound.template.name
        if operation.is_update:
            sealed = self.codec.seal_update(bound, self.policy.update_level(name))
            ack = await client.update(sealed, request_id=rid)
            return type(ack.rows_affected) is int
        sealed = self.codec.seal_query(bound, self.policy.query_level(name))
        outcome = await client.query(sealed, request_id=rid)
        return type(self.codec.open_result(outcome.result)) is ResultSet

    async def _traced_op(self, client, operation, rid: str) -> bool:
        """``_op`` inside an ``op`` span with the client call timed."""
        log = self.log
        bound = operation.bound
        name = bound.template.name
        op = log.open("op", rid)
        try:
            if operation.is_update:
                sealed = self.codec.seal_update(
                    bound, self.policy.update_level(name)
                )
                request = log.open("net.client.update", rid)
                try:
                    ack = await client.update(sealed, request_id=rid)
                finally:
                    log.close(request)
                return type(ack.rows_affected) is int
            sealed = self.codec.seal_query(bound, self.policy.query_level(name))
            request = log.open("net.client.query", rid)
            try:
                outcome = await client.query(sealed, request_id=rid)
            finally:
                log.close(request)
            log.annotate(request, outcome.cache_hit)
            return type(self.codec.open_result(outcome.result)) is ResultSet
        finally:
            log.close(op)


async def run_closed(
    deployment: Deployment, pages: list, lanes: int, *, log=None
) -> LoadResult:
    """Closed loop: each lane takes the next page when its last one ends.

    ``pages`` is the fixed work: raw trace pages, bound as they are
    issued (binding is the client library's job, so it is inside the
    page's clock).
    """
    driver = _Driver(deployment, log)
    result = driver.result
    result.attempted = len(pages)
    bind = deployment.inputs.trace(pages)
    cursor = 0
    cpu_started = time.process_time()
    started = time.perf_counter()

    async def lane_loop(lane: int) -> None:
        nonlocal cursor
        while cursor < len(pages):
            cursor += 1
            page_started = time.perf_counter()
            await driver.page(lane, bind.sample_page(), page_started)

    await asyncio.gather(*(lane_loop(lane) for lane in range(lanes)))
    result.elapsed_s = time.perf_counter() - started
    result.cpu_s = time.process_time() - cpu_started
    return result


async def run_open(
    deployment: Deployment, pages: list, schedule: list[float], *, log=None
) -> LoadResult:
    """Open loop: launch ``pages[i]`` at ``schedule[i]`` regardless of
    completions; latency runs from the due instant, not from launch."""
    driver = _Driver(deployment, log)
    result = driver.result
    result.attempted = len(schedule)
    bind = deployment.inputs.trace(pages)
    outstanding: set[asyncio.Task] = set()
    cpu_started = time.process_time()
    started = time.perf_counter()

    for at in schedule:
        due = started + at
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.sched_lag.append(time.perf_counter() - due)
        if len(outstanding) >= MAX_OUTSTANDING:
            result.dropped += 1
            continue
        task = asyncio.create_task(driver.page(0, bind.sample_page(), due))
        outstanding.add(task)
        task.add_done_callback(outstanding.discard)
    if outstanding:
        await asyncio.gather(*outstanding)
    result.elapsed_s = time.perf_counter() - started
    result.cpu_s = time.process_time() - cpu_started
    return result
