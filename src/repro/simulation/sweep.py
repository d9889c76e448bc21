"""Parallel scalability sweeps (strategies × apps × policies × knobs).

The benchmark figures are grids of independent cells: deploy an
application under some exposure policy, stream a sample workload through
the real DSSP, and search for the SLA-crossing user count.  Cells share
nothing (each worker builds its own database instance), so the grid is
embarrassingly parallel — a :class:`~concurrent.futures.ProcessPoolExecutor`
runs one cell per process and results come back in task order.

A :class:`SweepTask` is a plain picklable description of one cell; the
worker function :func:`run_task` is importable at module top level, so the
pool works under both ``fork`` and ``spawn`` start methods.  With
``workers <= 1`` (or a single-CPU host) the sweep degrades to an in-process
loop with identical results, so callers never need two code paths.

The worker count defaults to ``REPRO_SWEEP_WORKERS`` (0 = auto) and then
to the machine's CPU count.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from repro.analysis.exposure import ExposurePolicy
from repro.crypto import Keyring
from repro.dssp import DsspNode, HomeServer, StrategyClass
from repro.simulation.params import SimulationParams
from repro.simulation.scalability import (
    CacheBehavior,
    find_scalability,
    measure_cache_behavior,
)

__all__ = [
    "SweepResult",
    "SweepTask",
    "deploy",
    "run_sweep",
    "run_task",
    "sweep_workers",
]


@dataclass(frozen=True)
class SweepTask:
    """One cell of a benchmark grid, fully describing its deployment.

    Exactly one of ``strategy`` (uniform exposure) or ``policy`` (explicit
    per-template levels) must be given.  ``tag`` is an opaque picklable
    identifier echoed back on the result so callers can re-key the grid.
    """

    app_name: str
    strategy: StrategyClass | None = None
    policy: ExposurePolicy | None = None
    pages: int = 1500
    scale: float = 0.2
    seed: int = 5
    data_seed: int = 1
    use_integrity_constraints: bool = True
    equality_only_independence: bool = False
    cache_capacity: int | None = None
    zipf_exponent: float | None = None
    tag: object = None


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one task: measured behaviour plus the SLA search."""

    task: SweepTask
    behavior: CacheBehavior
    users: int | None
    resident_views: int

    @property
    def tag(self) -> object:
        """The task's identifier, for re-keying result grids."""
        return self.task.tag


def deploy(task: SweepTask, node=None):
    """Build one cell's in-process deployment: ``(node, home, sampler)``.

    The cell's data instance, its home server under the task's exposure
    policy, and ``node`` — a fresh :class:`DsspNode` with the task's cache
    settings unless the caller passes its own (a ``DsspCluster``, say) —
    with the application registered on it.
    """
    if (task.strategy is None) == (task.policy is None):
        raise ValueError("provide exactly one of strategy / policy")
    from repro.workloads import get_application

    app = get_application(task.app_name)
    instance = app.instantiate(scale=task.scale, seed=task.data_seed)
    policy = task.policy
    if policy is None:
        policy = ExposurePolicy.uniform(
            app.registry, task.strategy.exposure_level
        )
    if task.zipf_exponent is not None:
        from repro.workloads.zipf import ZipfSampler

        instance.sampler.zipf = ZipfSampler(
            instance.sampler.zipf.n, task.zipf_exponent
        )
    home = HomeServer(
        task.app_name,
        instance.database,
        app.registry,
        policy,
        Keyring(
            task.app_name,
            b"bench-key-" + task.app_name.encode().ljust(22, b"0"),
        ),
    )
    if node is None:
        node = DsspNode(
            cache_capacity=task.cache_capacity,
            use_integrity_constraints=task.use_integrity_constraints,
            equality_only_independence=task.equality_only_independence,
        )
    node.register_application(home)
    return node, home, instance.sampler


def run_task(
    task: SweepTask, params: SimulationParams | None = None
) -> SweepResult:
    """Execute one sweep cell (this is the process-pool worker)."""
    node, home, sampler = deploy(task)
    behavior = measure_cache_behavior(
        node, home, sampler, pages=task.pages, seed=task.seed
    )
    users = None
    if params is not None:
        users = find_scalability(params, behavior=behavior)
    return SweepResult(
        task=task,
        behavior=behavior,
        users=users,
        resident_views=len(node.cache),
    )


def sweep_workers(workers: int | None = None) -> int:
    """Resolve the worker count: explicit arg → env knob → CPU count."""
    if workers is None:
        workers = int(os.environ.get("REPRO_SWEEP_WORKERS", "0"))
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


def run_sweep(
    tasks: Sequence[SweepTask],
    params: SimulationParams | None = None,
    workers: int | None = None,
) -> list[SweepResult]:
    """Run every task, in parallel where the host allows.

    Results are returned in task order.  When ``params`` is given each
    result carries the analytic scalability search's user count; otherwise
    ``users`` is None and only the cache behaviour is measured.
    """
    tasks = list(tasks)
    count = sweep_workers(workers)
    if count <= 1 or len(tasks) <= 1:
        return [run_task(task, params) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(count, len(tasks))) as pool:
        return list(pool.map(partial(run_task, params=params), tasks))
