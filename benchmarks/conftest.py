"""Shared benchmark harness.

Every paper table/figure has one module here.  Each benchmark runs the
regenerating computation once (``benchmark.pedantic`` with a single round —
these are experiments, not microbenchmarks), prints the regenerated rows,
and also writes them under ``benchmarks/results/`` so the artifacts survive
pytest's output capturing.

Knobs (environment variables):

* ``REPRO_BENCH_SCALE``  — data-size multiplier (default 0.2).
* ``REPRO_BENCH_PAGES``  — pages streamed per cache-behaviour measurement
  (default 1500; raise for tighter hit-rate estimates).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.analysis.exposure import ExposurePolicy
from repro.crypto import Keyring
from repro.dssp import DsspNode, HomeServer, StrategyClass
from repro.simulation import SimulationParams
from repro.workloads import get_application

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.2"))
BENCH_PAGES = int(os.environ.get("REPRO_BENCH_PAGES", "1500"))


def pytest_addoption(parser):
    parser.addoption(
        "--backend",
        choices=("memory", "sqlite"),
        default="memory",
        help="storage backend for the home's master copy, in benchmarks "
        "that honor it (e.g. bench_table2_toystore)",
    )


@pytest.fixture(scope="session")
def bench_backend(request) -> str:
    """The ``--backend`` option: which engine holds the master copy."""
    return request.config.getoption("--backend")

STRATEGY_ORDER = (
    StrategyClass.MVIS,
    StrategyClass.MSIS,
    StrategyClass.MTIS,
    StrategyClass.MBS,
)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def emit(results_dir):
    """Print a regenerated artifact and persist it under results/."""

    def write(name: str, text: str) -> None:
        print(f"\n===== {name} =====\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return write


@pytest.fixture(scope="session")
def sim_params() -> SimulationParams:
    return SimulationParams()


def deploy(
    app_name: str,
    policy: ExposurePolicy | None = None,
    strategy: StrategyClass | None = None,
    scale: float | None = None,
    seed: int = 1,
    use_integrity_constraints: bool = True,
    equality_only_independence: bool = False,
):
    """Build (node, home, sampler) for an application under a policy."""
    app = get_application(app_name)
    instance = app.instantiate(scale=scale or BENCH_SCALE, seed=seed)
    if policy is None:
        assert strategy is not None
        policy = ExposurePolicy.uniform(app.registry, strategy.exposure_level)
    home = HomeServer(
        app_name,
        instance.database,
        app.registry,
        policy,
        Keyring(app_name, b"bench-key-" + app_name.encode().ljust(22, b"0")),
    )
    node = DsspNode(
        use_integrity_constraints=use_integrity_constraints,
        equality_only_independence=equality_only_independence,
    )
    node.register_application(home)
    return node, home, instance.sampler


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
