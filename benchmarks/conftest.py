"""Shared benchmark harness.

Every paper table/figure has one module here.  Each benchmark runs the
regenerating computation once (``benchmark.pedantic`` with a single round —
these are experiments, not microbenchmarks), prints the regenerated rows,
and also writes them under ``benchmarks/results/`` so the artifacts survive
pytest's output capturing.

A benchmark with a committed ``results/BENCH_<name>.json`` gates itself:
its module's pure ``gate(fresh, baseline)`` returns every broken bound,
and its test hands the fresh result to :func:`publish`, which overwrites
the committed file and returns what it held.  The run is therefore always
compared against the committed file it overwrites — even when
``REPRO_BENCH_SCALE`` or ``REPRO_BENCH_PAGES`` are overridden, so a run at
a non-default size is judged against the default-size baseline.

Knobs (environment variables):

* ``REPRO_BENCH_SCALE``  — data-size multiplier (default 0.2).
* ``REPRO_BENCH_PAGES``  — pages streamed per cache-behaviour measurement
  (default 1500; raise for tighter hit-rate estimates).
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.dssp import StrategyClass
from repro.simulation import SimulationParams, sweep
from repro.simulation.sweep import SweepTask

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
def publish(results_dir):
    """Write a fresh ``BENCH_<name>.json``; return the one it replaced.

    The fresh result is written before the caller asserts its gate, so a
    failing run still leaves the numbers that failed behind.  Returns
    ``None`` when no baseline exists yet.
    """

    def write(name: str, result: dict) -> dict | None:
        artifact = results_dir / f"BENCH_{name}.json"
        baseline = (
            json.loads(artifact.read_text()) if artifact.exists() else None
        )
        artifact.write_text(json.dumps(result, indent=2) + "\n")
        return baseline

    return write


@pytest.fixture(scope="session")
def sim_params() -> SimulationParams:
    return SimulationParams()


def deploy(app_name: str, strategy: StrategyClass):
    """Build (node, home, sampler) for an application under a strategy."""
    return sweep.deploy(SweepTask(app_name, strategy, scale=BENCH_SCALE))


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
