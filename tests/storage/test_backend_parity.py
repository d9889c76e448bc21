"""Differential parity: both backends replay identical generated traces.

For each benchmark application a trace is recorded once and driven
through a raw :class:`~repro.storage.database.Database` and a
:class:`SqliteBackend` in lockstep.  Every query must return an
equivalent ResultSet (row for row, in order, when ordered), every update
the same affected count (or the same exception type), and the final table
contents must be multiset-equal — the backend seam's contract.
"""

from __future__ import annotations

import pytest

from repro.storage.backends import SqliteBackend
from repro.workloads import get_application
from repro.workloads.apps.toystore import toystore_spec
from repro.workloads.trace import record_trace

from tests.storage.backend_utils import assert_results_match, assert_states_match

APPS = ["toystore", "bookstore", "auction", "bboard"]


def _spec(name):
    if name == "toystore":
        return toystore_spec()
    return get_application(name)


def _run_both(statement, memory_backend, sqlite_backend, context):
    """Apply one update to both engines; outcomes must agree."""
    outcomes = []
    for backend in (memory_backend, sqlite_backend):
        try:
            outcomes.append(("ok", backend.apply(statement)))
        except Exception as error:  # noqa: BLE001 - compared by type below
            outcomes.append(("error", type(error).__name__))
    assert outcomes[0] == outcomes[1], (
        f"{context}: memory={outcomes[0]} sqlite={outcomes[1]}"
    )


@pytest.mark.parametrize("app", APPS)
def test_trace_parity(app):
    spec = _spec(app)
    instance = spec.instantiate(scale=0.2, seed=11)
    trace = record_trace(instance.sampler, 40, seed=11, application=app)
    trace.bind(spec.registry)

    memory_backend = instance.database.clone()
    sqlite_backend = SqliteBackend.from_database(instance.database)
    try:
        queries = updates = 0
        for page_index in range(len(trace)):
            for position, operation in enumerate(trace.sample_page()):
                context = (
                    f"{app} page {page_index} op {position} "
                    f"({operation.bound.template.name})"
                )
                if operation.is_update:
                    _run_both(
                        operation.bound.statement,
                        memory_backend,
                        sqlite_backend,
                        context,
                    )
                    updates += 1
                else:
                    assert_results_match(
                        memory_backend.execute(operation.bound.select),
                        sqlite_backend.execute(operation.bound.select),
                        context,
                    )
                    queries += 1
        assert queries > 0 and updates > 0, "trace must exercise both paths"
        assert memory_backend.version == sqlite_backend.version
        assert_states_match(memory_backend, sqlite_backend)
    finally:
        sqlite_backend.close()
