"""Executable correctness checking (paper Section 2.2).

The paper defines a view invalidation strategy as *correct* iff for any
query Q, database D, and update U::

    Q[D] != Q[D + U]  =>  S(U, Q, ...) = I

This module turns that definition into a harness a user can run against
any deployment — including one with a custom strategy or exposure policy:
replay a workload through the DSSP while shadowing the master database, and
after every update verify that every still-cached view equals fresh
re-execution.  Any stale survivor is a correctness violation of the
invalidation pipeline.

This is the library form of what the property-based test suite checks; it
exists so downstream users extending the strategies can validate their
changes the same way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.dssp.homeserver import HomeServer
from repro.dssp.proxy import DsspNode

__all__ = ["ConsistencyViolation", "CorrectnessReport", "verify_invalidation_correctness"]


@dataclass(frozen=True)
class ConsistencyViolation:
    """One stale cached view discovered after an update."""

    after_update_sql: str
    key: tuple
    template_name: str | None
    cached_rows: tuple | None
    fresh_rows: tuple


@dataclass
class CorrectnessReport:
    """Outcome of a correctness verification run."""

    pages: int = 0
    queries: int = 0
    updates: int = 0
    checks: int = 0
    violations: list[ConsistencyViolation] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        """True if no stale cached view was ever observed."""
        return not self.violations

    def summary(self) -> str:
        """One-line human-readable outcome."""
        status = "CORRECT" if self.correct else "VIOLATIONS FOUND"
        return (
            f"{status}: {self.pages} pages, {self.updates} updates, "
            f"{self.checks} post-update view checks, "
            f"{len(self.violations)} violation(s)"
        )


def verify_invalidation_correctness(
    node: DsspNode,
    home: HomeServer,
    sampler,
    pages: int = 300,
    seed: int = 0,
    max_violations: int = 10,
) -> CorrectnessReport:
    """Replay a workload, auditing the cache after every update.

    After each update, every surviving cache entry of the application is
    opened with the home server's codec and compared against fresh
    execution on the master database.  (The audit itself uses trusted keys
    — it plays the role of the application owner validating their DSSP.)

    Stops early once ``max_violations`` have been recorded.
    """
    node.cold_start()
    rng = random.Random(seed)
    report = CorrectnessReport()
    # Map entry keys back to the envelopes that created them so the audit
    # can re-open and re-execute each cached view.
    live_queries: dict[tuple, object] = {}

    for _ in range(pages):
        report.pages += 1
        for operation in sampler.sample_page(rng):
            bound = operation.bound
            if operation.is_update:
                level = home.policy.update_level(bound.template.name)
                envelope = home.codec.seal_update(bound, level)
                node.update(envelope)
                report.updates += 1
                _audit(node, home, live_queries, bound, report)
                if len(report.violations) >= max_violations:
                    return report
            else:
                level = home.policy.query_level(bound.template.name)
                envelope = home.codec.seal_query(bound, level)
                node.query(envelope)
                live_queries[envelope.identity] = envelope
                report.queries += 1
    return report


def _audit(node, home, live_queries, update, report) -> None:
    stale_keys = [
        key for key in live_queries if key not in node.cache
    ]
    for key in stale_keys:
        del live_queries[key]
    for key, envelope in live_queries.items():
        entry = node.cache.get(key)
        if entry is None:  # pragma: no cover - pruned above
            continue
        report.checks += 1
        cached = home.codec.open_result(entry.result)
        select = home.codec.open_query(envelope, home.registry)
        fresh = home.database.execute(select)
        if not cached.equivalent(fresh):
            report.violations.append(
                ConsistencyViolation(
                    after_update_sql=update.sql,
                    key=key,
                    template_name=entry.template_name,
                    cached_rows=cached.rows,
                    fresh_rows=fresh.rows,
                )
            )
