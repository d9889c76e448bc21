"""Storage-backend throughput: memory vs SQLite at 10k and 1M rows.

One synthetic indexed table is bulk-loaded at two sizes into both
backends; the benchmark then measures point-query, ordered-query, and
strict-model update throughput with *distinct* pre-parsed statements (so
no statement-keyed memo can answer for the engine).  The JSON artifact
(``results/BENCH_backend_storage.json``) is committed and gated by this
module's :func:`gate` — the headline claims being that both engines
bulk-load a million-row master and that neither engine's throughput
regresses.
"""

from __future__ import annotations

import time

from repro.schema import Column, ColumnType, Schema, TableSchema
from repro.sql.parser import parse
from repro.storage.backends import BACKENDS, create_backend

from benchmarks.conftest import once

SMALL_ROWS = 10_000
LARGE_ROWS = 1_000_000
POINT_OPS = 1000
ORDERED_OPS = 100
UPDATE_OPS = 1000
#: rank values fall in [0, RANK_MOD); updates assign values beyond it so
#: every update is an effective change (counted, invalidating).
RANK_MOD = 1009
METRICS = (
    "load_rows_per_s",
    "point_queries_per_s",
    "ordered_queries_per_s",
    "updates_per_s",
)
#: Gate bounds: the share of the baseline's throughput every cell must
#: keep (generous: machines vary), and the least memory/SQLite point-query
#: ratio on the small tier (the memory engine's indexed fast path).
THROUGHPUT_TOLERANCE = 0.25
MEMORY_POINT_FLOOR = 0.5


def make_schema() -> Schema:
    return Schema(
        [
            TableSchema(
                "inventory",
                (
                    Column("item_id", ColumnType.INTEGER),
                    Column("grp", ColumnType.TEXT),
                    Column("rank", ColumnType.INTEGER),
                ),
                primary_key=("item_id",),
            )
        ]
    )


def make_rows(count: int):
    return [(i, f"g{i % 97}", (i * 31) % RANK_MOD) for i in range(count)]


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(kind: str, rows) -> dict:
    count = len(rows)
    backend = create_backend(kind, make_schema())
    try:
        load_seconds = _timed(lambda: backend.load("inventory", rows))

        step = max(1, count // POINT_OPS)
        point = [
            parse(f"SELECT * FROM inventory WHERE item_id = {k}")
            for k in range(0, count, step)
        ][:POINT_OPS]
        point_seconds = _timed(lambda: [backend.execute(s) for s in point])

        ordered = [
            parse(
                f"SELECT item_id, rank FROM inventory WHERE grp = 'g{g % 97}' "
                "ORDER BY rank DESC LIMIT 10"
            )
            for g in range(ORDERED_OPS)
        ]
        ordered_seconds = _timed(
            lambda: [backend.execute(s) for s in ordered]
        )

        step = max(1, count // UPDATE_OPS)
        updates = [
            parse(
                f"UPDATE inventory SET rank = {RANK_MOD + i} "
                f"WHERE item_id = {k}"
            )
            for i, k in enumerate(range(0, count, step))
        ][:UPDATE_OPS]
        update_seconds = _timed(lambda: [backend.apply(u) for u in updates])

        return {
            "update_ops": len(updates),
            "rows_loaded": backend.row_count("inventory"),
            "load_seconds": round(load_seconds, 4),
            "load_rows_per_s": round(count / load_seconds, 1),
            "point_queries_per_s": round(len(point) / point_seconds, 1),
            "ordered_queries_per_s": round(
                len(ordered) / ordered_seconds, 1
            ),
            "updates_per_s": round(len(updates) / update_seconds, 1),
        }
    finally:
        backend.close()


def _experiment() -> dict:
    result = {
        "small_rows": SMALL_ROWS,
        "large_rows": LARGE_ROWS,
        "tiers": {},
    }
    for count in (SMALL_ROWS, LARGE_ROWS):
        rows = make_rows(count)
        result["tiers"][str(count)] = {
            kind: measure(kind, rows) for kind in BACKENDS
        }
    return result


def _render(result) -> str:
    lines = [
        f"{'rows':>9} {'backend':>8} {'load/s':>10} {'point/s':>9} "
        f"{'ordered/s':>10} {'update/s':>9}",
        "-" * 60,
    ]
    for count, by_kind in result["tiers"].items():
        for kind, m in by_kind.items():
            lines.append(
                f"{count:>9} {kind:>8} {m['load_rows_per_s']:>10,.0f} "
                f"{m['point_queries_per_s']:>9,.0f} "
                f"{m['ordered_queries_per_s']:>10,.0f} "
                f"{m['updates_per_s']:>9,.0f}"
            )
    return "\n".join(lines)


def gate(fresh: dict, baseline: dict | None) -> list[str]:
    """Every broken bound of a fresh run; ``baseline`` None skips the
    baseline-relative ones."""
    failures = []
    for count in (SMALL_ROWS, LARGE_ROWS):
        tier = str(count)
        for kind, measured in fresh["tiers"][tier].items():
            if measured["rows_loaded"] != count:
                failures.append(
                    f"{kind}@{tier} rows_loaded is "
                    f"{measured['rows_loaded']:,}, not {count:,}"
                )
            for metric in METRICS:
                value = measured[metric]
                if not value > 0:
                    failures.append(f"{kind}@{tier} {metric} is {value}")
                if baseline is None:
                    continue
                base = baseline["tiers"][tier][kind][metric]
                if value < base * THROUGHPUT_TOLERANCE:
                    failures.append(
                        f"{kind}@{tier} {metric} {value:,.0f}/s regressed "
                        f"below {base * THROUGHPUT_TOLERANCE:,.0f}/s "
                        f"(baseline {base:,.0f} x {THROUGHPUT_TOLERANCE})"
                    )
    small = fresh["tiers"][str(SMALL_ROWS)]
    memory_point = small["memory"]["point_queries_per_s"]
    sqlite_point = small["sqlite"]["point_queries_per_s"]
    if memory_point < sqlite_point * MEMORY_POINT_FLOOR:
        failures.append(
            f"memory point_queries_per_s ({memory_point:,.0f}/s) fell "
            f"below {MEMORY_POINT_FLOOR} x sqlite ({sqlite_point:,.0f}/s)"
        )
    return failures


def test_backend_storage_throughput(benchmark, emit, publish):
    result = once(benchmark, _experiment)
    emit("backend_storage", _render(result))
    failures = gate(result, publish("backend_storage", result))
    assert not failures, failures
