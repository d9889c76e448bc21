"""Pluggable storage backends for the home's master database.

The home server only needs a small surface from its database — execute a
bound SELECT, apply a bound update, clone/snapshot for the oracle, a
monotone version stamp.  :class:`Backend` captures that surface;
:class:`InMemoryBackend` adapts the existing pure-Python engine and
:class:`SqliteBackend` compiles the same dialect to stdlib SQLite for
durable, million-row masters.  ``create_backend`` is the registry the CLI
and harnesses go through (``--backend {memory,sqlite}``).

Both backends share one canonical ORDER BY/LIMIT semantics (see
:mod:`repro.storage.backends.base`), which is what makes them
row-for-row interchangeable — the differential parity suite holds them
to it.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import WorkloadError
from repro.schema.schema import Schema
from repro.storage.backends.base import Backend, CanonicalOrderer
from repro.storage.backends.memory import InMemoryBackend
from repro.storage.backends.sqlite import SqliteBackend
from repro.storage.database import Database

__all__ = [
    "BACKENDS",
    "Backend",
    "CanonicalOrderer",
    "InMemoryBackend",
    "SqliteBackend",
    "create_backend",
    "wrap_database",
]

#: Registered backend kinds, as accepted by ``--backend``.
BACKENDS = ("memory", "sqlite")


def create_backend(
    kind: str,
    schema: Schema,
    *,
    path: str | Path | None = None,
    enforce_foreign_keys: bool = True,
    strict_model: bool = True,
) -> Backend:
    """Build an empty backend of the given kind over ``schema``."""
    if kind == "memory":
        return InMemoryBackend.create(
            schema,
            enforce_foreign_keys=enforce_foreign_keys,
            strict_model=strict_model,
        )
    if kind == "sqlite":
        return SqliteBackend(
            schema,
            path=path,
            enforce_foreign_keys=enforce_foreign_keys,
            strict_model=strict_model,
        )
    raise WorkloadError(
        f"unknown storage backend {kind!r}; expected one of {BACKENDS}"
    )


def wrap_database(
    kind: str, database: Database, *, path: str | Path | None = None
) -> Backend:
    """Put a generated in-memory database behind a backend of ``kind``.

    ``memory`` wraps the database in place; ``sqlite`` copies it into a
    SQLite store at ``path`` (or in memory) — unless the path already
    holds data, in which case the durable contents win (restart survival).
    """
    if kind == "memory":
        return InMemoryBackend(database)
    if kind == "sqlite":
        return SqliteBackend.from_database(database, path=path)
    raise WorkloadError(
        f"unknown storage backend {kind!r}; expected one of {BACKENDS}"
    )
