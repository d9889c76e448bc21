"""The application's home organization (paper Figure 2, right side).

The home server keeps the **master copies**: all updates are applied here
directly, and cache misses are answered here.  It holds the application's
keys, so it can open sealed envelopes the DSSP forwarded and seal results
according to the exposure policy before they travel back.
"""

from __future__ import annotations

from repro.analysis.exposure import ExposureLevel, ExposurePolicy
from repro.crypto.envelope import (
    EnvelopeCodec,
    QueryEnvelope,
    ResultEnvelope,
    UpdateEnvelope,
)
from repro.crypto.keyring import Keyring
from repro.errors import CacheError
from repro.obs.trace import ACTIVE
from repro.obs.trace import span as trace_span
from repro.storage.database import Database
from repro.templates.registry import TemplateRegistry

__all__ = ["HomeServer"]


class HomeServer:
    """Master database + trusted crypto endpoint for one application.

    Args:
        app_id: Application identifier (shared with its DSSP tenancy).
        database: Master database (already loaded with initial data).
        registry: The application's template registry.
        policy: Exposure policy (decides how results are sealed).
        keyring: Application keys; generated if omitted.
    """

    def __init__(
        self,
        app_id: str,
        database: Database,
        registry: TemplateRegistry,
        policy: ExposurePolicy,
        keyring: Keyring | None = None,
    ) -> None:
        self.app_id = app_id
        self.database = database
        self.registry = registry
        self.policy = policy
        self.codec = EnvelopeCodec(keyring or Keyring(app_id))
        self.queries_served = 0
        self.updates_applied = 0

    # -- DSSP-facing API -----------------------------------------------------

    def serve_query(self, envelope: QueryEnvelope) -> ResultEnvelope:
        """Answer a cache miss: open, execute, seal per policy.

        The result is sealed at the *query template's* policy level, so the
        DSSP learns its contents only if the template is at ``view``.
        """
        if ACTIVE.get() is None:
            select = self.codec.open_query(envelope, self.registry)
            result = self.database.execute(select)
            self.queries_served += 1
            return self.codec.seal_result(result, self._result_level(envelope))
        with trace_span("home.crypto_open"):
            select = self.codec.open_query(envelope, self.registry)
        with trace_span("home.db_execute") as execute_span:
            result = self.database.execute(select)
            execute_span.set("rows", len(result))
        self.queries_served += 1
        level = self._result_level(envelope)
        with trace_span("home.crypto_seal", level=level.name.lower()):
            return self.codec.seal_result(result, level)

    def apply_update(self, envelope: UpdateEnvelope) -> int:
        """Apply an update to the master copy; returns rows affected."""
        if ACTIVE.get() is None:
            statement = self.codec.open_update(envelope, self.registry)
            affected = self.database.apply(statement)
            self.updates_applied += 1
            return affected
        with trace_span("home.crypto_open"):
            statement = self.codec.open_update(envelope, self.registry)
        with trace_span("home.db_apply") as apply_span:
            affected = self.database.apply(statement)
            apply_span.set("rows", affected)
        self.updates_applied += 1
        return affected

    def _result_level(self, envelope: QueryEnvelope) -> ExposureLevel:
        if envelope.template_name is not None:
            return self.policy.query_level(envelope.template_name)
        # Blind envelope: the template identity itself is hidden, so the
        # result must certainly not be exposed.
        if envelope.level is not ExposureLevel.BLIND:
            raise CacheError("non-blind envelope without template identity")
        return ExposureLevel.BLIND
