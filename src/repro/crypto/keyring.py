"""Per-application key management.

A cost-effective DSSP caches data for *many* applications (paper Section
1), so cross-application isolation is part of the threat model: application
A must not be able to read application B's data even though both flow
through the same cache.  Every application therefore owns an independent
master key, from which purpose-specific subkeys are derived.
"""

from __future__ import annotations

import enum
import hmac
import os

from repro.errors import CryptoError

__all__ = ["Keyring", "Purpose"]


class Purpose(enum.Enum):
    """What a derived subkey protects."""

    PARAMS = "params"  # parameters at 'template' exposure
    STATEMENT = "statement"  # whole statements at 'blind' exposure
    RESULT = "result"  # cached query results below 'view' exposure


class Keyring:
    """Derives purpose keys from one application's master key.

    Args:
        app_id: Application identifier (also mixed into derivations, so two
            applications sharing a master key by accident still diverge).
        master_key: 32+ byte secret; generated randomly if omitted.
    """

    def __init__(self, app_id: str, master_key: bytes | None = None) -> None:
        if master_key is None:
            master_key = os.urandom(32)
        if len(master_key) < 16:
            raise CryptoError("master key must be at least 16 bytes")
        self.app_id = app_id
        self._master_key = master_key

    def key_for(self, purpose: Purpose) -> bytes:
        """Derive the subkey for one purpose (stable per keyring)."""
        info = f"{self.app_id}:{purpose.value}".encode()
        return hmac.digest(self._master_key, info, "sha256")

    def __repr__(self) -> str:
        return f"Keyring(app_id={self.app_id!r})"
