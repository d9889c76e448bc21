"""Deterministic authenticated encryption (SIV construction, stdlib only).

Layout of a token::

    siv (16 bytes) || ciphertext (len(plaintext) bytes)

* ``siv = HMAC-SHA256(mac_key, plaintext)[:16]`` — deterministic, so equal
  plaintexts yield equal tokens under one key (the DSSP cache-key property).
* ``ciphertext = plaintext XOR keystream(enc_key, siv)`` where the
  keystream is the SHAKE-256 XOF seeded by the encryption key and SIV.
* Decryption recomputes the SIV and rejects mismatches (tamper evidence).
"""

from __future__ import annotations

import hashlib
import hmac

from repro.errors import CryptoError
from repro.obs.memo import BoundedMemo

__all__ = ["encrypt", "decrypt", "SIV_LEN"]

SIV_LEN = 16


#: Derived (mac, enc) subkey pairs per master key.  Key derivation costs
#: two HMAC invocations and the same handful of master keys is used for
#: every envelope of an application, so the schedule is computed once.
_KEY_SCHEDULE = BoundedMemo("crypto.key_schedule", 1024)


def _derive_subkeys(key: bytes) -> tuple[bytes, bytes]:
    if len(key) < 16:
        raise CryptoError("key must be at least 16 bytes")
    mac_key = hmac.new(key, b"mac", hashlib.sha256).digest()
    enc_key = hmac.new(key, b"enc", hashlib.sha256).digest()
    return mac_key, enc_key


def _xor(data: bytes, stream: bytes) -> bytes:
    # Bulk XOR through big-int arithmetic: one CPython operation per call
    # instead of one generator step per byte.
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(len(data), "big")


def _keystream(enc_key: bytes, siv: bytes, length: int) -> bytes:
    # SHAKE-256 as an XOF: one sponge absorbs (key, siv) and squeezes the
    # whole stream, instead of one independent SHA-256 (re-hashing the
    # 48-byte prefix) per 32-byte counter block.
    return hashlib.shake_256(enc_key + siv).digest(length)


def encrypt(key: bytes, plaintext: bytes) -> bytes:
    """Deterministically encrypt ``plaintext`` under ``key``."""
    mac_key, enc_key = _KEY_SCHEDULE.get(key, _derive_subkeys, key)
    siv = hmac.new(mac_key, plaintext, hashlib.sha256).digest()[:SIV_LEN]
    stream = _keystream(enc_key, siv, len(plaintext))
    return siv + _xor(plaintext, stream)


def decrypt(key: bytes, token: bytes) -> bytes:
    """Decrypt and authenticate a token produced by :func:`encrypt`.

    Raises:
        CryptoError: if the token is malformed or fails authentication
            (wrong key or tampered ciphertext).
    """
    if len(token) < SIV_LEN:
        raise CryptoError("token too short")
    mac_key, enc_key = _KEY_SCHEDULE.get(key, _derive_subkeys, key)
    siv, ciphertext = token[:SIV_LEN], token[SIV_LEN:]
    stream = _keystream(enc_key, siv, len(ciphertext))
    plaintext = _xor(ciphertext, stream)
    expected = hmac.new(mac_key, plaintext, hashlib.sha256).digest()[:SIV_LEN]
    if not hmac.compare_digest(siv, expected):
        raise CryptoError("authentication failed: wrong key or tampered token")
    return plaintext
