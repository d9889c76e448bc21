"""Fixed-key known-answer vectors for the cipher and the key schedule.

The DSSP's cache keys, every sealed envelope on the wire and the chaos
goldens under ``tests/net/golden/`` are functions of these bytes.  The
vectors pin them: a change to how the MAC, the SIV or a purpose key is
computed must leave every token here byte-identical, or it is a change of
format, not a refactoring.
"""

from __future__ import annotations

import pytest

from repro.crypto.cipher import decrypt, encrypt
from repro.crypto.keyring import Keyring, Purpose

KEYS = {"range32": bytes(range(32)), "k16": b"k" * 16}
PLAINTEXTS = {
    "empty": b"",
    "one": b"a",
    "statement": b"SELECT * FROM item WHERE i_id = ?",
    "bytes100": bytes(range(100)),
}

TOKENS = {
    ("range32", "empty"): "9956141f5e604b4c68b05fb76bb9ae0d",
    ("range32", "one"): "75b0da834b8030060802d491da9737c3ee",
    ("range32", "statement"): (
        "82013a3d9bf4d2b20c439e6ff0a9cfb0d3d733b33b9f534a369a46ecd6a434cd"
        "411f157ea03e1187bad03520f28629a193"
    ),
    ("range32", "bytes100"): (
        "97f9d0b8a8e09302d4a75e89c30e98d66ddcfd275d03722b3623412e1651f4eb"
        "048f4978f90bde89f969c888b8f38577c8c970a6aceca0f7d1124a0844f788fb"
        "a9e5282fca035c38f8f8cb04a7623551966de6e5d2b2a584899f2838eb96bb73"
        "965d9aa2a5bdf36c65e39558c115ec48a050e6d2"
    ),
    ("k16", "empty"): "16de8b2c50d56af8c9702c05ffacd997",
    ("k16", "one"): "eefdf226fd0f939c06326b3aed3395a837",
    ("k16", "statement"): (
        "4dcebe86f8dcc806f635f4c1f06124c557b7043d677ed2d18f6c43a5d6822ad9"
        "94945cb96dd90b7c4043dd05d71cb90ed0"
    ),
    ("k16", "bytes100"): (
        "fe76f2afe6b6a554906a531b01b228a2ebcc666adb3176c85d56fe690c03dbd2"
        "0e44f1cc9fe1dfadbcade98782eea4d03cf84c39c27c0ad91619682e36c95fc3"
        "43968835c1d988b1888185d009abb6a6155ad42a8a9518840ac1a707fdce4f1c"
        "b97ffc06f63cefa2018080c3a4726f637794bdd0"
    ),
}

PURPOSE_KEYS = {
    ("bookstore", Purpose.PARAMS): (
        "756ddaf05a62426e4eac0f3ae89461b47e913f813376850276184cdd9bd76632"
    ),
    ("bookstore", Purpose.STATEMENT): (
        "775358ea71b13e79ccc3e7844841d54147473d3d42d0b55dec05472d7dfd3181"
    ),
    ("bookstore", Purpose.RESULT): (
        "f1342afb90147fc242ff21c4c4ad36fc68b6f8afbf77467e1a541573cebfeb8e"
    ),
    ("bboard", Purpose.PARAMS): (
        "c430ad7dc4ff0abea5bf2c10ea7dada6e64f543dc099f327ee7e03fc7f14ca2c"
    ),
    ("bboard", Purpose.STATEMENT): (
        "19e2e6869139ec5e41080051bacc53b1dcb647857d0dd81aa4523f726e2b5b17"
    ),
    ("bboard", Purpose.RESULT): (
        "35ab56e44983d59829ec8066b40a8bfcd42b33365a00c351129521d454e43b4c"
    ),
}
MASTER_KEYS = {"bookstore": bytes(range(32)), "bboard": b"b" * 16}


@pytest.mark.parametrize("key_name, text_name", sorted(TOKENS))
def test_encrypt_matches_its_vector(key_name, text_name):
    key, plaintext = KEYS[key_name], PLAINTEXTS[text_name]
    token = bytes.fromhex(TOKENS[key_name, text_name])
    assert encrypt(key, plaintext) == token
    assert decrypt(key, token) == plaintext


@pytest.mark.parametrize(
    "app_id, purpose", sorted(PURPOSE_KEYS, key=lambda p: (p[0], p[1].value))
)
def test_key_for_matches_its_vector(app_id, purpose):
    keyring = Keyring(app_id, MASTER_KEYS[app_id])
    assert keyring.key_for(purpose).hex() == PURPOSE_KEYS[app_id, purpose]
