"""Published-vector tests for the Keccak-256 core."""

import hashlib

from ethcold.keccak import keccak256

import vectors


def test_keccak_known_digests():
    v = vectors.KECCAK_EXTRA
    assert keccak256(b"\x00").hex() == v["zero_byte"]
    assert keccak256(bytes(range(256))).hex() == v["range256"]


def test_keccak_rate_boundaries():
    """Padding around the 136-byte rate: the special one-byte pad included."""
    v = vectors.KECCAK_EXTRA
    assert keccak256(b"a" * 135).hex() == v["a135"]
    assert keccak256(b"a" * 136).hex() == v["a136"]
    assert keccak256(b"a" * 137).hex() == v["a137"]


def test_keccak_is_not_sha3():
    # NIST SHA3-256 uses 0x06 domain padding; digests must differ.
    assert keccak256(b"") != hashlib.sha3_256(b"").digest()
