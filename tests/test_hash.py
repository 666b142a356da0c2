"""Published-vector tests for the hash cores."""

import hashlib
import random

from ethcold.keccak import keccak256
from ethcold.sha2 import sha256, sha512

import vectors

# FIPS 180-4 example vectors
SHA256_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
]

SHA512_VECTORS = [
    (b"", "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
          "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"),
    (b"abc", "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
             "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"),
    (b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
     b"ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
     "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
     "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"),
]


def test_sha256_fips_vectors():
    for msg, digest in SHA256_VECTORS:
        assert sha256(msg).hex() == digest


def test_sha256_million_a():
    assert sha256(b"a" * 1000000).hex() == \
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"


def test_sha512_fips_vectors():
    for msg, digest in SHA512_VECTORS:
        assert sha512(msg).hex() == digest


def test_sha512_two_block_input():
    v = vectors.SHA512_TWO_BLOCK
    assert sha512(bytes.fromhex(v["msg"])).hex() == v["digest"]


def test_sha2_against_stdlib_on_random_lengths():
    rng = random.Random(5)
    for _ in range(40):
        msg = rng.randbytes(rng.randrange(0, 600))
        assert sha256(msg) == hashlib.sha256(msg).digest()
        assert sha512(msg) == hashlib.sha512(msg).digest()


def test_keccak_known_digests():
    v = vectors.KECCAK_EXTRA
    assert keccak256(b"").hex() == v["empty"]
    assert keccak256(b"abc").hex() == v["abc"]
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
