"""Embedded standard-vector checks for the CLI selftest command.

A fast subset of the conformance suite: published digests and reference
values that pin down the hash cores, the MAC/KDF stack, the mnemonic
encoding, the curve (both the ladder and the comb), and deterministic
nonces. The full suite lives in the package's tests.
"""

from hashlib import sha256, sha512

from .address import pubkey_to_address, to_checksum_address
from .bip39 import entropy_to_mnemonic, mnemonic_to_seed
from .curve import scalar_mul_comb, scalar_mul_ladder, SECP256K1
from .ecdsa import rfc6979_nonce, Rfc6979Nonce, sign
from .field import SECP256K1_N
from .hd import master_from_seed, public_point, serialize_pubkey
from .kdf import hmac_sha512, pbkdf2_hmac_sha512
from .keccak import keccak256

# Signed comb digits 64, -63, 62, ..., -29 in windows 0-35 and 1 in the
# top window: a non-identity entry from every row, negated in the odd
# windows.
_ALL_ROWS_K = sum((-1) ** j * (64 - j) << 7 * j for j in range(36)) + (1 << 252)


def _checks():
    yield ("sha256 empty", lambda: sha256(b"").hexdigest(),
           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    yield ("sha256 abc", lambda: sha256(b"abc").hexdigest(),
           "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    yield ("sha512 abc", lambda: sha512(b"abc").hexdigest(),
           "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
           "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f")
    yield ("keccak256 empty", lambda: keccak256(b"").hex(),
           "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470")
    yield ("keccak256 abc", lambda: keccak256(b"abc").hex(),
           "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45")
    yield ("hmac-sha512 rfc4231 case 1",
           lambda: hmac_sha512(b"\x0b" * 20, b"Hi There").hex()[:32],
           "87aa7cdea5ef619d4ff0b4241a1d6cb0")
    yield ("pbkdf2-sha512 c=1",
           lambda: pbkdf2_hmac_sha512(b"password", b"salt", 1, 64).hex()[:32],
           "867f70cf1ade02cff3752599a3a53dc4")
    yield ("mnemonic zero entropy",
           lambda: " ".join(entropy_to_mnemonic(bytes(16))),
           "abandon abandon abandon abandon abandon abandon abandon abandon "
           "abandon abandon abandon about")
    yield ("seed zero entropy TREZOR",
           lambda: mnemonic_to_seed(entropy_to_mnemonic(bytes(16)),
                                    "TREZOR").hex()[:32],
           "c55257c360c07c72029aebc1b53c05ed")
    yield ("master key from reference seed",
           lambda: "%064x" % master_from_seed(
               bytes.fromhex("000102030405060708090a0b0c0d0e0f")).key,
           "e8f32e723decf4051aefac8e2c93c9c5b214313817cdb01a1494b917c8436b35")
    yield ("ladder k=1 is the generator",
           lambda: "%064x" % scalar_mul_ladder(1).x,
           "%064x" % SECP256K1.gx)
    # the wallet's own route for k*G: the fixed-base comb behind public_point
    yield ("compressed generator",
           lambda: serialize_pubkey(public_point(1)).hex(),
           "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")
    # (n-1)*G = -G; its signed digits are 0 in windows 19-35, so the
    # next check covers the rows this one skips
    yield ("compressed point of n-1",
           lambda: serialize_pubkey(public_point(SECP256K1_N - 1)).hex(),
           "03%064x" % SECP256K1.gx)
    yield ("comb equals ladder on a scalar reading all rows",
           lambda: "ok" if scalar_mul_comb(_ALL_ROWS_K)
           == scalar_mul_ladder(_ALL_ROWS_K) else "mismatch",
           "ok")
    yield ("address of private key 1",
           lambda: to_checksum_address(
               pubkey_to_address(public_point(1))).lower(),
           "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf")
    yield ("eip-55 reference rendering",
           lambda: to_checksum_address(
               bytes.fromhex("5aaeb6053f3e94c9b9a09f33669435e7ef1beaed")),
           "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed")
    yield ("rfc6979 nonce community vector",
           lambda: "%064x" % rfc6979_nonce(
               1, sha256(b"Satoshi Nakamoto").digest()),
           "8f8a276c19f4149656b280621e358cce24f5f52542772691ee69063b74f15d15")
    # the CLI's sign --deterministic route: RFC 6979 nonce, comb, low-s
    yield ("rfc6979 signature d=1 \"sample\"",
           lambda: "%064x %064x %d" % tuple(
               sign(1, sha256(b"sample").digest(),
                    nonce_source=Rfc6979Nonce())),
           "58db657bcd631038bea07b4941172f0167aca98f12b55e3176bd1c35435d6501 "
           "3a78e73d8ff8ab554e13c10f6390d81a882f91945d6275493882676170b53a57 1")


def run_selftest() -> list:
    """Run every embedded check; returns (name, expected, got) for each,
    in order."""
    results = []
    for name, fn, expected in _checks():
        try:
            got = fn()
        except Exception as exc:  # a failing primitive must not stop the rest
            got = "exception: %r" % exc
        results.append((name, expected, got))
    return results
