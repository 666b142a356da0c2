"""ECDSA signing over secp256k1 with injectable nonce sources.

The signing datapath is the wallet's own: the nonce point comes from the
fixed-base comb, the inverse of k from the binary inversion algorithm,
and products mod n from the shift-and-add multiplier. The nonce is drawn
from an injectable source, by default RFC 6979 hedged with OS random
bytes. Candidates outside [1, n-1] and candidates producing r = 0 or
s = 0 are discarded and the source is asked again.

Verification handles public values only. It runs the package's complete
addition and to_affine on SECP256K1.native, the copy of secp256k1 with a
native field multiply (field.NativeModulus) that the comb table's build
uses too, so it has no point-addition formula of its own and is
independent of the modeled multiplier.
"""

import os
from typing import NamedTuple

# scalar_mul_ladder is not called here; it stays importable under this
# module because the benchmark's layer probe (bench/layers.py) wraps it here.
from .curve import (AffinePoint, IDENTITY,  # noqa: F401
                    is_on_curve, point_add_complete, ProjectivePoint,
                    scalar_mul_comb, scalar_mul_ladder, SECP256K1, to_affine)
from .errors import CryptoError, InvalidKeyError, ValidationError
from .field import ORDER_N, SECP256K1_N
from .kdf import hmac_sha256
from .u256 import to_bytes32

_N = SECP256K1_N
_HALF_N = _N // 2


class _SignatureFields(NamedTuple):
    r: int
    s: int
    y_parity: int


class Signature(_SignatureFields):
    __slots__ = ()

    def __new__(cls, r: int, s: int, y_parity: int):
        if not 1 <= r < _N or not 1 <= s < _N:
            raise ValueError("signature components must be in [1, n-1]")
        if y_parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        return super().__new__(cls, r, s, y_parity)


class Rfc6979Nonce:
    """Nonces per RFC 6979 (HMAC-SHA256 DRBG). extra is section 3.6's
    additional data k', appended to int2octets(d) || bits2octets(h1) in
    both seeding HMACs (steps d and f): b"" is plain RFC 6979, and fresh
    bytes hedge it, so a stuck RNG repeats no k across digests."""

    def __init__(self, extra: bytes = b""):
        self.extra = extra

    def nonces(self, d: int, z: bytes):
        v = b"\x01" * 32
        key = b"\x00" * 32
        seed = (to_bytes32(d) + to_bytes32(int.from_bytes(z, "big") % _N)
                + self.extra)
        key = hmac_sha256(key, v + b"\x00" + seed)
        v = hmac_sha256(key, v)
        key = hmac_sha256(key, v + b"\x01" + seed)
        v = hmac_sha256(key, v)
        while True:
            v = hmac_sha256(key, v)
            k = int.from_bytes(v, "big")
            if 1 <= k < _N:
                yield k
            key = hmac_sha256(key, v + b"\x00")
            v = hmac_sha256(key, v)


def rfc6979_nonce(d: int, z: bytes) -> int:
    """First in-range deterministic nonce for (d, z)."""
    _check_key_and_digest(d, z)
    return next(Rfc6979Nonce().nonces(d, z))


def _check_key_and_digest(d: int, z: bytes):
    if not 1 <= d < _N:
        raise InvalidKeyError("private key must be in [1, n-1]")
    if not isinstance(z, (bytes, bytearray)) or len(z) != 32:
        raise ValidationError("digest must be exactly 32 bytes")


def sign(d: int, z: bytes, nonce_source=None) -> Signature:
    """Sign a 32-byte digest.

    Draws k from the nonce source, Rfc6979Nonce(os.urandom(32)) when
    None, until a candidate in [1, n-1] yields r != 0 and s != 0. The
    result is low-s, as Ethereum requires: s > n/2 is replaced by n - s,
    flipping the recovery parity, by a mask (all ones when s > n/2)
    rather than a branch.
    """
    _check_key_and_digest(d, z)
    if nonce_source is None:
        nonce_source = Rfc6979Nonce(os.urandom(32))
    e = int.from_bytes(z, "big") % _N
    for k in nonce_source.nonces(d, z):
        if not 1 <= k < _N:
            continue
        pt = scalar_mul_comb(k, SECP256K1)
        r = pt.x % _N
        if r == 0:
            continue
        s = ORDER_N.mul(ORDER_N.inv(k), ORDER_N.add(e, ORDER_N.mul(d, r)))
        if s == 0:
            continue
        m = (_HALF_N - s) >> 256
        s ^= (s ^ (_N - s)) & m
        return Signature(r, s, (pt.y & 1) ^ (m & 1))
    raise CryptoError("nonce source exhausted without a valid signature")


# --- verification: public values only, on secp256k1 with a native multiply ---

_NATIVE = SECP256K1.native


def verify(pub: AffinePoint, z: bytes, sig) -> bool:
    """Standard ECDSA verification; malformed inputs return False.

    u1*G + u2*Q by Shamir's trick: per bit, one doubling and one addition
    of (identity, G, Q, G + Q)[bits] through point_add_complete on _NATIVE.
    A sum with Z = 0, the identity, is rejected; any other goes through
    one to_affine. No product runs on the modeled multiplier.
    """
    # (r, s) or (r, s, parity), a Signature included; parity is not needed
    if not isinstance(sig, (tuple, list)) or len(sig) not in (2, 3):
        return False
    r, s = sig[0], sig[1]
    if not isinstance(r, int) or not isinstance(s, int):
        return False
    if not 1 <= r < _N or not 1 <= s < _N:
        return False
    if not isinstance(z, (bytes, bytearray)) or len(z) != 32:
        return False
    if not isinstance(pub, AffinePoint):
        return False
    if not isinstance(pub.x, int) or not isinstance(pub.y, int):
        return False
    if not is_on_curve(pub):
        return False
    e = int.from_bytes(z, "big") % _N
    w = pow(s, -1, _N)
    u1 = e * w % _N
    u2 = r * w % _N
    q = ProjectivePoint(pub.x, pub.y, 1)
    g = SECP256K1.generator
    table = (IDENTITY, g, q, point_add_complete(g, q, _NATIVE))
    acc = IDENTITY
    for i in reversed(range(SECP256K1.scalar_bits)):
        acc = point_add_complete(acc, acc, _NATIVE)
        acc = point_add_complete(
            acc, table[(u1 >> i & 1) | (u2 >> i & 1) << 1], _NATIVE)
    # the sum is public; the identity (Z = 0) has no affine x
    return acc.z != 0 and to_affine(acc, _NATIVE).x % _N == r
