"""ECDSA signing over secp256k1 with injectable nonce sources.

The signing datapath is the wallet's own: the nonce point comes from the
fixed-base comb, the inverse of k from the binary inversion algorithm,
and products mod n from the shift-and-add multiplier. The nonce is drawn
from an injectable source: OS randomness by default, RFC 6979 for
reproducible signatures, or a fixed list in tests. Candidates outside
[1, n-1] and candidates producing r = 0 or s = 0 are discarded and the
source is asked again.

Verification exists as test plumbing and deliberately uses plain modular
arithmetic, keeping it an independent route from the signing datapath.
"""

import os
from dataclasses import dataclass

# scalar_mul_ladder is not called here; it stays importable under this
# module because the benchmark's layer probe (bench/layers.py) wraps it here.
from .curve import (AffinePoint, is_on_curve, scalar_mul_comb,  # noqa: F401
                    scalar_mul_ladder, SECP256K1)
from .errors import CryptoError, InvalidKeyError, ValidationError
from .field import ORDER_N, SECP256K1_N, SECP256K1_P
from .kdf import hmac_sha256
from .u256 import to_bytes32

_N = SECP256K1_N
_P = SECP256K1_P
_HALF_N = _N // 2


@dataclass(frozen=True)
class Signature:
    r: int
    s: int
    y_parity: int

    def __post_init__(self):
        if not 1 <= self.r < _N or not 1 <= self.s < _N:
            raise ValueError("signature components must be in [1, n-1]")
        if self.y_parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")

    def to_hex(self, prefix: bool = False) -> str:
        """r || s as 128 lowercase hex characters (no parity)."""
        body = "%064x%064x" % (self.r, self.s)
        return "0x" + body if prefix else body


class RandomNonce:
    """Uniform nonces in [1, n-1] from OS-grade randomness."""

    def nonces(self, d: int, z: bytes):
        while True:
            k = int.from_bytes(os.urandom(32), "big")
            if 1 <= k < _N:
                yield k


class Rfc6979Nonce:
    """Deterministic nonces per RFC 6979 (HMAC-SHA256 DRBG)."""

    def nonces(self, d: int, z: bytes):
        v = b"\x01" * 32
        key = b"\x00" * 32
        seed = to_bytes32(d) + to_bytes32(int.from_bytes(z, "big") % _N)
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


class FixedNonce:
    """Test-only source yielding the given candidates once each."""

    def __init__(self, values):
        self._values = list(values)

    def nonces(self, d: int, z: bytes):
        yield from self._values


def rfc6979_nonce(d: int, z: bytes) -> int:
    """First in-range deterministic nonce for (d, z)."""
    _check_key_and_digest(d, z)
    return next(Rfc6979Nonce().nonces(d, z))


def _check_key_and_digest(d: int, z: bytes):
    if not 1 <= d < _N:
        raise InvalidKeyError("private key must be in [1, n-1]")
    if len(z) != 32:
        raise ValidationError("digest must be exactly 32 bytes")


def sign(d: int, z: bytes, nonce_source=None, low_s: bool = True) -> Signature:
    """Sign a 32-byte digest.

    Draws k from the nonce source until a candidate in [1, n-1] yields
    r != 0 and s != 0. With low_s (the default, required on Ethereum)
    s > n/2 is replaced by n - s, flipping the recovery parity.
    """
    _check_key_and_digest(d, z)
    source = nonce_source if nonce_source is not None else RandomNonce()
    e = int.from_bytes(z, "big") % _N
    for k in source.nonces(d, z):
        if not 1 <= k < _N:
            continue
        pt = scalar_mul_comb(k, SECP256K1)
        r = pt.x % _N
        if r == 0:
            continue
        s = ORDER_N.mul(ORDER_N.inv(k), ORDER_N.add(e, ORDER_N.mul(d, r)))
        if s == 0:
            continue
        parity = pt.y & 1
        if low_s and s > _HALF_N:
            s = _N - s
            parity ^= 1
        return Signature(r, s, parity)
    raise CryptoError("nonce source exhausted without a valid signature")


# --- verification: test plumbing on an independent arithmetic route ---

def _aff_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % _P == 0:
            return None
        lam = 3 * x1 * x1 * pow(2 * y1, -1, _P) % _P
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, _P) % _P
    x3 = (lam * lam - x1 - x2) % _P
    return (x3, (lam * (x1 - x3) - y1) % _P)


def _aff_mul(k, pt):
    acc = None
    while k:
        if k & 1:
            acc = _aff_add(acc, pt)
        pt = _aff_add(pt, pt)
        k >>= 1
    return acc


def verify(pub: AffinePoint, z: bytes, sig) -> bool:
    """Standard ECDSA verification; malformed inputs return False."""
    try:
        r, s = sig.r, sig.s
    except AttributeError:
        try:
            r, s = sig
        except (TypeError, ValueError):
            return False
    if not isinstance(r, int) or not isinstance(s, int):
        return False
    if not 1 <= r < _N or not 1 <= s < _N:
        return False
    if len(z) != 32:
        return False
    if pub.infinity or not is_on_curve(pub):
        return False
    e = int.from_bytes(z, "big") % _N
    w = pow(s, -1, _N)
    u1 = e * w % _N
    u2 = r * w % _N
    g = (SECP256K1.gx, SECP256K1.gy)
    point = _aff_add(_aff_mul(u1, g), _aff_mul(u2, (pub.x, pub.y)))
    return point is not None and point[0] % _N == r
