"""Independent reference implementations used as test oracles.

Deliberately built on a different route from the package: arbitrary
precision Python arithmetic with pow()-based inversion, affine
chord-tangent point addition, and the standard library's hashlib/hmac.
Nothing here calls into ethcold.
"""

import hashlib
import hmac as hmac_mod

P = 0xfffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f
N = 0xfffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141
GX = 0x79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798
GY = 0x483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8
G = (GX, GY)


def ec_add(p1, p2, p=P):
    """Affine chord-tangent addition; None is the identity."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if p1 == p2:
        lam = 3 * x1 * x1 * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def ec_mul(k, pt=G, p=P, n=N):
    """Plain double-and-add scalar multiplication."""
    k %= n
    acc = None
    while k:
        if k & 1:
            acc = ec_add(acc, pt, p)
        pt = ec_add(pt, pt, p)
        k >>= 1
    return acc


def ec_repeat_add(k, pt, p=P):
    """k*P by literal repeated addition (small curves only)."""
    acc = None
    for _ in range(k):
        acc = ec_add(acc, pt, p)
    return acc


def hmac_sha512(key, msg):
    return hmac_mod.new(key, msg, hashlib.sha512).digest()


def pbkdf2_sha512(password, salt, iterations, dk_len):
    return hashlib.pbkdf2_hmac("sha512", password, salt, iterations, dk_len)


def bip32_master(seed):
    digest = hmac_sha512(b"Bitcoin seed", seed)
    return int.from_bytes(digest[:32], "big"), digest[32:]


def bip32_ckd(key, chain, index):
    if index >= 1 << 31:
        data = b"\x00" + key.to_bytes(32, "big")
    else:
        x, y = ec_mul(key)
        data = bytes([2 + (y & 1)]) + x.to_bytes(32, "big")
    digest = hmac_sha512(chain, data + index.to_bytes(4, "big"))
    left = int.from_bytes(digest[:32], "big")
    assert left < N
    child = (left + key) % N
    assert child
    return child, digest[32:]


def bip44_eth_key(seed, index):
    """The private key at m/44'/60'/0'/0/index."""
    key, chain = bip32_master(seed)
    for i in (44 + (1 << 31), 60 + (1 << 31), 1 << 31, 0, index):
        key, chain = bip32_ckd(key, chain, i)
    return key


def rfc6979_k(d, z):
    v = b"\x01" * 32
    k = b"\x00" * 32
    seed = d.to_bytes(32, "big") + (int.from_bytes(z, "big") % N).to_bytes(32, "big")
    k = hmac_mod.new(k, v + b"\x00" + seed, hashlib.sha256).digest()
    v = hmac_mod.new(k, v, hashlib.sha256).digest()
    k = hmac_mod.new(k, v + b"\x01" + seed, hashlib.sha256).digest()
    v = hmac_mod.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac_mod.new(k, v, hashlib.sha256).digest()
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            return candidate
        k = hmac_mod.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac_mod.new(k, v, hashlib.sha256).digest()


def ecdsa_sign_deterministic(d, z, low_s=True):
    """RFC 6979 ECDSA; returns (r, s, y_parity)."""
    k = rfc6979_k(d, z)
    x1, y1 = ec_mul(k)
    r = x1 % N
    s = pow(k, -1, N) * (int.from_bytes(z, "big") + d * r) % N
    assert r and s
    parity = y1 & 1
    if low_s and s > N // 2:
        s = N - s
        parity ^= 1
    return r, s, parity


class FixedNonce:
    """A nonce source for ethcold.ecdsa.sign that yields the given
    candidates once each."""

    def __init__(self, values):
        self._values = list(values)

    def nonces(self, d, z):
        yield from self._values
