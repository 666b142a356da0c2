"""Independent reference route for checking every benchmark output.

Nothing here imports ethcold. Hashing, HMAC and PBKDF2 come from the
standard library; secp256k1 is plain-integer affine chord-tangent
arithmetic with pow()-based inversion; Keccak-256 (which the standard
library lacks: it only ships SHA-3 padding) is written from the FIPS 202
description, with round constants and rotation offsets generated by the
spec's LFSR and (x, y) walk rather than copied from a table.

``self_check`` pins this route against frozen published vectors (BIP-39
zero-entropy wallets and their first accounts, EIP-55 and Keccak digests)
before any output is judged by it.
"""

import hashlib
import hmac
import unicodedata

P = 0xfffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f
N = 0xfffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141
G = (0x79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798,
     0x483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8)
HARDENED = 1 << 31
ETH_BASE_PATH = (44 + HARDENED, 60 + HARDENED, 0 + HARDENED, 0)

# SHA-256 of the BIP-39 English wordlist as published with the BIP.
ENGLISH_WORDLIST_SHA256 = (
    "2f5eed53a4727b4bf8880d8f3f199efc90e58503646d9ff8eff3a2ed3b24dbda")


# --- secp256k1, affine, plain integers ---------------------------------

def ec_add(p1, p2):
    """Affine addition; None is the point at infinity."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % P == 0:
            return None
        lam = 3 * x1 * x1 * pow(2 * y1, -1, P) % P
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (lam * lam - x1 - x2) % P
    return x3, (lam * (x1 - x3) - y1) % P


def ec_mul(k, point=G):
    """k*point by right-to-left double-and-add."""
    acc = None
    k %= N
    while k:
        if k & 1:
            acc = ec_add(acc, point)
        point = ec_add(point, point)
        k >>= 1
    return acc


def compressed(point) -> bytes:
    x, y = point
    return bytes([2 + (y & 1)]) + x.to_bytes(32, "big")


# --- Keccak-256 (legacy 0x01 padding, as Ethereum uses) -----------------

def _round_constants():
    def rc(t):
        if t % 255 == 0:
            return 1
        r = [1, 0, 0, 0, 0, 0, 0, 0]
        for _ in range(t % 255):
            r = [0] + r
            for i in (0, 4, 5, 6):
                r[i] ^= r[8]
            r = r[:8]
        return r[0]
    out = []
    for ir in range(24):
        lane = 0
        for j in range(7):
            lane |= rc(j + 7 * ir) << ((1 << j) - 1)
        out.append(lane)
    return out


def _rotation_offsets():
    offsets = [[0] * 5 for _ in range(5)]
    x, y = 1, 0
    for t in range(24):
        offsets[x][y] = (t + 1) * (t + 2) // 2 % 64
        x, y = y, (2 * x + 3 * y) % 5
    return offsets


_RC = _round_constants()
_ROT = _rotation_offsets()
_MASK64 = (1 << 64) - 1
_RATE = 136


def _rotl(v, n):
    return ((v << n) | (v >> (64 - n))) & _MASK64 if n else v


def _keccak_f(a):
    """The 24-round permutation on a 5x5 lane array indexed a[x][y]."""
    for rc in _RC:
        c = [a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4] for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl(c[(x + 1) % 5], 1) for x in range(5)]
        a = [[a[x][y] ^ d[x] for y in range(5)] for x in range(5)]
        b = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                b[y][(2 * x + 3 * y) % 5] = _rotl(a[x][y], _ROT[x][y])
        a = [[b[x][y] ^ (~b[(x + 1) % 5][y] & b[(x + 2) % 5][y])
              for y in range(5)] for x in range(5)]
        a[0][0] ^= rc
    return a


def keccak256(data: bytes) -> bytes:
    padded = bytearray(data) + b"\x01"
    padded += b"\x00" * (-len(padded) % _RATE)
    padded[-1] |= 0x80
    a = [[0] * 5 for _ in range(5)]
    for off in range(0, len(padded), _RATE):
        block = padded[off:off + _RATE]
        for i in range(_RATE // 8):
            x, y = i % 5, i // 5
            a[x][y] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
        a = _keccak_f(a)
    return b"".join(a[i % 5][i // 5].to_bytes(8, "little") for i in range(4))


def eip55(address: bytes) -> str:
    lower = address.hex()
    digest = keccak256(lower.encode("ascii")).hex()
    return "0x" + "".join(c.upper() if c in "abcdef" and int(d, 16) >= 8
                          else c for c, d in zip(lower, digest))


def address_of(point) -> str:
    x, y = point
    return eip55(keccak256(x.to_bytes(32, "big") + y.to_bytes(32, "big"))[-20:])


# --- BIP-39 / BIP-32 ------------------------------------------------------

def mnemonic_from_entropy(entropy: bytes, wordlist) -> str:
    cs_bits = len(entropy) * 8 // 32
    checksum = hashlib.sha256(entropy).digest()[0] >> (8 - cs_bits)
    acc = (int.from_bytes(entropy, "big") << cs_bits) | checksum
    count = (len(entropy) * 8 + cs_bits) // 11
    return " ".join(wordlist[(acc >> (11 * (count - 1 - i))) & 0x7FF]
                    for i in range(count))


def bip39_seed(mnemonic: str, passphrase: str, normalize: bool = True) -> bytes:
    """PBKDF2-HMAC-SHA512 seed; BIP-39 applies NFKD to both inputs.

    ``normalize=False`` is the raw UTF-8 route, used only to recognise
    outputs of a wallet that skips the normalization.
    """
    if normalize:
        mnemonic = unicodedata.normalize("NFKD", mnemonic)
        passphrase = unicodedata.normalize("NFKD", passphrase)
    return hashlib.pbkdf2_hmac("sha512", mnemonic.encode("utf-8"),
                               b"mnemonic" + passphrase.encode("utf-8"),
                               2048, 64)


def _hmac512(key, msg):
    return hmac.new(key, msg, hashlib.sha512).digest()


class Node:
    """A BIP-32 private node; its public point is computed on first use."""

    __slots__ = ("key", "chain", "_point")

    def __init__(self, key, chain):
        self.key = key
        self.chain = chain
        self._point = None

    @property
    def point(self):
        if self._point is None:
            self._point = ec_mul(self.key)
        return self._point

    @classmethod
    def master(cls, seed: bytes) -> "Node":
        digest = _hmac512(b"Bitcoin seed", seed)
        return cls(int.from_bytes(digest[:32], "big"), digest[32:])

    def child(self, index: int) -> "Node":
        if index >= HARDENED:
            data = b"\x00" + self.key.to_bytes(32, "big")
        else:
            data = compressed(self.point)
        digest = _hmac512(self.chain, data + index.to_bytes(4, "big"))
        left = int.from_bytes(digest[:32], "big")
        child = (left + self.key) % N
        if left >= N or child == 0:
            raise ValueError("index %d is invalid for this parent" % index)
        return Node(child, digest[32:])

    def path(self, indices) -> "Node":
        node = self
        for index in indices:
            node = node.child(index)
        return node


def account_record(base: Node, index: int) -> dict:
    """What the wallet should show for m/44'/60'/0'/0/index."""
    node = base.child(index)
    return {"index": index,
            "private_key": node.key.to_bytes(32, "big").hex(),
            "public_key": compressed(node.point).hex(),
            "address": address_of(node.point)}


# --- ECDSA with RFC 6979 nonces -------------------------------------------

def _hmac256(key, msg):
    return hmac.new(key, msg, hashlib.sha256).digest()


def rfc6979_nonce(d: int, z: bytes) -> int:
    v = b"\x01" * 32
    k = b"\x00" * 32
    seed = d.to_bytes(32, "big") + (int.from_bytes(z, "big") % N).to_bytes(32, "big")
    k = _hmac256(k, v + b"\x00" + seed)
    v = _hmac256(k, v)
    k = _hmac256(k, v + b"\x01" + seed)
    v = _hmac256(k, v)
    while True:
        v = _hmac256(k, v)
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            return candidate
        k = _hmac256(k, v + b"\x00")
        v = _hmac256(k, v)


def sign(d: int, z: bytes) -> dict:
    """Low-s deterministic signature as the wallet's JSON renders it."""
    k = rfc6979_nonce(d, z)
    x1, y1 = ec_mul(k)
    r = x1 % N
    s = pow(k, -1, N) * (int.from_bytes(z, "big") + d * r) % N
    parity = y1 & 1
    if s > N // 2:
        s = N - s
        parity ^= 1
    return {"r": "%064x" % r, "s": "%064x" % s, "parity": parity}


# --- the trace model's view of the classic ladder --------------------------

# Op-register samples of the trace model: 8 * op id + register id, with ops
# (point-add 0, point-double 1, field-mul 2) and registers (R0 1, R1 2).
# Iteration i of the classic ladder writes (add R0, double R1) on key bit 1
# and (add R1, double R0) on key bit 0; the affine conversion adds two
# field-mul writes to R0.
_CLASSIC_STEP = {"1": (0 * 8 + 1, 1 * 8 + 2), "0": (0 * 8 + 2, 1 * 8 + 1)}
_AFFINE_TAIL = (2 * 8 + 1, 2 * 8 + 1)


def _classic_register_samples(k):
    samples = []
    for bit in format(k % N, "0256b")[1:]:
        samples.extend(_CLASSIC_STEP[bit])
    return samples + list(_AFFINE_TAIL)


def classic_register_mse(scalars) -> float:
    """Largest op-register MSE of each classic trace against the first."""
    base = _classic_register_samples(scalars[0])
    worst = 0.0
    for k in scalars[1:]:
        other = _classic_register_samples(k)
        worst = max(worst, sum((a - b) ** 2 for a, b in zip(base, other))
                    / len(base))
    return worst


# --- frozen vectors that pin this module ---------------------------------

_ZERO_ENTROPY_WALLETS = [
    ("abandon " * 23 + "art",
     "408b285c123836004f4b8842c89324c1f01382450c0d439af345ba7fc49acf70"
     "5489c6fc77dbd4e3dc1dd8cc6bc9f043db8ada1e243c4a0eafb290d399480840",
     [("1053fae1b3ac64f178bcc21026fd06a3f4544ec2f35338b001f02d1d8efa3d5f",
       "02dc286c821c7490afbe20a79d13123b9f41f3d7ef21e4a9caacd22f5983b28eca",
       "0xF278cF59F82eDcf871d630F28EcC8056f25C1cdb"),
      ("0855b75d03a8830e390b5483d81694c9c7121d971e092145cf8b9c6fa3a5b373",
       "03efd4cb0d8102293499b4f79d73d8343faa44d0e3fc14537872b437c8ec527a0c",
       "0xf785bD075874b8423D3583728a981399f31e95aA"),
      ("86015375c36a7a3d263edc84aeaed9bc001f4a137206c52a7dae7828148cd34d",
       "02a4fca1b4b9246802559265a2d142b2897710a7e30519cd12471857c2154cf18b",
       "0x60Af1c6A5D03F9f1B1b74931499bC99E72fF8DA9")]),
    ("abandon " * 11 + "about",
     "5eb00bbddcf069084889a8ab9155568165f5c453ccb85e70811aaed6f6da5fc1"
     "9a5ac40b389cd370d086206dec8aa6c43daea6690f20ad3d8d48b2d2ce9e38e4",
     [("1ab42cc412b618bdea3a599e3c9bae199ebf030895b039e9db1e30dafb12b727",
       "0237b0bb7a8288d38ed49a524b5dc98cff3eb5ca824c9f9dc0dfdb3d9cd600f299",
       "0x9858EfFD232B4033E47d90003D41EC34EcaEda94")]),
]

_EIP55_ADDRESSES = [
    "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed",
    "0xfB6916095ca1df60bB79Ce92cE3Ea74c37c5d359",
    "0xdbF03B407c01E7cD3CBea99509d93f8DDDC8C6FB",
    "0xD1220A0cf47c7B9Be7A2E6BA89F429762e7b9aDb",
]

_KECCAK_DIGESTS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"a" * 136: "a6c4d403279fe3e0af03729caada8374b5ca54d8065329a3ebcaeb4b60aa386e",
}


def self_check(wordlist_bytes: bytes) -> list:
    """Compare this route with the frozen vectors; return the mismatches."""
    bad = []
    if hashlib.sha256(wordlist_bytes).hexdigest() != ENGLISH_WORDLIST_SHA256:
        bad.append("wordlist digest")
    for msg, want in _KECCAK_DIGESTS.items():
        if keccak256(msg).hex() != want:
            bad.append("keccak256(%r...)" % msg[:3])
    for text in _EIP55_ADDRESSES:
        if eip55(bytes.fromhex(text[2:])) != text:
            bad.append("eip55 " + text)
    for mnemonic, seed_hex, accounts in _ZERO_ENTROPY_WALLETS:
        seed = bip39_seed(mnemonic, "")
        if seed.hex() != seed_hex:
            bad.append("seed of %s..." % mnemonic[:16])
            continue
        base = Node.master(seed).path(ETH_BASE_PATH)
        for index, (key, pub, address) in enumerate(accounts):
            want = {"index": index, "private_key": key, "public_key": pub,
                    "address": address}
            if account_record(base, index) != want:
                bad.append("account %d of %s..." % (index, mnemonic[:16]))
    return bad
