"""Hierarchical key derivation: master key, CKD, and BIP-44 paths.

The master node is HMAC-SHA512("Bitcoin seed", seed): the left 256 bits
are the private key, the right 256 the chain code. Child derivation keys
HMAC with the parent chain code over either 0x00 || parent key (hardened,
index >= 2^31) or the compressed parent public key (normal), concatenated
with the 4-byte index; the child key is (left_half + parent_key) mod n.

Each ExtendedKey computes its public point (key*G) lazily, at most once,
and keeps it on the key: a normal child reuses its parent's point instead
of running the comb again. The point lives and dies with its node, so no
process-wide cache holds keys.

Paths print as m/44'/60'/0'/0/i with an apostrophe marking hardened
indices. derive_path folds ckd_priv along a path, starting from any node.
It keeps nothing: the one prefix the package reuses is the keystore's
node m/44'/60'/0'/0, from which each account is a single CKD.
"""

import functools
import re
from dataclasses import dataclass

# scalar_mul_ladder is not called here; it stays importable under this
# module because the benchmark's layer probe (bench/layers.py) wraps it here.
from .curve import (AffinePoint, scalar_mul_comb,  # noqa: F401
                    scalar_mul_ladder, SECP256K1)
from .errors import DerivationError, InvalidKeyError, ValidationError
from .field import SECP256K1_N
from .kdf import hmac_sha512
from .u256 import to_bytes32

HARDENED = 1 << 31

MASTER_HMAC_KEY = b"Bitcoin seed"


@dataclass(frozen=True)
class ExtendedKey:
    """A private key and chain code; ``point`` is key*G, computed once."""

    key: int
    chain_code: bytes

    def __post_init__(self):
        if not 1 <= self.key < SECP256K1_N:
            raise InvalidKeyError("private key outside [1, n-1]")
        if len(self.chain_code) != 32:
            raise ValueError("chain code must be 32 bytes")

    @functools.cached_property
    def point(self) -> AffinePoint:
        # cached_property writes the instance __dict__, which a frozen
        # dataclass allows; field-based __eq__/__hash__ ignore it.
        return public_point(self.key)


def master_from_seed(seed: bytes) -> ExtendedKey:
    digest = hmac_sha512(MASTER_HMAC_KEY, seed)
    key = int.from_bytes(digest[:32], "big")
    if key == 0 or key >= SECP256K1_N:
        raise DerivationError("seed produces an out-of-range master key")
    return ExtendedKey(key=key, chain_code=digest[32:])


def public_point(key: int) -> AffinePoint:
    """key*G via the fixed-base comb."""
    return scalar_mul_comb(key, SECP256K1)


def serialize_pubkey(pt: AffinePoint) -> bytes:
    """33-byte compressed form: 02/03 parity prefix plus big-endian x."""
    if pt.infinity:
        raise InvalidKeyError("cannot serialize the point at infinity")
    prefix = b"\x03" if pt.y & 1 else b"\x02"
    return prefix + to_bytes32(pt.x)


def ckd_priv(parent: ExtendedKey, index: int) -> ExtendedKey:
    """One child derivation step."""
    if not 0 <= index < 1 << 32:
        raise ValueError("child index must fit in 32 bits")
    if index >= HARDENED:
        data = b"\x00" + to_bytes32(parent.key)
    else:
        data = serialize_pubkey(parent.point)
    digest = hmac_sha512(parent.chain_code, data + index.to_bytes(4, "big"))
    left = int.from_bytes(digest[:32], "big")
    if left >= SECP256K1_N:
        raise DerivationError("derivation left half >= n; skip this index")
    child = (left + parent.key) % SECP256K1_N
    if child == 0:
        raise DerivationError("derived key is zero; skip this index")
    return ExtendedKey(key=child, chain_code=digest[32:])


def parse_path(path: str) -> tuple:
    """Parse m/44'/60'/0'/0/i into a tuple of 32-bit indices."""
    parts = path.strip().split("/")
    if not parts or parts[0] != "m":
        raise ValidationError("derivation path must start with 'm'")
    out = []
    for part in parts[1:]:
        hardened = part.endswith("'") or part.endswith("h")
        digits = part[:-1] if hardened else part
        # ASCII digits only; an index below 2^31 has at most 10 of them
        if not re.fullmatch(r"[0-9]{1,10}", digits):
            raise ValidationError("bad path element %r" % part)
        value = int(digits)
        if value >= HARDENED:
            raise ValidationError("path index %d out of range" % value)
        out.append(value + HARDENED if hardened else value)
    return tuple(out)


def format_path(path) -> str:
    parts = ["m"]
    for idx in path:
        if idx >= HARDENED:
            parts.append("%d'" % (idx - HARDENED))
        else:
            parts.append("%d" % idx)
    return "/".join(parts)


# m / purpose' / coin_type' / account' / change for Ethereum
ETH_BASE_PATH = parse_path("m/44'/60'/0'/0")


def derive_path(node: ExtendedKey, path) -> ExtendedKey:
    """Fold ckd_priv along a path, starting from ``node``."""
    # ckd_priv is looked up here at call time, so a wrapper installed on
    # this module (the benchmark's probe, a test's counter) sees every CKD.
    for index in path:
        node = ckd_priv(node, index)
    return node
