"""Ethereum addresses: Keccak-256 of the public key, EIP-55 mixed case.

The raw address is the last 20 bytes of keccak256(x || y). The checksum
rendering hashes the 40-character lowercase hex (no 0x) and uppercases
hex letter i exactly when nibble i of that digest is greater than 7;
uppercasing is the fixed ASCII offset (lowercase letter - 0x20).
"""

from .curve import AffinePoint
from .keccak import keccak256
from .u256 import to_bytes32

_HEX_LETTERS = frozenset("abcdef")


def pubkey_to_address(pt: AffinePoint) -> bytes:
    """20-byte address from an uncompressed public key point."""
    return keccak256(to_bytes32(pt.x) + to_bytes32(pt.y))[-20:]


def to_checksum_address(address: bytes) -> str:
    """EIP-55 mixed-case rendering, 0x-prefixed."""
    if len(address) != 20:
        raise ValueError("address must be 20 bytes")
    hexaddr = address.hex()
    digest = keccak256(hexaddr.encode("ascii")).hex()
    chars = []
    for c, d in zip(hexaddr, digest):
        if c in _HEX_LETTERS and int(d, 16) > 7:
            c = chr(ord(c) - 0x20)
        chars.append(c)
    return "0x" + "".join(chars)
