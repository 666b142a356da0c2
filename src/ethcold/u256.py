"""256-bit unsigned integers as plain ints, with canonical big-endian encoding.

Every 256-bit value the wallet serializes is 32 big-endian bytes; hex
input (optional 0x prefix) is parsed strictly, digits only.
"""

import re

from .errors import ValidationError

U256_MAX = (1 << 256) - 1


def to_bytes32(value: int) -> bytes:
    """Canonical 32-byte big-endian encoding."""
    if not 0 <= value <= U256_MAX:
        raise ValueError("value out of range for 256 bits: %r" % value)
    return value.to_bytes(32, "big")


def parse_hex_bytes(text: str, expect_len: int | None = None) -> bytes:
    """Parse an even count of ASCII hex digits (0x allowed) into bytes.

    Only the ends are stripped: whitespace between digits is rejected.
    """
    s = text.strip()
    if s[:2] in ("0x", "0X"):
        s = s[2:]
    if not re.fullmatch(r"(?:[0-9a-fA-F]{2})*", s):
        raise ValidationError("invalid hex string: %r" % text)
    data = bytes.fromhex(s)
    if expect_len is not None and len(data) != expect_len:
        raise ValidationError(
            "expected %d bytes of hex, got %d" % (expect_len, len(data)))
    return data
