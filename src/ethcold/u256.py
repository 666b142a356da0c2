"""256-bit unsigned integers as plain ints, with canonical big-endian encoding.

Every 256-bit value in the wallet round-trips through 32-byte big-endian
bytes and 64-character lowercase hex (optional 0x prefix on input).
"""

import re

from .errors import ValidationError

U256_MAX = (1 << 256) - 1


def to_bytes32(value: int) -> bytes:
    """Canonical 32-byte big-endian encoding."""
    if not 0 <= value <= U256_MAX:
        raise ValueError("value out of range for 256 bits: %r" % value)
    return value.to_bytes(32, "big")


def from_bytes32(data: bytes) -> int:
    if len(data) != 32:
        raise ValidationError("expected 32 bytes, got %d" % len(data))
    return int.from_bytes(data, "big")


def to_hex(value: int, prefix: bool = False) -> str:
    """64 lowercase hex characters, optionally 0x-prefixed."""
    h = "%064x" % value
    if len(h) != 64:
        raise ValueError("value out of range for 256 bits")
    return "0x" + h if prefix else h


def from_hex(text: str) -> int:
    """Parse a 256-bit value from exactly 64 ASCII hex digits (0x allowed)."""
    s = text.strip()
    if s[:2] in ("0x", "0X"):
        s = s[2:]
    if len(s) != 64:
        raise ValidationError("expected 64 hex characters, got %d" % len(s))
    if not re.fullmatch(r"[0-9a-fA-F]{64}", s):
        raise ValidationError("invalid hex string: %r" % text)
    return int(s, 16)


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
