"""Tests for 256-bit encoding helpers."""

import random

import pytest

from ethcold.errors import ValidationError
from ethcold.u256 import parse_hex_bytes, to_bytes32, U256_MAX


def test_bytes_round_trip_exhaustive_patterns():
    rng = random.Random(1)
    values = [0, 1, U256_MAX, 1 << 255, (1 << 128) - 1]
    values += [rng.getrandbits(256) for _ in range(500)]
    for v in values:
        assert int.from_bytes(to_bytes32(v), "big") == v


def test_bytes32_is_big_endian():
    assert to_bytes32(1) == b"\x00" * 31 + b"\x01"
    assert to_bytes32(0x0102)[-2:] == b"\x01\x02"


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        to_bytes32(1 << 256)
    with pytest.raises(ValueError):
        to_bytes32(-1)


def test_parse_hex_bytes():
    assert parse_hex_bytes("0x0001") == b"\x00\x01"
    assert parse_hex_bytes(" 0X0001\n") == b"\x00\x01"
    assert parse_hex_bytes("00" * 32, expect_len=32) == bytes(32)
    with pytest.raises(ValidationError):
        parse_hex_bytes("00" * 31, expect_len=32)
    for bad in ("not hex", "00 01\n02", " 0x" + "11 " * 32, "000",
                "0x 0001", "\u0663\u0663", "+001", "00_01", "0x-001"):
        with pytest.raises(ValidationError):
            parse_hex_bytes(bad)
    with pytest.raises(ValidationError):
        parse_hex_bytes(" 0x" + "11 " * 32, expect_len=32)
