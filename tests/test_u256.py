"""Tests for 256-bit encoding helpers."""

import random

import pytest

from ethcold.errors import ValidationError
from ethcold.u256 import (from_bytes32, from_hex, parse_hex_bytes, to_bytes32,
                          to_hex, U256_MAX)


def test_bytes_round_trip_exhaustive_patterns():
    rng = random.Random(1)
    values = [0, 1, U256_MAX, 1 << 255, (1 << 128) - 1]
    values += [rng.getrandbits(256) for _ in range(500)]
    for v in values:
        assert from_bytes32(to_bytes32(v)) == v


def test_bytes32_is_big_endian():
    assert to_bytes32(1) == b"\x00" * 31 + b"\x01"
    assert to_bytes32(0x0102)[-2:] == b"\x01\x02"


def test_hex_round_trip():
    rng = random.Random(2)
    for _ in range(200):
        v = rng.getrandbits(256)
        assert from_hex(to_hex(v)) == v
        assert from_hex(to_hex(v, prefix=True)) == v


def test_hex_formatting():
    assert to_hex(0xab) == "00" * 31 + "ab"
    assert to_hex(0xab, prefix=True).startswith("0x")
    assert to_hex(0xab) == to_hex(0xab).lower()


def test_hex_accepts_either_case_and_prefix():
    v = 0xDEADBEEF
    assert from_hex("%064X" % v) == v
    assert from_hex("0X" + "%064x" % v) == v


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        to_bytes32(1 << 256)
    with pytest.raises(ValueError):
        to_bytes32(-1)


def test_wrong_lengths_rejected():
    with pytest.raises(ValidationError):
        from_bytes32(b"\x00" * 31)
    with pytest.raises(ValidationError):
        from_hex("ab" * 31)
    with pytest.raises(ValidationError):
        from_hex("zz" * 32)
    for bad in ("-" + "f" * 63, "+" + "f" * 63, "f" * 31 + "_" + "f" * 32,
                "0x-" + "f" * 63, "\u0663" * 64, " " + "f" * 63):
        with pytest.raises(ValidationError):
            from_hex(bad)


def test_parse_hex_bytes():
    assert parse_hex_bytes("0x0001") == b"\x00\x01"
    assert parse_hex_bytes("00" * 32, expect_len=32) == bytes(32)
    with pytest.raises(ValidationError):
        parse_hex_bytes("00" * 31, expect_len=32)
    with pytest.raises(ValidationError):
        parse_hex_bytes("not hex")
