"""Ethereum address derivation and EIP-55 checksum tests."""

import random

import pytest

from ethcold.address import pubkey_to_address, to_checksum_address
from ethcold.hd import public_point


def test_known_private_key_addresses():
    addr1 = pubkey_to_address(public_point(1))
    assert addr1.hex() == "7e5f4552091a69125d5dfcb7b8c2659029395bdf"
    addr2 = pubkey_to_address(public_point(2))
    assert addr2.hex() == "2b5ad5c4795c026514f8317c7a215e218dccd6cf"


def test_distinct_points_distinct_addresses():
    seen = {pubkey_to_address(public_point(k)) for k in (1, 2, 3)}
    assert len(seen) == 3


def test_all_digit_address_unchanged():
    raw = bytes.fromhex("1234567890" * 4)
    got = to_checksum_address(raw)
    assert got == "0x" + raw.hex()


def test_checksum_idempotent_under_lowercasing():
    rng = random.Random(6)
    # an all-letter address first: every nibble may change case
    for raw in [b"\xff" * 20] + [rng.randbytes(20) for _ in range(50)]:
        once = to_checksum_address(raw)
        again = to_checksum_address(bytes.fromhex(once[2:].lower()))
        assert once == again


def test_round_trip_parse():
    raw = bytes.fromhex("fb6916095ca1df60bb79ce92ce3ea74c37c5d359")
    assert bytes.fromhex(to_checksum_address(raw)[2:]) == raw


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        to_checksum_address(b"\x00" * 19)
