"""BIP-32 derivation tests: reference chains, paths, homomorphism."""

import random

import pytest

from ethcold.curve import point_add_complete, ProjectivePoint, to_affine
from ethcold.errors import InvalidKeyError, ValidationError
from ethcold.hd import (ckd_priv, derive_path, ETH_BASE_PATH, ExtendedKey,
                        format_path, HARDENED, master_from_seed, parse_path,
                        public_point, serialize_pubkey)
from ethcold.kdf import hmac_sha512
from ethcold.field import SECP256K1_N
from ethcold.u256 import to_bytes32

import oracle
import vectors


def test_master_from_reference_seed():
    node = master_from_seed(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
    assert "%064x" % node.key == vectors.BIP32_CHAIN1[0]["key"]
    assert node.chain_code.hex() == vectors.BIP32_CHAIN1[0]["chain"]


def test_master_from_zero_seed():
    node = master_from_seed(bytes(64))
    assert "%064x" % node.key == vectors.MASTER_ZERO_SEED["key"]
    assert node.chain_code.hex() == vectors.MASTER_ZERO_SEED["chain"]


def test_different_seeds_different_masters():
    assert master_from_seed(bytes(64)).key != master_from_seed(b"\x01" * 64).key


def _check_chain(chain, seed_hex):
    node = master_from_seed(bytes.fromhex(seed_hex))
    for row in chain[1:]:
        node = ckd_priv(node, row["index"])
        assert "%064x" % node.key == row["key"]
        assert node.chain_code.hex() == row["chain"]


def test_bip32_chain_1():
    _check_chain(vectors.BIP32_CHAIN1, "000102030405060708090a0b0c0d0e0f")


def test_bip32_chain_2():
    _check_chain(vectors.BIP32_CHAIN2,
                 "fffcf9f6f3f0edeae7e4e1dedbd8d5d2cfccc9c6c3c0bdbab7b4b1aeab"
                 "a8a5a29f9c999693908d8a8784817e7b7875726f6c696663605d5a5754"
                 "514e4b484542")


def test_first_hardened_child_matches_reference():
    node = master_from_seed(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
    child = ckd_priv(node, HARDENED + 0)
    assert "%064x" % child.key == \
        "edb2e14f9ee77d26dd93b4ecede8d16ed408ce149b6cd80b0715a2d911a0afea"
    assert child.chain_code.hex() == \
        "47fdacbd0f1097043b78c63c20c34ef4ed9a111d980047ad16282c7ae6236141"
    grandchild = ckd_priv(child, 1)
    assert "%064x" % grandchild.key == \
        "3c6cb8d0f6a264c91ea8b5030fadaa8e538b020f0a387421a12de9319dc93368"


def test_hardened_and_normal_children_differ():
    node = master_from_seed(bytes(64))
    assert ckd_priv(node, 7).key != ckd_priv(node, HARDENED + 7).key


def test_serialize_pubkey_generator():
    pub = serialize_pubkey(public_point(1))
    assert pub.hex() == ("0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d9"
                         "59f2815b16f81798")


def test_serialize_pubkey_parity():
    rng = random.Random(4)
    for _ in range(4):
        k = rng.randrange(1, SECP256K1_N)
        pt = public_point(k)
        prefix = serialize_pubkey(pt)[0]
        assert prefix == (0x03 if pt.y & 1 else 0x02)


def test_serialize_infinity_rejected():
    from ethcold.curve import AffinePoint
    with pytest.raises(InvalidKeyError):
        serialize_pubkey(AffinePoint(0, 0, True))


def test_x_recovers_point_on_curve():
    pt = public_point(12345)
    p = 0xfffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f
    y2 = (pt.x ** 3 + 7) % p
    y = pow(y2, (p + 1) // 4, p)
    assert y in (pt.y, p - pt.y)


def test_extended_key_validation():
    with pytest.raises(InvalidKeyError):
        ExtendedKey(key=0, chain_code=bytes(32))
    with pytest.raises(InvalidKeyError):
        ExtendedKey(key=SECP256K1_N, chain_code=bytes(32))
    with pytest.raises(ValueError):
        ExtendedKey(key=1, chain_code=bytes(31))


def test_child_key_relation_white_box():
    """(child - left_half) mod n recovers the parent key."""
    parent = master_from_seed(b"\x42" * 64)
    for index in (0, 5, HARDENED + 9):
        child = ckd_priv(parent, index)
        if index >= HARDENED:
            data = b"\x00" + to_bytes32(parent.key)
        else:
            data = serialize_pubkey(public_point(parent.key))
        digest = hmac_sha512(parent.chain_code, data + index.to_bytes(4, "big"))
        left = int.from_bytes(digest[:32], "big")
        assert (child.key - left) % SECP256K1_N == parent.key


def test_normal_derivation_homomorphism():
    """child*G == parent_pub + left_half*G for normal derivation."""
    parent = master_from_seed(b"\x07" * 64)
    index = 3
    child = ckd_priv(parent, index)
    data = serialize_pubkey(public_point(parent.key))
    digest = hmac_sha512(parent.chain_code, data + index.to_bytes(4, "big"))
    left = int.from_bytes(digest[:32], "big")
    parent_pub = public_point(parent.key)
    left_pub = public_point(left)
    combined = to_affine(point_add_complete(
        ProjectivePoint(parent_pub.x, parent_pub.y, 1),
        ProjectivePoint(left_pub.x, left_pub.y, 1)))
    child_pub = public_point(child.key)
    assert (combined.x, combined.y) == (child_pub.x, child_pub.y)


def test_path_parsing_and_formatting():
    path = parse_path("m/44'/60'/0'/0/5")
    assert path == (HARDENED + 44, HARDENED + 60, HARDENED + 0, 0, 5)
    assert format_path(path) == "m/44'/60'/0'/0/5"
    assert parse_path("m") == ()
    assert parse_path("m/0h") == (HARDENED,)
    assert ETH_BASE_PATH == parse_path("m/44'/60'/0'/0")


def test_path_parse_errors():
    for bad in ("44'/60'", "m/abc", "m/-1", "m/2147483648", "m/44'/\u0663",
                "m/\u00b2", "m/+1", "m/1_0", "m/ 1", "m/", "m/" + "9" * 5000):
        with pytest.raises(ValidationError):
            parse_path(bad)


def test_derive_path_without_cache():
    master = master_from_seed(b"\x11" * 64)
    node = derive_path(master, parse_path("m/0'/1"))
    step = ckd_priv(ckd_priv(master, HARDENED), 1)
    assert node == step


def test_derivation_against_oracle():
    seed = b"\x99" * 64
    master = master_from_seed(seed)
    node = derive_path(master, ETH_BASE_PATH + (0,))
    k, c = oracle.bip32_master(seed)
    for i in (HARDENED + 44, HARDENED + 60, HARDENED, 0, 0):
        k, c = oracle.bip32_ckd(k, c, i)
    assert node.key == k
    assert node.chain_code == c


def test_point_is_public_point_of_key():
    node = master_from_seed(b"\x42" * 64)
    assert node.point == public_point(node.key)
    assert node.point is node.point
    child = ckd_priv(node, HARDENED + 1)
    assert child.point == public_point(child.key)


def test_cached_parent_point_gives_same_child():
    parent = master_from_seed(b"\x07" * 64)
    parent.point  # computed here, then kept on parent
    fresh = ExtendedKey(key=parent.key, chain_code=parent.chain_code)
    assert "point" not in vars(fresh)
    assert parent == fresh and hash(parent) == hash(fresh)
    for index in (0, 3, HARDENED + 2):
        assert ckd_priv(parent, index) == ckd_priv(fresh, index)
