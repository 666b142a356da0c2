"""BIP-32 derivation tests: paths, key relations, homomorphism; the
reference chains run in acceptance criterion 1."""

import random

import pytest

from ethcold import hd
from ethcold.curve import point_add_complete, ProjectivePoint, to_affine
from ethcold.errors import DerivationError, InvalidKeyError, ValidationError
from ethcold.hd import (ckd_priv, derive_path, ETH_BASE_PATH, ExtendedKey,
                        format_path, HARDENED, master_from_seed, parse_path,
                        public_point, serialize_pubkey)
from ethcold.kdf import hmac_sha512
from ethcold.field import SECP256K1_N
from ethcold.u256 import to_bytes32

import oracle
import vectors


def test_master_from_zero_seed():
    node = master_from_seed(bytes(64))
    assert "%064x" % node.key == vectors.MASTER_ZERO_SEED["key"]
    assert node.chain_code.hex() == vectors.MASTER_ZERO_SEED["chain"]


def test_different_seeds_different_masters():
    assert master_from_seed(bytes(64)).key != master_from_seed(b"\x01" * 64).key


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
    # BIP-32 writes its test-vector paths with H
    for path, chain in (("m/0H/1/2H/2/1000000000", vectors.BIP32_CHAIN1),
                        ("m/0/2147483647H/1/2147483646H/2",
                         vectors.BIP32_CHAIN2)):
        assert parse_path(path) == tuple(step["index"] for step in chain[1:])
    assert ETH_BASE_PATH == parse_path("m/44'/60'/0'/0")


def test_path_parse_errors():
    for bad in ("44'/60'", "m/abc", "m/-1", "m/2147483648", "m/44'/\u0663",
                "m/\u00b2", "m/+1", "m/1_0", "m/ 1", "m/", "m/" + "9" * 5000):
        with pytest.raises(ValidationError):
            parse_path(bad)


def test_derive_path_folds_ckd():
    master = master_from_seed(b"\x11" * 64)
    node = derive_path(master, parse_path("m/0'/1"))
    step = ckd_priv(ckd_priv(master, HARDENED), 1)
    assert node == step


def test_derivation_against_oracle():
    seed = b"\x99" * 64
    master = master_from_seed(seed)
    node = derive_path(master, ETH_BASE_PATH + (0,))
    want = oracle.bench.Node.master(seed).path(
        (HARDENED + 44, HARDENED + 60, HARDENED, 0, 0))
    assert node.key == want.key
    assert node.chain_code == want.chain


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


# --- BIP-32's invalid-key rules, on crafted HMAC digests ---

def _digest(left):
    """An HMAC-SHA512 output whose left half is `left`."""
    return to_bytes32(left) + bytes(range(32))


@pytest.mark.parametrize("key", [0, SECP256K1_N])
def test_master_from_seed_rejects_an_invalid_key(monkeypatch, key):
    monkeypatch.setattr(hd, "hmac_sha512", lambda k, m: _digest(key))
    with pytest.raises(DerivationError):
        master_from_seed(bytes(16))


@pytest.mark.parametrize("left", [SECP256K1_N, SECP256K1_N - 5],
                         ids=["il-ge-n", "child-zero"])
def test_ckd_priv_rejects_an_invalid_child(monkeypatch, left):
    """IL >= n, and IL + parent key = n (a child key of 0), both raise."""
    parent = ExtendedKey(key=5, chain_code=bytes(32))
    monkeypatch.setattr(hd, "hmac_sha512", lambda k, m: _digest(left))
    with pytest.raises(DerivationError):
        ckd_priv(parent, HARDENED)


def test_ckd_priv_rejects_an_index_of_33_bits():
    with pytest.raises(ValueError):
        ckd_priv(ExtendedKey(key=5, chain_code=bytes(32)), 1 << 32)
