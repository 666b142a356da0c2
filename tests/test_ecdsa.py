"""ECDSA signing tests: forced nonces, RFC 6979 vectors, verify verdicts."""

import random
from hashlib import sha256

import pytest

from ethcold.curve import AffinePoint
from ethcold.ecdsa import (RandomNonce, Rfc6979Nonce, rfc6979_nonce, sign,
                           Signature, verify)
from ethcold.errors import CryptoError, InvalidKeyError, ValidationError
from ethcold.field import count_mul_iterations, FIELD_P, SECP256K1_N as N
from ethcold.hd import public_point

import oracle
import vectors

Z1 = sha256(b"first message").digest()
Z2 = sha256(b"second message").digest()


def test_forced_k1_analytic_signature():
    # d = 1, k = 1, z = 0  =>  r = Gx mod n and s = 1*(0 + 1*r) = r
    # s = r = Gx mod n lies below n/2, so the low-s rule leaves it alone
    sig = sign(1, bytes(32), nonce_source=oracle.FixedNonce([1]))
    gx = 0x79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798
    assert sig.r == gx % N
    assert sig.s == sig.r


def test_zero_nonce_injected_is_rejected_and_redrawn():
    good = sign(5, Z1, nonce_source=oracle.FixedNonce([7]))
    redrawn = sign(5, Z1, nonce_source=oracle.FixedNonce([0, 7]))
    assert redrawn == good


def test_overrange_nonce_candidates_skipped():
    good = sign(5, Z1, nonce_source=oracle.FixedNonce([7]))
    redrawn = sign(5, Z1, nonce_source=oracle.FixedNonce([N, (1 << 256) - 1, 7]))
    assert redrawn == good


def test_zero_s_is_redrawn():
    """d = 1 and z = n - r1 make k1 give s = k1^-1 (z + r1) = 0 mod n, so
    sign draws the next candidate."""
    k1, k2 = 7, 11
    r1 = oracle.bench.ec_mul(k1)[0] % N
    z = ((N - r1) % N).to_bytes(32, "big")
    sig = sign(1, z, nonce_source=oracle.FixedNonce([k1, k2]))
    assert sig == sign(1, z, nonce_source=oracle.FixedNonce([k2]))
    assert verify(public_point(1), z, sig)


def test_nonce_source_exhausted():
    with pytest.raises(CryptoError):
        sign(5, Z1, nonce_source=oracle.FixedNonce([0, N]))


def test_invalid_private_keys_rejected():
    for d in (0, N, N + 5):
        with pytest.raises(InvalidKeyError):
            sign(d, Z1)
    for z in (b"\x00" * 31, "a" * 32, None):
        with pytest.raises(ValidationError):
            sign(1, z)
        with pytest.raises(ValidationError):
            rfc6979_nonce(1, z)


def test_rfc6979_determinism():
    assert rfc6979_nonce(1, Z1) == rfc6979_nonce(1, Z1)
    assert rfc6979_nonce(1, Z1) != rfc6979_nonce(1, Z2)
    s1 = sign(42, Z1, nonce_source=Rfc6979Nonce())
    s2 = sign(42, Z1, nonce_source=Rfc6979Nonce())
    assert s1 == s2


def test_rfc6979_community_vector():
    z = sha256(b"Satoshi Nakamoto").digest()
    assert rfc6979_nonce(1, z) == \
        0x8f8a276c19f4149656b280621e358cce24f5f52542772691ee69063b74f15d15


def test_rfc6979_nonces_match_oracle():
    rng = random.Random(55)
    for _ in range(25):
        d = rng.randrange(1, N)
        z = rng.randbytes(32)
        assert rfc6979_nonce(d, z) == oracle.bench.rfc6979_nonce(d, z)


def test_sign_verify_round_trips():
    """200 random (d, z) pairs sign and verify; low-s always holds."""
    rng = random.Random(777)
    for i in range(200):
        d = rng.randrange(1, N)
        z = rng.randbytes(32)
        # half deterministic, half with a seeded "random" source
        if i % 2:
            sig = sign(d, z, nonce_source=Rfc6979Nonce())
        else:
            sig = sign(d, z, nonce_source=oracle.FixedNonce([rng.randrange(1, N)]))
        pub = public_point(d)
        assert sig.s <= N // 2
        assert verify(pub, z, sig)
        # malleated twin verifies but is never the emitted form
        twin = Signature(sig.r, N - sig.s, sig.y_parity ^ 1)
        assert verify(pub, z, twin)
        assert twin.s > N // 2
        # tampering breaks it
        assert not verify(pub, z, Signature(sig.r, sig.s ^ 1, sig.y_parity))


def test_parity_matches_nonce_point():
    """The parity is R's y parity, flipped when low-s negates s."""
    for case in vectors.RFC6979_SIGNATURES[:4]:
        d = int(case["d"], 16)
        z = bytes.fromhex(case["z"])
        k = int(case["k"], 16)
        x, y = oracle.bench.ec_mul(k)
        s_raw = pow(k, -1, N) * (int.from_bytes(z, "big") + x % N * d) % N
        sig = sign(d, z, nonce_source=oracle.FixedNonce([k]))
        assert sig.y_parity == (y & 1) ^ (s_raw > N // 2)


def test_z_larger_than_n_reduces():
    d = 99
    z_big = (N + 12345).to_bytes(32, "big")
    z_eq = (12345).to_bytes(32, "big")
    s1 = sign(d, z_big, nonce_source=oracle.FixedNonce([55]))
    s2 = sign(d, z_eq, nonce_source=oracle.FixedNonce([55]))
    assert s1.r == s2.r and s1.s == s2.s


def test_pipelined_signing_is_order_independent():
    a_then_b = (sign(11, Z1, nonce_source=Rfc6979Nonce()),
                sign(22, Z2, nonce_source=Rfc6979Nonce()))
    b_then_a = (sign(22, Z2, nonce_source=Rfc6979Nonce()),
                sign(11, Z1, nonce_source=Rfc6979Nonce()))
    assert a_then_b[0] == b_then_a[1]
    assert a_then_b[1] == b_then_a[0]


def test_random_nonce_source_signs_validly():
    d = 31337
    sig = sign(d, Z1, nonce_source=RandomNonce())
    assert verify(public_point(d), Z1, sig)


def test_signature_component_validation():
    with pytest.raises(ValueError):
        Signature(0, 1, 0)
    with pytest.raises(ValueError):
        Signature(1, 0, 0)
    with pytest.raises(ValueError):
        Signature(1, N, 0)
    with pytest.raises(ValueError):
        Signature(1, 1, 2)


def test_verify_rejects_malformed_inputs():
    d = 424242
    pub = public_point(d)
    sig = sign(d, Z1, nonce_source=Rfc6979Nonce())
    assert verify(pub, Z1, sig)
    assert verify(pub, Z1, tuple(sig))                    # (r, s, parity)
    assert not verify(pub, Z2, sig)                       # wrong digest
    assert not verify(pub, Z1, (sig.r, 0))                # s = 0
    assert not verify(pub, Z1, (0, sig.s))                # r = 0
    assert not verify(pub, Z1, (sig.r, N))                # s = n
    assert not verify(pub, Z1, (N, sig.s))                # r = n
    assert not verify(pub, Z1, (sig.s, sig.r))            # swapped
    assert not verify(pub, Z1, (sig.r + N, sig.s))        # r + n
    assert not verify(pub, Z1, (str(sig.r), sig.s))       # str r
    assert not verify(pub, Z1, (sig.r, float(sig.s)))     # float s
    assert not verify(pub, Z1, "garbage")                 # not a signature
    assert not verify(pub, Z1[:31], sig)                  # short digest
    assert not verify(pub, "x" * 32, sig)                 # str digest
    assert not verify(pub, None, sig)                     # no digest
    assert verify(pub, bytearray(Z1), sig)                # bytearray digest
    assert not verify((pub.x, pub.y), Z1, sig)            # bare tuple pubkey
    assert not verify(AffinePoint(0, 0, True), Z1, sig)   # infinity pubkey
    assert not verify(AffinePoint(5, 7), Z1, sig)         # point off curve
    assert not verify(AffinePoint(str(pub.x), pub.y), Z1, sig)  # str x
    assert not verify(AffinePoint(None, None), Z1, sig)   # no coordinates
    assert not verify(public_point(d + 1), Z1, sig)       # wrong key


def test_verify_rejects_non_canonical_public_key_coordinates():
    """x + p and y - p name the same point mod p but are not its encoding."""
    p = FIELD_P.value
    pub = public_point(7)
    sig = sign(7, Z1, nonce_source=Rfc6979Nonce())
    assert verify(pub, Z1, sig)
    assert not verify(AffinePoint(pub.x + p, pub.y), Z1, sig)
    assert not verify(AffinePoint(pub.x, pub.y - p), Z1, sig)


def test_verify_round_trips_where_the_shamir_table_degenerates():
    """Q = G makes the table's G + Q a doubling; Q = -G makes it the
    identity. Both keys sign and verify, and a tampered s fails."""
    for d in (1, N - 1):
        pub = public_point(d)
        for z in (Z1, Z2):
            sig = sign(d, z, nonce_source=Rfc6979Nonce())
            assert verify(pub, z, sig)
            assert not verify(pub, z, Signature(sig.r, sig.s ^ 1, 0))


def test_verify_rejects_a_sum_at_the_identity():
    """e = -r*d (mod n) makes u1*G + u2*Q = w*(e + r*d)*G the identity,
    which has no x to compare with r: the verdict is False."""
    d = 424242
    r, s = 0x1234567, 0x89abcdef
    z = ((-r * d) % N).to_bytes(32, "big")
    assert not verify(public_point(d), z, Signature(r, s, 0))


def test_verify_runs_no_modeled_multiply():
    d = 424242
    pub = public_point(d)
    sig = sign(d, Z1, nonce_source=Rfc6979Nonce())
    with count_mul_iterations() as counts:
        assert verify(pub, Z1, sig)
        assert not verify(pub, Z2, sig)
    assert counts == []
