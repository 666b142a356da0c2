"""ECDSA signing tests: forced nonces, RFC 6979 vectors, verify verdicts."""

import os
import random
from hashlib import sha256

import pytest

from ethcold import ecdsa
from ethcold.curve import AffinePoint, scalar_mul_comb, SECP256K1
from ethcold.ecdsa import Rfc6979Nonce, rfc6979_nonce, sign, Signature, verify
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
    """200 random (d, z) pairs sign and verify; low-s always holds. The
    public key is a public value, so it comes from the comb on
    SECP256K1.native, off the modeled multiplier (the bench oracle's
    affine double-and-add would cost more than sign itself). The
    malleated twin and a tampered s are criterion 1's verify table."""
    rng = random.Random(777)
    for i in range(200):
        d = rng.randrange(1, N)
        z = rng.randbytes(32)
        # half deterministic, half with a seeded "random" source
        if i % 2:
            sig = sign(d, z, nonce_source=Rfc6979Nonce())
        else:
            sig = sign(d, z, nonce_source=oracle.FixedNonce([rng.randrange(1, N)]))
        assert sig.s <= N // 2
        assert verify(scalar_mul_comb(d, SECP256K1.native), z, sig)


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


def test_default_source_signs_validly():
    """The default hedges RFC 6979 with fresh bytes: two signatures of one
    digest both verify, with two r values, neither the deterministic r."""
    d = 31337
    first, second = sign(d, Z1), sign(d, Z1)
    assert verify(public_point(d), Z1, first)
    assert verify(public_point(d), Z1, second)
    plain = sign(d, Z1, nonce_source=Rfc6979Nonce())
    assert len({first.r, second.r, plain.r}) == 3


def test_additional_data_follows_rfc6979_section_3_6(monkeypatch):
    """Section 3.6 appends k' to both seeding HMACs: step d is
    K = HMAC_K(V || 0x00 || int2octets(d) || bits2octets(h1) || k') with
    K = 0x00 * 32 and V = 0x01 * 32, step e is V = HMAC_K(V), step f is
    step d with 0x01. h1 above n shows bits2octets reducing it mod n; the
    default source passes 32 bytes of os.urandom as k'."""
    real, calls = ecdsa.hmac_sha256, []

    def recording(key, msg):
        calls.append((key, msg, real(key, msg)))
        return calls[-1][2]

    monkeypatch.setattr(ecdsa, "hmac_sha256", recording)
    monkeypatch.setattr(ecdsa.os, "urandom", lambda n: b"\xa5" * n)
    d, h1 = 0x1234, b"\xff" * 32
    tail = d.to_bytes(32, "big") + ((1 << 256) - 1 - N).to_bytes(32, "big")
    for source, extra in ((Rfc6979Nonce(), b""), (Rfc6979Nonce(b"k'"), b"k'"),
                          (None, b"\xa5" * 32)):
        calls.clear()
        sign(d, h1, nonce_source=source)
        (key0, msg0, key_d), (key1, msg1, v_e), (key2, msg2, _) = calls[:3]
        assert key0 == bytes(32)
        assert msg0 == b"\x01" * 32 + b"\x00" + tail + extra
        assert (key1, msg1) == (key_d, b"\x01" * 32)
        assert (key2, msg2) == (key_d, v_e + b"\x01" + tail + extra)


class _UrandomNonce:
    """k straight from os.urandom, with no RFC 6979 around it."""

    def nonces(self, d, z):
        while True:
            yield int.from_bytes(os.urandom(32), "big")


def _keys_from_shared_r(r, pairs):
    """Every d that two (e, s) with one r can come from: low-s makes each
    s = +-k^-1 (e + r d) mod n, so all four sign cases are tried."""
    (e1, s1), (e2, s2) = pairs
    keys = set()
    for a in (s1, N - s1):
        for b in (s2, N - s2):
            if a != b:
                k = (e1 - e2) * pow(a - b, -1, N) % N
                keys.add((a * k - e1) * pow(r, -1, N) % N)
    return keys


def test_a_stuck_rng_repeats_no_nonce(monkeypatch):
    """With os.urandom stuck, the default falls back to RFC 6979's
    determinism: two digests give two r, and both signatures verify. The
    negative control, k from os.urandom alone, repeats k and gives d."""
    monkeypatch.setattr(ecdsa.os, "urandom", lambda n: b"\x5a" * n)
    d = 0xC01D
    digests = (Z1, Z2)
    hedged = [sign(d, z) for z in digests]
    assert hedged[0].r != hedged[1].r
    assert all(verify(public_point(d), z, sig)
               for z, sig in zip(digests, hedged))
    assert sign(d, Z1) == hedged[0]
    bare = [sign(d, z, nonce_source=_UrandomNonce()) for z in digests]
    assert bare[0].r == bare[1].r
    pairs = [(int.from_bytes(z, "big") % N, sig.s)
             for z, sig in zip(digests, bare)]
    assert d in _keys_from_shared_r(bare[0].r, pairs)


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
