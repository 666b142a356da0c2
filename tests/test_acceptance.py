"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Criteria with stated runtime budgets assert them.
"""

import random
import time
from hashlib import sha256, sha512

import pytest

from ethcold.address import pubkey_to_address, to_checksum_address
from ethcold.bip39 import entropy_to_mnemonic, mnemonic_to_entropy, mnemonic_to_seed
from ethcold.curve import (AffinePoint, CurveParams, is_on_curve,
                           point_add_complete, scalar_mul_ladder, SECP256K1,
                           to_affine)
from ethcold.ecdsa import Rfc6979Nonce, sign, verify
from ethcold.errors import InvalidKeyError, InvalidScalarError
from ethcold.field import (count_mul_iterations, FIELD_P, Modulus, ORDER_N,
                           SECP256K1_N)
import ethcold.hd
from ethcold.hd import (ckd_priv, derive_path, ETH_BASE_PATH,
                        master_from_seed, public_point)
from ethcold.kdf import hmac_sha512, pbkdf2_hmac_sha512
from ethcold.keccak import keccak256
from ethcold.keystore import Keystore
from ethcold.trace import TraceRecorder

import oracle
import vectors

N = SECP256K1_N


def _report(number, name, started):
    print("\n[acceptance] criterion %d (%s): PASS (%.2fs)"
          % (number, name, time.monotonic() - started))


def test_criterion_1_standard_vector_conformance():
    started = time.monotonic()

    # FIPS 180-4 SHA-256, the standard library's, which the wallet's
    # mnemonic checksum, HMAC and PBKDF2 run on
    assert sha256(b"").hexdigest() == ("e3b0c44298fc1c149afbf4c8996fb924"
                                       "27ae41e4649b934ca495991b7852b855")
    assert sha256(b"abc").hexdigest() == ("ba7816bf8f01cfea414140de5dae2223"
                                          "b00361a396177a9cb410ff61f20015ad")
    assert sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
                  ).hexdigest() == ("248d6a61d20638b8e5c026930c3e6039"
                                    "a33ce45964ff2167f6ecedd419db06c1")
    assert sha256(b"a" * 1000000).hexdigest() == (
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")

    # FIPS 180-4 SHA-512
    assert sha512(b"").hexdigest() == (
        "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
        "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e")
    assert sha512(b"abc").hexdigest() == (
        "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
        "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f")
    v = vectors.SHA512_TWO_BLOCK
    assert sha512(bytes.fromhex(v["msg"])).hexdigest() == v["digest"]

    # RFC 4231 HMAC-SHA512 cases 1-7
    for case in vectors.RFC4231:
        assert hmac_sha512(bytes.fromhex(case["key"]),
                           bytes.fromhex(case["msg"])).hex() == case["mac"]

    # published PBKDF2-HMAC-SHA512 vectors
    for case in vectors.PBKDF2:
        got = pbkdf2_hmac_sha512(bytes.fromhex(case["password"]),
                                 bytes.fromhex(case["salt"]),
                                 case["c"], case["dk_len"])
        assert got.hex() == case["dk"]

    # BIP-39: word encoding for every frozen vector, seeds across all five
    # entropy sizes with both the TREZOR and the empty passphrase
    seed_sizes_done = set()
    for case in vectors.BIP39_VECTORS:
        entropy = bytes.fromhex(case["entropy"])
        assert " ".join(entropy_to_mnemonic(entropy)) == case["mnemonic"]
        assert mnemonic_to_entropy(case["mnemonic"]) == entropy
    for case in vectors.BIP39_VECTORS:
        size = len(case["entropy"]) // 2
        if size in seed_sizes_done:
            continue
        seed_sizes_done.add(size)
        words = case["mnemonic"].split()
        assert mnemonic_to_seed(words, "TREZOR").hex() == case["seed_trezor"]
        if size in (16, 32):
            assert mnemonic_to_seed(words, "").hex() == case["seed_empty"]
    assert seed_sizes_done == {16, 20, 24, 28, 32}

    # BIP-32 reference chains 1 and 2, raw key/chain-code comparison
    for chain, seed_hex in (
            (vectors.BIP32_CHAIN1, "000102030405060708090a0b0c0d0e0f"),
            (vectors.BIP32_CHAIN2,
             "fffcf9f6f3f0edeae7e4e1dedbd8d5d2cfccc9c6c3c0bdbab7b4b1aeaba8a5"
             "a29f9c999693908d8a8784817e7b7875726f6c696663605d5a5754514e4b48"
             "4542")):
        node = master_from_seed(bytes.fromhex(seed_hex))
        assert "%064x" % node.key == chain[0]["key"]
        assert node.chain_code.hex() == chain[0]["chain"]
        for row in chain[1:]:
            node = ckd_priv(node, row["index"])
            assert "%064x" % node.key == row["key"]
            assert node.chain_code.hex() == row["chain"]

    # EIP-55 reference addresses
    for expected in vectors.EIP55_ADDRESSES:
        raw = bytes.fromhex(expected[2:].lower())
        assert to_checksum_address(raw) == expected

    # Keccak-256 canonical digests
    assert keccak256(b"").hex() == ("c5d2460186f7233c927e7db2dcc703c0"
                                    "e500b653ca82273b7bfad8045d85a470")
    assert keccak256(b"abc").hex() == ("4e03657aea45a94fc7d47ba826c8d667"
                                       "c0d1e6e33a64a036ec44f58fa12d6c45")

    # ECDSA-verify verdict subset in the Wycheproof style: a valid
    # signature plus the classic mutation categories
    d = 0x2e09a4a7a8802e8e54c8c06dbdfd669c6a38858a46bcea32e22ab12f437a9c06
    z = sha256(b"verify subset message").digest()
    expected = oracle.bench.sign(d, z)
    r, s = int(expected["r"], 16), int(expected["s"], 16)
    pub = AffinePoint(*oracle.bench.ec_mul(d))
    half = N // 2
    cases = [
        ((r, s), True),                   # valid
        ((r, N - s), True),               # high-s malleated twin is accepted
        ((0, s), False),                  # r = 0
        ((r, 0), False),                  # s = 0
        ((N, s), False),                  # r = n
        ((r, N), False),                  # s = n
        ((r + N, s), False),              # r' = r + n
        ((s, r), False),                  # components swapped
        ((r ^ 1, s), False),              # bit-flipped r
        ((r, s ^ 1), False),              # bit-flipped s
        ((1, 1), False),                  # tiny constants
        ((1, 2), False),
        ((r, half), False),               # unrelated s
    ]
    for sig, expected_verdict in cases:
        assert verify(pub, z, sig) is expected_verdict, sig
    assert verify(pub, sha256(b"other message").digest(), (r, s)) is False
    assert verify(AffinePoint(5, 7), z, (r, s)) is False

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, "standard-vector conformance took %.2fs" % elapsed
    _report(1, "standard-vector conformance", started)


def test_criterion_2_secp256k1_edge_case_table():
    started = time.monotonic()
    for k in (0, N):
        with pytest.raises(InvalidScalarError):
            scalar_mul_ladder(k)
    got = scalar_mul_ladder(N + 1)
    assert (got.x, got.y) == (SECP256K1.gx, SECP256K1.gy)  # behaves like k=1
    for name, k in (("3", 3), ("n_minus_1", N - 1), ("2p255", 1 << 255),
                    ("2p256_minus_1", (1 << 256) - 1)):
        expected = vectors.SCALAR_MULT[name]
        got = scalar_mul_ladder(k)
        assert "%064x" % got.x == expected["x"]
        assert "%064x" % got.y == expected["y"]
        assert (got.x, got.y) == oracle.bench.ec_mul(k)
    _report(2, "secp256k1 edge-case table", started)


def test_criterion_3_small_curve_exhaustive_oracle():
    started = time.monotonic()
    sc = vectors.SMALL_CURVE
    small = CurveParams(p=Modulus(sc["p"]),
                        n=Modulus(sc["order"]),
                        b=sc["b"], gx=sc["gx"], gy=sc["gy"])
    p = sc["p"]
    points = [(x, y) for x in range(p) for y in range(p)
              if (y * y - x ** 3 - sc["b"]) % p == 0]
    assert len(points) + 1 == sc["order"]

    def add(p1, p2):
        from ethcold.curve import IDENTITY, ProjectivePoint
        q1 = ProjectivePoint(*p1, 1) if p1 else IDENTITY
        q2 = ProjectivePoint(*p2, 1) if p2 else IDENTITY
        pt = point_add_complete(q1, q2, small)
        return None if pt.z == 0 else tuple(to_affine(pt, small))

    everything = [None] + points
    for p1 in everything:
        for p2 in everything:
            assert add(p1, p2) == oracle.ec_add(p1, p2, p)

    g = (sc["gx"], sc["gy"])
    acc = None
    for k in range(1, sc["order"]):
        acc = oracle.ec_add(acc, g, p)
        got = scalar_mul_ladder(k, small)
        assert (got.x, got.y) == acc
    with pytest.raises(InvalidScalarError):
        scalar_mul_ladder(sc["order"], small)

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, "small-curve oracle took %.2fs" % elapsed
    _report(3, "small-curve exhaustive oracle", started)


def test_criterion_4_ladder_uniformity():
    started = time.monotonic()
    rng = random.Random(0xEC)
    # an adversarial pair, 2^254 + 1 and 2^255 - 1, then 100 random keys,
    # all on the native twin, which records the modeled curve's events
    pair = [(1 << 254) + 1, (1 << 255) - 1]
    scalars = pair + [rng.randrange(1, N) for _ in range(100)]
    traces = []
    for k in scalars:
        rec = TraceRecorder()
        point = scalar_mul_ladder(k, SECP256K1.native, recorder=rec)
        assert (point.x, point.y) == oracle.bench.ec_mul(k)
        assert is_on_curve(point)
        traces.append(rec)

    shapes = {t.shape for t in traces}
    assert len(shapes) == 1, "hardened shapes differ between keys"

    # the pair also runs modeled: one run gives the point, its trace and
    # the classic baseline view, at one fixed cost: 255 rows of 3
    # additions of 14 multiplies, the initial doubling and to_affine's 2
    baselines = []
    for k, native in zip(pair, traces):
        rec = TraceRecorder()
        with count_mul_iterations() as counts:
            point = scalar_mul_ladder(k, recorder=rec)
        assert counts == [256] * 10726
        assert (point.x, point.y) == oracle.bench.ec_mul(k)
        assert is_on_curve(point)
        assert rec.events == native.events
        baselines.append(rec.classic())

    # the classic baseline leaks for the adversarial pair
    assert baselines[0].shape != baselines[1].shape
    _report(4, "ladder trace uniformity", started)


def test_criterion_5_ecdsa_edge_case_table():
    started = time.monotonic()
    z = sha256(b"acceptance edge cases").digest()

    # zero values: d = 0 rejected; k = 0 rejected and redrawn; z = 0 signs
    with pytest.raises(InvalidKeyError):
        sign(0, z)
    base = sign(7, z, nonce_source=oracle.FixedNonce([99]))
    assert sign(7, z, nonce_source=oracle.FixedNonce([0, 99])) == base
    sig0 = sign(7, bytes(32), nonce_source=oracle.FixedNonce([99]))
    assert verify(public_point(7), bytes(32), sig0)

    # maximal bit patterns: d rejected above n, k >= n redrawn, z reduced
    with pytest.raises(InvalidKeyError):
        sign((1 << 256) - 1, z)
    assert sign(7, z, nonce_source=oracle.FixedNonce([(1 << 256) - 1, 99])) == base
    zmax = b"\xff" * 32
    smax = sign(7, zmax, nonce_source=oracle.FixedNonce([99]))
    zeq = (int.from_bytes(zmax, "big") % N).to_bytes(32, "big")
    seq = sign(7, zeq, nonce_source=oracle.FixedNonce([99]))
    assert (smax.r, smax.s) == (seq.r, seq.s)

    # small and near-order values
    for d in (1, 2, 3, N - 1, N - 2):
        sig = sign(d, z, nonce_source=Rfc6979Nonce())
        assert verify(public_point(d), z, sig)
        assert {"r": "%064x" % sig.r, "s": "%064x" % sig.s,
                "parity": sig.y_parity} == oracle.bench.sign(d, z)
    with pytest.raises(InvalidKeyError):
        sign(N, z)

    # deterministic signatures: bit-equal across runs, equal to the
    # independent oracle on 12 vectors
    for case in vectors.RFC6979_SIGNATURES:
        d = int(case["d"], 16)
        zz = bytes.fromhex(case["z"])
        sig = sign(d, zz, nonce_source=Rfc6979Nonce())
        again = sign(d, zz, nonce_source=Rfc6979Nonce())
        assert sig == again
        assert "%064x" % sig.r == case["r"]
        assert "%064x" % sig.s == case["s"]
        assert sig.y_parity == case["parity"]
    assert len(vectors.RFC6979_SIGNATURES) >= 10
    _report(5, "ecdsa edge-case table", started)


def test_criterion_6_end_to_end_determinism():
    started = time.monotonic()
    expected = vectors.ETH_ZERO_ENTROPY_24

    def pipeline():
        words = entropy_to_mnemonic(bytes(32))
        assert " ".join(words) == expected["mnemonic"]
        seed = mnemonic_to_seed(words, "")
        master = master_from_seed(seed)
        out = []
        for i in (0, 1):
            node = derive_path(master, ETH_BASE_PATH + (i,))
            point = public_point(node.key)
            out.append(to_checksum_address(pubkey_to_address(point)))
        return seed, out

    seed1, addrs1 = pipeline()
    seed2, addrs2 = pipeline()
    assert seed1 == seed2
    assert addrs1 == addrs2
    assert addrs1 == [a["address"] for a in expected["accounts"][:2]]

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, "end-to-end pipeline took %.2fs" % elapsed
    _report(6, "end-to-end determinism", started)


def test_criterion_7_kept_parent_node(monkeypatch):
    started = time.monotonic()
    master = master_from_seed(bytes.fromhex(
        vectors.ETH_ZERO_ENTROPY_24["seed"]))
    calls = []

    def counting_ckd(parent, index):
        calls.append(index)
        return ckd_priv(parent, index)

    monkeypatch.setattr(ethcold.hd, "ckd_priv", counting_ckd)
    store = Keystore(master)
    (first,) = store.generate(1)
    assert len(calls) == 5, "cold derivation must cost 5 CKD calls"
    (second,) = store.generate(1)
    assert len(calls) == 6, "warm derivation must cost exactly 1 more"
    seventh = store.account(7)
    assert len(calls) == 7, "a far sibling must cost exactly 1 more"
    assert store.account(7) is seventh
    assert len(calls) == 7, "a kept account must cost no CKD"

    # transparency: the kept parent gives derive_path's keys
    for account in (first, second, seventh):
        node = derive_path(master, ETH_BASE_PATH + (account.index,))
        assert account.key_int == node.key
    _report(7, "kept parent node", started)


def test_criterion_8_field_arithmetic_properties():
    started = time.monotonic()
    rng = random.Random(0xF1E7)
    for mod in (FIELD_P, ORDER_N):
        m = mod.value
        for _ in range(10000):
            a, b = rng.randrange(m), rng.randrange(m)
            assert mod.mul(a, b) == a * b % m
            assert mod.add(a, b) == (a + b) % m
            assert mod.sub(a, b) == (a - b) % m
            inv = mod.inv(a | 1)  # ensure nonzero
            assert inv == pow(a | 1, -1, m)

    patterns = [0, 1, 2, (1 << 256) % FIELD_P.value, FIELD_P.value - 1,
                int("f0" * 32, 16) % FIELD_P.value]
    patterns += [rng.randrange(FIELD_P.value) for _ in range(10)]
    with count_mul_iterations() as counts:
        for a in patterns:
            for b in patterns:
                FIELD_P.mul(a, b)
                ORDER_N.mul(a % ORDER_N.value, b % ORDER_N.value)
    assert counts and all(c == 256 for c in counts), \
        "multiplier iteration count must be constant at 256"

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, "field property checks took %.2fs" % elapsed
    _report(8, "field-arithmetic properties", started)
