"""Program-counter checks on secret paths: the bytecode a secret-keyed
function runs must not depend on the secret.

opcode_trace logs (function, bytecode offset) for every opcode executed
in a set of source files; code in any other file (the field operations,
the hash functions) is opaque, one call each. Equal logs over many secrets
mean no branch in those files follows them.
"""

import random
import sys

import pytest

from ethcold import curve as curve_module
from ethcold import ecdsa as ecdsa_module
from ethcold import field as field_module
from ethcold import hd as hd_module
from ethcold import keystore as keystore_module
from ethcold.curve import (_comb_table, CurveParams, scalar_mul_comb,
                           scalar_mul_ladder, SECP256K1)
from ethcold.ecdsa import Rfc6979Nonce, sign
from ethcold.field import FIELD_P, Modulus, SECP256K1_N as N
from ethcold.hd import ckd_priv, ExtendedKey, HARDENED, master_from_seed
from ethcold.keystore import Keystore

import oracle
import vectors

SC = vectors.SMALL_CURVE


def opcode_trace(paths, fn, *args):
    """(function, bytecode offset) of every opcode fn(*args) runs in the
    source files `paths`. The tracer in place before the call is restored
    after it."""
    log = []

    def local(frame, event, arg):
        if event == "opcode":
            log.append((frame.f_code.co_name, frame.f_lasti))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename in paths:
            frame.f_trace_opcodes = True
            return local
        return None

    outer = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(outer)
    return tuple(log)


@pytest.mark.parametrize("mul", [scalar_mul_ladder, scalar_mul_comb])
def test_one_opcode_trace_for_every_scalar_on_small_curve(mul):
    """Every scalar of the mod-103 curve runs the same opcodes in
    curve.py, the ladder's start included (it selects its registers by a
    mask on the top bit, not by a branch)."""
    small = CurveParams(p=Modulus(SC["p"]), n=Modulus(SC["order"]),
                        b=SC["b"], gx=SC["gx"], gy=SC["gy"])
    _comb_table(small)  # built once per curve, not part of the multiply
    traces = {opcode_trace({curve_module.__file__}, mul, k, small)
              for k in range(1, SC["order"])}
    assert len(traces) == 1


def test_one_opcode_trace_for_every_signature():
    """sign runs the same opcodes in ecdsa.py for every key and digest,
    on both sides of low-s; the comb, the field operations (Modulus.inv
    included) and HMAC live in other files and are opaque."""
    rng = random.Random(0x5167)
    pairs = [(rng.randrange(1, N), rng.randbytes(32)) for _ in range(12)]
    high_s = set()
    for d, z in pairs:
        k = oracle.bench.rfc6979_nonce(d, z)
        r = oracle.bench.ec_mul(k)[0] % N
        high_s.add(pow(k, -1, N) * (int.from_bytes(z, "big") + d * r) % N
                   > N // 2)
    assert high_s == {False, True}
    traces = {opcode_trace({ecdsa_module.__file__}, sign, d, z, Rfc6979Nonce())
              for d, z in pairs}
    assert len(traces) == 1


@pytest.mark.parametrize("index", [HARDENED + 7, 7])
def test_one_opcode_trace_for_every_ckd_parent(index):
    """A hardened child hashes the parent key and a normal one its
    compressed point; either way ckd_priv runs the same opcodes in hd.py
    for every parent (the comb and HMAC are opaque)."""
    rng = random.Random(0xC4D + index)
    parents = [ExtendedKey(rng.randrange(1, N), rng.randbytes(32))
               for _ in range(8)]
    traces = {opcode_trace({hd_module.__file__}, ckd_priv, parent, index)
              for parent in parents}
    assert len(traces) == 1


def _restore(seed):
    return Keystore(master_from_seed(seed)).generate(1)[0].address


def test_one_opcode_trace_for_every_restored_seed():
    """Seed to first address runs the same opcodes in hd.py, keystore.py
    and curve.py together for every seed. address.py stays opaque: the
    EIP-55 checksum branches on the address, which is public."""
    _comb_table(SECP256K1)  # built once per process, not part of a restore
    rng = random.Random(0x5EED)
    paths = {hd_module.__file__, keystore_module.__file__,
             curve_module.__file__}
    traces = {opcode_trace(paths, _restore, rng.randbytes(64))
              for _ in range(8)}
    assert len(traces) == 1


def test_modulus_inv_branches_on_its_input():
    """Negative control: the binary extended-Euclid inverse loops and
    branches on the value it inverts, so every input has its own trace.
    Item 3 of the ROADMAP (a fixed-iteration inversion) inverts this
    test on purpose: then one trace is the pass."""
    rng = random.Random(0x1417)
    traces = {opcode_trace({field_module.__file__}, FIELD_P.inv,
                           rng.randrange(1, FIELD_P.value))
              for _ in range(4)}
    assert len(traces) > 1


def _leaky(k):
    if k & 1:
        k = 3 * k
    return k


def test_a_branch_on_a_secret_bit_is_flagged():
    traces = {opcode_trace({__file__}, _leaky, k) for k in range(8)}
    assert len(traces) == 2


def test_opcode_trace_restores_the_outer_tracer():
    def outer(frame, event, arg):
        return None

    saved = sys.gettrace()
    sys.settrace(outer)
    try:
        assert opcode_trace({__file__}, _leaky, 1)
        assert sys.gettrace() is outer
    finally:
        sys.settrace(saved)
