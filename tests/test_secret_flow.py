"""Program-counter checks on secret paths: the bytecode a secret-keyed
function runs must not depend on the secret.

opcode_trace logs (function, bytecode offset) for every opcode executed
in one source file; code in any other file (the field operations, the
hash functions) is opaque, one call each. Equal logs over many secrets
mean no branch in that file follows them.
"""

import random
import sys

import pytest

from ethcold import curve as curve_module
from ethcold import ecdsa as ecdsa_module
from ethcold.curve import (_comb_table, CurveParams, scalar_mul_comb,
                           scalar_mul_ladder)
from ethcold.ecdsa import Rfc6979Nonce, sign
from ethcold.field import Modulus, SECP256K1_N as N

import oracle
import vectors

SC = vectors.SMALL_CURVE


def opcode_trace(path, fn, *args):
    """(function, bytecode offset) of every opcode fn(*args) runs in the
    source file `path`. The tracer in place before the call is restored
    after it."""
    log = []

    def local(frame, event, arg):
        if event == "opcode":
            log.append((frame.f_code.co_name, frame.f_lasti))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename == path:
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
    traces = {opcode_trace(curve_module.__file__, mul, k, small)
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
    traces = {opcode_trace(ecdsa_module.__file__, sign, d, z, Rfc6979Nonce())
              for d, z in pairs}
    assert len(traces) == 1


def _leaky(k):
    if k & 1:
        k = 3 * k
    return k


def test_a_branch_on_a_secret_bit_is_flagged():
    traces = {opcode_trace(__file__, _leaky, k) for k in range(8)}
    assert len(traces) == 2


def test_opcode_trace_restores_the_outer_tracer():
    def outer(frame, event, arg):
        return None

    saved = sys.gettrace()
    sys.settrace(outer)
    try:
        assert opcode_trace(__file__, _leaky, 1)
        assert sys.gettrace() is outer
    finally:
        sys.settrace(saved)
