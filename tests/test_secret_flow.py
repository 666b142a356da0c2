"""One contract for every path a secret flows through.

Every secret of a SECRET_PATHS row must give, from one call: one
opcode_trace log over the row's files, not an empty one; one
count_mul_iterations list, (modulus width,) * multiplies; one
TraceRecorder.shape, `events` long. Code in other files (the field
operations, the hashes) is opaque to the log, one call each, and the
multiply count covers it. A new secret path is one more row. The two
mod-103 rows are checked by
test_one_opcode_trace_for_every_scalar_on_small_curve, the others by
test_every_secret_runs_one_shape.
"""

import random
import sys
from functools import partial

import pytest

from ethcold import curve, ecdsa, field, hd, keystore
from ethcold.curve import CurveParams, SECP256K1
from ethcold.field import count_mul_iterations, FIELD_P, SECP256K1_N as N
from ethcold.selftest import _ALL_ROWS_K
from ethcold.trace import TraceRecorder

import oracle
import vectors

SC = vectors.SMALL_CURVE
SMALL = CurveParams(p=field.Modulus(SC["p"]), n=field.Modulus(SC["order"]),
                    b=SC["b"], gx=SC["gx"], gy=SC["gy"])


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


def _pairs(seed, count):
    """count seeded (key, 32 random bytes) pairs."""
    rng = random.Random(seed)
    return [(rng.randrange(1, N), rng.randbytes(32)) for _ in range(count)]


_seed_rng = random.Random(0x5EED)
CURVE, HD = curve.__file__, hd.__file__
SCALARS_103 = range(1, SC["order"])

# name: (logged files, call(secret, recorder=), secrets, modulus width,
# multiplies, events). A CKD builds its parent, so no cached point skips
# its comb; address.py is opaque in a restore: EIP-55 reads the address.
SECRET_PATHS = {
    "ladder-103": ({CURVE}, partial(curve.scalar_mul_ladder, curve=SMALL),
                   SCALARS_103, 7, 268, 20),
    "comb-103": ({CURVE}, partial(curve.scalar_mul_comb, curve=SMALL),
                 SCALARS_103, 7, 30, 4),
    "comb-secp256k1": ({CURVE}, curve.scalar_mul_comb, [
        1, 2, 0xf0f0, N - 1, N + 1, 1 << 255, (1 << 256) - 1, _ALL_ROWS_K],
        256, 520, 39),
    "sign": ({ecdsa.__file__}, lambda pair, recorder: ecdsa.sign(
        *pair, ecdsa.Rfc6979Nonce()), _pairs(0x5167, 12), 256, 522, 0),
    "sign-default": ({ecdsa.__file__}, lambda pair, recorder: ecdsa.sign(
        *pair), _pairs(0x5167, 12), 256, 522, 0),
    "ckd-hardened": ({HD}, lambda p, recorder: hd.ckd_priv(
        hd.ExtendedKey(*p), hd.HARDENED + 7),
        _pairs(0xC4D + hd.HARDENED + 7, 8), 256, 0, 0),
    "ckd-normal": ({HD}, lambda p, recorder: hd.ckd_priv(
        hd.ExtendedKey(*p), 7), _pairs(0xC4D + 7, 8), 256, 520, 0),
    "restore": ({HD, keystore.__file__, CURVE},
                lambda seed, recorder: keystore.Keystore(
                    hd.master_from_seed(seed)).generate(1)[0].address,
                [_seed_rng.randbytes(64) for _ in range(8)], 256, 3 * 520, 0),
}


def _observe(files, call, secrets):
    """The sets of opcode logs, multiply lists and trace shapes that the
    secrets give, each from one call."""
    for params in (SMALL, SECP256K1):
        curve._comb_table(params)  # built once per curve, not per multiply
    logs, counts, shapes = set(), set(), set()
    for secret in secrets:
        rec = TraceRecorder()
        with count_mul_iterations() as muls:
            logs.add(opcode_trace(files, partial(call, recorder=rec), secret))
        counts.add(tuple(muls))
        shapes.add(rec.shape)
    return logs, counts, shapes


def _check_row(name):
    files, call, secrets, width, multiplies, events = SECRET_PATHS[name]
    logs, counts, shapes = _observe(files, call, secrets)
    assert len(logs) == 1 and () not in logs
    assert counts == {(width,) * multiplies}
    assert [len(shape) for shape in shapes] == [events]


SMALL_CURVE_ROWS = {curve.scalar_mul_ladder: "ladder-103",
                    curve.scalar_mul_comb: "comb-103"}


@pytest.mark.parametrize("mul", SMALL_CURVE_ROWS)
def test_one_opcode_trace_for_every_scalar_on_small_curve(mul):
    """The mod-103 rows, every scalar: the ladder's start included (it
    selects its registers by a mask on the top bit, not by a branch)."""
    _check_row(SMALL_CURVE_ROWS[mul])


@pytest.mark.parametrize("name", [name for name in SECRET_PATHS
                                  if name not in SMALL_CURVE_ROWS.values()])
def test_every_secret_runs_one_shape(name):
    _check_row(name)


def test_the_sign_row_covers_both_sides_of_low_s():
    """Some of the row's pairs fold s > n/2, which flips R.y's parity."""
    flips = {oracle.bench.sign(d, z)["parity"]
             ^ (oracle.bench.ec_mul(oracle.bench.rfc6979_nonce(d, z))[1] & 1)
             for d, z in SECRET_PATHS["sign"][2]}
    assert flips == {0, 1}


def test_a_multiply_outside_the_logged_files_fails_the_count():
    """Negative control for the count half: one more FIELD_P.mul for odd
    keys, run from this file, which is not logged, keeps one opcode log
    and one shape, but the two multiply lists fail the comb-103 row."""
    def comb_and_a_multiply(k, recorder):
        curve.scalar_mul_comb(k, SMALL, recorder=recorder)
        if k & 1:
            FIELD_P.mul(1, 1)

    assert [len(seen) for seen in _observe(
        {CURVE}, comb_and_a_multiply, SCALARS_103)] == [1, 2, 1]


def test_modulus_inv_branches_on_its_input():
    """Negative control: the binary extended-Euclid inverse loops and
    branches on the value it inverts, so every input has its own trace.
    Item 3 of the ROADMAP (a fixed-iteration inversion) inverts this
    test on purpose: then one trace is the pass."""
    rng = random.Random(0x1417)
    traces = {opcode_trace({field.__file__}, FIELD_P.inv,
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
