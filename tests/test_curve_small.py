"""Exhaustive group-law checks on y^2 = x^3 + 7 over GF(103).

The same complete-addition schedule and ladder code run against a curve
small enough to compare with brute force. Acceptance criterion 3 checks
every pair against the chord-tangent oracle and the balanced ladder
against repeated addition; this module checks the group laws and the
ladder's register invariant.
"""

import itertools
import random

from ethcold.curve import (CurveParams, HARDENED_SCHEDULE, IDENTITY,
                           point_add_complete, ProjectivePoint, R0, R1,
                           scalar_mul_ladder, to_affine)
from ethcold.field import Modulus
from ethcold.trace import TraceRecorder

import oracle
import vectors

SC = vectors.SMALL_CURVE
SMALL = CurveParams(p=Modulus(SC["p"]), n=Modulus(SC["order"]),
                    b=SC["b"], gx=SC["gx"], gy=SC["gy"])
P = SC["p"]
ORDER = SC["order"]

# every affine point on the curve, identity excluded
POINTS = [(x, y) for x in range(P) for y in range(P)
          if (y * y - x * x * x - SC["b"]) % P == 0]


def proj(pt):
    return ProjectivePoint(pt[0], pt[1], 1) if pt is not None else IDENTITY


def unproj(pt):
    aff = to_affine(pt, SMALL)
    return None if aff.infinity else (aff.x, aff.y)


def add(p1, p2):
    return unproj(point_add_complete(proj(p1), proj(p2), SMALL))


def test_commutativity_exhaustive():
    for p1, p2 in itertools.combinations(POINTS, 2):
        assert add(p1, p2) == add(p2, p1)


def test_closure_exhaustive():
    valid = set(POINTS) | {None}
    for p1 in POINTS:
        for p2 in POINTS:
            assert add(p1, p2) in valid


def test_associativity_sampled_triples():
    rng = random.Random(500)
    pool = [None] + POINTS
    for _ in range(400):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert add(add(a, b), c) == add(a, add(b, c))


def test_scalar_addition_homomorphism_exhaustive():
    """(k1 + k2)*G equals k1*G + k2*G over the whole scalar range."""
    g = (SC["gx"], SC["gy"])
    by_k = {k: oracle.ec_mul(k, g, P, ORDER) for k in range(ORDER)}
    by_k[0] = None
    for k1 in range(ORDER):
        for k2 in range(ORDER):
            assert add(by_k[k1], by_k[k2]) == by_k[(k1 + k2) % ORDER]


def test_ladder_state_invariant_r1_minus_r0_is_base_point():
    """After every iteration R1 - R0 equals the ladder input point.

    The hardened schedule's rows run over the affine oracle's addition,
    so every intermediate register value is visible.
    """
    g = (SC["gx"], SC["gy"])
    neg_g = (SC["gx"], (-SC["gy"]) % P)
    rng = random.Random(9)
    for k in list(range(1, 8)) + [rng.randrange(1, ORDER) for _ in range(20)]:
        bits = format(k, "0%db" % SMALL.scalar_bits)
        regs = ([g, oracle.ec_add(g, g, P), None] if bits[0] == "1"
                else [None, g, None])
        for bit in bits[1:]:
            for _slot, _op, a, b, dst, _port in HARDENED_SCHEDULE[int(bit)]:
                regs[dst] = oracle.ec_add(regs[a], regs[b], P)
            assert oracle.ec_add(regs[R1], neg_g, P) == regs[R0]
        got = scalar_mul_ladder(k, SMALL)
        assert regs[R0] == (None if got.infinity else (got.x, got.y))


def test_small_ladder_iteration_count():
    rec = TraceRecorder()
    scalar_mul_ladder(5, SMALL, recorder=rec)
    ladder_events = [e for e in rec.events if e.slot != "BIA"]
    assert len(ladder_events) == (SMALL.scalar_bits - 1) * 3
