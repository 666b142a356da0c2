"""Tests for the shift-and-add modular arithmetic and binary inversion."""

import pytest

from ethcold.field import (count_mul_iterations, FIELD_P, Modulus, ORDER_N,
                           SECP256K1_N, SECP256K1_P)

# SEC2-published secp256k1 parameters, pinned as 32-byte hex.
P_HEX = "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"
N_HEX = "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"


def test_published_constants():
    assert "%064x" % SECP256K1_P == P_HEX
    assert "%064x" % SECP256K1_N == N_HEX
    assert FIELD_P.value == SECP256K1_P
    assert ORDER_N.value == SECP256K1_N
    assert SECP256K1_P.bit_length() == SECP256K1_N.bit_length() == 256


def test_add_wraparound_to_zero():
    p = FIELD_P.value
    assert FIELD_P.add(p - 1, 1) == 0


def test_add_small():
    assert FIELD_P.add(2, 3) == 5


def test_sub_self_and_wrap():
    p = FIELD_P.value
    assert FIELD_P.sub(5, 5) == 0
    assert FIELD_P.sub(0, 1) == p - 1


def test_add_sub_reject_operands_one_correction_cannot_reduce():
    """One correction of m gives the residue only for a + b in [0, 2m) or
    a - b in [-m, m); any other operands raise instead of answering
    wrong or out of range."""
    small = Modulus(103)
    for op, a, b in ((small.add, 150, 150),   # would return 197
                     (small.add, -5, 1),      # would return -4
                     (small.sub, 5, 300)):    # would return -192
        with pytest.raises(ValueError):
            op(a, b)
    assert small.add(102, 102) == 101 and small.sub(0, 102) == 1


def test_mul_identity_and_zero():
    a = 0xdeadbeef12345678
    assert FIELD_P.mul(a, 1) == a
    assert FIELD_P.mul(a, 0) == 0


def test_modulus_validation():
    with pytest.raises(ValueError):
        Modulus(2)
    with pytest.raises(ValueError):
        Modulus(8)  # even


def test_mul_rejects_operands_outside_the_residues():
    """An operand outside [0, m) raises instead of answering wrong: the
    step's thresholds m - a and 2m - a need a in [0, m), and b < m keeps
    the step count at the modulus width."""
    p = FIELD_P.value
    small = Modulus(103)
    for mod, a, b in ((small, 106, 35),   # would return 105, not 2
                      (FIELD_P, -1, 2),   # would return -2
                      (small, 5, 130),    # would run 8 steps, not 7
                      (small, 103, 1), (small, 1, 103), (small, 1, -1),
                      (ORDER_N, ORDER_N.value, 1), (FIELD_P, 1, p)):
        with pytest.raises(ValueError):
            mod.mul(a, b)
    assert FIELD_P.mul(p - 1, p - 1) == 1


@pytest.mark.parametrize("mod", [FIELD_P, ORDER_N], ids=["p", "n"])
def test_mul_edge_table_256_bit_moduli(mod):
    """Every pair of edge residues gives a*b mod m in exactly 256 steps:
    the ends of [0, m), the half (m + 1)/2 where 2a wraps to 1, the
    reductions of 2^255 and 2^256, and the byte patterns 0x1010...10 and
    0x0101...01."""
    m = mod.value
    edges = [0, 1, 2, m - 1, m - 2, (m + 1) // 2,
             (1 << 255) % m, (1 << 256) % m,
             int("10" * 32, 16), int("01" * 32, 16)]
    with count_mul_iterations() as counts:
        for a in edges:
            for b in edges:
                assert mod.mul(a, b) == a * b % m, (a, b)
    assert counts == [256] * len(edges) ** 2


def test_inv_trivial():
    assert FIELD_P.inv(1) == 1


def test_inv_three_mod_seven():
    m7 = Modulus(7)
    assert m7.inv(3) == 5  # 3*5 = 15 = 1 (mod 7)


def test_inv_two_is_half_p_plus_one():
    p = FIELD_P.value
    half = (p + 1) // 2
    assert FIELD_P.inv(2) == half
    assert FIELD_P.mul(2, half) == 1  # direct multiplication check


def test_inv_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        FIELD_P.inv(0)
    with pytest.raises(ZeroDivisionError):
        ORDER_N.inv(0)


def test_inv_reduces_its_input_first():
    """A z that shares a factor with m has no inverse; any other z inverts
    as z mod m. (The non-units come first: an unreduced negative z never
    ends the loop.)"""
    p, n = FIELD_P.value, ORDER_N.value
    with pytest.raises(ZeroDivisionError):
        FIELD_P.inv(p)
    with pytest.raises(ZeroDivisionError):
        ORDER_N.inv(2 * n)
    with pytest.raises(ZeroDivisionError):
        Modulus(111).inv(3)  # 111 = 3 * 37, the order of a test curve
    assert FIELD_P.inv(-3) == pow(-3, -1, p)
    assert ORDER_N.inv(n + 2) == pow(2, -1, n)


@pytest.mark.parametrize("value", [7, 37, 101, 103, 105])
def test_mul_exhaustive_small_moduli(value):
    """Every canonical pair, a = 0 (m - a = m, 2m - a = 2m) and a = m - 1
    (m - a = 1) included, gives a*b mod m in m.bit_length() steps, and
    a + b and a - b mod m.

    Under a prime modulus an add left at acc = m, unreduced (a > in place
    of >= against m - a or 2m - a), still ends congruent; composite 105
    has zero products of nonzero operands, where it would end at m
    instead of 0.
    """
    m = Modulus(value)
    with count_mul_iterations() as counts:
        for a in range(value):
            for b in range(value):
                assert m.mul(a, b) == a * b % value, (a, b)
                assert m.add(a, b) == (a + b) % value, (a, b)
                assert m.sub(a, b) == (a - b) % value, (a, b)
    assert counts == [value.bit_length()] * value ** 2


def test_binary_inversion_exhaustive_mod_101():
    """Binary inversion equals extended-Euclid inversion for every z."""
    m = Modulus(101)
    for z in range(1, 101):
        assert m.inv(z) == pow(z, -1, 101)
