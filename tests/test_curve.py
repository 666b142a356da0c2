"""Curve arithmetic tests against the double-and-add oracle, on secp256k1
and on the mod-103 test curve."""

import random

import pytest

from ethcold import curve as curve_module
from ethcold.curve import (_comb_table, _select, _signed_digits,
                           AffinePoint, CurveParams, IDENTITY,
                           is_on_curve, LADDER_ROUTES, point_add_complete,
                           ProjectivePoint, R0, R1, scalar_mul_comb,
                           scalar_mul_ladder, SECP256K1, to_affine)
from ethcold.errors import InvalidScalarError
from ethcold.field import count_mul_iterations, Modulus, NativeModulus
from ethcold.selftest import _ALL_ROWS_K

import oracle
import vectors

G = SECP256K1.generator
N = SECP256K1.n.value
P = SECP256K1.p.value


def affine(pt):
    return to_affine(pt, SECP256K1)


def as_tuple(pt):
    assert pt.z != 0
    return tuple(affine(pt))


def test_curve_params():
    assert SECP256K1.b == 7
    assert SECP256K1.b3 == 21
    assert SECP256K1.scalar_bits == 256
    assert is_on_curve(AffinePoint(SECP256K1.gx, SECP256K1.gy))


def test_add_identity_is_neutral():
    got = point_add_complete(G, IDENTITY)
    assert as_tuple(got) == (SECP256K1.gx, SECP256K1.gy)
    got = point_add_complete(IDENTITY, G)
    assert as_tuple(got) == (SECP256K1.gx, SECP256K1.gy)


def test_add_inverse_gives_identity():
    neg_g = ProjectivePoint(SECP256K1.gx, P - SECP256K1.gy, 1)
    assert point_add_complete(G, neg_g).z == 0


def test_g_plus_g_known_value():
    expected = vectors.G_PLUS_G
    got = affine(point_add_complete(G, G))
    assert "%064x" % got.x == expected["x"]
    assert "%064x" % got.y == expected["y"]


def test_double_is_self_addition():
    rng = random.Random(11)
    for _ in range(5):
        k = rng.randrange(1, N)
        pt = oracle.bench.ec_mul(k)
        proj = ProjectivePoint(pt[0], pt[1], 1)
        assert as_tuple(point_add_complete(proj, proj)) == \
            oracle.bench.ec_add(pt, pt)


def test_double_identity():
    assert point_add_complete(IDENTITY, IDENTITY).z == 0


def test_projective_scaling_invariance():
    # (2x, 2y, 2) dehomogenizes to the same affine point as (x, y, 1)
    mod = SECP256K1.p
    scaled = ProjectivePoint(mod.mul(2, SECP256K1.gx), mod.mul(2, SECP256K1.gy), 2)
    assert as_tuple(scaled) == (SECP256K1.gx, SECP256K1.gy)


def test_to_affine_identity_and_unit_z():
    """Z = 1 passes through; the identity (Z = 0) has no affine form and
    to_affine raises instead of returning a flagged point."""
    assert IDENTITY.z == 0
    with pytest.raises(ZeroDivisionError):
        to_affine(IDENTITY, SECP256K1)
    with pytest.raises(ZeroDivisionError):
        to_affine(IDENTITY, SECP256K1.native)
    assert tuple(to_affine(G, SECP256K1)) == (SECP256K1.gx, SECP256K1.gy)


def test_affine_point_has_only_coordinates():
    assert AffinePoint._fields == ("x", "y")


# --- fixed-base comb ---

COMB_EDGE_SCALARS = {"1": 1, "2": 2, "n_minus_1": N - 1, "n_plus_1": N + 1,
                     "2p255": 1 << 255, "2p256_minus_1": (1 << 256) - 1}


def test_comb_matches_ladder_and_oracle_on_edge_table():
    for name, k in COMB_EDGE_SCALARS.items():
        got = scalar_mul_comb(k)
        expected = vectors.SCALAR_MULT[name]
        assert "%064x" % got.x == expected["x"], name
        assert "%064x" % got.y == expected["y"], name
        assert tuple(got) == oracle.bench.ec_mul(k), name
        assert got == scalar_mul_ladder(k), name


def test_comb_rejects_zero_and_order():
    for k in (0, N):
        with pytest.raises(InvalidScalarError):
            scalar_mul_comb(k)


def test_comb_matches_oracle_on_random_scalars():
    rng = random.Random(4096)
    for _ in range(50):
        k = rng.randrange(1, N)
        assert tuple(scalar_mul_comb(k)) == oracle.bench.ec_mul(k)


def _small_curve():
    sc = vectors.SMALL_CURVE
    return CurveParams(p=Modulus(sc["p"]),
                       n=Modulus(sc["order"]),
                       b=sc["b"], gx=sc["gx"], gy=sc["gy"])


@pytest.mark.parametrize("field, value", [
    ("gy", 28),                           # off the curve
    ("gy", 27 - 103), ("gy", 27 + 103),   # on it, but not canonical
    ("gx", 1 + 103), ("b", 7 - 103), ("b", 7 + 103),
])
def test_curve_params_reject_bad_generator_or_b(field, value):
    sc = dict(vectors.SMALL_CURVE, **{field: value})
    with pytest.raises(ValueError):
        CurveParams(p=Modulus(sc["p"]), n=Modulus(sc["order"]),
                    b=sc["b"], gx=sc["gx"], gy=sc["gy"])


def _small_curves():
    """(curve, base, windows): G of order 111, and 3G of order 37."""
    sc = vectors.SMALL_CURVE
    g = (sc["gx"], sc["gy"])
    g3 = oracle.ec_repeat_add(3, g, sc["p"])
    return [(_small_curve(), g, 2),
            (CurveParams(p=Modulus(sc["p"]), n=Modulus(37),
                         b=sc["b"], gx=g3[0], gy=g3[1]), g3, 1)]


def test_ladder_state_invariant_r1_minus_r0_is_base_point():
    """After every iteration R1 - R0 equals the ladder input point.

    Each bit's register route runs over the affine oracle's addition,
    so every intermediate register value is visible.
    """
    small = _small_curve()
    sc = vectors.SMALL_CURVE
    p = sc["p"]
    g = (sc["gx"], sc["gy"])
    neg_g = (sc["gx"], (-sc["gy"]) % p)
    rng = random.Random(9)
    for k in list(range(1, 8)) + [rng.randrange(1, sc["order"])
                                  for _ in range(20)]:
        bits = format(k, "0%db" % small.scalar_bits)
        regs = ([g, oracle.ec_add(g, g, p), None] if bits[0] == "1"
                else [None, g, None])
        for bit in bits[1:]:
            for a, b, dst in LADDER_ROUTES[int(bit)]:
                regs[dst] = oracle.ec_add(regs[a], regs[b], p)
            assert oracle.ec_add(regs[R1], neg_g, p) == regs[R0]
        assert regs[R0] == tuple(scalar_mul_ladder(k, small))


def test_ladder_reads_key_bits_without_text(monkeypatch):
    """Every mod-103 scalar, with format() unavailable in the curve
    module: the ladder reads each key bit by shift and mask, so it still
    matches the oracle."""
    def no_format(*args):
        raise AssertionError("the ladder formats a secret as text")

    monkeypatch.setattr(curve_module, "format", no_format, raising=False)
    small = _small_curve()
    sc = vectors.SMALL_CURVE
    for k in range(1, sc["order"]):
        assert tuple(scalar_mul_ladder(k, small)) == \
            oracle.ec_repeat_add(k, (sc["gx"], sc["gy"]), sc["p"]), k


def test_comb_agrees_with_ladder_on_small_curve_for_every_scalar():
    p = vectors.SMALL_CURVE["p"]
    for curve, base, _ in _small_curves():
        order = curve.n.value
        for k in range(1, order):
            got = scalar_mul_comb(k, curve)
            assert got == scalar_mul_ladder(k, curve), (order, k)
            assert (got.x, got.y) == \
                oracle.ec_repeat_add(k, base, p), (order, k)
        for k in (0, order):
            with pytest.raises(InvalidScalarError):
                scalar_mul_comb(k, curve)


def _unpack(entry):
    """A packed table entry z << 512 | x << 256 | y as (x, y, z)."""
    mask = (1 << 256) - 1
    return ((entry >> 256) & mask, entry & mask, entry >> 512)


def _expected_entry(point):
    """The packed fields of an oracle point: None is (0 : 1 : 0)."""
    return (0, 1, 0) if point is None else (*point, 1)


def test_comb_table_build_runs_no_modeled_multiply():
    """The bases are doubled on curve.native: on the modeled curve the
    secp256k1 chain alone would log 252 * 14 = 3,528 multiplies."""
    curves = [SECP256K1] + [curve for curve, _, _ in _small_curves()]
    before = [_comb_table(curve) for curve in curves]
    _comb_table.cache_clear()
    with count_mul_iterations() as counts:
        after = [_comb_table(curve) for curve in curves]
    assert counts == []
    assert after == before
    for curve in curves:
        native = curve.native
        assert isinstance(native.p, NativeModulus)
        assert native.p.value == curve.p.value
        assert native[1:] == curve[1:]


def test_comb_refuses_a_field_wider_than_its_packed_entries():
    """G = (0, 1) lies on y^2 = x^3 + 1 for every p, so only the width of
    p can refuse this curve, before any multiply."""
    wide = CurveParams(Modulus(2 ** 256 + 1), Modulus(7), 1, 0, 1)
    with count_mul_iterations() as counts:
        with pytest.raises(ValueError, match="2\\^256"):
            scalar_mul_comb(1, wide)
    assert counts == []


def _table_point(entry):
    """A packed entry as an oracle point; the identity must be (0 : 1 : 0)."""
    x, y, z = _unpack(entry)
    if z == 0:
        assert (x, y) == (0, 1)
        return None
    assert z == 1
    return (x, y)


def test_every_comb_table_entry_by_oracle_relations():
    """T[0][1] = G, T[j][0] = O, T[j][d] = T[j][d-1] + T[j][1] and
    T[j+1][1] = 2^7 * T[j][1], checked on every entry of every row."""
    rows = [[_table_point(e) for e in row] for row in _comb_table(SECP256K1)]
    assert len(rows) == 37
    assert rows[0][1] == oracle.bench.G
    for j, row in enumerate(rows):
        assert len(row) == 65
        assert row[0] is None, j
        for d in range(2, 65):
            assert row[d] == oracle.bench.ec_add(row[d - 1], row[1]), (j, d)
        if j + 1 < len(rows):
            base = row[1]
            for _ in range(7):
                base = oracle.bench.ec_add(base, base)
            assert rows[j + 1][1] == base, j


def test_comb_table_matches_repeated_addition_on_small_curve():
    """Order 111 (two windows), and 3G of order 37, whose row wraps: the
    running sum meets its inverse at d = 36, the identity at d = 37 and
    the doubling case at d = 39."""
    p = vectors.SMALL_CURVE["p"]
    for curve, base, windows in _small_curves():
        table = _comb_table(curve)
        assert len(table) == windows
        for j, row in enumerate(table):
            assert len(row) == 65
            for d, entry in enumerate(row):
                assert _unpack(entry) == _expected_entry(
                    oracle.ec_repeat_add(d << (7 * j), base, p)), (j, d)


def test_select_returns_each_entry_of_a_row():
    row = _comb_table(SECP256K1)[5]
    for d in range(65):
        assert tuple(_select(row, d)) == _unpack(row[d]), d


# --- signed-digit recoding ---

def _digit_values(digits):
    return [-magnitude if neg else magnitude for magnitude, neg in digits]


def _recodes(k, digits):
    values = _digit_values(digits)
    assert all(-63 <= v <= 64 for v in values), values
    assert all(0 <= m <= 64 and neg in (0, 1) for m, neg in digits), digits
    return sum(v << (7 * j) for j, v in enumerate(values)) == k


def test_signed_digits_recode_edge_and_random_scalars():
    rng = random.Random(0x516D)
    scalars = [k % N for k in COMB_EDGE_SCALARS.values()]
    scalars += [64, 65, 127, 128, (1 << 252) - 1, N - 2]
    scalars += [rng.randrange(1, N) for _ in range(200)]
    for k in scalars:
        digits = _signed_digits(k, 37)
        assert len(digits) == 37
        assert _recodes(k, digits), k


def test_signed_digits_of_n_minus_1_carry_through_zero_windows():
    """Windows 19-35 of n-1 hold 127; each adds the carry, 128 -> 0 with
    a carry out, and the top window takes the last one."""
    digits = _signed_digits(N - 1, 37)
    assert all((N - 1) >> (7 * j) & 127 == 127 for j in range(19, 36))
    assert digits[19:36] == [(0, 1)] * 17
    assert _digit_values(digits)[36] == ((N - 1) >> 252) + 1
    assert _recodes(N - 1, digits)


def test_signed_digits_recode_every_small_curve_scalar():
    for curve, _, windows in _small_curves():
        for k in range(1, curve.n.value):
            assert _recodes(k, _signed_digits(k, windows)), k


def test_selftest_scalar_reads_every_row_with_both_signs():
    digits = _signed_digits(_ALL_ROWS_K, 37)
    assert _recodes(_ALL_ROWS_K, digits)
    assert all(magnitude for magnitude, _ in digits)
    assert {neg for _, neg in digits} == {0, 1}
