"""secp256k1 group arithmetic on projective points with complete addition.

Point addition is data: ADD_SCHEDULE lists one branch-free schedule of
33 field operations as register transfers, valid for every input pair
(doubling, inverses and the identity included), and point_add_complete
runs its rows in order. Doubling is that schedule applied to (P, P).

Two scalar multiplications run on that schedule:

- A fixed-base comb (scalar_mul_comb) computes every k*G the wallet
  needs: per signed 7-bit window, one table read by a scan over the
  whole row and one complete addition, the same sequence for every key.
- A fixed-length Montgomery ladder computes the same k*G, as the comb's
  reference and the trace harness's subject: every iteration performs
  one addition and two doublings, the second doubling landing in a
  temporary register so both key-bit branches exercise the same
  operation set.

The ladder is data too: LADDER_OPS holds one iteration's three
operations once, each as (slot, op kind, write port), and LADDER_ROUTES
holds per key bit only the registers each reads and writes, so no slot,
operation or port can depend on the key. A recorder is told each write
as record(iteration, op, register, value): the op row, the index of the
physical register written, which the key steers, and the value. The
trace module names the registers and weighs the values.

The identity is (0 : 1 : 0); it has no affine form. One binary
inversion at the very end maps (X : Y : Z) to affine (X/Z, Y/Z), and an
accepted scalar never gives Z = 0. The secret scalar stays an integer
throughout: key bits are read by shift and mask, never as text.
"""

import functools
from typing import NamedTuple

from .errors import InvalidScalarError
from .field import FIELD_P, Modulus, NativeModulus, ORDER_N


class ProjectivePoint(NamedTuple):
    x: int
    y: int
    z: int


class AffinePoint(NamedTuple):
    x: int
    y: int


IDENTITY = ProjectivePoint(0, 1, 0)


class _CurveFields(NamedTuple):
    p: Modulus
    n: Modulus
    b: int
    gx: int
    gy: int


class CurveParams(_CurveFields):
    """Short Weierstrass curve y^2 = x^3 + b over GF(p), group order n.

    An immutable tuple, so equal parameters hash equal: _comb_table is
    cached per curve.
    """

    __slots__ = ()

    def __new__(cls, p: Modulus, n: Modulus, b: int, gx: int, gy: int):
        # the multiplier takes canonical residues only: b + p or gy - p
        # passes the curve equation but not Modulus.mul
        if not (0 <= b < p.value and 0 <= gx < p.value and 0 <= gy < p.value):
            raise ValueError("b, gx and gy must be in [0, p)")
        if (gy * gy - gx ** 3 - b) % p.value != 0:
            raise ValueError("generator is not on the curve")
        return super().__new__(cls, p, n, b, gx, gy)

    @property
    def b3(self) -> int:
        """3b mod p, the constant of the complete addition."""
        return 3 * self.b % self.p.value

    @property
    def native(self) -> "CurveParams":
        """This curve with a native field multiply (field.NativeModulus),
        off the modeled datapath: for public values only."""
        return CurveParams(NativeModulus(self.p.value), *self[1:])

    @property
    def generator(self) -> ProjectivePoint:
        return ProjectivePoint(self.gx, self.gy, 1)

    @property
    def scalar_bits(self) -> int:
        """Fixed ladder width: the ladder reads this many bits of every
        accepted scalar, leading zeros included."""
        return self.n.value.bit_length()


SECP256K1 = CurveParams(
    p=FIELD_P,
    n=ORDER_N,
    b=7,
    gx=0x79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798,
    gy=0x483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8,
)


# Complete addition schedule (Renes, Costello and Batina, EUROCRYPT 2016,
# Alg. 7 for a = 0). ADD_SCHEDULE lists its field operations in program
# order as (op, dst, a, b): regs[dst] = (add, sub, mul)[op](regs[a],
# regs[b]) mod p. X1..Z2 hold the operands and B3 holds 3b; no row writes
# them. The multiplier scans its second operand, so B3 goes second: b3 = 21
# on secp256k1 has three set bits, so 3 of its 256 steps add, not ~128.
ADD, SUB, MUL = 0, 1, 2
X1, Y1, Z1, X2, Y2, Z2, B3, T0, T1, T2, T3, T4, X3, Y3, Z3 = range(15)
ADD_SCHEDULE = ((MUL, T0, X1, X2),
                (MUL, T1, Y1, Y2),
                (MUL, T2, Z1, Z2),
                (ADD, T3, X1, Y1),
                (ADD, T4, X2, Y2),
                (MUL, T3, T3, T4),
                (ADD, T4, T0, T1),
                (SUB, T3, T3, T4),
                (ADD, T4, Y1, Z1),
                (ADD, X3, Y2, Z2),
                (MUL, T4, T4, X3),
                (ADD, X3, T1, T2),
                (SUB, T4, T4, X3),
                (ADD, X3, X1, Z1),
                (ADD, Y3, X2, Z2),
                (MUL, X3, X3, Y3),
                (ADD, Y3, T0, T2),
                (SUB, Y3, X3, Y3),
                (ADD, X3, T0, T0),
                (ADD, T0, X3, T0),
                (MUL, T2, T2, B3),
                (ADD, Z3, T1, T2),
                (SUB, T1, T1, T2),
                (MUL, Y3, Y3, B3),
                (MUL, X3, T4, Y3),
                (MUL, T2, T3, T1),
                (SUB, X3, T2, X3),
                (MUL, Y3, Y3, T0),
                (MUL, T1, T1, Z3),
                (ADD, Y3, T1, Y3),
                (MUL, T0, T0, T3),
                (MUL, Z3, Z3, T4),
                (ADD, Z3, Z3, T0))


def point_add_complete(P: ProjectivePoint, Q: ProjectivePoint,
                       curve: CurveParams = SECP256K1) -> ProjectivePoint:
    """Complete projective addition for y^2 = x^3 + b curves.

    The ADD_SCHEDULE rows run verbatim for every input pair, P == Q
    included, as register transfers over curve.p's add, sub and mul
    (looked up on each call); there is no branching on operand values.
    """
    mod = curve.p
    ops = (mod.add, mod.sub, mod.mul)
    regs = [*P, *Q, curve.b3] + [0] * 8
    for op, dst, a, b in ADD_SCHEDULE:
        regs[dst] = ops[op](regs[a], regs[b])
    return ProjectivePoint(*regs[X3:])


def to_affine(P: ProjectivePoint,
              curve: CurveParams = SECP256K1) -> AffinePoint:
    """Leave projective coordinates with one binary inversion of Z and two
    multiplies. The identity (Z = 0) has no affine form: Modulus.inv
    raises ZeroDivisionError."""
    mod = curve.p
    zi = mod.inv(P.z)
    return AffinePoint(mod.mul(P.x, zi), mod.mul(P.y, zi))


def is_on_curve(pt: AffinePoint, curve: CurveParams = SECP256K1) -> bool:
    p = curve.p.value
    # coordinates must be canonical: x + p names the same residue as x
    if not (0 <= pt.x < p and 0 <= pt.y < p):
        return False
    return (pt.y * pt.y - pt.x ** 3 - curve.b) % p == 0


def _reduce_scalar(k: int, curve: CurveParams) -> int:
    """Reduce mod n and reject zero."""
    kk = k % curve.n.value
    if kk == 0:
        raise InvalidScalarError(
            "scalar is 0 mod the group order; its multiple is the identity, "
            "which has no affine form")
    return kk


def _finish(r0: ProjectivePoint, curve: CurveParams, recorder,
            iteration: int) -> AffinePoint:
    """The BIA tail of every scalar multiply: R0 to affine, one write of
    each coordinate."""
    result = to_affine(r0, curve)
    if recorder is not None:
        for c in (result.x, result.y):
            recorder.record(iteration, BIA_OP, R0, (c,))
    return result


# Ladder schedule. LADDER_OPS lists one iteration's point operations in
# program order as (slot, op_kind, port), for both key bits.
# LADDER_ROUTES[bit] gives each one's registers (a, b, dst) over [R0, R1,
# Rt]: regs[dst] = regs[a] + regs[b]. Ports and registers are indices.
R0, R1, RT = 0, 1, 2
LADDER_OPS = (("PA0", "point-add", R0),
              ("PA1", "point-double", R1),
              ("PA0", "point-double", RT))
LADDER_ROUTES = (((R0, R1, R1), (R0, R0, R0), (R1, R1, RT)),
                 ((R0, R1, R0), (R1, R1, R1), (R0, R0, RT)))
BIA_OP = ("BIA", "field-mul", R0)  # _finish's two coordinate writes


def scalar_mul_ladder(k: int, curve: CurveParams = SECP256K1,
                      recorder=None) -> AffinePoint:
    """k*G by the balanced Montgomery ladder with a temporary register.

    The reduced scalar is processed at fixed length, scalar_bits bits,
    each read as (kk >> i) & 1: the top bit is absorbed by the
    initialisation, which always computes 2G and selects (R0, R1) =
    (G, 2G) or (O, G) by a mask on each coordinate (complete formulas
    make the identity a safe ladder operand), and the loop always runs
    one row for each of the scalar_bits-1 bits below it: the LADDER_OPS
    (one point addition, two point doublings) over the bit's
    LADDER_ROUTES entry. The second doubling is the dummy write into Rt
    that keeps both branches' operation sets identical. Each write is
    reported with its LADDER_OPS row, whose port (PA0 -> R0, PA1 -> R1,
    second pass -> Rt) no key bit changes, and the physical register
    written, which the key bit steers through internal multiplexers.
    """
    kk = _reduce_scalar(k, curve)
    rows = curve.scalar_bits - 1
    g = curve.generator
    g2 = point_add_complete(g, g, curve)
    top = -(kk >> rows)
    regs = [ProjectivePoint(*(b ^ ((a ^ b) & top) for a, b in zip(on, off)))
            for on, off in ((g, IDENTITY), (g2, g))] + [IDENTITY]
    for row, i in enumerate(reversed(range(rows))):
        for op, (a, b, dst) in zip(LADDER_OPS, LADDER_ROUTES[(kk >> i) & 1]):
            regs[dst] = point_add_complete(regs[a], regs[b], curve)
            if recorder is not None:
                recorder.record(row, op, dst, regs[dst])
    return _finish(regs[R0], curve, recorder, rows)


# bench/layers.py wraps this name and nothing calls it; it goes when the
# bench drops that target (ROADMAP item 1(a)).
scalar_mul_classic = scalar_mul_ladder


COMB_WIDTH = 7  # bits per comb window
_RADIX = 1 << COMB_WIDTH
_DIGIT_MASK = _RADIX - 1
# Signed digits lie in [1 - _MAX_DIGIT, _MAX_DIGIT]; a table row holds the
# multiples for every magnitude 0.._MAX_DIGIT.
_MAX_DIGIT = _RADIX >> 1
# A table entry packs one point as z << 512 | x << 256 | y; every
# coordinate is below p < 2^256, so the fields never overlap.
_COORD_BITS = 256
_COORD_MASK = (1 << _COORD_BITS) - 1
_PACKED_IDENTITY = 1  # (0 : 1 : 0)


def _signed_digits(kk: int, windows: int) -> list:
    """kk as (|d_j|, neg_j) pairs with kk = sum of d_j * 2^(7j).

    Every digit d_j lies in [-63, 64]. Window j adds the carry of the
    one below to its 7 bits, d = raw + carry in [0, 128]; a d above 64
    stands for d - 128 and carries 1 upwards. Carry arithmetic only:
    neg = (d + 63) >> 7 and |d| = d ^ ((d ^ (128 - d)) & -neg), with no
    branch on the scalar. neg is also the carry out, so d = 128 gives
    (0, 1): a negated identity.
    """
    digits = []
    carry = 0
    for j in range(windows):
        d = ((kk >> (COMB_WIDTH * j)) & _DIGIT_MASK) + carry
        carry = (d + _MAX_DIGIT - 1) >> COMB_WIDTH
        digits.append((d ^ ((d ^ (_RADIX - d)) & -carry), carry))
    return digits


def _batch_inverse(values: list, p: int) -> list:
    """The inverses of non-zero values mod p with one pow (Montgomery's trick)."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % p
    inv = pow(acc, -1, p)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * values[i] % p
    return out


def _add_affine_all(accs: list, bases: list, p: int) -> list:
    """accs[j] + bases[j] for every j, affine, with one inversion in all.

    None is the identity. Each slope is a fraction num/den; the identity
    and inverse cases have no slope, the doubling case has the tangent's.
    """
    slopes = []
    for a, b in zip(accs, bases):
        if a is None or (a[0] == b[0] and (a[1] + b[1]) % p == 0):
            slopes.append(None)
        elif a[0] == b[0]:
            slopes.append((3 * a[0] * a[0], 2 * a[1]))
        else:
            slopes.append((b[1] - a[1], b[0] - a[0]))
    invs = _batch_inverse([1 if s is None else s[1] for s in slopes], p)
    out = []
    for a, b, s, inv in zip(accs, bases, slopes, invs):
        if s is None:
            out.append(b if a is None else None)
            continue
        lam = s[0] * inv % p
        x = (lam * lam - a[0] - b[0]) % p
        out.append((x, (lam * (a[0] - x) - a[1]) % p))
    return out


def _pack(pt) -> int:
    """Table entry of an affine point (None is the identity)."""
    if pt is None:
        return _PACKED_IDENTITY
    return (1 << 2 * _COORD_BITS) | (pt[0] << _COORD_BITS) | pt[1]


@functools.lru_cache(maxsize=None)
def _comb_table(curve: CurveParams) -> tuple:
    """T[j][a] = a * 2^(7j) * G, packed, for every window j and a = 0..64.

    37 rows of 65 entries on secp256k1. Entry 0 is the identity (packed
    as 1); the rest have Z = 1. The table holds public multiples of G
    only, so it is built once per curve, on first use, with native
    arithmetic outside the modeled datapath: the bases B_j = 2^(7j) * G
    come from doublings by the package's complete addition on
    curve.native, brought to affine as (X/Z, Y/Z) with one shared
    inversion, then each step a -> a + 1 advances the running sums
    a * B_j of all windows together, with one shared inversion per step
    (Montgomery's simultaneous inversion).
    """
    p = curve.p.value
    if p >> _COORD_BITS:
        raise ValueError("the packed comb table needs p < 2^256")
    # ceil((scalar_bits + 1) / 7) windows, 37 on secp256k1: the extra bit
    # leaves the top window at most 6 bits of the scalar, so with the
    # carry from below its digit is at most 64 and the recoding of
    # _signed_digits ends with no carry out
    windows = -(-(curve.scalar_bits + 1) // COMB_WIDTH)
    native = curve.native
    chain = [curve.generator]
    for _ in range(windows - 1):
        pt = chain[-1]
        for _ in range(COMB_WIDTH):
            pt = point_add_complete(pt, pt, native)
        chain.append(pt)
    bases = [(x * zi % p, y * zi % p) for (x, y, _), zi in
             zip(chain, _batch_inverse([pt.z for pt in chain], p))]
    columns = [[_PACKED_IDENTITY] * windows, [_pack(b) for b in bases]]
    accs = bases
    for _ in range(_MAX_DIGIT - 1):
        accs = _add_affine_all(accs, bases, p)
        columns.append([_pack(a) for a in accs])
    return tuple(zip(*columns))


def _select(row: tuple, magnitude: int) -> ProjectivePoint:
    """row[magnitude], read by a scan over every entry with no branch on it.

    The mask is all ones (-1) for the wanted entry and zero for the
    others; it comes from arithmetic on d ^ magnitude, which lies in
    [0, _DIGIT_MASK] for the 65 entries of a row. One OR per entry
    gathers all three coordinates.
    """
    v = 0
    for d, entry in enumerate(row):
        v |= entry & ((((d ^ magnitude) + _DIGIT_MASK) >> COMB_WIDTH) - 1)
    return ProjectivePoint((v >> _COORD_BITS) & _COORD_MASK, v & _COORD_MASK,
                           v >> 2 * _COORD_BITS)


def scalar_mul_comb(k: int, curve: CurveParams = SECP256K1,
                    recorder=None) -> AffinePoint:
    """k*G by a fixed-base comb with signed 7-bit digits (Lim-Lee).

    The reduced scalar is recoded into digits d_j in [-63, 64] (see
    _signed_digits). Window j selects T[j][|d_j|] = |d_j| * 2^(7j) * G,
    negates its y by a mask when d_j < 0 (the identity (0 : 1 : 0)
    becomes (0 : -1 : 0), still the identity), and adds it to the
    accumulator in R0 through one complete addition, whose schedule is
    the same for every operand pair. Every accepted scalar runs all
    ceil((scalar_bits + 1) / 7) windows, 37 on secp256k1, then one
    conversion to affine: 37 * 14 + 2 = 520 multiplies.
    """
    kk = _reduce_scalar(k, curve)
    table = _comb_table(curve)
    sub = curve.p.sub
    r0 = IDENTITY
    for j, (row, (magnitude, neg)) in enumerate(
            zip(table, _signed_digits(kk, len(table)))):
        x, y, z = _select(row, magnitude)
        y ^= (y ^ sub(0, y)) & -neg
        r0 = point_add_complete(r0, ProjectivePoint(x, y, z), curve)
        if recorder is not None:
            recorder.record(j, LADDER_OPS[0], R0, r0)
    return _finish(r0, curve, recorder, len(table))
