"""secp256k1 group arithmetic on projective points with complete addition.

Point addition is a single branch-free schedule of 33 field operations
(valid for every input pair, including doubling, inverses and the
identity); doubling is the same schedule applied to (P, P).

Two scalar multiplications run on that schedule:

- A fixed-base comb computes every k*G the wallet needs. The scalar is
  recoded into signed 7-bit digits d in [-63, 64]; each window selects
  |d| * 2^(7j) * G from a table by a scan over all 65 entries of its
  row, negates y by a mask when d < 0, and adds the point with one
  complete addition. Every key runs the same sequence: one addition per
  window (37 on secp256k1, 518 multiplies), then one inversion and 2
  multiplies, 520 in all. Each table entry is one packed int, and the
  table is built with one shared inversion per digit step.
- A fixed-length Montgomery ladder is the variable-base reference: every
  iteration performs one addition and two doublings, the second doubling
  landing in a temporary register so both key-bit branches exercise the
  same operation set. The classic two-operation ladder is kept as a
  side-channel baseline.

Both ladders are data: HARDENED_SCHEDULE and CLASSIC_SCHEDULE hold, for
each key bit, the row of register operations and trace ports of one
iteration, and one driver runs either table. Key independence of the
balanced ladder is then a static fact: its two rows differ only in
register indices, never in slot, operation or port.

The identity is (0 : 1 : 0). One binary inversion at the very end maps
(X : Y : Z) to affine (X/Z, Y/Z).
"""

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InvalidScalarError
from .field import FIELD_P, Modulus, ORDER_N


class ProjectivePoint(NamedTuple):
    x: int
    y: int
    z: int


class AffinePoint(NamedTuple):
    x: int
    y: int
    infinity: bool = False


IDENTITY = ProjectivePoint(0, 1, 0)


@dataclass(frozen=True)
class CurveParams:
    """Short Weierstrass curve y^2 = x^3 + b over GF(p), group order n."""

    p: Modulus
    n: Modulus
    b: int
    gx: int
    gy: int
    b3: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "b3", 3 * self.b % self.p.value)
        if (self.gy * self.gy - self.gx ** 3 - self.b) % self.p.value != 0:
            raise ValueError("generator is not on the curve")

    @property
    def generator(self) -> ProjectivePoint:
        return ProjectivePoint(self.gx, self.gy, 1)

    @property
    def scalar_bits(self) -> int:
        """Fixed ladder width: every accepted scalar is padded to this."""
        return self.n.value.bit_length()


SECP256K1 = CurveParams(
    p=FIELD_P,
    n=ORDER_N,
    b=7,
    gx=0x79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798,
    gy=0x483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8,
)


def point_add_complete(P: ProjectivePoint, Q: ProjectivePoint,
                       curve: CurveParams = SECP256K1) -> ProjectivePoint:
    """Complete projective addition for y^2 = x^3 + b curves.

    The schedule below is executed verbatim for every input pair, P == Q
    included; there is no branching on operand values.
    """
    mod = curve.p
    madd, msub, mmul = mod.add, mod.sub, mod.mul

    x1, y1, z1 = P
    x2, y2, z2 = Q
    b3 = curve.b3

    t0 = mmul(x1, x2)
    t1 = mmul(y1, y2)
    t2 = mmul(z1, z2)
    t3 = madd(x1, y1)
    t4 = madd(x2, y2)
    t3 = mmul(t3, t4)
    t4 = madd(t0, t1)
    t3 = msub(t3, t4)
    t4 = madd(y1, z1)
    x3 = madd(y2, z2)
    t4 = mmul(t4, x3)
    x3 = madd(t1, t2)
    t4 = msub(t4, x3)
    x3 = madd(x1, z1)
    y3 = madd(x2, z2)
    x3 = mmul(x3, y3)
    y3 = madd(t0, t2)
    y3 = msub(x3, y3)
    x3 = madd(t0, t0)
    t0 = madd(x3, t0)
    t2 = mmul(b3, t2)
    z3 = madd(t1, t2)
    t1 = msub(t1, t2)
    y3 = mmul(b3, y3)
    x3 = mmul(t4, y3)
    t2 = mmul(t3, t1)
    x3 = msub(t2, x3)
    y3 = mmul(y3, t0)
    t1 = mmul(t1, z3)
    y3 = madd(t1, y3)
    t0 = mmul(t0, t3)
    z3 = mmul(z3, t4)
    z3 = madd(z3, t0)

    return ProjectivePoint(x3, y3, z3)


def to_affine(P: ProjectivePoint,
              curve: CurveParams = SECP256K1) -> AffinePoint:
    """Leave projective coordinates with one binary inversion of Z."""
    if P.z == 0:
        return AffinePoint(0, 0, True)
    mod = curve.p
    zi = mod.inv(P.z)
    return AffinePoint(mod.mul(P.x, zi), mod.mul(P.y, zi))


def is_on_curve(pt: AffinePoint, curve: CurveParams = SECP256K1) -> bool:
    if pt.infinity:
        return True
    p = curve.p.value
    # coordinates must be canonical: x + p names the same residue as x
    if not (0 <= pt.x < p and 0 <= pt.y < p):
        return False
    return (pt.y * pt.y - pt.x ** 3 - curve.b) % p == 0


def _point_weight(pt: ProjectivePoint) -> int:
    return pt.x.bit_count() + pt.y.bit_count() + pt.z.bit_count()


def _reduce_scalar(k: int, curve: CurveParams) -> int:
    """Reduce mod n and reject zero."""
    kk = k % curve.n.value
    if kk == 0:
        raise InvalidScalarError(
            "scalar is 0 mod the group order; multiplication would produce "
            "the point at infinity")
    return kk


def _normalize_scalar(k: int, curve: CurveParams) -> str:
    """Reduce mod n, reject zero, left-pad to the fixed ladder width."""
    return format(_reduce_scalar(k, curve), "0%db" % curve.scalar_bits)


def _finish(r0: ProjectivePoint, curve: CurveParams, recorder,
            iteration: int) -> AffinePoint:
    """The BIA tail of every scalar multiply: R0 to affine, two events."""
    result = to_affine(r0, curve)
    if recorder is not None:
        recorder.record(iteration, "BIA", "field-mul", "R0", result.x.bit_count())
        recorder.record(iteration, "BIA", "field-mul", "R0", result.y.bit_count())
    return result


# Ladder schedules. rows[bit] lists, in program order, the point operations
# of one iteration for that key bit as (slot, op_kind, a, b, dst, port):
# regs[dst] = regs[a] + regs[b] over the registers [R0, R1, Rt], and the
# trace event names the write port `port`.
R0, R1, RT = 0, 1, 2

# Balanced ladder: the key bit only steers which registers feed and take
# each operation. The ports are the architectural ones (PA0 -> R0,
# PA1 -> R1, the dummy second doubling -> Rt), the same for both bits.
HARDENED_SCHEDULE = (
    (("PA0", "point-add", R0, R1, R1, "R0"),
     ("PA1", "point-double", R0, R0, R0, "R1"),
     ("PA0", "point-double", R1, R1, RT, "Rt")),
    (("PA0", "point-add", R0, R1, R0, "R0"),
     ("PA1", "point-double", R1, R1, R1, "R1"),
     ("PA0", "point-double", R0, R0, RT, "Rt")),
)

# Classic ladder: each event names the register it writes, so the port
# sequence follows the key bits.
CLASSIC_SCHEDULE = (
    (("PA0", "point-add", R0, R1, R1, "R1"),
     ("PA0", "point-double", R0, R0, R0, "R0")),
    (("PA0", "point-add", R0, R1, R0, "R0"),
     ("PA0", "point-double", R1, R1, R1, "R1")),
)


def _ladder(k: int, curve: CurveParams, recorder,
            schedule: tuple) -> AffinePoint:
    """k*G by running one schedule row per key bit below the top one.

    The top bit is absorbed by the initialisation, which always computes
    2G (complete formulas make the identity a safe ladder operand when
    the bit is 0), so every accepted scalar runs scalar_bits-1 rows.
    """
    bits = _normalize_scalar(k, curve)
    g = curve.generator
    g2 = point_add_complete(g, g, curve)
    regs = [g, g2, IDENTITY] if bits[0] == "1" else [IDENTITY, g, IDENTITY]
    for i, bit in enumerate(bits[1:]):
        for slot, op_kind, a, b, dst, port in schedule[int(bit)]:
            regs[dst] = point_add_complete(regs[a], regs[b], curve)
            if recorder is not None:
                recorder.record(i, slot, op_kind, port, _point_weight(regs[dst]))
    return _finish(regs[R0], curve, recorder, curve.scalar_bits - 1)


def scalar_mul_ladder(k: int, curve: CurveParams = SECP256K1,
                      recorder=None) -> AffinePoint:
    """k*G by the balanced Montgomery ladder with a temporary register.

    The scalar is processed at fixed length: the top bit is absorbed by
    the initialisation (complete formulas make the identity a safe ladder
    operand when it is 0) and the loop always runs scalar_bits-1
    iterations. Each iteration performs one point addition and two point
    doublings; the second doubling is the dummy write into Rt that keeps
    both branches' operation sets identical. Trace events carry the
    architectural write ports (PA0 -> R0, PA1 -> R1, second pass -> Rt);
    the key bit only steers internal multiplexers.
    """
    return _ladder(k, curve, recorder, HARDENED_SCHEDULE)


def scalar_mul_classic(k: int, curve: CurveParams = SECP256K1,
                       recorder=None) -> AffinePoint:
    """The conventional two-operation ladder, kept as the leaky baseline.

    Each branch adds into one register and doubles the other, so the
    written-register sequence follows the key bits; the recorder logs the
    writes in program order, which is exactly the leak.
    """
    return _ladder(k, curve, recorder, CLASSIC_SCHEDULE)


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


def _double_jacobian(pt: tuple, p: int) -> tuple:
    """2P in Jacobian coordinates (x = X/Z^2, y = Y/Z^3) for y^2 = x^3 + b.

    Only P with Y != 0 is doubled here (multiples of a generator of odd
    order), so the result never leaves the curve's affine part.
    """
    x, y, z = pt
    yy = y * y % p
    s = 4 * x * yy % p
    m = 3 * x * x % p
    x3 = (m * m - 2 * s) % p
    return (x3, (m * (s - x3) - 8 * yy * yy) % p, 2 * y * z % p)


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
    come from Jacobian doublings brought to affine with one shared
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
    chain = [(curve.gx, curve.gy, 1)]
    for _ in range(windows - 1):
        pt = chain[-1]
        for _ in range(COMB_WIDTH):
            pt = _double_jacobian(pt, p)
        chain.append(pt)
    bases = []
    for (x, y, _), zi in zip(chain, _batch_inverse([pt[2] for pt in chain], p)):
        zi2 = zi * zi % p
        bases.append((x * zi2 % p, y * zi2 * zi % p))
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
            recorder.record(j, "PA0", "point-add", "R0", _point_weight(r0))
    return _finish(r0, curve, recorder, len(table))
