"""Modular arithmetic mod the secp256k1 field prime and group order.

Multiplication is bit-serial, Blakley's interleaved modular multiplier
(IEEE Trans. Computers C-32, 1983): each step doubles the accumulator,
adds the multiplicand on a 1 bit of the other operand, and reduces once.
The loop always runs one iteration per bit of the modulus (256 for the
secp256k1 moduli) no matter what the operands look like, so the
multiplier's operation count is independent of its inputs.
Every step ends on the canonical residue in [0, m). Before its one
reduction a value stays below 3m, two bits above m: 2*acc + a is reduced
by 0, 1 or 2 subtractions of m, decided by compares against m - a and
2m - a, both computed once per multiply; a step on a 0 bit only has
2*acc < 2m to reduce, one conditional subtract. Operands outside [0, m)
raise ValueError, so the step count is the modulus width by construction.
The add and sub methods correct by m once: a + b must lie in [0, 2m)
and a - b in [-m, m), as for any two residues, else ValueError.
The loop keeps no step counter of its own: ``count_mul_iterations``
records the length of the bit string the loop walks, which is its exact
trip count. A wallet k*G (the fixed-base comb) costs 520 such
multiplies, the balanced ladder's k*G 10,726.

``NativeModulus`` multiplies natively instead, off the modeled datapath,
on public values only: for signature verification and for doubling the
bases of the comb table (``CurveParams.native``).

Inversion is the binary extended-Euclid method: only shifts, compares and
subtractions. Its trip count IS data-dependent; the wallet runs it once per
scalar multiplication, after the comb or the ladder, and once per signature
for k^-1 mod n, never per key bit.
"""

# SEC2 secp256k1 parameters: field prime and group order.
SECP256K1_P = 0xfffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f
SECP256K1_N = 0xfffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141

# Maps the ASCII digits of format(b, "b") to 0/1 bytes, so the multiply
# loop tests each bit by truth value.
_BITS = bytes.maketrans(b"01", b"\x00\x01")

# When set (a list), every multiplication appends its loop trip count.
# Installed by tests via count_mul_iterations(); None in normal operation.
_mul_iteration_sink = None


class count_mul_iterations:
    """Context manager collecting shift-and-add loop trip counts.

    with count_mul_iterations() as counts:
        m.mul(a, b)
    assert counts == [m.value.bit_length()]
    """

    def __enter__(self):
        global _mul_iteration_sink
        self._prev = _mul_iteration_sink
        _mul_iteration_sink = []
        return _mul_iteration_sink

    def __exit__(self, *exc):
        global _mul_iteration_sink
        _mul_iteration_sink = self._prev
        return False


class Modulus:
    """An odd modulus > 2.

    Every multiplication under it runs one shift-and-add iteration per bit
    of the modulus (256 for the secp256k1 moduli), never a count taken
    from the operand values.
    """

    __slots__ = ("value", "_fmt")

    def __init__(self, value: int):
        if value <= 2:
            raise ValueError("modulus must be > 2")
        if value % 2 == 0:
            raise ValueError("modulus must be odd")
        self.value = value
        self._fmt = "0%db" % value.bit_length()

    def __repr__(self):
        return "Modulus(0x%x)" % self.value

    def __eq__(self, other):
        return isinstance(other, Modulus) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def add(self, a: int, b: int) -> int:
        s = a + b
        if not 0 <= s < 2 * self.value:
            raise ValueError("a + b must be in [0, 2m)")
        return s - self.value if s >= self.value else s

    def sub(self, a: int, b: int) -> int:
        d = a - b
        if not -self.value <= d < self.value:
            raise ValueError("a - b must be in [-m, m)")
        return d + self.value if d < 0 else d

    def mul(self, a: int, b: int) -> int:
        """Blakley product, MSB first: double, add, reduce once per step.

        Each step doubles acc into [0, 2m). On a 1 bit of b it then turns
        2*acc + a, below 3m, into [0, m) with at most two compares and
        one add or subtract: acc - (2m - a) when acc >= 2m - a, else
        acc - (m - a) when acc >= m - a, else acc + a. On a 0 bit it
        subtracts m when acc >= m. The residue after every step is
        (2*acc + bit*a) mod m. The loop scans b, so the cheaper operand
        to pass second is the one with fewer set bits; the step count is
        the same.

        Both operands must be canonical residues in [0, m): ValueError
        otherwise.
        """
        m = self.value
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError("operands must be in [0, m)")
        ma = m - a
        m2a = ma + m
        acc = 0
        bits = format(b, self._fmt).encode().translate(_BITS)
        for bit in bits:
            acc += acc
            if bit:
                if acc >= ma:
                    if acc >= m2a:
                        acc -= m2a
                    else:
                        acc -= ma
                else:
                    acc += a
            # acc is even here and m odd, so acc == m never occurs:
            # > and >= agree, and no test can tell them apart
            elif acc >= m:
                acc -= m
        if _mul_iteration_sink is not None:
            # the loop runs once per byte of bits, with no early exit
            _mul_iteration_sink.append(len(bits))
        return acc

    def inv(self, z: int) -> int:
        """Multiplicative inverse by the binary extended-Euclid method.

        z is reduced mod m first. Maintains x*z = u (mod m) and
        y*z = v (mod m). The loop ends when u hits zero, which leaves
        gcd(z, m) in v; when that is 1, the inverse is y.
        """
        p = self.value
        u, v, x, y = z % p, p, 1, 0
        while u != 0:
            while u & 1 == 0:
                u >>= 1
                x = x >> 1 if x & 1 == 0 else (x + p) >> 1
            while v & 1 == 0:
                v >>= 1
                y = y >> 1 if y & 1 == 0 else (y + p) >> 1
            if u >= v:
                u -= v
                x = x - y if x > y else x + p - y
            else:
                v -= u
                y = y - x if y > x else y + p - x
        if v != 1:
            raise ZeroDivisionError("z shares a factor with m: no inverse")
        return y % p


class NativeModulus(Modulus):
    """A Modulus with a native multiply that ``count_mul_iterations`` never
    sees: for public values only, never on a key path."""

    def mul(self, a: int, b: int) -> int:
        return a * b % self.value


# Shared modulus instances for the whole wallet.
FIELD_P = Modulus(SECP256K1_P)
ORDER_N = Modulus(SECP256K1_N)
