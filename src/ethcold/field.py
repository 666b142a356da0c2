"""Modular arithmetic mod the secp256k1 field prime and group order.

Multiplication is bit-serial: shift the accumulator, reduce, conditionally
add the multiplicand, reduce again. The loop always runs one iteration
per bit of the modulus (256 for the secp256k1 moduli) no matter what the
operands look like, so the multiplier's operation count is independent of
its inputs.
Reduction after every step is a single conditional subtract, so values
never grow past one extra bit. The add and its reduction are one compare
against m - a, computed once per multiply: acc + a >= m exactly when
acc >= m - a, so the step yields acc - (m - a) or acc + a, the value
that adding and then subtracting m would give. Same steps, same values.
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
        return s - self.value if s >= self.value else s

    def sub(self, a: int, b: int) -> int:
        d = a - b
        return d + self.value if d < 0 else d

    def mul(self, a: int, b: int) -> int:
        """Shift-and-add product, MSB first, reducing after every step.

        Each step doubles acc and reduces it; on a 1 bit of b it then adds
        a and reduces, as one compare: acc - (m - a) when acc >= m - a,
        else acc + a. The loop scans b, so the cheaper operand to pass
        second is the one with fewer set bits; the step count is the same.

        Inputs must already be canonical residues in [0, m).
        """
        m = self.value
        ma = m - a
        acc = 0
        bits = format(b, self._fmt).encode().translate(_BITS)
        for bit in bits:
            acc += acc
            if acc >= m:
                acc -= m
            if bit:
                if acc >= ma:
                    acc -= ma
                else:
                    acc += a
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
