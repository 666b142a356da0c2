"""Keccak-256 as used by Ethereum: original 0x01 domain padding, not SHA-3.

One-shot sponge over Keccak-f[1600]: rate 1088 bits (136 bytes), capacity
512 bits, 24 rounds. The state is a flat list of 25 lanes of 64 bits;
lane x + 5*y is loaded little-endian from bytes 8*(x + 5*y) of a block.
"""

_MASK = 0xffffffffffffffff

_ROUND_CONSTANTS = [
    0x0000000000000001, 0x0000000000008082, 0x800000000000808a, 0x8000000080008000,
    0x000000000000808b, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008a, 0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
    0x000000008000808b, 0x800000000000008b, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800a, 0x800000008000000a,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
]

# rho rotation offsets by lane x + 5*y
_ROTATION = [0, 1, 62, 28, 27, 36, 44, 6, 55, 20, 3, 10, 43, 25, 39,
             41, 45, 15, 21, 8, 18, 2, 61, 56, 14]

# (lane, its theta column x, rho offset, pi destination y + 5*((2x + 3y) % 5))
_RHO_PI = tuple((x + 5 * y, x, _ROTATION[x + 5 * y],
                 y + 5 * ((2 * x + 3 * y) % 5))
                for y in range(5) for x in range(5))

RATE_BYTES = 136


def _permute(a):
    """Keccak-f[1600] over the flat lane list, in place."""
    b = [0] * 25
    for rc in _ROUND_CONSTANTS:
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20]
             for x in range(5)]
        # c[x - 1] and c[x - 4] are columns x - 1 and x + 1 mod 5
        d = [c[x - 1] ^ (((c[x - 4] << 1) | (c[x - 4] >> 63)) & _MASK)
             for x in range(5)]
        # theta, rho and pi in one pass
        for lane, x, rot, dest in _RHO_PI:
            v = a[lane] ^ d[x]
            b[dest] = ((v << rot) | (v >> (64 - rot))) & _MASK
        # chi: each row y takes b[i] ^ (~b[i+1] & b[i+2]) along x
        for y in range(0, 25, 5):
            b0, b1, b2, b3, b4 = b[y:y + 5]
            a[y:y + 5] = (b0 ^ (~b1 & b2), b1 ^ (~b2 & b3), b2 ^ (~b3 & b4),
                          b3 ^ (~b4 & b0), b4 ^ (~b0 & b1))
        a[0] ^= rc


def keccak256(msg: bytes) -> bytes:
    """The 32-byte Keccak-256 digest of ``msg``."""
    # pad10*1 with the legacy 0x01 domain byte (SHA-3 would use 0x06)
    pad_len = RATE_BYTES - len(msg) % RATE_BYTES
    if pad_len == 1:
        data = msg + b"\x81"
    else:
        data = msg + b"\x01" + bytes(pad_len - 2) + b"\x80"
    a = [0] * 25
    for off in range(0, len(data), RATE_BYTES):
        for i in range(RATE_BYTES // 8):
            a[i] ^= int.from_bytes(data[off + 8 * i:off + 8 * i + 8], "little")
        _permute(a)
    return b"".join(a[i].to_bytes(8, "little") for i in range(4))
