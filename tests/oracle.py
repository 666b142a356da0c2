"""Test oracles that call nothing in ethcold.

The reference route for secp256k1, BIP-32, RFC 6979 and ECDSA signing is
``bench/oracle.py``, loaded here as ``bench`` under the module name
``bench_oracle`` (both files are named oracle.py, so bench/ stays off
sys.path). What that module cannot do is kept here: affine addition on
the small test curves, literal repeated addition, and a fixed nonce
source.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_oracle", Path(__file__).resolve().parents[1] / "bench" / "oracle.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def ec_add(p1, p2, p):
    """Affine chord-tangent addition mod p; None is the identity."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if p1 == p2:
        lam = 3 * x1 * x1 * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def ec_repeat_add(k, pt, p):
    """k*P by literal repeated addition (small curves only)."""
    acc = None
    for _ in range(k):
        acc = ec_add(acc, pt, p)
    return acc


class FixedNonce:
    """A nonce source for ethcold.ecdsa.sign that yields the given
    candidates once each."""

    def __init__(self, values):
        self._values = list(values)

    def nonces(self, d, z):
        yield from self._values
