"""SHA-256 and SHA-512 (FIPS 180-4), one-shot.

Thin wrappers over the standard library's ``hashlib``. The hashes sit
outside the modeled datapath, so they take the simplest correct route.
"""

import hashlib


def sha256(msg: bytes) -> bytes:
    return hashlib.sha256(msg).digest()


def sha512(msg: bytes) -> bytes:
    return hashlib.sha512(msg).digest()
