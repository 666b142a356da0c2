"""HMAC (RFC 2104) and PBKDF2 (RFC 8018) over SHA-2.

Thin wrappers over the standard library's ``hmac`` and
``hashlib.pbkdf2_hmac``. Like the hashes, they sit outside the modeled
datapath.
"""

import hashlib
import hmac


def hmac_sha512(key: bytes, msg: bytes) -> bytes:
    return hmac.digest(key, msg, "sha512")


def hmac_sha256(key: bytes, msg: bytes) -> bytes:
    return hmac.digest(key, msg, "sha256")


def pbkdf2_hmac_sha512(password: bytes, salt: bytes, iterations: int,
                       dk_len: int) -> bytes:
    """PBKDF2 with HMAC-SHA512 as the PRF.

    Block i chains `iterations` HMAC applications, seeded with
    salt || big-endian-32(i), XOR-accumulating every digest; blocks are
    concatenated and truncated to dk_len.
    """
    return hashlib.pbkdf2_hmac("sha512", password, salt, iterations, dk_len)
