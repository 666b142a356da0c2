"""PBKDF2 argument checks; the published HMAC and PBKDF2 vectors run in
acceptance criterion 1."""

import pytest

from ethcold.kdf import pbkdf2_hmac_sha512


def test_pbkdf2_zero_iterations_rejected():
    with pytest.raises(ValueError):
        pbkdf2_hmac_sha512(b"p", b"s", 0, 64)
    with pytest.raises(ValueError):
        pbkdf2_hmac_sha512(b"p", b"s", 1, 0)
