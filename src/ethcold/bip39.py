"""Mnemonic backup encoding: entropy -> words -> 512-bit seed.

Entropy of ENT bits (128/160/192/224/256) gets CS = ENT/32 checksum bits
(the top bits of its SHA-256) appended; the ENT+CS bit string splits into
11-bit indices into the 2048-word English list. The seed is
PBKDF2-HMAC-SHA512(sentence, "mnemonic" || passphrase, 2048, 64), over the
UTF-8 bytes of the NFKD-normalized sentence and passphrase.
"""

import os
import unicodedata
from hashlib import sha256

from .errors import MnemonicError, ValidationError
from .kdf import pbkdf2_hmac_sha512

VALID_ENTROPY_BYTES = (16, 20, 24, 28, 32)
VALID_WORD_COUNTS = (12, 15, 18, 21, 24)

_WORDLIST = None
_WORD_INDEX = None


def load_wordlist() -> tuple:
    """The 2048-entry English wordlist, loaded once from package data.

    The file is read through this module's own loader, which reads plain
    files and zip archives (a wheel on PYTHONPATH) alike.
    """
    global _WORDLIST, _WORD_INDEX
    if _WORDLIST is None:
        path = os.path.join(os.path.dirname(__file__), "wordlist",
                            "english.txt")
        text = __spec__.loader.get_data(path).decode("utf-8")
        words = tuple(text.split())
        if len(words) != 2048:
            raise RuntimeError("wordlist must have 2048 entries, found %d"
                               % len(words))
        if len(set(words)) != 2048:
            raise RuntimeError("wordlist entries must be unique")
        _WORDLIST = words
        _WORD_INDEX = {w: i for i, w in enumerate(words)}
    return _WORDLIST


def word_to_index(word: str) -> int:
    load_wordlist()
    try:
        return _WORD_INDEX[word]
    except KeyError:
        raise MnemonicError("unknown mnemonic word: %r" % word) from None


def entropy_to_mnemonic(entropy: bytes) -> list:
    """Encode entropy plus its checksum into mnemonic words."""
    if len(entropy) not in VALID_ENTROPY_BYTES:
        raise ValidationError(
            "entropy must be one of %s bytes, got %d"
            % (list(VALID_ENTROPY_BYTES), len(entropy)))
    words = load_wordlist()
    ent_bits = len(entropy) * 8
    cs_bits = ent_bits // 32
    checksum = int.from_bytes(sha256(entropy).digest(), "big") >> (256 - cs_bits)
    acc = (int.from_bytes(entropy, "big") << cs_bits) | checksum
    n_words = (ent_bits + cs_bits) // 11
    return [words[(acc >> (11 * (n_words - 1 - i))) & 0x7FF]
            for i in range(n_words)]


def mnemonic_to_entropy(mnemonic) -> bytes:
    """Decode and validate a mnemonic, returning the original entropy.

    Raises MnemonicError naming any unknown word, and on checksum mismatch.
    """
    words = _as_words(mnemonic)
    if len(words) not in VALID_WORD_COUNTS:
        raise MnemonicError(
            "mnemonic must have one of %s words, got %d"
            % (list(VALID_WORD_COUNTS), len(words)))
    acc = 0
    for w in words:
        acc = (acc << 11) | word_to_index(w)
    total_bits = len(words) * 11
    cs_bits = total_bits // 33
    ent_bits = total_bits - cs_bits
    entropy = (acc >> cs_bits).to_bytes(ent_bits // 8, "big")
    expected = int.from_bytes(sha256(entropy).digest(), "big") >> (256 - cs_bits)
    if acc & ((1 << cs_bits) - 1) != expected:
        raise MnemonicError("mnemonic checksum mismatch")
    return entropy


def mnemonic_to_seed(mnemonic, passphrase: str = "") -> bytes:
    """Stretch a mnemonic sentence into the 64-byte wallet seed.

    Raises ValidationError for text with no UTF-8 encoding (lone surrogates,
    as undecodable command-line bytes arrive in Python).
    """
    sentence = " ".join(_as_words(mnemonic))
    return pbkdf2_hmac_sha512(_nfkd_utf8(sentence, "mnemonic"),
                              b"mnemonic" + _nfkd_utf8(passphrase, "passphrase"),
                              2048, 64)


def _nfkd_utf8(text: str, what: str) -> bytes:
    try:
        return unicodedata.normalize("NFKD", text).encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError("%s is not valid UTF-8 text" % what) from None


def _as_words(mnemonic) -> list:
    if isinstance(mnemonic, str):
        return mnemonic.split()
    return list(mnemonic)
