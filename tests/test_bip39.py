"""Mnemonic encoding/decoding and seed derivation tests."""

import hashlib
import random
import unicodedata
from pathlib import Path

import pytest

from ethcold.bip39 import (entropy_to_mnemonic, load_wordlist,
                           mnemonic_to_entropy, mnemonic_to_seed,
                           VALID_ENTROPY_BYTES)
from ethcold.errors import MnemonicError, ValidationError

import oracle

ZERO12 = ("abandon abandon abandon abandon abandon abandon abandon abandon "
          "abandon abandon abandon about")


def test_wordlist_shape():
    words = load_wordlist()
    assert len(words) == 2048
    assert len(set(words)) == 2048
    assert words[0] == "abandon"
    assert words[3] == "about"
    assert words[2047] == "zoo"


def test_passphrase_changes_seed():
    words = entropy_to_mnemonic(bytes(16))
    assert mnemonic_to_seed(words) != mnemonic_to_seed(words, "x")
    assert mnemonic_to_seed(words, "") == mnemonic_to_seed(words)


def test_round_trip_all_entropy_sizes():
    rng = random.Random(77)
    for size in VALID_ENTROPY_BYTES:
        for _ in range(20):
            entropy = rng.randbytes(size)
            words = entropy_to_mnemonic(entropy)
            assert mnemonic_to_entropy(words) == entropy


def test_invalid_entropy_length():
    with pytest.raises(ValidationError):
        entropy_to_mnemonic(bytes(17))
    with pytest.raises(ValidationError):
        entropy_to_mnemonic(b"")


def test_twelve_abandon_fails_checksum():
    # all-zero 132-bit string requires checksum nibble of 'about', not 'abandon'
    with pytest.raises(MnemonicError, match="checksum"):
        mnemonic_to_entropy(["abandon"] * 12)


def test_unknown_word_named_in_error():
    words = ZERO12.split()
    words[5] = "abandno"
    with pytest.raises(MnemonicError, match="abandno"):
        mnemonic_to_entropy(words)


def test_bad_word_count():
    with pytest.raises(MnemonicError, match="words"):
        mnemonic_to_entropy(["abandon"] * 23)
    with pytest.raises(MnemonicError, match="words"):
        mnemonic_to_entropy(["abandon"] * 13)


def test_mnemonic_accepts_sentence_or_list():
    assert mnemonic_to_entropy(ZERO12) == mnemonic_to_entropy(ZERO12.split())
    assert mnemonic_to_seed(ZERO12) == mnemonic_to_seed(ZERO12.split())


def test_nfkd_composed_and_decomposed_passphrase_agree():
    composed, decomposed = "caf\u00e9", "cafe\u0301"
    seed = mnemonic_to_seed(ZERO12, composed)
    assert seed == mnemonic_to_seed(ZERO12, decomposed)
    salt = b"mnemonic" + unicodedata.normalize("NFKD", composed).encode()
    assert salt == b"mnemonic" + decomposed.encode()
    assert seed == hashlib.pbkdf2_hmac("sha512", ZERO12.encode(), salt,
                                       2048, 64)


def test_nfkd_applies_to_the_sentence():
    # NFKD folds the compatibility character U+FB01 into "fi"
    assert mnemonic_to_seed(["\ufb01x"]) == mnemonic_to_seed(["fix"])


def test_non_utf8_text_rejected():
    with pytest.raises(ValidationError):
        mnemonic_to_seed(ZERO12, "\udcff")
    with pytest.raises(ValidationError):
        mnemonic_to_seed(["abandon", "\udcff"])


def test_bench_oracle_passes_its_self_check():
    """The tests' reference route is pinned to the frozen published
    vectors: wordlist digest, Keccak, EIP-55, seeds and first accounts."""
    wordlist = (Path(__file__).resolve().parents[1] / "src" / "ethcold" /
                "wordlist" / "english.txt").read_bytes()
    assert oracle.bench.self_check(wordlist) == []
