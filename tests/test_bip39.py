"""Mnemonic encoding/decoding and seed derivation tests."""

import random
import unicodedata

import pytest

from ethcold.bip39 import (entropy_to_mnemonic, load_wordlist,
                           mnemonic_to_entropy, mnemonic_to_seed,
                           VALID_ENTROPY_BYTES)
from ethcold.errors import MnemonicError, ValidationError

import oracle
import vectors

ZERO12 = ("abandon abandon abandon abandon abandon abandon abandon abandon "
          "abandon abandon abandon about")


def test_wordlist_shape():
    words = load_wordlist()
    assert len(words) == 2048
    assert len(set(words)) == 2048
    assert words[0] == "abandon"
    assert words[3] == "about"
    assert words[2047] == "zoo"


def test_reference_mnemonics_all_sizes():
    for case in vectors.BIP39_VECTORS:
        entropy = bytes.fromhex(case["entropy"])
        assert " ".join(entropy_to_mnemonic(entropy)) == case["mnemonic"]
        assert mnemonic_to_entropy(case["mnemonic"]) == entropy


def test_zero_entropy_vectors():
    assert " ".join(entropy_to_mnemonic(bytes(16))) == ZERO12
    words24 = entropy_to_mnemonic(bytes(32))
    assert len(words24) == 24
    assert words24[-1] == "art"
    assert entropy_to_mnemonic(b"\xff" * 16)[-1] == "wrong"
    assert entropy_to_mnemonic(b"\xff" * 16)[0] == "zoo"


def test_reference_seeds_sample():
    # one vector per entropy size; the full sweep runs in the acceptance suite
    seen = set()
    for case in vectors.BIP39_VECTORS:
        size = len(case["entropy"]) // 2
        if size in seen:
            continue
        seen.add(size)
        words = case["mnemonic"].split()
        assert mnemonic_to_seed(words, "TREZOR").hex() == case["seed_trezor"]
    assert len(seen) == 5


def test_zero_entropy_trezor_seed_prefix():
    seed = mnemonic_to_seed(ZERO12, "TREZOR")
    assert seed.hex().startswith("c55257c360c07c72")


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


def test_word_count_per_size():
    for size, count in zip(VALID_ENTROPY_BYTES, (12, 15, 18, 21, 24)):
        assert len(entropy_to_mnemonic(bytes(size))) == count


def test_sentence_has_single_space_separators():
    words = entropy_to_mnemonic(bytes(32))
    sentence = " ".join(words)
    assert sentence.count(" ") == len(words) - 1
    assert "  " not in sentence
    assert sentence == sentence.strip()


def test_all_indices_below_2048():
    rng = random.Random(3)
    wordlist = set(load_wordlist())
    for _ in range(30):
        for w in entropy_to_mnemonic(rng.randbytes(32)):
            assert w in wordlist


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
    assert seed == oracle.pbkdf2_sha512(ZERO12.encode(), salt, 2048, 64)


def test_nfkd_applies_to_the_sentence():
    # NFKD folds the compatibility character U+FB01 into "fi"
    assert mnemonic_to_seed(["\ufb01x"]) == mnemonic_to_seed(["fix"])


def test_non_utf8_text_rejected():
    with pytest.raises(ValidationError):
        mnemonic_to_seed(ZERO12, "\udcff")
    with pytest.raises(ValidationError):
        mnemonic_to_seed(["abandon", "\udcff"])
