"""The package namespace: names that load on first use, never a stale copy."""

import importlib

import pytest

import ethcold

# every name `ethcold` exports, by the submodule that owns it
EXPORTS = {
    "address": "pubkey_to_address to_checksum_address",
    "bip39": "entropy_to_mnemonic mnemonic_to_entropy mnemonic_to_seed",
    "curve": "AffinePoint CurveParams point_add_complete ProjectivePoint "
             "scalar_mul_comb scalar_mul_ladder SECP256K1 to_affine",
    "ecdsa": "Rfc6979Nonce rfc6979_nonce Signature sign verify",
    "errors": "CryptoError DerivationError InvalidKeyError InvalidScalarError "
              "MnemonicError ValidationError WalletError",
    "field": "FIELD_P Modulus ORDER_N SECP256K1_N SECP256K1_P",
    "hd": "ckd_priv derive_path ETH_BASE_PATH ExtendedKey format_path "
          "HARDENED master_from_seed parse_path public_point serialize_pubkey",
    "kdf": "hmac_sha256 hmac_sha512 pbkdf2_hmac_sha512",
    "keccak": "keccak256",
    "keystore": "Account Keystore",
    "trace": "record_ladder_trace TraceEvent TraceRecorder uniformity_report",
    "u256": "",
}


def test_namespace_contract():
    names = {name: module for module, names in EXPORTS.items()
             for name in names.split()}
    assert len(names) == 50
    for name, module in names.items():
        owner = importlib.import_module("ethcold." + module)
        assert getattr(ethcold, name) is getattr(owner, name), name
        assert getattr(ethcold, module) is owner
    bound = {}
    exec("from ethcold import *", bound)
    del bound["__builtins__"]
    assert set(bound) == set(names) | set(EXPORTS)
    assert len(bound) == 62
    assert set(bound) <= set(dir(ethcold))
    with pytest.raises(AttributeError):
        getattr(ethcold, "no_such_name")


def test_exports_follow_a_patched_module(monkeypatch):
    """The package copies no name, so a patch shows through and its undo
    leaves nothing stale behind."""
    original = ethcold.hd.ckd_priv

    def fake(*args):
        raise AssertionError("patched")

    monkeypatch.setattr(ethcold.hd, "ckd_priv", fake)
    assert ethcold.ckd_priv is fake
    monkeypatch.undo()
    assert ethcold.hd.ckd_priv is original
    assert ethcold.ckd_priv is ethcold.hd.ckd_priv
