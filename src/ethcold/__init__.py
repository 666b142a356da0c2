"""Ethereum HD cold-wallet toolkit.

Entropy -> mnemonic -> seed -> BIP-44 child keys -> secp256k1 public keys
-> EIP-55 addresses -> ECDSA signatures. Every k*G the wallet computes
runs on a fixed-base comb, and a balanced Montgomery ladder computes the
same k*G as its reference; both use complete addition formulas. An
operation-trace harness checks that their execution does not depend on
the key.

Names load on first use: ``import ethcold`` imports no submodule, and
``ethcold.keccak256`` or ``ethcold.hd`` imports its owning module when it
is first read. Every read looks the name up on that module again, so the
package never holds a copy that a patch of the module would leave stale.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "address": ("pubkey_to_address", "to_checksum_address"),
    "bip39": ("entropy_to_mnemonic", "mnemonic_to_entropy",
              "mnemonic_to_seed"),
    "curve": ("AffinePoint", "CurveParams", "point_add_complete",
              "ProjectivePoint", "scalar_mul_comb", "scalar_mul_ladder",
              "SECP256K1", "to_affine"),
    "ecdsa": ("Rfc6979Nonce", "rfc6979_nonce", "Signature", "sign", "verify"),
    "errors": ("CryptoError", "DerivationError", "InvalidKeyError",
               "InvalidScalarError", "MnemonicError", "ValidationError",
               "WalletError"),
    "field": ("FIELD_P", "Modulus", "ORDER_N", "SECP256K1_N", "SECP256K1_P"),
    "hd": ("ckd_priv", "derive_path", "ETH_BASE_PATH", "ExtendedKey",
           "format_path", "HARDENED", "master_from_seed", "parse_path",
           "public_point", "serialize_pubkey"),
    "kdf": ("hmac_sha256", "hmac_sha512", "pbkdf2_hmac_sha512"),
    "keccak": ("keccak256",),
    "keystore": ("Account", "Keystore"),
    "trace": ("record_ladder_trace", "TraceEvent", "TraceRecorder",
              "uniformity_report"),
    "u256": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = [*_OWNER, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _OWNER:
        return getattr(importlib.import_module("." + _OWNER[name], __name__),
                       name)
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
