"""Ethereum HD cold-wallet toolkit.

Entropy -> mnemonic -> seed -> BIP-44 child keys -> secp256k1 public keys
-> EIP-55 addresses -> ECDSA signatures. Every k*G the wallet computes
runs on a fixed-base comb, and a balanced Montgomery ladder is the
variable-base reference; both use complete addition formulas. An
operation-trace harness checks that their execution does not depend on
the key.
"""

from .address import pubkey_to_address, to_checksum_address
from .bip39 import entropy_to_mnemonic, mnemonic_to_entropy, mnemonic_to_seed
from .curve import (AffinePoint, CurveParams, point_add_complete,
                    ProjectivePoint, scalar_mul_classic, scalar_mul_comb,
                    scalar_mul_ladder, SECP256K1, to_affine)
from .ecdsa import (FixedNonce, RandomNonce, Rfc6979Nonce, rfc6979_nonce,
                    Signature, sign, verify)
from .errors import (CryptoError, DerivationError, InvalidKeyError,
                     InvalidScalarError, MnemonicError, ValidationError,
                     WalletError)
from .field import FIELD_P, Modulus, ORDER_N, SECP256K1_N, SECP256K1_P
from .hd import (ckd_priv, derive_path, ETH_BASE_PATH, ExtendedKey,
                 format_path, HARDENED, master_from_seed, parse_path,
                 public_point, serialize_pubkey)
from .kdf import hmac_sha256, hmac_sha512, pbkdf2_hmac_sha512
from .keccak import keccak256
from .keystore import Account, Keystore
from .sha2 import sha256, sha512
from .trace import (OperationTrace, record_ladder_trace, trace_mse,
                    TraceEvent, TraceRecorder, uniformity_report)

__version__ = "0.1.0"
