"""Exception hierarchy shared across the wallet."""


class WalletError(Exception):
    """Base class for all wallet errors."""


class ValidationError(WalletError):
    """Malformed user input: bad hex, bad mnemonic, bad lengths."""


class MnemonicError(ValidationError):
    """Mnemonic-specific validation failure (unknown word, bad checksum)."""


class CryptoError(WalletError):
    """A value was rejected by a cryptographic domain rule."""


class InvalidScalarError(CryptoError):
    """Scalar reduces to zero mod the group order and is rejected."""


class InvalidKeyError(CryptoError):
    """Private key outside [1, n-1]."""


class DerivationError(CryptoError):
    """Child (or master) key derivation produced an out-of-range key."""
