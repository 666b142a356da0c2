"""Volatile in-memory store of derived accounts, kept by index.

Accounts live only in process memory (persistent retention is out of
scope). The store keeps the account-parent node m/44'/60'/0'/0 and derives
each account as one CKD from it, so a sibling costs one derivation; no
other node on the path, and no account's own node, is kept. An account
computes its public key and address from its private key on first read,
once, so a caller that only signs runs no comb for them.
An account's record holds public data (index, compressed public key,
checksummed address) unless the caller passes the explicit private
override. Private key bytes are held in a bytearray so wipe() can zero
them in place, best effort.
"""

import functools
from typing import NamedTuple

from .address import pubkey_to_address, to_checksum_address
from .curve import AffinePoint
from .errors import DerivationError, ValidationError, WalletError
from .hd import (derive_path, ETH_BASE_PATH, ExtendedKey, HARDENED,
                 public_point, serialize_pubkey)
from .u256 import to_bytes32


class _AccountFields(NamedTuple):
    index: int
    private_key: bytearray


class Account(_AccountFields):
    """One derived account; ``public_key`` and ``address`` are computed
    from the private key on first read, once."""

    def __repr__(self):
        # a logged or asserted account must not write out its key, and
        # printing one runs no comb: the public fields show once read
        read = "".join(", %s=%r" % (name, self.__dict__[name])
                       for name in ("public_key", "address")
                       if name in self.__dict__)
        return "Account(index=%r, private_key=<hidden>%s)" % (self.index, read)

    @property
    def key_int(self) -> int:
        return int.from_bytes(self.private_key, "big")

    @functools.cached_property
    def _point(self) -> AffinePoint:
        # cached_property writes the instance __dict__, as on
        # hd.ExtendedKey; tuple __eq__/__hash__ compare the fields only
        key = self.key_int
        if key == 0:  # no account key is 0: wipe() zeroed this one
            raise WalletError("account %d was wiped" % self.index)
        return public_point(key)

    @functools.cached_property
    def public_key(self) -> bytes:
        return serialize_pubkey(self._point)

    @functools.cached_property
    def address(self) -> str:
        return to_checksum_address(pubkey_to_address(self._point))

    def record(self, include_private: bool = False) -> dict:
        """The account's listed fields, in output order."""
        record = {"index": self.index,
                  "public_key": self.public_key.hex(),
                  "address": self.address}
        if include_private:
            record["private_key"] = self.private_key.hex()
        return record


class Keystore:
    """Accounts m/44'/60'/0'/0/i under one master key."""

    def __init__(self, master: ExtendedKey):
        self.master = master
        self.accounts = []
        self._parent = None  # m/44'/60'/0'/0, derived on first use
        self._by_index = {}

    def generate(self, count: int) -> list:
        """Derive accounts for the next ``count`` address indices."""
        if count < 1:
            raise ValueError("count must be >= 1")
        # a DerivationError on the parent path is not an index to skip
        self._account_parent()
        created = []
        index = self.accounts[-1].index + 1 if self.accounts else 0
        while len(created) < count:
            try:
                account = self._derive(index)
            except DerivationError:
                pass  # probability ~2^-128 per index; skip per convention
            else:
                self.accounts.append(account)
                created.append(account)
            index += 1
        return created

    def account(self, index: int) -> Account:
        """The account m/44'/60'/0'/0/index, for 0 <= index < 2^31.

        Derives that one path, which costs one CKD once the parent node
        exists (its public key and address cost one comb on first read),
        and keeps the account for later calls and for wipe(). It does
        not join ``accounts``, from which generate() takes its next index,
        so a later generate() hands out the same indices.
        """
        if not 0 <= index < HARDENED:
            raise ValidationError("account index must be in [0, 2^31)")
        return self._derive(index)

    def _account_parent(self) -> ExtendedKey:
        if self._parent is None:
            self._parent = derive_path(self.master, ETH_BASE_PATH)
        return self._parent

    def _derive(self, index: int) -> Account:
        account = self._by_index.get(index)
        if account is None:
            node = derive_path(self._account_parent(), (index,))
            account = Account(index=index,
                              private_key=bytearray(to_bytes32(node.key)))
            self._by_index[index] = account
        return account

    def wipe(self):
        """Zero private-key buffers and drop all accounts and the parent."""
        for a in self._by_index.values():
            for i in range(len(a.private_key)):
                a.private_key[i] = 0
        self.accounts.clear()
        self._by_index.clear()
        self._parent = None
