"""Volatile in-memory store of derived accounts, selected by index.

Accounts live only in process memory (persistent retention is out of
scope). Export paths emit public data (index, compressed public key,
checksummed address) unless the caller passes the explicit private
override. Private key bytes are held in a bytearray so wipe() can zero
them in place, best effort.
"""

from dataclasses import dataclass, field

from .address import pubkey_to_address, to_checksum_address
from .errors import DerivationError, ValidationError
# public_point is not called here; it stays importable under this module
# because the benchmark's layer probe (bench/layers.py) wraps it here.
from .hd import (derive_path, ETH_BASE_PATH, ExtendedKey, HARDENED,  # noqa: F401
                 PathCache, public_point, serialize_pubkey)
from .u256 import to_bytes32


@dataclass
class Account:
    index: int
    private_key: bytearray
    public_key: bytes
    address: str

    @property
    def key_int(self) -> int:
        return int.from_bytes(self.private_key, "big")

    def public_record(self) -> str:
        return "%d %s %s" % (self.index, self.public_key.hex(), self.address)


@dataclass
class Keystore:
    master: ExtendedKey
    base_path: tuple = ETH_BASE_PATH
    accounts: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    def __post_init__(self):
        self._cache = PathCache()
        self._by_index = {}

    def generate(self, count: int) -> list:
        """Derive accounts for the next ``count`` address indices."""
        if count < 1:
            raise ValueError("count must be >= 1")
        created = []
        index = self._next_index()
        while len(created) < count:
            try:
                account = self._derive(index)
            except DerivationError:
                # probability ~2^-128 per index; skip per convention
                self.skipped.append(index)
                index += 1
                continue
            self.accounts.append(account)
            created.append(account)
            index += 1
        return created

    def account(self, index: int) -> Account:
        """The account at base_path + (index,), for 0 <= index < 2^31.

        Derives that one path, which costs one CKD and one comb once the
        parent node is cached, and keeps the account for later calls and
        for wipe(). It joins neither ``accounts`` nor the count behind
        generate(), so a later generate() hands out the same indices.
        """
        if not 0 <= index < HARDENED:
            raise ValidationError("account index must be in [0, 2^31)")
        return self._derive(index)

    def _derive(self, index: int) -> Account:
        account = self._by_index.get(index)
        if account is None:
            node = derive_path(self.master, self.base_path + (index,),
                               self._cache)
            point = node.point
            account = Account(
                index=index,
                private_key=bytearray(to_bytes32(node.key)),
                public_key=serialize_pubkey(point),
                address=to_checksum_address(pubkey_to_address(point)),
            )
            self._by_index[index] = account
        return account

    def _next_index(self) -> int:
        used = [a.index for a in self.accounts] + self.skipped
        return max(used) + 1 if used else 0

    def select(self, index: int) -> Account:
        try:
            return self._by_index[index]
        except KeyError:
            raise LookupError("no account at index %d" % index) from None

    def export_records(self, include_private: bool = False) -> list:
        rows = []
        for a in self.accounts:
            row = a.public_record()
            if include_private:
                row += " " + a.private_key.hex()
            rows.append(row)
        return rows

    def wipe(self):
        """Zero private-key buffers and drop all accounts."""
        for a in self._by_index.values():
            for i in range(len(a.private_key)):
                a.private_key[i] = 0
        self.accounts.clear()
        self._by_index.clear()
        self.skipped.clear()
        self._cache = PathCache()
