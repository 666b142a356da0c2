"""Keystore tests: account generation, selection, export hygiene."""

import gc
import random

import pytest

from ethcold.bip39 import mnemonic_to_seed
from ethcold.errors import ValidationError
from ethcold.field import count_mul_iterations
from ethcold.hd import derive_path, ETH_BASE_PATH, ExtendedKey, master_from_seed
from ethcold.keystore import Keystore

import oracle
import vectors

V24 = vectors.ETH_ZERO_ENTROPY_24


def _store():
    return Keystore(master_from_seed(bytes.fromhex(V24["seed"])))


def test_generate_one_account():
    store = _store()
    accounts = store.generate(1)
    assert len(accounts) == 1
    assert accounts[0].index == 0


def test_zero_entropy_accounts_match_oracle():
    store = _store()
    store.generate(3)
    for expected in V24["accounts"]:
        account = store.accounts[expected["index"]]
        assert account.address == expected["address"]
        assert account.public_key.hex() == expected["pub_compressed"]
        assert account.private_key.hex() == expected["key"]


def test_seed_derives_from_mnemonic():
    seed = mnemonic_to_seed(V24["mnemonic"])
    assert seed.hex() == V24["seed"]


def test_three_accounts_distinct():
    store = _store()
    store.generate(3)
    addresses = {a.address for a in store.accounts}
    assert len(addresses) == 3


def test_select_matches_list_rows():
    store = _store()
    store.generate(3)
    rows = store.export_records()
    for i, row in enumerate(rows):
        assert row == store.account(i).public_record()
        assert row.split() == [str(i), store.account(i).public_key.hex(),
                               store.account(i).address]


def test_export_omits_private_keys_by_default():
    store = _store()
    store.generate(2)
    for account, row in zip(store.accounts, store.export_records()):
        assert account.private_key.hex() not in row


def test_export_private_override():
    store = _store()
    store.generate(1)
    rows = store.export_records(include_private=True)
    assert store.accounts[0].private_key.hex() in rows[0]


def test_regeneration_is_deterministic():
    first = _store()
    second = _store()
    first.generate(2)
    second.generate(2)
    assert [a.address for a in first.accounts] == \
        [a.address for a in second.accounts]
    assert [bytes(a.private_key) for a in first.accounts] == \
        [bytes(a.private_key) for a in second.accounts]


def test_incremental_generation_continues_indices():
    store = _store()
    store.generate(1)
    store.generate(2)
    assert [a.index for a in store.accounts] == [0, 1, 2]


def test_wipe_zeroes_buffers():
    store = _store()
    store.generate(1)
    buf = store.accounts[0].private_key
    assert any(buf)
    store.wipe()
    assert not any(buf)
    assert store.accounts == []


def test_generate_count_validation():
    with pytest.raises(ValueError):
        _store().generate(0)


def test_address_consistency_invariant():
    from ethcold.address import pubkey_to_address, to_checksum_address
    from ethcold.hd import public_point
    store = _store()
    store.generate(2)
    for account in store.accounts:
        pt = public_point(account.key_int)
        assert account.address == to_checksum_address(pubkey_to_address(pt))


# One fixed-base comb runs 520 multiplies (37 additions and one to_affine).
COMB_MULS = 520


def test_sibling_account_costs_one_comb():
    """The parent m/44'/60'/0'/0 keeps its point; a sibling pays only its own."""
    store = _store()
    store.generate(1)
    with count_mul_iterations() as counts:
        store.generate(1)
    assert len(counts) == COMB_MULS


def test_wipe_drops_cached_points():
    """After wipe the first account again pays for m/44'/60'/0', /0 and itself."""
    store = _store()
    with count_mul_iterations() as counts:
        store.generate(1)
    assert len(counts) == 3 * COMB_MULS
    store.wipe()
    with count_mul_iterations() as counts:
        store.generate(1)
    assert len(counts) == 3 * COMB_MULS
    assert store.accounts[0].address == V24["accounts"][0]["address"]


def test_cached_equals_uncached_derivations():
    """The parent node's reuse is transparent across 50 (seed, index) pairs."""
    rng = random.Random(123)
    for _ in range(10):
        seed = rng.randbytes(64)
        master = master_from_seed(seed)
        store = Keystore(master)
        for _ in range(5):
            index = rng.randrange(0, 1 << 31)
            uncached = derive_path(master, ETH_BASE_PATH + (index,))
            assert store.account(index).key_int == uncached.key


def _oracle_key(index):
    return oracle.bip44_eth_key(bytes.fromhex(V24["seed"]), index)


def test_account_derives_one_index_directly():
    """A far index costs the three combs of its own path, no more."""
    store = _store()
    with count_mul_iterations() as counts:
        account = store.account(1_000_000)
    assert len(counts) == 3 * COMB_MULS
    assert account.index == 1_000_000
    assert account.key_int == _oracle_key(1_000_000)
    assert store.accounts == []
    with count_mul_iterations() as counts:
        assert store.account(1_000_000) is account
    assert counts == []


def test_account_leaves_generate_indices_alone():
    store = _store()
    store.generate(1)
    store.account(7)
    assert [a.index for a in store.generate(2)] == [1, 2]
    assert store.account(2) is store.accounts[2]
    assert store.account(2).address == V24["accounts"][2]["address"]


def test_account_index_bounds():
    store = _store()
    for index in (-1, 1 << 31, 10 ** 10 - 1):
        with pytest.raises(ValidationError):
            store.account(index)
    assert store.account((1 << 31) - 1).key_int == _oracle_key((1 << 31) - 1)


def test_wipe_zeroes_directly_derived_accounts():
    store = _store()
    buf = store.account(5).private_key
    assert any(buf)
    store.wipe()
    assert not any(buf)
    fresh = store.account(5)
    assert fresh.private_key is not buf
    assert fresh.key_int == _oracle_key(5)


def test_no_account_node_outlives_its_derivation():
    """Only the Account's wipeable buffer holds an account key; no
    ExtendedKey for a generated or directly derived account stays alive."""
    store = _store()
    store.generate(3)
    store.account(50)
    keys = {a.key_int for a in store.accounts + [store.account(50)]}
    assert len(keys) == 4
    gc.collect()
    leaked = [obj for obj in gc.get_objects()
              if isinstance(obj, ExtendedKey) and obj.key in keys]
    assert leaked == []
