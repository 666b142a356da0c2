"""Keystore tests: account generation, selection, export hygiene."""

import gc
import random

import pytest

from ethcold.errors import DerivationError, ValidationError, WalletError
from ethcold.field import count_mul_iterations
import ethcold.hd
from ethcold.hd import derive_path, ETH_BASE_PATH, ExtendedKey, master_from_seed
from ethcold.keystore import Keystore

import oracle
import vectors

V24 = vectors.ETH_ZERO_ENTROPY_24


def _store():
    return Keystore(master_from_seed(bytes.fromhex(V24["seed"])))


def test_zero_entropy_accounts_match_oracle():
    store = _store()
    store.generate(3)
    for expected in V24["accounts"]:
        account = store.accounts[expected["index"]]
        assert account.address == expected["address"]
        assert account.public_key.hex() == expected["pub_compressed"]
        assert account.private_key.hex() == expected["key"]


def test_select_matches_list_rows():
    store = _store()
    store.generate(3)
    for i, account in enumerate(store.accounts):
        assert store.account(i) is account
        assert account.record() == {"index": i,
                                    "public_key": account.public_key.hex(),
                                    "address": account.address}


def test_export_omits_private_keys_by_default():
    store = _store()
    store.generate(2)
    for account in store.accounts:
        record = account.record()
        assert "private_key" not in record
        assert account.private_key.hex() not in record.values()


def test_export_private_override():
    store = _store()
    store.generate(1)
    account = store.accounts[0]
    record = account.record(include_private=True)
    assert list(record) == ["index", "public_key", "address", "private_key"]
    assert record["private_key"] == account.private_key.hex()


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


def test_generate_skips_an_underivable_index(monkeypatch):
    real_ckd = ethcold.hd.ckd_priv

    def ckd_failing_at_1(parent, index):
        if index == 1:
            raise DerivationError("invalid child key")
        return real_ckd(parent, index)

    monkeypatch.setattr(ethcold.hd, "ckd_priv", ckd_failing_at_1)
    store = _store()
    assert [a.index for a in store.generate(2)] == [0, 2]
    assert [a.index for a in store.generate(1)] == [3]
    assert [a.index for a in store.accounts] == [0, 2, 3]


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
    """The parent m/44'/60'/0'/0 keeps its point; a sibling pays only its
    own, on the first read of its address."""
    store = _store()
    store.generate(1)
    with count_mul_iterations() as counts:
        (account,) = store.generate(1)
    assert counts == []
    with count_mul_iterations() as counts:
        assert account.address == V24["accounts"][1]["address"]
    assert len(counts) == COMB_MULS
    with count_mul_iterations() as counts:
        assert account.public_key.hex() == V24["accounts"][1]["pub_compressed"]
        assert account.address == V24["accounts"][1]["address"]
    assert counts == []


def test_wipe_drops_cached_points():
    """After wipe the first account again pays for m/44'/60'/0' and /0,
    and for itself once read."""
    store = _store()
    for _ in range(2):
        with count_mul_iterations() as counts:
            (account,) = store.generate(1)
        assert len(counts) == 2 * COMB_MULS
        with count_mul_iterations() as counts:
            assert account.address == V24["accounts"][0]["address"]
        assert len(counts) == COMB_MULS
        store.wipe()


def test_wiped_account_refuses_its_public_fields():
    """An account never read before wipe() has no key left to compute
    its address from: the read raises before any multiply."""
    store = _store()
    (account,) = store.generate(1)
    key = account.key_int
    store.wipe()
    with count_mul_iterations() as counts:
        with pytest.raises(WalletError):
            account.address
        with pytest.raises(WalletError):
            account.public_key
    assert counts == []
    text = repr(account)
    assert text == "Account(index=0, private_key=<hidden>)"
    assert not any(form in text for form in _key_forms(key))


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
    return oracle.bench.Node.master(bytes.fromhex(V24["seed"])).path(
        oracle.bench.ETH_BASE_PATH + (index,)).key


def test_account_derives_one_index_directly():
    """A far index costs the two combs of its parent path, no more; its
    own public point waits for a read."""
    store = _store()
    with count_mul_iterations() as counts:
        account = store.account(1_000_000)
    assert len(counts) == 2 * COMB_MULS
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


def _key_forms(key: int) -> list:
    return ["%d" % key, "%x" % key, "%064x" % key]


def test_repr_and_str_leave_the_key_out():
    store = _store()
    (account,) = store.generate(1)
    master = store.master
    derived = derive_path(master, ETH_BASE_PATH)
    for obj, key in ((master, master.key), (derived, derived.key),
                     (account, account.key_int)):
        for text in (repr(obj), str(obj)):
            assert not any(form in text for form in _key_forms(key)), text
    assert repr(account) == "Account(index=0, private_key=<hidden>)"
    assert account.address in repr(account)
    # the fields themselves are untouched; the public ones are computed
    assert account._asdict() == {"index": 0,
                                 "private_key": account.private_key}
    assert tuple(derived) == (derived.key, derived.chain_code)
