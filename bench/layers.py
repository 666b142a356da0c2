"""Per-layer spans and counts, installed from outside the package.

A ``LayerProbe`` swaps each layer's public function for a wrapper at the
name its callers look up at call time (for example
``ethcold.hd.scalar_mul_ladder`` and ``ethcold.ecdsa.scalar_mul_ladder``
for the ladder, the ``Modulus`` class for the field multiply), and puts
every original back on exit. Each wrapper counts its calls and adds its
inclusive wall time; nested spans are not subtracted, so ``curve.*`` time
contains the ``field.*`` time spent inside it.

Besides the per-layer totals the probe records, for every span name, the
set of field-multiply counts seen inside single calls. That is what the
model-count check reads: one ladder must always be exactly 10,726
multiplies.
"""

import contextlib
import functools
import importlib
import time

from oracle import N as GROUP_ORDER

# (span name, "module" or "module:Class", attribute)
TARGETS = (
    ("field.mul", "ethcold.field:Modulus", "mul"),
    ("field.inv", "ethcold.field:Modulus", "inv"),
    ("curve.point_add", "ethcold.curve", "point_add_complete"),
    ("curve.ladder", "ethcold.curve", "scalar_mul_ladder"),
    ("curve.ladder", "ethcold.hd", "scalar_mul_ladder"),
    ("curve.ladder", "ethcold.ecdsa", "scalar_mul_ladder"),
    ("curve.classic", "ethcold.curve", "scalar_mul_classic"),
    ("curve.to_affine", "ethcold.curve", "to_affine"),
    ("sha2.sha256", "ethcold.bip39", "sha256"),
    ("keccak", "ethcold.address", "keccak256"),
    ("kdf.pbkdf2", "ethcold.bip39", "pbkdf2_hmac_sha512"),
    ("kdf.hmac", "ethcold.hd", "hmac_sha512"),
    ("kdf.hmac", "ethcold.ecdsa", "hmac_sha256"),
    ("bip39.validate", "ethcold.bip39", "mnemonic_to_entropy"),
    ("bip39.seed", "ethcold.bip39", "mnemonic_to_seed"),
    ("hd.ckd", "ethcold.hd", "ckd_priv"),
    ("hd.public_point", "ethcold.hd", "public_point"),
    ("hd.public_point", "ethcold.keystore", "public_point"),
    ("address", "ethcold.keystore", "pubkey_to_address"),
    ("address", "ethcold.keystore", "to_checksum_address"),
    ("ecdsa.sign", "ethcold.cli", "ecdsa_sign"),
    ("ecdsa.sign", "ethcold.ecdsa", "sign"),
    ("ecdsa.nonce", "ethcold.ecdsa:Rfc6979Nonce", "nonces"),
    ("trace.report", "ethcold.trace", "uniformity_report"),
    ("trace.report", "ethcold.cli", "uniformity_report"),
    ("trace.event", "ethcold.trace:TraceRecorder", "record"),
    ("keystore.generate", "ethcold.keystore:Keystore", "generate"),
    ("cli.main", "ethcold.cli", "main"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class LayerProbe:
    """Counts and inclusive seconds per span name while installed.

    Totals accumulate over every ``installed()`` block of one probe.
    """

    def __init__(self):
        self.calls = {}
        self.seconds = {}
        self.muls_per_call = {}   # span name -> set of multiply counts
        self.keccak_bytes = 0
        self.accounts = 0         # accounts returned by Keystore.generate
        self.inv_n_seconds = 0.0  # Modulus.inv under the group order

    def snapshot(self) -> dict:
        """Counts only (no times): what must repeat exactly per op."""
        counts = dict(self.calls)
        counts["keccak.bytes"] = self.keccak_bytes
        counts["accounts"] = self.accounts
        return counts

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, owner, attr in TARGETS:
                target = _resolve(owner)
                original = getattr(target, attr)
                saved.append((target, attr, original))
                setattr(target, attr, self._wrap(name, original))
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def _wrap(self, name, fn):
        if name == "field.mul":
            return self._wrap_mul(fn)
        if name == "ecdsa.nonce":
            return self._wrap_nonces(fn)
        calls, seconds = self.calls, self.seconds
        calls.setdefault(name, 0)
        seconds.setdefault(name, 0.0)
        muls = self.muls_per_call.setdefault(name, set())
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            muls_before = calls["field.mul"]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[name] += 1
                seconds[name] += dt
                muls.add(calls["field.mul"] - muls_before)
            if name == "keccak":
                self.keccak_bytes += len(args[0])
            elif name == "keystore.generate":
                self.accounts += len(result)
            elif name == "field.inv" and args[0].value == GROUP_ORDER:
                self.inv_n_seconds += dt
            return result
        return span

    def _wrap_mul(self, fn):
        calls, seconds = self.calls, self.seconds
        calls.setdefault("field.mul", 0)
        seconds.setdefault("field.mul", 0.0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def mul(self_, a, b):
            t0 = clock()
            result = fn(self_, a, b)
            seconds["field.mul"] += clock() - t0
            calls["field.mul"] += 1
            return result
        return mul

    def _wrap_nonces(self, fn):
        """Time each draw from the generator; count the candidates."""
        calls, seconds = self.calls, self.seconds
        calls.setdefault("ecdsa.nonce", 0)
        seconds.setdefault("ecdsa.nonce", 0.0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def nonces(self_, d, z):
            source = fn(self_, d, z)
            while True:
                t0 = clock()
                try:
                    k = next(source)
                except StopIteration:
                    return
                finally:
                    seconds["ecdsa.nonce"] += clock() - t0
                calls["ecdsa.nonce"] += 1
                yield k
        return nonces
