"""The four workloads: seeded inputs, program set-up, one op, its check.

Every op is one user-visible result and is driven through ethcold's public
entry points only: the ``ethcold`` command (as a fresh process or through
``ethcold.cli.main``) and the package functions. Checks go through
``oracle`` and never call ethcold. ``check`` returns ``OK``,
``KNOWN_NFKD`` or a one-line description of the mismatch.

ethcold is imported lazily, inside ``setup`` and ``run``, so that a set-up
measured in a fresh interpreter includes the package import.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import unicodedata

import oracle

OK = "ok"
# BIP-39 asks for NFKD normalization of mnemonic and passphrase before
# PBKDF2; ethcold encodes raw UTF-8 (a known, open defect). An output that
# equals the raw-UTF-8 route exactly, for an input that NFKD changes, is
# reported as this defect rather than as an unexplained failure.
KNOWN_NFKD = "known defect: passphrase not NFKD-normalized"

_ASCII = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
# Precomposed letters, each of which NFKD splits into base + combining mark.
_COMPOSED = "éèêëàáâäãåçñöüïîôùûÿ"

CHILD_TIMEOUT_S = 120


def _quiet_main(argv, session=None):
    """ethcold.cli.main in-process; returns (exit code, captured stdout)."""
    import ethcold.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = ethcold.cli.main(argv, session=session)
    return code, out.getvalue()


class Workload:
    name = ""
    setup_repeats = 3      # fresh-interpreter set-ups timed for setup_s
    fresh_process = False  # untraced ops run as one process each

    def __init__(self, root, seed: int):
        self.root = root
        self.seed = seed
        self.rng = random.Random("%s/%d" % (self.name, seed))
        wordlist = root / "src" / "ethcold" / "wordlist" / "english.txt"
        self.wordlist = wordlist.read_text("utf-8").split()
        self.ops = 0

    # inputs
    def _mnemonic(self) -> str:
        entropy = self.rng.randbytes(self.rng.choice((16, 32)))
        return oracle.mnemonic_from_entropy(entropy, self.wordlist)

    def _ascii_passphrase(self) -> str:
        return "".join(self.rng.choice(_ASCII)
                       for _ in range(self.rng.randrange(0, 13)))

    def next_input(self):
        self.ops += 1
        return self._input(self.ops - 1)

    # program side
    def setup(self):
        """Import ethcold, load its wordlist, build the workload's state."""
        import ethcold.bip39
        ethcold.bip39.load_wordlist()

    def run(self, inp, fresh_process=False):
        raise NotImplementedError

    # oracle side
    def prepare_oracle(self):
        pass

    def check(self, inp, out) -> str:
        raise NotImplementedError


class Restore(Workload):
    """Mnemonic to first address, one ``ethcold list`` per op."""

    name = "restore"
    setup_repeats = 9
    fresh_process = True
    NONASCII_EVERY = 4  # every 4th passphrase is composed non-ASCII text

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), self.env.get("PYTHONPATH")) if p)
        self.env["PYTHONUTF8"] = "1"  # decode argv as UTF-8 whatever the locale

    def _input(self, i):
        mnemonic = self._mnemonic()
        passphrase = self._ascii_passphrase()
        if i % self.NONASCII_EVERY == self.NONASCII_EVERY - 1:
            for _ in range(self.rng.randrange(1, 4)):
                at = self.rng.randrange(len(passphrase) + 1)
                passphrase = (passphrase[:at] + self.rng.choice(_COMPOSED)
                              + passphrase[at:])
        return {"mnemonic": mnemonic, "passphrase": passphrase}

    @staticmethod
    def argv(inp):
        return ["--json", "list", "--mnemonic", inp["mnemonic"],
                "--passphrase", inp["passphrase"], "--count", "1"]

    def run(self, inp, fresh_process=False):
        if not fresh_process:
            return _quiet_main(self.argv(inp))
        proc = subprocess.run(
            [sys.executable, "-m", "ethcold.cli"] + self.argv(inp),
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout

    @staticmethod
    def expected(inp, normalize=True):
        seed = oracle.bip39_seed(inp["mnemonic"], inp["passphrase"], normalize)
        base = oracle.Node.master(seed).path(oracle.ETH_BASE_PATH)
        record = oracle.account_record(base, 0)
        del record["private_key"]
        return [record]

    def check(self, inp, out):
        code, text = out
        if code != 0:
            return "exit code %d" % code
        try:
            rows = json.loads(text)
        except ValueError:
            return "output is not JSON"
        if rows == self.expected(inp):
            return OK
        passphrase = inp["passphrase"]
        if (unicodedata.normalize("NFKD", passphrase) != passphrase
                and rows == self.expected(inp, normalize=False)):
            return KNOWN_NFKD
        return "first account differs from the oracle"


class Accounts(Workload):
    """One open wallet; each op derives one more account."""

    name = "accounts"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.mnemonic = self._mnemonic()
        self.passphrase = self._ascii_passphrase()

    def setup(self):
        super().setup()
        import ethcold
        seed = ethcold.bip39.mnemonic_to_seed(self.mnemonic, self.passphrase)
        self.store = ethcold.keystore.Keystore(ethcold.hd.master_from_seed(seed))
        self.store.generate(1)  # account 0 also derives the m/44'/60'/0'/0 prefix

    def prepare_oracle(self):
        seed = oracle.bip39_seed(self.mnemonic, self.passphrase)
        self.base = oracle.Node.master(seed).path(oracle.ETH_BASE_PATH)

    def _input(self, i):
        return {"index": i + 1}

    def run(self, inp, fresh_process=False):
        (account,) = self.store.generate(1)
        return {"index": account.index,
                "private_key": bytes(account.private_key).hex(),
                "public_key": account.public_key.hex(),
                "address": account.address}

    def check(self, inp, out):
        if out == oracle.account_record(self.base, inp["index"]):
            return OK
        return "account %d differs from the oracle" % inp["index"]


class Sign(Workload):
    """A CLI session with a few accounts; each op signs one digest."""

    name = "sign"
    ACCOUNTS = 2

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.mnemonic = self._mnemonic()
        self.passphrase = self._ascii_passphrase()

    def setup(self):
        super().setup()
        import ethcold.cli
        self.session = ethcold.cli.Session()
        for argv in (["recover", "--mnemonic", self.mnemonic,
                      "--passphrase", self.passphrase],
                     ["derive", "--count", str(self.ACCOUNTS)]):
            code, _ = _quiet_main(["--json"] + argv, self.session)
            if code != 0:
                raise RuntimeError("ethcold %s exited with %d" % (argv[0], code))

    def prepare_oracle(self):
        seed = oracle.bip39_seed(self.mnemonic, self.passphrase)
        base = oracle.Node.master(seed).path(oracle.ETH_BASE_PATH)
        self.keys = [base.child(i).key for i in range(self.ACCOUNTS)]

    def _input(self, i):
        return {"index": i % self.ACCOUNTS, "digest": self.rng.randbytes(32)}

    def run(self, inp, fresh_process=False):
        return _quiet_main(["--json", "sign", "--index", str(inp["index"]),
                            "--digest", inp["digest"].hex(),
                            "--deterministic"], self.session)

    def check(self, inp, out):
        code, text = out
        if code != 0:
            return "exit code %d" % code
        try:
            got = json.loads(text)
        except ValueError:
            return "output is not JSON"
        if got == oracle.sign(self.keys[inp["index"]], inp["digest"]):
            return OK
        return "signature differs from the oracle"


class _RecordingRandom(random.Random):
    """A seeded generator that remembers the scalars it hands out."""

    def __init__(self, seed):
        super().__init__(seed)
        self.drawn = []

    def randrange(self, *args, **kwargs):
        value = super().randrange(*args, **kwargs)
        self.drawn.append(value)
        return value


class Trace(Workload):
    """One uniformity report over a few seeded scalars, both ladders."""

    name = "trace"
    setup_repeats = 9
    SAMPLES = 2

    def _input(self, i):
        return {"rng_seed": self.rng.getrandbits(64)}

    def run(self, inp, fresh_process=False):
        import ethcold.trace
        rng = _RecordingRandom(inp["rng_seed"])
        report = ethcold.trace.uniformity_report(self.SAMPLES, rng=rng)
        return report, rng.drawn

    def check(self, inp, out):
        report, scalars = out
        if len(scalars) != self.SAMPLES or not all(0 < k < oracle.N
                                                   for k in scalars):
            return "report did not draw %d scalars" % self.SAMPLES
        if not report.passed or set(report.stats) != {"hardened", "classic"}:
            return "report did not pass on both variants"
        hardened, classic = report.stats["hardened"], report.stats["classic"]
        want_hardened = (self.SAMPLES, True, 1, 0.0, 0.0)
        want_classic = (self.SAMPLES, len({format(k, "0256b")[1:] for k in scalars}),
                        0.0, oracle.classic_register_mse(scalars))
        if (hardened.samples, hardened.shapes_equal, hardened.distinct_shapes,
                hardened.mse_op_count_max,
                hardened.mse_op_register_max) != want_hardened:
            return "hardened ladder statistics differ from the model"
        if (classic.samples, classic.distinct_shapes, classic.mse_op_count_max,
                classic.mse_op_register_max) != want_classic:
            return "classic ladder statistics differ from the oracle"
        return OK


WORKLOADS = {w.name: w for w in (Restore, Accounts, Sign, Trace)}


def make(name, root, seed) -> Workload:
    return WORKLOADS[name](root, seed)
