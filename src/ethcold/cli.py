"""Command-line front end for the cold-wallet pipeline.

Every command reaches the wallet through a Session: the caller's, when
main is driven as a library, or a fresh one per invocation. --mnemonic
(and init/recover) load the wallet into it; no state ever touches disk.
Exit codes: 0 success, 2 usage (from argparse only), 3 input
validation, 4 cryptographic rejection.
"""

import argparse
import functools
import json
import os
import re
import sys

from . import bip39
from .errors import CryptoError, ValidationError
from .hd import format_path, master_from_seed, ETH_BASE_PATH, HARDENED
from .keystore import Keystore
from .trace import uniformity_report
from .u256 import parse_hex_bytes
from .ecdsa import Rfc6979Nonce, sign as ecdsa_sign

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_CRYPTO = 4

# The most accounts one derive or list command may ask for. Only list
# --count runs a comb per account (12-13 s for all 1000); derive reads
# no public key. A larger --count exits 3 before any derivation.
MAX_COUNT = 1000

# The most scalars one trace command may ask for: one balanced ladder per
# scalar records both ladders' traces, 23-24 s for all 100 (both times
# on a shared 2-vCPU x86-64 box, Python 3.11). A larger --samples exits 3
# before any scalar is drawn.
MAX_SAMPLES = 100


class Session:
    """The wallet shared by consecutive commands in one process; it keeps
    the keystore, not the mnemonic or passphrase it came from."""

    def __init__(self):
        self.keystore = None

    def load(self, words, passphrase):
        """Validate and stretch the mnemonic; wipe and replace the keystore."""
        bip39.mnemonic_to_entropy(words)  # full validation
        seed = bip39.mnemonic_to_seed(words, passphrase)
        if self.keystore is not None:
            self.keystore.wipe()
        self.keystore = Keystore(master_from_seed(seed))
        return self.keystore


def ascii_int(text: str) -> int:
    """An optional '-' and 1-10 ASCII digits; argparse maps the ValueError
    to exit 2. (int() alone also takes spaces, '_', '+' and non-ASCII
    digits.)"""
    if not re.fullmatch(r"-?[0-9]{1,10}", text):
        raise ValueError("not a decimal integer: %r" % text)
    return int(text)


def _wallet_parser(sub, name, help_text):
    """A subcommand that runs on the session's wallet or on --mnemonic."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--mnemonic", help="wallet mnemonic (if no session)")
    p.add_argument("--passphrase", default=None)
    return p


@functools.cache
def _build_parser():
    """The one parser of this process; parse_args leaves it unchanged, so
    consecutive main calls on a Session share it."""
    parser = argparse.ArgumentParser(
        prog="ethcold",
        description="Ethereum HD cold-wallet pipeline: mnemonics, BIP-44 "
                    "key derivation, EIP-55 addresses, ECDSA signing, and "
                    "ladder trace analysis.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a wallet from entropy")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--entropy-hex", help="entropy as hex (16/20/24/28/32 bytes)")
    src.add_argument("--random", action="store_true",
                     help="draw entropy from OS randomness")
    p.add_argument("--words", type=ascii_int, choices=(12, 24), default=None,
                   help="mnemonic length for --random (default 24)")
    p.add_argument("--passphrase", default="")

    p = sub.add_parser("recover", help="load a wallet from a mnemonic")
    p.add_argument("--mnemonic", required=True)
    p.add_argument("--passphrase", default="")

    p = _wallet_parser(sub, "derive", "derive accounts along m/44'/60'/0'/0/i")
    p.add_argument("--count", type=ascii_int, required=True,
                   help="accounts to derive, 1 to %d" % MAX_COUNT)

    p = _wallet_parser(sub, "list", "print account records")
    p.add_argument("--count", type=ascii_int, default=None,
                   help="derive accounts up to this many first, "
                        "1 to %d" % MAX_COUNT)
    p.add_argument("--export-private", action="store_true")
    p.add_argument("--i-understand-risks", action="store_true")

    p = _wallet_parser(sub, "sign", "sign a 32-byte digest")
    p.add_argument("--index", type=ascii_int, required=True,
                   help="account index i of m/44'/60'/0'/0/i, below 2^31")
    p.add_argument("--digest", required=True,
                   help="32-byte hash to sign, as hex")
    p.add_argument("--deterministic", action="store_true",
                   help="plain RFC 6979 nonce, with no fresh random bytes")

    p = sub.add_parser("trace", help="ladder operation-trace uniformity report")
    p.add_argument("--samples", type=ascii_int, required=True,
                   help="scalars per ladder, 2 to %d" % MAX_SAMPLES)

    sub.add_parser("selftest", help="run the embedded standard-vector checks")
    return parser


def _emit(args, payload, lines):
    """The one writer of results. A reader that leaves early ends them
    quietly: fd 1 goes to devnull, so the exit-time flush cannot raise."""
    try:
        print(json.dumps(payload, allow_nan=False) if args.json
              else "\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _wallet_for(args, session):
    """The session's keystore, reloaded first when --mnemonic is given."""
    if args.mnemonic is not None:
        return session.load(args.mnemonic.split(), args.passphrase or "")
    if session.keystore is None:
        raise ValidationError(
            "no wallet: pass --mnemonic or run init/recover first")
    # the session's wallet already has its passphrase; ignoring this one
    # would print another wallet's addresses
    if args.passphrase is not None:
        raise ValidationError("--passphrase needs --mnemonic")
    return session.keystore


def _cmd_init(args, session):
    if args.entropy_hex is not None:
        if args.words is not None:
            _build_parser().error("--words applies to --random only; "
                                  "--entropy-hex sets the mnemonic length")
        entropy = parse_hex_bytes(args.entropy_hex)
    else:
        entropy = os.urandom(16 if args.words == 12 else 32)
    words = bip39.entropy_to_mnemonic(entropy)
    session.load(words, args.passphrase)
    _emit(args, {"mnemonic": " ".join(words)},
          ["mnemonic: %s" % " ".join(words)])
    return EXIT_OK


def _cmd_recover(args, session):
    words = args.mnemonic.split()
    session.load(words, args.passphrase)
    _emit(args, {"words": len(words)}, ["recovered: %d words" % len(words)])
    return EXIT_OK


def _check_count(count):
    """--count is checked before the wallet loads, so a rejected count
    costs no derivation."""
    if count is not None and not 1 <= count <= MAX_COUNT:
        raise ValidationError("--count must be in [1, %d]" % MAX_COUNT)


def _cmd_derive(args, session):
    _check_count(args.count)
    store = _wallet_for(args, session)
    created = store.generate(args.count)
    payload = {"derived": len(created),
               "indices": [a.index for a in created],
               "path": format_path(ETH_BASE_PATH) + "/i"}
    _emit(args, payload, ["derived: %d" % len(created)])
    return EXIT_OK


_NO_ACCOUNTS = "no accounts to list: pass --count or run derive first"


def _cmd_list(args, session):
    # refused before the wallet loads, so a refusal stretches no seed
    if args.export_private and not args.i_understand_risks:
        _build_parser().error("refusing to export private keys without "
                              "--i-understand-risks")
    _check_count(args.count)
    # a wallet reloaded from --mnemonic has no accounts yet
    if args.count is None and args.mnemonic is not None:
        raise ValidationError(_NO_ACCOUNTS)
    store = _wallet_for(args, session)
    if args.count is None and not store.accounts:
        raise ValidationError(_NO_ACCOUNTS)
    if args.count is not None and len(store.accounts) < args.count:
        store.generate(args.count - len(store.accounts))
    records = [a.record(include_private=args.export_private)
               for a in store.accounts]
    _emit(args, records,
          [" ".join(str(v) for v in record.values()) for record in records])
    return EXIT_OK


def _cmd_sign(args, session):
    # refused before the wallet loads, so a refusal stretches no seed
    digest = parse_hex_bytes(args.digest, expect_len=32)
    if not 0 <= args.index < HARDENED:
        raise ValidationError("account index must be in [0, 2^31)")
    account = _wallet_for(args, session).account(args.index)
    nonce = Rfc6979Nonce() if args.deterministic else None
    sig = ecdsa_sign(account.key_int, digest, nonce_source=nonce)
    payload = {"r": "%064x" % sig.r, "s": "%064x" % sig.s,
               "parity": sig.y_parity}
    _emit(args, payload, ["r: %064x" % sig.r, "s: %064x" % sig.s,
                          "parity: %d" % sig.y_parity])
    return EXIT_OK


def _cmd_trace(args, session):
    if not 2 <= args.samples <= MAX_SAMPLES:
        raise ValidationError("--samples must be in [2, %d]" % MAX_SAMPLES)
    report = uniformity_report(args.samples)
    # JSON has no infinity: the MSE of unequal-length traces is null
    payload = {"passed": report.passed, "variants": {
        v: {k: None if x == float("inf") else x
            for k, x in s._asdict().items()}
        for v, s in report.stats.items()}}
    _emit(args, payload, [report.to_text()])
    return EXIT_OK if report.passed else EXIT_CRYPTO


def _cmd_selftest(args, session):
    from .selftest import run_selftest
    lines, failures = [], []
    for name, expected, got in run_selftest():
        if got == expected:
            lines.append("ok   %s" % name)
        else:
            failures.append(name)
            lines += ["FAIL %s" % name, "     expected %s" % expected,
                      "     got      %s" % got]
    _emit(args, {"passed": not failures, "failures": failures}, lines)
    return EXIT_OK if not failures else EXIT_CRYPTO


_COMMANDS = {
    "init": _cmd_init,
    "recover": _cmd_recover,
    "derive": _cmd_derive,
    "list": _cmd_list,
    "sign": _cmd_sign,
    "trace": _cmd_trace,
    "selftest": _cmd_selftest,
}


def main(argv=None, session=None) -> int:
    if session is None:
        session = Session()
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args, session)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (ValidationError, ValueError) as exc:
        # a stray ValueError is still bad input, not a traceback
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except CryptoError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CRYPTO


if __name__ == "__main__":
    sys.exit(main())
