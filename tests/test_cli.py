"""CLI tests driven through main(argv, session)."""

import json
import os
import pathlib
import subprocess
import sys

import ethcold
from ethcold import cli
from ethcold.cli import main, MAX_COUNT, MAX_SAMPLES, Session
from ethcold.field import count_mul_iterations

import oracle
import vectors

V24 = vectors.ETH_ZERO_ENTROPY_24
V12 = vectors.ETH_ZERO_ENTROPY_12
ZERO_ENT_HEX = "00" * 32


def run(capsys, argv, session=None):
    code = main(argv, session=session)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_init_derive_list_pipeline(capsys):
    session = Session()
    code, out, _ = run(capsys, ["init", "--entropy-hex", ZERO_ENT_HEX], session)
    assert code == 0
    assert out.strip() == "mnemonic: " + V24["mnemonic"]

    code, out, _ = run(capsys, ["derive", "--count", "1"], session)
    assert code == 0
    assert "derived: 1" in out

    code, out, _ = run(capsys, ["list"], session)
    assert code == 0
    row = out.strip().splitlines()[0].split()
    assert row[0] == "0"
    assert row[2] == V24["accounts"][0]["address"]


def test_recover_then_sign_deterministic_twice(capsys):
    session = Session()
    code, _, _ = run(capsys, ["recover", "--mnemonic", V24["mnemonic"]], session)
    assert code == 0
    digest = "00" * 31 + "01"
    code, out1, _ = run(capsys, ["sign", "--index", "0", "--digest", digest,
                                 "--deterministic"], session)
    assert code == 0
    code, out2, _ = run(capsys, ["sign", "--index", "0", "--digest", digest,
                                 "--deterministic"], session)
    assert out1 == out2
    lines = dict(line.split(": ") for line in out1.strip().splitlines())
    assert set(lines) == {"r", "s", "parity"}
    assert len(lines["r"]) == 64 and len(lines["s"]) == 64


def test_sign_per_invocation_with_mnemonic(capsys):
    digest = "ab" * 32
    code, out1, _ = run(capsys, ["sign", "--mnemonic", V12["mnemonic"],
                                 "--index", "0", "--digest", digest,
                                 "--deterministic"])
    assert code == 0
    code, out2, _ = run(capsys, ["sign", "--mnemonic", V12["mnemonic"],
                                 "--index", "0", "--digest", digest,
                                 "--deterministic"])
    assert out1 == out2


def test_list_with_count_json(capsys):
    code, out, _ = run(capsys, ["--json", "list", "--mnemonic",
                                V24["mnemonic"], "--count", "2"])
    assert code == 0
    rows = json.loads(out)
    assert [r["address"] for r in rows] == \
        [a["address"] for a in V24["accounts"][:2]]
    assert all("private_key" not in r for r in rows)


def test_private_export_requires_acknowledgement(capsys):
    code, _, err = run(capsys, ["list", "--mnemonic", V12["mnemonic"],
                                "--count", "1", "--export-private"])
    assert code == 2
    assert "i-understand-risks" in err

    code, out, _ = run(capsys, ["--json", "list", "--mnemonic", V12["mnemonic"],
                                "--count", "1", "--export-private",
                                "--i-understand-risks"])
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["private_key"] == V12["key0"]


def test_no_private_material_without_override(capsys):
    session = Session()
    run(capsys, ["init", "--entropy-hex", ZERO_ENT_HEX], session)
    run(capsys, ["derive", "--count", "2"], session)
    code, out, _ = run(capsys, ["list"], session)
    for account in V24["accounts"][:2]:
        assert account["key"] not in out


def test_recover_wrong_word_count(capsys):
    words = " ".join(V24["mnemonic"].split()[:23])
    code, _, err = run(capsys, ["recover", "--mnemonic", words])
    assert code == 3
    assert "words" in err


def test_recover_unknown_word(capsys):
    words = V24["mnemonic"].split()
    words[0] = "abandno"
    code, _, err = run(capsys, ["recover", "--mnemonic", " ".join(words)])
    assert code == 3
    assert "abandno" in err


def test_recover_bad_checksum(capsys):
    words = ["abandon"] * 12
    code, _, err = run(capsys, ["recover", "--mnemonic", " ".join(words)])
    assert code == 3
    assert "checksum" in err


def test_init_bad_hex(capsys):
    for entropy in ("zz" * 16, "00 " * 16, "00" * 8 + "\n" + "00" * 8):
        code, out, err = run(capsys, ["init", "--entropy-hex", entropy])
        assert code == 3
        assert "hex" in err
        assert out == ""


def test_init_bad_entropy_length(capsys):
    code, _, err = run(capsys, ["init", "--entropy-hex", "00" * 17])
    assert code == 3


def test_sign_bad_digest_length(capsys):
    code, _, err = run(capsys, ["sign", "--mnemonic", V12["mnemonic"],
                                "--index", "0", "--digest", "ab" * 31])
    assert code == 3
    assert "32" in err


def test_sign_digest_with_inner_whitespace_exits_3(capsys):
    for digest in ("ab " * 32, " 0x" + "11 " * 32, "ab" * 16 + "\n" + "ab" * 16):
        code, out, err = run(capsys, ["sign", "--mnemonic", V12["mnemonic"],
                                      "--index", "0", "--digest", digest])
        assert code == 3
        assert "hex" in err
        assert out == ""


def test_sign_negative_index(capsys):
    code, _, err = run(capsys, ["sign", "--mnemonic", V12["mnemonic"],
                                "--index", "-1", "--digest", "ab" * 32])
    assert code == 3


def test_sign_far_index_costs_what_index_0_costs(capsys):
    """sign derives m/44'/60'/0'/0/i alone, not the i accounts below it."""
    digest = "ab" * 32
    key = oracle.bip44_eth_key(bytes.fromhex(V12["seed"]), 1_000_000)
    r, s, parity = oracle.ecdsa_sign_deterministic(key, bytes.fromhex(digest))
    costs = []
    for index in ("0", "1000000"):
        with count_mul_iterations() as counts:
            code, out, _ = run(capsys, ["--json", "sign", "--mnemonic",
                                        V12["mnemonic"], "--index", index,
                                        "--digest", digest, "--deterministic"])
        assert code == 0
        costs.append(len(counts))
    assert json.loads(out) == {"r": "%064x" % r, "s": "%064x" % s,
                               "parity": parity}
    # three combs for the path (m/44'/60'/0', /0, the account), one for
    # the nonce point and two multiplies for its affine y
    assert costs == [3 * 520 + 522] * 2


def test_over_limit_requests_exit_3_before_deriving(capsys):
    wallet = ["--mnemonic", V12["mnemonic"]]
    sign = ["sign", *wallet, "--digest", "ab" * 32, "--index"]
    for argv in (["derive", *wallet, "--count", str(MAX_COUNT + 1)],
                 ["derive", *wallet, "--count", "9999999999"],
                 ["list", *wallet, "--count", str(MAX_COUNT + 1)],
                 ["list", *wallet, "--count", "0"],
                 ["list", *wallet, "--count", "-5"],
                 [*sign, str(1 << 31)], [*sign, "9999999999"]):
        with count_mul_iterations() as counts:
            code, out, err = run(capsys, argv)
        assert code == 3, argv
        assert out == ""
        assert counts == [], argv


def test_integer_flags_take_ascii_digits_only(capsys):
    wallet = ["--mnemonic", V12["mnemonic"]]
    commands = (["derive", *wallet, "--count"], ["list", *wallet, "--count"],
                ["sign", *wallet, "--digest", "ab" * 32, "--index"],
                ["trace", "--samples"], ["init", "--random", "--words"])
    for command in commands:
        for value in ("\u0663", " 1 ", "1_0", "+1", "\u0661\u0662"):
            code, out, err = run(capsys, [*command, value])
            assert code == 2, (command, value)
            assert out == ""
            assert "invalid ascii_int value" in err


def test_commands_require_wallet(capsys):
    code, _, err = run(capsys, ["derive", "--count", "1"])
    assert code == 3
    assert "mnemonic" in err


def test_usage_errors_exit_2(capsys):
    assert main(["bogus-command"]) == 2
    assert main(["init"]) == 2  # no entropy source
    assert main([]) == 2


def test_init_random_word_count(capsys):
    for words, count in ((12, 12), (24, 24)):
        code, out, _ = run(capsys, ["init", "--random", "--words", str(words)])
        assert code == 0
        assert len(out.split(": ", 1)[1].split()) == count


def test_init_random_is_not_deterministic(capsys):
    _, out1, _ = run(capsys, ["init", "--random"])
    _, out2, _ = run(capsys, ["init", "--random"])
    assert out1 != out2


def test_trace_command_small_sample(capsys):
    code, out, _ = run(capsys, ["trace", "--samples", "2",
                                "--variant", "hardened"])
    assert code == 0
    assert "PASS" in out


def test_trace_samples_validation(capsys, monkeypatch):
    """Below 2 or above MAX_SAMPLES exits 3 before any report runs."""
    reports = []
    monkeypatch.setattr(cli, "uniformity_report",
                        lambda *a, **kw: reports.append(a))
    for samples in ("1", str(MAX_SAMPLES + 1), "9999999999"):
        code, out, _ = run(capsys, ["trace", "--samples", samples])
        assert code == 3, samples
        assert out == ""
    assert reports == []


def test_reload_wipes_the_replaced_keystore(capsys):
    session = Session()
    wallet = ["derive", "--mnemonic", V12["mnemonic"], "--count", "1"]
    assert run(capsys, wallet, session)[0] == 0
    buf = session.keystore.accounts[0].private_key
    assert buf.hex() == V12["key0"]
    assert run(capsys, [*wallet, "--passphrase", "x"], session)[0] == 0
    assert buf == bytearray(32)
    assert any(session.keystore.accounts[0].private_key)


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    assert "ok   compressed point of n-1" in out
    assert "FAIL" not in out


def test_passphrase_without_mnemonic_exits_3_on_a_session(capsys):
    """A session's wallet keeps its passphrase; another one is refused."""
    session = Session()
    assert run(capsys, ["recover", "--mnemonic", V12["mnemonic"]],
               session)[0] == 0
    passphrase = ["--passphrase", "hidden"]
    argvs = (["derive", *passphrase, "--count", "1"],
             ["list", *passphrase, "--count", "1"],
             ["sign", *passphrase, "--index", "0", "--digest", "ab" * 32])
    for argv in argvs:
        with count_mul_iterations() as counts:
            code, out, err = run(capsys, argv, session)
        assert code == 3, argv
        assert out == ""
        assert "--passphrase" in err
        assert counts == []
    assert session.keystore.accounts == []


def test_passphrase_changes_addresses(capsys):
    code, out1, _ = run(capsys, ["--json", "list", "--mnemonic",
                                 V12["mnemonic"], "--count", "1"])
    code, out2, _ = run(capsys, ["--json", "list", "--mnemonic",
                                 V12["mnemonic"], "--passphrase", "x",
                                 "--count", "1"])
    assert json.loads(out1)[0]["address"] != json.loads(out2)[0]["address"]


def test_json_init(capsys):
    code, out, _ = run(capsys, ["--json", "init", "--entropy-hex",
                                ZERO_ENT_HEX])
    assert code == 0
    assert json.loads(out)["mnemonic"] == V24["mnemonic"]


def test_non_utf8_passphrase_exits_3(capsys):
    # an undecodable argv byte such as 0xff reaches Python as U+DCFF
    code, out, err = run(capsys, ["--json", "list", "--mnemonic",
                                  V12["mnemonic"], "--passphrase", "\udcff",
                                  "--count", "1"])
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_session_and_no_session_give_the_same_exit_code(capsys):
    """main builds its own Session when given none: one wallet route."""
    wallet = ["--mnemonic", V12["mnemonic"]]
    argvs = (["recover", *wallet, "--passphrase", "\udc80"],
             ["recover", *wallet],
             ["recover", "--mnemonic", "abandon " * 11 + "abandon"],
             ["init", "--entropy-hex", "00" * 16, "--passphrase", "\udc80"],
             ["derive", "--count", "1"],
             ["derive", *wallet, "--passphrase", "\udc80", "--count", "1"],
             ["list"],
             ["list", *wallet],
             ["list", *wallet, "--count", "1"],
             ["sign", *wallet, "--index", "0", "--digest", "ab" * 32,
              "--passphrase", "\udc80"],
             ["sign", "--index", "0", "--digest", "ab" * 32])
    for argv in argvs:
        alone, _, _ = run(capsys, argv)
        with_session, _, _ = run(capsys, argv, Session())
        assert alone == with_session, argv


def test_list_as_a_process(tmp_path):
    """One `python -m ethcold.cli` run per argv, as a user types it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(pathlib.Path(ethcold.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "ethcold.cli", "--json", "list",
            "--mnemonic", V12["mnemonic"]]
    proc = subprocess.run(argv + ["--count", "1"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)[0]["address"] == V12["address0"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 3
    assert "--count" in proc.stderr
