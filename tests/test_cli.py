"""CLI tests driven through main(argv, session)."""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import zipfile

import pytest

import ethcold
from ethcold import cli, hd, selftest
from ethcold.cli import main, MAX_COUNT, MAX_SAMPLES, Session
from ethcold.errors import DerivationError
from ethcold.field import count_mul_iterations

import oracle
import vectors

V24 = vectors.ETH_ZERO_ENTROPY_24
V12 = vectors.ETH_ZERO_ENTROPY_12
ZERO_ENT_HEX = "00" * 32
W12 = ["--mnemonic", V12["mnemonic"]]
SIGN = ["sign", *W12, "--digest", "ab" * 32, "--index"]


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


def test_list_text_rows_are_the_json_records_joined(capsys):
    session = Session()
    assert run(capsys, ["recover", "--mnemonic", V24["mnemonic"]],
               session)[0] == 0
    for private in ([], ["--export-private", "--i-understand-risks"]):
        argv = ["list", "--count", "2", *private]
        code, text, _ = run(capsys, argv, session)
        assert code == 0
        code, out, _ = run(capsys, ["--json", *argv], session)
        assert code == 0
        records = json.loads(out)
        assert len(records) == 2
        assert ("private_key" in records[0]) == bool(private)
        assert text.splitlines() == [
            " ".join(str(v) for v in r.values()) for r in records]


def test_private_export_with_acknowledgement_prints_the_key(capsys):
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


def test_sign_far_index_costs_what_index_0_costs(capsys):
    """sign derives m/44'/60'/0'/0/i alone, not the i accounts below it."""
    digest = "ab" * 32
    key = oracle.bench.Node.master(bytes.fromhex(V12["seed"])).path(
        oracle.bench.ETH_BASE_PATH + (1_000_000,)).key
    costs = []
    for index in ("0", "1000000"):
        with count_mul_iterations() as counts:
            code, out, _ = run(capsys, ["--json", "sign", "--mnemonic",
                                        V12["mnemonic"], "--index", index,
                                        "--digest", digest, "--deterministic"])
        assert code == 0
        costs.append(len(counts))
    assert json.loads(out) == oracle.bench.sign(key, bytes.fromhex(digest))
    # two combs for the parent path (m/44'/60'/0', /0; the account's own
    # public point is never read), one for the nonce point and two
    # multiplies for its affine y
    assert costs == [2 * 520 + 522] * 2


def test_derive_reads_no_public_key_and_list_reads_each_once(capsys):
    """derive --count 3 runs the two parent-path combs only; the list
    after it runs one comb per account and prints the vector records."""
    session = Session()
    run(capsys, ["recover", "--mnemonic", V24["mnemonic"]], session)
    with count_mul_iterations() as counts:
        code, _, _ = run(capsys, ["derive", "--count", "3"], session)
    assert code == 0
    assert len(counts) == 2 * 520
    with count_mul_iterations() as counts:
        code, out, _ = run(capsys, ["--json", "list"], session)
    assert code == 0
    assert len(counts) == 3 * 520
    assert json.loads(out) == [
        {"index": a["index"], "public_key": a["pub_compressed"],
         "address": a["address"]} for a in V24["accounts"]]


def test_usage_error_leaves_the_session_parser_intact(capsys):
    """main builds its parser once per process; a command rejected by it
    must not change how the next command on the same Session parses."""
    argv = ["--json", "sign", "--mnemonic", V12["mnemonic"], "--index", "1",
            "--digest", "cd" * 32, "--deterministic"]
    session = Session()
    code, _, _ = run(capsys, ["sign", "--index", "x", "--digest", "00"],
                     session)
    assert code == 2
    code, out, _ = run(capsys, argv, session)
    assert code == 0
    assert (code, out) == run(capsys, argv, Session())[:2]


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
    """Every report covers the balanced ladder and its classic view, so
    its PASS rests on the balanced ladder's shapes."""
    code, out, _ = run(capsys, ["--json", "trace", "--samples", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert list(report["variants"]) == ["hardened", "classic"]


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


def test_selftest_failures_are_reported_and_exit_4(capsys, monkeypatch):
    """A wrong digest and a raising MAC fail exactly their own checks;
    each FAIL line is followed by what was expected and what came."""
    monkeypatch.setattr(selftest, "keccak256", lambda data: bytes(32))

    def broken_mac(key, msg):
        raise RuntimeError("broken mac")

    monkeypatch.setattr(selftest, "hmac_sha512", broken_mac)
    failures = [name for name, expected, got in selftest.run_selftest()
                if got != expected]
    assert failures == ["keccak256 empty", "keccak256 abc",
                        "hmac-sha512 rfc4231 case 1"]
    code, out, _ = run(capsys, ["selftest"])
    assert code == 4
    assert out.count("FAIL") == 3
    assert "FAIL keccak256 empty\n     expected c5d2" in out
    assert "     got      " + "00" * 32 in out
    assert "got      exception: RuntimeError('broken mac')" in out
    code, out, _ = run(capsys, ["--json", "selftest"])
    assert code == 4
    assert json.loads(out) == {"passed": False, "failures": failures}


def test_crypto_error_exits_4_with_one_error_line(capsys, monkeypatch):
    def underivable(parent, index):
        raise DerivationError("derived key is zero; skip this index")

    monkeypatch.setattr(hd, "ckd_priv", underivable)
    code, out, err = run(capsys, ["sign", "--index", "0", "--mnemonic",
                                  V12["mnemonic"], "--digest", "ab" * 32])
    assert code == 4
    assert out == ""
    assert err == "error: derived key is zero; skip this index\n"


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


# setup is None or a command run first on the same Session
REFUSALS = [
    *[(None, ["recover", "--mnemonic", words], 3, text) for words, text in (
        (V24["mnemonic"].rsplit(" ", 1)[0], "words"),
        (V24["mnemonic"].replace("abandon", "abandno", 1), "abandno"),
        ("abandon " * 11 + "abandon", "checksum"))],
    *[(None, ["init", "--entropy-hex", entropy], 3, "hex")
      for entropy in ("zz" * 16, "00 " * 16, "00" * 8 + "\n" + "00" * 8)],
    (None, ["init", "--entropy-hex", "00" * 17], 3, "entropy"),
    *[(None, ["init", "--entropy-hex", ZERO_ENT_HEX, "--words", words], 2,
       "--words") for words in ("12", "24")],
    (None, ["sign", *W12, "--index", "0", "--digest", "ab" * 31], 3, "32"),
    *[(None, ["sign", *W12, "--index", "0", "--digest", digest], 3, "hex")
      for digest in ("zz", "ab " * 32, " 0x" + "11 " * 32,
                     "ab" * 16 + "\n" + "ab" * 16)],
    *[(None, [*SIGN, index], 3, "2^31")
      for index in ("-1", str(1 << 31), "9999999999")],
    *[(None, [command, *W12, "--count", count], 3, "--count")
      for command in ("derive", "list")
      for count in ("0", "-5", str(MAX_COUNT + 1), "9999999999")],
    *[(None, [*command, value], 2, "invalid ascii_int value")
      for command in (["derive", *W12, "--count"], ["list", *W12, "--count"],
                      SIGN, ["trace", "--samples"],
                      ["init", "--random", "--words"])
      for value in ("\u0663", " 1 ", "1_0", "+1", "\u0661\u0662")],
    (None, ["derive", "--count", "1"], 3, "mnemonic"),
    *[(None, argv, 2, "usage:") for argv in (["bogus-command"], ["init"], [])],
    (None, ["trace", "--samples", "2", "--variant", "classic"], 2,
     "--variant"),
    *[(None, ["trace", "--samples", samples], 3, "--samples")
      for samples in ("1", str(MAX_SAMPLES + 1), "9999999999")],
    *[(None, ["list", *W12, "--export-private", *count], 2,
       "i-understand-risks") for count in ([], ["--count", "1"])],
    # a wallet reloaded from --mnemonic, or just recovered, has no accounts
    (None, ["list", *W12], 3, "--count"),
    (["derive", *W12, "--count", "1"], ["list", *W12], 3, "--count"),
    (["recover", *W12], ["list"], 3, "--count"),
    # a session's wallet keeps its passphrase; another one is refused
    *[(["recover", *W12], [*argv, "--passphrase", "x"], 3, "--passphrase")
      for argv in (["derive", "--count", "1"], ["list", "--count", "1"],
                   ["sign", "--index", "0", "--digest", "ab" * 32])],
]


def _paid(capsys, argv, session):
    """Run argv on session: exit code, stdout, stderr, and the seed
    stretches and multiplies it paid for. A uniformity report fails."""
    stretches, stretch = [], ethcold.bip39.mnemonic_to_seed

    def counted_stretch(*args):
        stretches.append(args)
        return stretch(*args)
    with pytest.MonkeyPatch.context() as patch, \
            count_mul_iterations() as counts:
        patch.setattr(ethcold.bip39, "mnemonic_to_seed", counted_stretch)
        patch.setattr(cli, "uniformity_report",
                      lambda *args: pytest.fail("a uniformity report ran"))
        code, out, err = run(capsys, argv, session)
    return code, out, err, (len(stretches), len(counts))


@pytest.mark.parametrize("setup, argv, code, text", REFUSALS)
def test_a_refusal_costs_nothing(capsys, setup, argv, code, text):
    """A refusal exits 2 or 3 with its reason on stderr and no stdout; it
    pays no stretch, report or multiply and leaves the wallet as it was."""
    session = Session()
    if setup is not None:
        assert run(capsys, setup, session)[0] == 0
    store = session.keystore
    indices = store and [a.index for a in store.accounts]
    got, out, err, paid = _paid(capsys, argv, session)
    assert (got, out, paid) == (code, "", (0, 0))
    assert text in err
    assert session.keystore is store
    assert indices == (store and [a.index for a in store.accounts])


def test_the_refusal_probes_see_an_accepted_command(capsys):
    """_paid sees a sign's one stretch and 2 * 520 + 522 multiplies (see
    test_sign_far_index_costs_what_index_0_costs) and a trace's report."""
    code, out, _, paid = _paid(capsys, [*SIGN, "0"], Session())
    assert (code, paid) == (0, (1, 2 * 520 + 522))
    assert out.startswith("r: ")
    with pytest.raises(pytest.fail.Exception, match="report"):
        _paid(capsys, ["trace", "--samples", "2"], Session())


def _process_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(pathlib.Path(ethcold.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)
    return env


def _modules_added(statement, tmp_path):
    """The modules a fresh process holds after `statement` and not before;
    -S leaves out the modules site imports."""
    code = ("import sys; before = set(sys.modules); %s; "
            "print(' '.join(sorted(set(sys.modules) - before)))" % statement)
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path,
                          env=_process_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_skips_dataclasses_and_inspect(tmp_path):
    """A fresh process pays for every module it imports. The package loads
    a submodule on first use, so the wordlist route compiles no curve,
    signing or trace code; dataclasses pulls in inspect, ast, dis and
    tokenize, importlib.resources a dozen more, and the CLI needs none of
    them."""
    def ethcold_modules(statement):
        return {m for m in _modules_added(statement, tmp_path)
                if m.partition(".")[0] == "ethcold"}

    assert ethcold_modules("import ethcold") == {"ethcold"}
    assert ethcold_modules("import ethcold.bip39") == {
        "ethcold", "ethcold.bip39", "ethcold.errors", "ethcold.kdf"}
    assert not {"importlib.resources", "dataclasses", "inspect"} & \
        _modules_added("import ethcold.cli", tmp_path)


def test_package_runs_from_a_zip_archive(tmp_path):
    """A wheel on PYTHONPATH is a zip archive: the wordlist comes through
    the zip importer, and -S keeps any installed copy off the path."""
    package = pathlib.Path(ethcold.__file__).parent
    archive = tmp_path / "ethcold.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in package.rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(package.parent))
    env = dict(os.environ, PYTHONPATH=str(archive))
    code = ("import ethcold.bip39 as b; "
            "print(b.__file__, len(b.load_wordlist()))")
    proc = subprocess.run([sys.executable, "-S", "-W", "error", "-c", code],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    module_file, words = proc.stdout.split()
    assert module_file.startswith(str(archive)) and words == "2048"
    proc = subprocess.run([sys.executable, "-S", "-W", "error", "-m",
                           "ethcold.cli", "--json", "list", "--mnemonic",
                           V12["mnemonic"], "--count", "1"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)[0]["address"] == V12["address0"]


def test_list_as_a_process(tmp_path):
    """One `python -m ethcold.cli` run per argv, as a user types it."""
    env = _process_env()
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


def test_a_reader_that_leaves_ends_the_output_quietly(tmp_path):
    """A stdout whose reader has gone (`ethcold selftest | true`) is no
    error of the command's: it keeps its own exit code and writes no
    traceback."""
    for argv in (["selftest"], ["--json", "selftest"],
                 ["list", "--mnemonic", V12["mnemonic"], "--count", "1"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "ethcold.cli", *argv],
                                  cwd=tmp_path, env=_process_env(),
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, ""), argv


def test_a_closed_pipe_leaves_no_descriptor_open(monkeypatch):
    """_emit closes the devnull fd it points a closed pipe's fd at."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    opened, real_open = [], os.open

    def recorded_open(*args):
        opened.append(real_open(*args))
        return opened[-1]
    monkeypatch.setattr(os, "open", recorded_open)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        cli._emit(argparse.Namespace(json=False), None, ["a line"])
    [devnull] = opened
    with pytest.raises(OSError):
        os.fstat(devnull)
