"""CLI tests driven through main(argv, session)."""

import json
import os
import pathlib
import subprocess
import sys
import zipfile

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


def test_private_export_requires_acknowledgement(capsys, monkeypatch):
    """Without --i-understand-risks the export exits 2 before any seed is
    stretched, with or without --count."""
    def no_seed(*args, **kwargs):
        raise AssertionError("the wallet loaded before the refusal")
    monkeypatch.setattr(ethcold.bip39, "mnemonic_to_seed", no_seed)
    for count in ([], ["--count", "1"]):
        code, out, err = run(capsys, ["list", "--mnemonic", V12["mnemonic"],
                                      "--export-private", *count])
        assert code == 2, count
        assert out == ""
        assert "i-understand-risks" in err
    monkeypatch.undo()

    code, out, _ = run(capsys, ["--json", "list", "--mnemonic", V12["mnemonic"],
                                "--count", "1", "--export-private",
                                "--i-understand-risks"])
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["private_key"] == V12["key0"]


def test_list_reloaded_from_mnemonic_needs_count_before_loading(
        capsys, monkeypatch):
    """A wallet reloaded from --mnemonic has no accounts yet, so list
    without --count exits 3 before any seed is stretched, and a session's
    wallet stays as it was."""
    session = Session()
    assert run(capsys, ["derive", "--mnemonic", V12["mnemonic"],
                        "--count", "1"], session)[0] == 0
    kept = session.keystore

    def no_seed(*args, **kwargs):
        raise AssertionError("the wallet loaded before the refusal")
    monkeypatch.setattr(ethcold.bip39, "mnemonic_to_seed", no_seed)
    for on in (None, session):
        code, out, err = run(capsys, ["list", "--mnemonic", V12["mnemonic"]],
                             on)
        assert code == 3
        assert out == ""
        assert "--count" in err
    assert session.keystore is kept
    assert [a.index for a in kept.accounts] == [0]


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


def test_sign_refuses_bad_input_before_loading_the_wallet(capsys, monkeypatch):
    """A malformed --digest or an --index outside [0, 2^31) exits 3
    before the seed is stretched."""
    seeds = []
    real_seed = ethcold.bip39.mnemonic_to_seed

    def counted_seed(*args, **kwargs):
        seeds.append(args)
        return real_seed(*args, **kwargs)
    monkeypatch.setattr(ethcold.bip39, "mnemonic_to_seed", counted_seed)
    sign = ["sign", "--mnemonic", V12["mnemonic"]]
    for argv in ([*sign, "--index", "0", "--digest", "zz"],
                 [*sign, "--index", str(1 << 31), "--digest", "ab" * 32],
                 [*sign, "--index", "-1", "--digest", "ab" * 32]):
        code, out, err = run(capsys, argv)
        assert code == 3, argv
        assert out == ""
        assert seeds == [], argv
    code, _, _ = run(capsys, [*sign, "--index", "0", "--digest", "ab" * 32])
    assert code == 0
    assert len(seeds) == 1


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


def test_init_refuses_words_with_entropy_hex(capsys):
    """The entropy's length sets the mnemonic's, so --words next to
    --entropy-hex is refused rather than silently ignored."""
    for words in ("12", "24"):
        code, out, err = run(capsys, ["init", "--entropy-hex", ZERO_ENT_HEX,
                                      "--words", words])
        assert code == 2
        assert out == ""
        assert "--words" in err


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


def test_trace_has_no_variant_option(capsys):
    code, out, _ = run(capsys, ["trace", "--samples", "2",
                                "--variant", "classic"])
    assert code == 2
    assert out == ""


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


def test_selftest_failures_are_reported_and_exit_4(capsys, monkeypatch):
    """A wrong digest and a raising MAC fail exactly their own checks;
    each FAIL line is followed by what was expected and what came."""
    monkeypatch.setattr(selftest, "keccak256", lambda data: bytes(32))

    def broken_mac(key, msg):
        raise RuntimeError("broken mac")

    monkeypatch.setattr(selftest, "hmac_sha512", broken_mac)
    failures = selftest.run_selftest()
    assert failures == ["keccak256 empty", "keccak256 abc",
                        "hmac-sha512 rfc4231 case 1"]
    out = capsys.readouterr().out
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
