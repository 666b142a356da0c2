"""CLI tests driven through main(argv, session)."""

import json

from ethcold.cli import main, Session

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
    code, _, err = run(capsys, ["init", "--entropy-hex", "zz" * 16])
    assert code == 3
    assert "hex" in err


def test_init_bad_entropy_length(capsys):
    code, _, err = run(capsys, ["init", "--entropy-hex", "00" * 17])
    assert code == 3


def test_sign_bad_digest_length(capsys):
    code, _, err = run(capsys, ["sign", "--mnemonic", V12["mnemonic"],
                                "--index", "0", "--digest", "ab" * 31])
    assert code == 3
    assert "32" in err


def test_sign_negative_index(capsys):
    code, _, err = run(capsys, ["sign", "--mnemonic", V12["mnemonic"],
                                "--index", "-1", "--digest", "ab" * 32])
    assert code == 3


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


def test_trace_samples_validation(capsys):
    code, _, err = run(capsys, ["trace", "--samples", "1"])
    assert code == 3


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
