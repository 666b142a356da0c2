"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

Covers: a smoke run prints every metric named in BENCHMARK.json with its
unit; the checkers flag an output with one flipped byte; the layer
wrappers leave outputs bit-identical and put every original back;
normalized times scale inversely with the machine reference; the
benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers     # noqa: E402
import oracle     # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _flip(hex_text, at=3):
    data = bytearray(bytes.fromhex(hex_text))
    data[at] ^= 0x01
    return data.hex()


@pytest.mark.parametrize("workload,trace", [("trace", 0), ("trace", 1),
                                             ("restore", 0)])
def test_smoke_run_prints_every_metric_with_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0.01",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    printed = {line.split()[0]: line.split() for line in lines[:-1]}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert printed[m["name"]][2] == m["unit"]


def test_restore_checker_flags_flipped_byte():
    w = workloads.make("restore", ROOT, 1)
    inp = w.next_input()
    rows = workloads.Restore.expected(inp)
    assert w.check(inp, (0, json.dumps(rows))) == workloads.OK
    rows[0]["public_key"] = _flip(rows[0]["public_key"])
    assert w.check(inp, (0, json.dumps(rows))) not in (
        workloads.OK, workloads.KNOWN_NFKD)


def test_restore_classifies_unnormalized_passphrase_as_known_defect():
    w = workloads.make("restore", ROOT, 1)
    inputs = [w.next_input() for _ in range(w.NONASCII_EVERY)]
    composed = inputs[-1]
    assert all(i["passphrase"].isascii() for i in inputs[:-1])
    assert not composed["passphrase"].isascii()
    raw = workloads.Restore.expected(composed, normalize=False)
    assert w.check(composed, (0, json.dumps(raw))) == workloads.KNOWN_NFKD


def test_accounts_checker_flags_flipped_byte():
    w = workloads.make("accounts", ROOT, 1)
    w.prepare_oracle()
    record = oracle.account_record(w.base, 5)
    assert w.check({"index": 5}, dict(record)) == workloads.OK
    for field in ("private_key", "public_key"):
        bad = dict(record, **{field: _flip(record[field])})
        assert w.check({"index": 5}, bad) != workloads.OK
    bad = dict(record, address="0x" + _flip(record["address"][2:]))
    assert w.check({"index": 5}, bad) != workloads.OK


def test_sign_checker_flags_flipped_byte():
    w = workloads.make("sign", ROOT, 1)
    w.prepare_oracle()
    inp = w.next_input()
    sig = oracle.sign(w.keys[inp["index"]], inp["digest"])
    assert w.check(inp, (0, json.dumps(sig))) == workloads.OK
    for field in ("r", "s"):
        bad = dict(sig, **{field: _flip(sig[field], at=31)})
        assert w.check(inp, (0, json.dumps(bad))) != workloads.OK
    assert w.check(inp, (4, json.dumps(sig))) != workloads.OK


def test_trace_checker_flags_flipped_scalar_bit():
    w = workloads.make("trace", ROOT, 1)
    inp = w.next_input()
    report, scalars = w.run(inp)
    assert w.check(inp, (report, scalars)) == workloads.OK
    assert w.check(inp, (report, [scalars[0], scalars[1] ^ 1])) != workloads.OK


def test_normalized_time_scales_with_machine_reference():
    import run
    timings = run.Timings()
    timings.times = [0.4, 0.5]
    timings.refs = [run.REF_NOMINAL_S, 2 * run.REF_NOMINAL_S]
    assert timings.normalized() == pytest.approx([0.4, 0.25])


def _originals():
    return [getattr(layers._resolve(owner), attr)
            for _, owner, attr in layers.TARGETS]


def test_wrappers_leave_outputs_bit_identical():
    import ethcold.trace
    before = _originals()
    restore = workloads.make("restore", ROOT, 3)
    sign = workloads.make("sign", ROOT, 3)
    sign.setup()
    restore_inp, sign_inp = restore.next_input(), sign.next_input()
    k = oracle.rfc6979_nonce(12345, bytes(32))

    def outputs():
        return (restore.run(restore_inp), sign.run(sign_inp),
                [list(ethcold.trace.record_ladder_trace(k, v).export_lines())
                 for v in ("hardened", "classic")])

    plain = outputs()
    probe = layers.LayerProbe()
    with probe.installed():
        wrapped = outputs()
    assert wrapped == plain
    assert probe.calls["curve.ladder"] == 3 + 1 + 1
    assert probe.muls_per_call["curve.classic"] == {7_156}
    assert _originals() == before


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sign", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
