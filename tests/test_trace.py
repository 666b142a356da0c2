"""Operation-trace model tests: shape uniformity, baseline leakage and
the uniformity report's figures."""

import hashlib
import json
import random

import pytest

from ethcold import curve as curve_module
from ethcold.cli import main
from ethcold.curve import (ADD, ADD_SCHEDULE, B3, CurveParams, IDENTITY,
                           LADDER_ROUTES, MUL, point_add_complete,
                           ProjectivePoint, R0, R1, RT, scalar_mul_ladder,
                           SECP256K1, SUB, to_affine, X1, X2, Y1, Y2, Z1, Z2)
from ethcold.errors import InvalidScalarError
from ethcold.field import count_mul_iterations, Modulus, SECP256K1_P
from ethcold.trace import record_ladder_trace, TraceRecorder, uniformity_report

import vectors

SC = vectors.SMALL_CURVE
SMALL = CurveParams(p=Modulus(SC["p"]), n=Modulus(SC["order"]),
                    b=SC["b"], gx=SC["gx"], gy=SC["gy"])


def test_hardened_structure_255_iterations():
    trace = record_ladder_trace(0xdeadbeef, "hardened")
    ladder = [e for e in trace.events if e.slot != "BIA"]
    assert len({e.iteration for e in ladder}) == 255
    assert len(ladder) == 255 * 3
    for i in range(255):
        group = ladder[3 * i:3 * i + 3]
        assert [e.iteration for e in group] == [i, i, i]
        kinds = [e.op_kind for e in group]
        assert kinds.count("point-add") == 1
        assert kinds.count("point-double") == 2
        assert sorted(e.dest_register for e in group) == ["R0", "R1", "Rt"]
        assert [e.slot for e in group] == ["PA0", "PA1", "PA0"]


def test_bia_events_close_every_trace():
    for variant in ("hardened", "classic"):
        trace = record_ladder_trace(12345, variant)
        bia = [e for e in trace.events if e.slot == "BIA"]
        assert len(bia) == 2
        assert trace.events[-2:] == bia
        assert all(e.iteration == 255 for e in bia)
        assert all(e.op_kind == "field-mul" for e in bia)


def _small_curve_shapes(variant):
    return {record_ladder_trace(k, variant, SMALL).shape
            for k in range(1, SC["order"])}


def test_classic_shapes_differ_on_small_curve():
    assert len(_small_curve_shapes("classic")) > 1


def test_trace_rejects_invalid_scalars():
    with pytest.raises(InvalidScalarError):
        record_ladder_trace(0, "hardened")
    with count_mul_iterations() as counts:
        with pytest.raises(ValueError):
            record_ladder_trace(1, "bogus")
    assert counts == []


class LoggingModulus(Modulus):
    """A modulus that appends the kind of every field operation to ops."""

    __slots__ = ("ops",)

    def __init__(self, value):
        super().__init__(value)
        self.ops = []

    def add(self, a, b):
        self.ops.append("field-add")
        return super().add(a, b)

    def sub(self, a, b):
        self.ops.append("field-sub")
        return super().sub(a, b)

    def mul(self, a, b):
        self.ops.append("field-mul")
        return super().mul(a, b)


def test_add_schedule_shape():
    """33 rows (14 MUL, 14 ADD, 5 SUB) that never write an input or B3,
    read only inputs or registers an earlier row wrote, and pass B3 only
    as the scanned second operand of a MUL."""
    ops = [op for op, _dst, _a, _b in ADD_SCHEDULE]
    assert (len(ops), ops.count(MUL), ops.count(ADD), ops.count(SUB)) == \
        (33, 14, 14, 5)
    inputs = {X1, Y1, Z1, X2, Y2, Z2, B3}
    written = set()
    for op, dst, a, b in ADD_SCHEDULE:
        assert {a, b} <= inputs | written
        assert a != B3 and (b != B3 or op == MUL)
        assert dst not in inputs
        written.add(dst)


def test_completeness_same_field_op_sequence_for_special_cases():
    """P+Q, P+P, P+(-P), P+O all run the ADD_SCHEDULE ops in order."""
    logged = LoggingModulus(SECP256K1_P)
    curve = CurveParams(p=logged, n=SECP256K1.n, b=SECP256K1.b,
                        gx=SECP256K1.gx, gy=SECP256K1.gy)
    g = SECP256K1.generator
    neg_g = ProjectivePoint(SECP256K1.gx,
                            SECP256K1.p.value - SECP256K1.gy, 1)
    names = {ADD: "field-add", SUB: "field-sub", MUL: "field-mul"}
    schedule = [names[op] for op, _dst, _a, _b in ADD_SCHEDULE]
    for q in (point_add_complete(g, g), g, neg_g, IDENTITY):
        logged.ops.clear()
        point_add_complete(g, q, curve)
        assert logged.ops == schedule


def test_one_bit_difference_detected_in_classic():
    k1 = 0b1010101
    k2 = k1 ^ 0b0000100
    t1 = record_ladder_trace(k1, "classic", SMALL)
    t2 = record_ladder_trace(k2, "classic", SMALL)
    assert t1.shape != t2.shape


def test_uniformity_report_requires_two_samples():
    with pytest.raises(ValueError):
        uniformity_report(1)


def test_uniformity_report_draws_from_the_system_generator(monkeypatch):
    draws = []
    monkeypatch.setattr(random.SystemRandom, "randrange",
                        lambda self, *bounds: draws.append(bounds) or 5)
    assert uniformity_report(2, curve=SMALL).passed is True
    assert draws == [(1, SC["order"])] * 2


def test_export_lines_format():
    trace = record_ladder_trace(9, "hardened", SMALL)
    lines = list(trace.export_lines())
    assert len(lines) == len(trace.events)
    first = lines[0].split()
    assert first[0] == "0"
    assert first[1] == "PA0"
    assert first[2] == "point-add"
    assert first[3] == "R0"
    assert first[4].isdigit()


# --- one balanced run records both ladders ---

def _weight(pt):
    return sum(c.bit_count() for c in pt)


def test_baseline_is_the_classic_two_operation_ladder():
    """The classic ladder written out (Joye and Yen): key bit b adds
    R0 + R1 into R(1-b), then doubles R(b), each event naming the
    register written. The classic view of the balanced run is exactly
    that, and the run computes the same point."""
    g = SMALL.generator
    for k in range(1, SC["order"]):
        bits = format(k, "0%db" % SMALL.scalar_bits)
        regs = ([g, point_add_complete(g, g, SMALL)] if bits[0] == "1"
                else [IDENTITY, g])
        want = []
        for i, bit in enumerate(bits[1:]):
            b = int(bit)
            regs[1 - b] = point_add_complete(regs[0], regs[1], SMALL)
            dst = "R%d" % (1 - b)
            want.append((i, "PA0", "point-add", dst, _weight(regs[1 - b]),
                         dst))
            regs[b] = point_add_complete(regs[b], regs[b], SMALL)
            dst = "R%d" % b
            want.append((i, "PA0", "point-double", dst, _weight(regs[b]),
                         dst))
        point = to_affine(regs[0], SMALL)
        want += [(len(bits) - 1, "BIA", "field-mul", "R0", c.bit_count(),
                  "R0") for c in (point.x, point.y)]
        assert scalar_mul_ladder(k, SMALL) == point
        assert record_ladder_trace(k, "classic", SMALL).events == want


def test_hardened_registers_give_the_key_bits_below_the_top():
    """The address read (Itoh, Izu and Takenaka, CHES 2002) as a negative
    control: the balanced ladder's shape hides the key, but its point
    addition writes R0 exactly when the key bit is 1, so the physical
    registers of one trace give every key bit below the top."""
    rng = random.Random(0xADD)
    for _ in range(3):
        k = rng.randrange(1, SECP256K1.n.value)
        trace = record_ladder_trace(k, "hardened", SECP256K1.native)
        read = "".join("1" if e.register == "R0" else "0"
                       for e in trace.events if e.op_kind == "point-add")
        assert read == format(k, "0%db" % SECP256K1.scalar_bits)[1:]


@pytest.mark.parametrize("samples", [2, 5])
def test_report_on_both_ladders_runs_one_ladder_per_scalar(samples):
    """Every ladder trace comes from one balanced run: a report on both
    ladders costs one balanced ladder, 268 multiplies, per scalar."""
    with count_mul_iterations() as counts:
        uniformity_report(samples, curve=SMALL, rng=random.Random(samples))
    assert len(counts) == samples * 268


@pytest.mark.parametrize("seed, classic_shapes, classic_register_mse", [
    pytest.param(1, 5, 0.8571428571428571, id="1"),
    pytest.param(2, 6, 0.42857142857142855, id="2"),
    pytest.param(3, 6, 0.7142857142857143, id="3"),
])
def test_report_figures_read_by_the_bench_trace_check(
        seed, classic_shapes, classic_register_mse):
    """(shapes_equal, distinct_shapes, mse_op_count_max,
    mse_op_register_max) per variant, exactly; the register figure is
    compared float-exactly with an independent classic-ladder model. The
    text names both ladders, the classic one's distinct shapes, and PASS."""
    report = uniformity_report(6, curve=SMALL, rng=random.Random(seed))
    assert report.passed is True
    figures = {v: (s.shapes_equal, s.distinct_shapes, s.mse_op_count_max,
                   s.mse_op_register_max) for v, s in report.stats.items()}
    assert figures == {
        "hardened": (True, 1, 0.0, 0.0),
        "classic": (False, classic_shapes, 0.0, classic_register_mse),
    }
    text = report.to_text()
    assert "\n  hardened:\n" in text and "\n  classic:\n" in text
    assert "shapes pairwise equal : yes" in text
    assert "NO (%d distinct)" % classic_shapes in text
    assert text.endswith("result: PASS")


def test_report_fails_when_hardened_shapes_differ(monkeypatch, capsys):
    """A ladder that writes one extra hardened event for the second scalar
    fails the report, its text and `ethcold trace` (exit 4), whose JSON
    stays strict: the infinite MSE figures are written as null."""
    ladder = curve_module.scalar_mul_ladder
    calls = []

    def uneven_ladder(k, curve, recorder=None):
        point = ladder(k, curve, recorder=recorder)
        calls.append(k)
        if len(calls) % 2 == 0:
            recorder.record(0, curve_module.LADDER_OPS[0], R0, IDENTITY)
        return point

    monkeypatch.setattr(curve_module, "scalar_mul_ladder", uneven_ladder)
    report = uniformity_report(2, curve=SMALL, rng=random.Random(1))
    assert report.passed is False
    assert report.stats["hardened"].distinct_shapes == 2
    assert report.to_text().endswith("result: FAIL")
    assert main(["--json", "trace", "--samples", "2"]) == 4

    def reject(constant):
        raise ValueError("not strict JSON: %s" % constant)

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payload["passed"] is False
    hardened = payload["variants"]["hardened"]
    assert hardened["mse_op_count_max"] is None
    assert hardened["mse_op_register_max"] is None
    assert len(calls) == 4


def test_recorder_single_ownership_contract():
    rec = TraceRecorder()
    scalar_mul_ladder(5, SMALL, recorder=rec)
    n = len(rec.events)
    scalar_mul_ladder(6, SMALL, recorder=rec)
    # reuse concatenates; callers get one recorder per multiplication
    assert len(rec.events) == 2 * n
    assert rec.shape[:n] == rec.shape[n:]


# --- fixed-base comb ---

def test_comb_structure_37_windows():
    trace = record_ladder_trace(0xdeadbeef, "comb")
    body = [e for e in trace.events if e.slot != "BIA"]
    assert len({e.iteration for e in body}) == 37
    assert [e[:4] for e in body] == [(j, "PA0", "point-add", "R0")
                                     for j in range(37)]
    bia = trace.events[-2:]
    assert all(e.slot == "BIA" and e.op_kind == "field-mul"
               and e.iteration == 37 for e in bia)
    assert len(trace) == 39


def test_comb_shapes_identical_over_random_scalars():
    rng = random.Random(0xC0B)
    traces = [record_ladder_trace(rng.randrange(1, SECP256K1.n.value), "comb")
              for _ in range(100)]
    assert len({t.shape for t in traces}) == 1


def test_comb_trace_rejects_invalid_scalars():
    for k in (0, SECP256K1.n.value):
        with pytest.raises(InvalidScalarError):
            record_ladder_trace(k, "comb")


# --- ladder routes and golden traces ---

def test_ladder_routes_write_each_register_once_and_never_read_rt():
    """Each bit's route writes R0, R1 and Rt once and reads only R0 and
    R1: Rt is write-only, so the dummy doubling never feeds a result."""
    for route in LADDER_ROUTES:
        assert sorted(dst for _a, _b, dst in route) == [R0, R1, RT]
        assert {r for a, b, _dst in route for r in (a, b)} <= {R0, R1}


# sha256 over export_lines() (each line plus "\n"), for every scalar
# 1..order-1 on the mod-103 curve and for k = 0xdeadbeef on secp256k1;
# the ladders' recorded before they became schedule tables, the comb's
# when its digits became signed and 7 bits wide.
GOLDEN_TRACES = {
    "hardened": (
        "992227c3da3fb9ea4154d7b70fac90d39bda312c5b69a26ff1d167a6b23d798f",
        "9139d412828e567e8e96c85dfb48b56f1e76af0529d8ae6f41cb61aeedafed1c"),
    "classic": (
        "14c246ef6ac4972e3f80bd8f2d1b1587c3062a203489fa2e821d0630435115f4",
        "5402ec516b2d29a53c040879aca012470408f0a58484a82903cddacc2aecc308"),
    "comb": (
        "683c005d83cacfeeb25ebc044b8c0854d1c7feab610f55f95265e8b30f9609d2",
        "13c4becfaabb600dc0c05e8150dcdac43cabe2cc10b2cbcbd58b500cc2fd4048"),
}


def _export_digest(traces):
    h = hashlib.sha256()
    for trace in traces:
        for line in trace.export_lines():
            h.update((line + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("variant", sorted(GOLDEN_TRACES))
def test_export_lines_match_golden_digests(variant):
    small, secp = GOLDEN_TRACES[variant]
    assert _export_digest(record_ladder_trace(k, variant, SMALL)
                          for k in range(1, SC["order"])) == small
    assert _export_digest([record_ladder_trace(0xdeadbeef, variant)]) == secp


@pytest.mark.parametrize("variant", sorted(GOLDEN_TRACES))
def test_native_twin_records_the_golden_traces(variant):
    """curve.native, off the modeled multiplier, records the same traces
    as the modeled curve, so an analysis may run on it; no modeled
    multiply runs."""
    small, secp = GOLDEN_TRACES[variant]
    with count_mul_iterations() as counts:
        assert _export_digest(record_ladder_trace(k, variant, SMALL.native)
                              for k in range(1, SC["order"])) == small
        assert _export_digest([record_ladder_trace(
            0xdeadbeef, variant, SECP256K1.native)]) == secp
    assert counts == []
