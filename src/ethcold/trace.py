"""Abstract side-channel model for the scalar multiplications.

A TraceRecorder passed to a ladder or to the fixed-base comb is told
each register write the curve module makes, by register index and value,
and is itself the trace. It alone names and weighs them: one event per
write holds (iteration, slot, op kind, destination register, Hamming
weight of the written value, physical register written). For the
balanced ladder the slot, op kind and destination (the write port) come
from the curve module's LADDER_OPS, the same for every key bit, which
picks only the physical register. The shape of a trace is the first four
fields of its events; for the balanced ladder and the comb it depends
only on the fixed scalar width, never on key bits, which is the testable
core of the design's leakage claim. The classic two-operation ladder,
the leaky one, is each balanced row without its dummy write into Rt:
classic() reads it off a balanced trace, naming the physical registers,
and its shape follows the key.

The uniformity report runs one balanced ladder per random scalar and
compares its two views, hardened and classic, by shape and by the mean
square difference of per-event op and register ids against the first
trace, the feature that separates the classic ladder's traces. It
passes when the hardened traces share one shape.
"""

import random
from typing import NamedTuple, Optional

from . import curve as _curve

OP_KINDS = ("point-add", "point-double", "field-mul")
REGISTER_NAMES = ("R0", "R1", "Rt")  # indexed by curve.R0, R1, RT


class TraceEvent(NamedTuple):
    iteration: int
    slot: str
    op_kind: str
    dest_register: str
    weight: int
    register: str


class TraceRecorder:
    """The events of the scalar multiplications it was passed to, in
    program order; one recorder per multiplication gives one trace."""

    def __init__(self):
        self.events = []

    def record(self, iteration, op, register, value):
        """One write: op is a (slot, op kind, port) row, port and register
        index REGISTER_NAMES, and the weight counts the set bits of value."""
        slot, op_kind, port = op
        self.events.append(TraceEvent(
            iteration, slot, op_kind, REGISTER_NAMES[port],
            sum(c.bit_count() for c in value), REGISTER_NAMES[register]))

    def classic(self) -> "TraceRecorder":
        """The classic two-operation ladder's view of this balanced ladder
        trace: every write but the dummy into Rt, in slot PA0 (BIA stays
        BIA), each naming the physical register written, so its register
        sequence follows the key bits, which is exactly the leak."""
        view = TraceRecorder()
        view.events = [e._replace(slot="BIA" if e.slot == "BIA" else "PA0",
                                  dest_register=e.register)
                       for e in self.events if e.register != "Rt"]
        return view

    @property
    def shape(self) -> tuple:
        """The event sequence with weights erased."""
        return tuple(e[:4] for e in self.events)

    def __len__(self):
        return len(self.events)

    def export_lines(self):
        """Line-delimited records for external analysis."""
        for e in self.events:
            yield "%d %s %s %s %d" % (e.iteration, e.slot, e.op_kind,
                                      e.dest_register, e.weight)


def record_ladder_trace(k: int, variant: str = "hardened",
                        curve=_curve.SECP256K1) -> TraceRecorder:
    """The trace of one scalar multiplication of `variant`: "hardened"
    (the balanced ladder), "classic" (that run's classic view) or
    "comb" (the fixed-base comb). The multiply is looked up on the curve
    module at call time, so a wrapper installed there sees every run."""
    rec = TraceRecorder()
    if variant in ("hardened", "classic"):
        _curve.scalar_mul_ladder(k, curve, recorder=rec)
    elif variant == "comb":
        _curve.scalar_mul_comb(k, curve, recorder=rec)
    else:
        raise ValueError("variant must be 'hardened', 'classic' or 'comb'")
    return rec.classic() if variant == "classic" else rec


def _register_mse_max(traces) -> float:
    """Largest mean square difference of per-event ids (OP_KINDS index * 8
    + register index + 1) against the first trace; inf if lengths differ."""
    ids = [[OP_KINDS.index(e.op_kind) * 8
            + REGISTER_NAMES.index(e.dest_register) + 1
            for e in t.events] for t in traces]
    base = ids[0]
    worst = 0.0
    for other in ids[1:]:
        if len(other) != len(base):
            return float("inf")
        worst = max(worst, sum((a - b) ** 2 for a, b in zip(base, other))
                    / len(base))
    return worst


class VariantStats(NamedTuple):
    variant: str
    samples: int
    shapes_equal: bool
    distinct_shapes: int
    mse_op_count_max: float
    mse_op_register_max: float


class UniformityReport(NamedTuple):
    sample_count: int
    stats: dict  # variant name -> VariantStats

    @property
    def passed(self) -> bool:
        """The hardened traces share one shape."""
        return self.stats["hardened"].shapes_equal

    def to_text(self) -> str:
        lines = ["ladder trace uniformity report (%d scalars)"
                 % self.sample_count]
        for s in self.stats.values():
            lines.append("  %s:" % s.variant)
            lines.append("    shapes pairwise equal : %s"
                         % ("yes" if s.shapes_equal else "NO (%d distinct)"
                            % s.distinct_shapes))
            lines.append("    MSE op-count    (max) : %.6f" % s.mse_op_count_max)
            lines.append("    MSE op-register (max) : %.6f" % s.mse_op_register_max)
        lines.append("result: %s" % ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def uniformity_report(sample_count: int, curve=_curve.SECP256K1,
                      rng: Optional[random.Random] = None) -> UniformityReport:
    """Draw random scalars from rng, the system's generator when None,
    and compare the trace shapes of both ladders.

    Each scalar runs one balanced ladder through record_ladder_trace,
    whose trace is the hardened view and gives the classic one.
    """
    if sample_count < 2:
        raise ValueError("need at least 2 samples to compare traces")
    if rng is None:
        rng = random.SystemRandom()
    n = curve.n.value
    hardened = [record_ladder_trace(rng.randrange(1, n), "hardened", curve)
                for _ in range(sample_count)]
    views = {"hardened": hardened, "classic": [t.classic() for t in hardened]}
    stats = {}
    for variant, traces in views.items():
        shapes = {t.shape for t in traces}
        stats[variant] = VariantStats(
            variant=variant,
            samples=sample_count,
            shapes_equal=len(shapes) == 1,
            distinct_shapes=len(shapes),
            # op-count samples are 1.0 per event: only a length can differ
            mse_op_count_max=(0.0 if len({len(t) for t in traces}) == 1
                              else float("inf")),
            mse_op_register_max=_register_mse_max(traces),
        )
    return UniformityReport(sample_count, stats)
