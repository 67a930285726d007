"""Functional netlist evaluation and verification against integer math.

Evaluation is zero-delay: gates fire once in dependency order, each on
a whole batch of input vectors.  Every write is checked against the
wire's declared range over every vector of the batch, so a run doubles
as an executable range-soundness check (the ternary-carry discipline in
particular).  Verification compares the evaluated product digits with
:func:`oracle`, which just multiplies the operands as integers and
re-encodes the result.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import islice, product as iproduct

import numpy as np

from .core import KERNELS
from .netlist import Netlist, topo_order

DEFAULT_EXHAUSTIVE_CAP = 2 ** 20

#: wire-digit bytes per batch: a batch holds ``BATCH_BYTES // wire count``
#: vectors (at least one), so its memory does not grow with the design
BATCH_BYTES = 2 ** 20


class SimulationError(ValueError):
    """Bad assignment, or a wire left its declared range during a run."""


class VerificationSpaceError(ValueError):
    """The exhaustive input space exceeds the cap; use verify_random."""


@dataclass
class VerificationReport:
    design: str
    mode: str                      # "exhaustive" or "random"
    vectors_tested: int
    mismatches: list[dict] = field(default_factory=list)
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_json(self, max_mismatches: int | None = None) -> str:
        return json.dumps({
            "design": self.design,
            "mode": self.mode,
            "seed": self.seed,
            "vectors_tested": self.vectors_tested,
            "passed": self.passed,
            "mismatch_count": len(self.mismatches),
            "mismatches": self.mismatches[:max_mismatches],
        }, indent=2) + "\n"


def _batch_size(net: Netlist) -> int:
    return max(1, BATCH_BYTES // len(net.wires))


def _simulate(net: Netlist, rows):
    """Yield ``(row, output digits)`` for rows of primary-input digits.

    Rows are evaluated a batch at a time: every wire holds one unsigned
    digit array with an entry per vector of the batch.
    """
    index = {w: k for k, w in enumerate(net.wires)}
    ranges = [w.range_max for w in net.wires.values()]
    inputs = [index[w] for w in net.primary_inputs]
    outputs = [index[w] for w in net.primary_outputs]
    ops = [(KERNELS[g.kind], [index[w] for w in g.inputs],
            [index[w] for w in g.outputs]) for g in topo_order(net)]
    rows = iter(rows)
    while batch := list(islice(rows, _batch_size(net))):
        values = [None] * len(ranges)
        for i, col in zip(inputs, np.array(batch, dtype=np.uint8).T.copy()):
            values[i] = col
        for fn, ins, outs in ops:
            for o, v in zip(outs, fn(*(values[i] for i in ins))):
                if (top := v.max()) > ranges[o]:
                    raise SimulationError(
                        f"wire #{o} left its range 0..{ranges[o]}: {top}")
                values[o] = v
        got = np.array([values[o] for o in outputs], dtype=np.uint8)
        got = got.reshape(len(outputs), len(batch)).T.tolist()
        yield from zip(batch, got)


def evaluate(net: Netlist, assignment: dict[str, int]) -> list[int]:
    """Evaluate one input vector; returns product digits, LSB first.

    The assignment must cover every primary input with an in-range
    digit.  Internal wires are range-checked on every gate firing.
    """
    extra = set(assignment) - set(net.primary_inputs)
    if extra:
        raise SimulationError(f"unknown inputs: {sorted(extra)}")
    for name in net.primary_inputs:
        if name not in assignment:
            raise SimulationError(f"input {name} not assigned")
        v, hi = assignment[name], net.wires[name].range_max
        if not isinstance(v, int) or not 0 <= v <= hi:
            raise SimulationError(f"input {name}={v!r} outside 0..{hi}")
    row = [assignment[name] for name in net.primary_inputs]
    return next(_simulate(net, [row]))[1]


def digits_of(value: int, radix: int, ndigits: int) -> tuple[int, ...]:
    """Little-endian digit expansion."""
    out = []
    for _ in range(ndigits):
        out.append(value % radix)
        value //= radix
    return tuple(out)


def int_of(digits, radix: int) -> int:
    v = 0
    for d in reversed(list(digits)):
        v = v * radix + d
    return v


def oracle(radix: int, width: int, x_digits, y_digits) -> tuple[int, ...]:
    """Expected product digits (LSB first) by plain integer multiplication."""
    for d in list(x_digits) + list(y_digits):
        if not 0 <= d < radix:
            raise SimulationError(f"digit {d} outside 0..{radix - 1}")
    x = int_of(x_digits, radix)
    y = int_of(y_digits, radix)
    return digits_of(x * y, radix, 2 * width)


def _check(net: Netlist, rows) -> list[dict]:
    """Mismatch records, in row order, for rows of x then y digits.

    Degenerate designs may emit fewer than 2N digits; the missing top
    digits must then be 0.
    """
    w = net.width
    mismatches = []
    for row, got in _simulate(net, rows):
        want = oracle(net.radix, w, row[:w], row[w:])
        if got != list(want[:len(got)]) or any(want[len(got):]):
            mismatches.append({"x": list(row[:w]), "y": list(row[w:]),
                               "expected": list(want), "got": got})
    return mismatches


def verify_exhaustive(net: Netlist, cap: int = DEFAULT_EXHAUSTIVE_CAP) \
        -> VerificationReport:
    """Compare every input pair against the integer oracle."""
    space = (net.radix ** net.width) ** 2
    if space > cap:
        raise VerificationSpaceError(
            f"{space} vectors exceed the cap of {cap}; use verify_random")
    # lexicographic over x then y digits: x outer, last position fastest
    rows = iproduct(range(net.radix), repeat=2 * net.width)
    return VerificationReport(design=f"radix{net.radix}-w{net.width}",
                              mode="exhaustive", vectors_tested=space,
                              mismatches=_check(net, rows))


def verify_random(net: Netlist, count: int, seed: int) -> VerificationReport:
    """Compare ``count`` seeded random vectors against the oracle.

    The vector stream depends only on the seed, so reports are
    reproducible; it is drawn lazily, a batch at a time, so only the
    stored mismatches grow with ``count``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = random.Random(seed)
    rows = (tuple(rng.randrange(net.radix) for _ in range(2 * net.width))
            for _ in range(count))
    return VerificationReport(design=f"radix{net.radix}-w{net.width}",
                              mode="random", vectors_tested=count,
                              mismatches=_check(net, rows), seed=seed)
