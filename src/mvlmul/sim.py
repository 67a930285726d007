"""Functional netlist evaluation and verification against integer math.

Evaluation is zero-delay: gates fire once in dependency order.  Every
write is checked against the wire's declared range, so a run doubles as
an executable range-soundness check (the ternary-carry discipline in
particular).  Verification compares the evaluated product digits with
:func:`oracle`, which just multiplies the operands as integers and
re-encodes the result.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product as iproduct

from .core import KERNELS
from .netlist import Netlist, topo_order

DEFAULT_EXHAUSTIVE_CAP = 2 ** 20


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
        mm = self.mismatches
        if max_mismatches is not None:
            mm = mm[:max_mismatches]
        return json.dumps({
            "design": self.design,
            "mode": self.mode,
            "seed": self.seed,
            "vectors_tested": self.vectors_tested,
            "passed": self.passed,
            "mismatch_count": len(self.mismatches),
            "mismatches": mm,
        }, indent=2) + "\n"


class _CompiledNet:
    """Index-based evaluation plan for one netlist."""

    def __init__(self, net: Netlist):
        order = topo_order(net)
        wire_ids = list(net.wires)
        self.index = {w: k for k, w in enumerate(wire_ids)}
        self.ranges = [net.wires[w].range_max for w in wire_ids]
        self.n_wires = len(wire_ids)
        self.inputs = [self.index[w] for w in net.primary_inputs]
        self.input_ranges = [net.wires[w].range_max for w in net.primary_inputs]
        self.outputs = [self.index[w] for w in net.primary_outputs]
        self.ops = [(KERNELS[g.kind],
                     tuple(self.index[w] for w in g.inputs),
                     tuple(self.index[w] for w in g.outputs))
                    for g in order]

    def run(self, in_values: list[int]) -> list[int]:
        values = [-1] * self.n_wires
        ranges = self.ranges
        for idx, v in zip(self.inputs, in_values):
            values[idx] = v
        for fn, ins, outs in self.ops:
            res = fn(*(values[i] for i in ins))
            for o, v in zip(outs, res):
                if not 0 <= v <= ranges[o]:
                    raise SimulationError(
                        f"wire #{o} left its range 0..{ranges[o]}: {v}")
                values[o] = v
        return [values[o] for o in self.outputs]


def evaluate(net: Netlist, assignment: dict[str, int]) -> list[int]:
    """Evaluate one input vector; returns product digits, LSB first.

    The assignment must cover every primary input with an in-range
    digit.  Internal wires are range-checked on every gate firing.
    """
    plan = _CompiledNet(net)
    extra = set(assignment) - set(net.primary_inputs)
    if extra:
        raise SimulationError(f"unknown inputs: {sorted(extra)}")
    in_values = []
    for name, hi in zip(net.primary_inputs, plan.input_ranges):
        if name not in assignment:
            raise SimulationError(f"input {name} not assigned")
        v = assignment[name]
        if not isinstance(v, int) or not 0 <= v <= hi:
            raise SimulationError(f"input {name}={v!r} outside 0..{hi}")
        in_values.append(v)
    return plan.run(in_values)


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


def _compare(net: Netlist, plan: _CompiledNet, xd, yd) -> dict | None:
    got = plan.run(list(xd) + list(yd))
    want = oracle(net.radix, net.width, xd, yd)
    # degenerate designs may emit fewer than 2N digits; the rest must be 0
    if list(got) == list(want[:len(got)]) and not any(want[len(got):]):
        return None
    return {"x": list(xd), "y": list(yd),
            "expected": list(want), "got": list(got)}


def verify_exhaustive(net: Netlist, cap: int = DEFAULT_EXHAUSTIVE_CAP) \
        -> VerificationReport:
    """Compare every input pair against the integer oracle."""
    space = (net.radix ** net.width) ** 2
    if space > cap:
        raise VerificationSpaceError(
            f"{space} vectors exceed the cap of {cap}; use verify_random")
    plan = _CompiledNet(net)
    report = VerificationReport(design=f"radix{net.radix}-w{net.width}",
                                mode="exhaustive", vectors_tested=0)
    all_digits = list(iproduct(range(net.radix), repeat=net.width))
    for xd in all_digits:
        for yd in all_digits:
            m = _compare(net, plan, xd, yd)
            report.vectors_tested += 1
            if m is not None:
                report.mismatches.append(m)
    return report


def _random_chunk(args):
    net, seed, start, count = args
    rng = random.Random(seed)
    plan = _CompiledNet(net)
    mismatches = []
    vectors = [(tuple(rng.randrange(net.radix) for _ in range(net.width)),
                tuple(rng.randrange(net.radix) for _ in range(net.width)))
               for _ in range(start + count)][start:]
    for xd, yd in vectors:
        m = _compare(net, plan, xd, yd)
        if m is not None:
            mismatches.append(m)
    return mismatches


def verify_random(net: Netlist, count: int, seed: int,
                  workers: int = 1) -> VerificationReport:
    """Compare ``count`` seeded random vectors against the oracle.

    The vector stream depends only on the seed, so reports are
    reproducible; with ``workers > 1`` the same stream is split into
    contiguous chunks across processes, and mismatches still come out in
    stream order, so the report does not depend on the worker count.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    report = VerificationReport(design=f"radix{net.radix}-w{net.width}",
                                mode="random", vectors_tested=count,
                                seed=seed)
    if workers <= 1:
        report.mismatches = _random_chunk((net, seed, 0, count))
        return report
    step = (count + workers - 1) // workers
    chunks = [(net, seed, k, min(step, count - k))
              for k in range(0, count, step)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_random_chunk, chunks):
            report.mismatches.extend(part)
    return report
