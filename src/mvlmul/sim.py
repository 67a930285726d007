"""Functional netlist evaluation and verification against integer math.

Evaluation is zero-delay: gates fire once in dependency order, each on
a whole batch of input vectors.  Every write is checked against the
wire's declared range over every vector of the batch, so a run doubles
as an executable range-soundness check (the ternary-carry discipline in
particular).  Verification compares the evaluated product digits of
each batch with the integer products of its operands; :func:`oracle`
is a batch of one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

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


def _simulate(net: Netlist, batches):
    """Yield ``(batch, output digits)``, each an ``(n, digits)`` array.

    Every wire holds one unsigned digit array with an entry per vector
    of the batch.
    """
    index = {w: k for k, w in enumerate(net.wires)}
    ranges = [w.range_max for w in net.wires.values()]
    inputs = [index[w] for w in net.primary_inputs]
    outputs = [index[w] for w in net.primary_outputs]
    ops = [(KERNELS[g.kind], [index[w] for w in g.inputs],
            [index[w] for w in g.outputs], g) for g in topo_order(net)]
    for batch in batches:
        values = [None] * len(ranges)
        for i, col in zip(inputs, np.ascontiguousarray(batch.T)):
            values[i] = col
        for fn, ins, outs, g in ops:
            for o, v in zip(outs, fn(*(values[i] for i in ins))):
                if (top := v.max()) > ranges[o]:
                    raise SimulationError(
                        f"wire {list(net.wires)[o]} (gate {g.id}, {g.kind}) "
                        f"left its range 0..{ranges[o]}: {top}")
                values[o] = v
        got = np.array([values[o] for o in outputs], dtype=np.uint8)
        yield batch, got.reshape(len(outputs), len(batch)).T


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
    return next(_simulate(net, [np.array([row], np.uint8)]))[1][0].tolist()


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


def _products(radix: int, xs, ys):
    """Product digits ``(n, 2N)``, LSB first, of ``(n, N)`` operand digits.

    Operands become Python ints in ``object`` arrays, so the product is
    plain integer multiplication at any width.
    """
    weights = np.array([radix ** i for i in range(xs.shape[1])], object)
    p = (xs.astype(object) @ weights) * (ys.astype(object) @ weights)
    out = np.empty((len(p), 2 * xs.shape[1]), np.uint8)
    for i in range(out.shape[1]):
        out[:, i], p = p % radix, p // radix
    return out


def oracle(radix: int, width: int, x_digits, y_digits) -> tuple[int, ...]:
    """Expected product digits (LSB first) of ``width``-digit operands."""
    operands = {"x": list(x_digits), "y": list(y_digits)}
    for name, digits in operands.items():
        if len(digits) != width:
            raise SimulationError(f"{name} has {len(digits)} digits, "
                                  f"width is {width}")
        for d in digits:
            if not isinstance(d, int) or not 0 <= d < radix:
                raise SimulationError(
                    f"{name} digit {d!r} outside 0..{radix - 1}")
    xs, ys = np.array(list(operands.values()), np.uint8)[:, None]
    return tuple(_products(radix, xs, ys)[0].tolist())


def _check(net: Netlist, count: int, rows) -> list[dict]:
    """Mismatch records, in row order, for ``count`` rows of x then y digits.

    ``rows(start, stop)`` returns one batch of rows as a digit array.
    Degenerate designs may emit fewer than 2N digits; the missing top
    digits must then be 0.
    """
    w, size = net.width, _batch_size(net)
    batches = (rows(a, min(a + size, count)) for a in range(0, count, size))
    mismatches = []
    for batch, got in _simulate(net, batches):
        want = _products(net.radix, batch[:, :w], batch[:, w:])
        k = got.shape[1]
        bad = (got != want[:, :k]).any(axis=1) | want[:, k:].any(axis=1)
        for row, exp, g in zip(batch[bad].tolist(), want[bad].tolist(),
                               got[bad].tolist()):
            mismatches.append({"x": row[:w], "y": row[w:],
                               "expected": exp, "got": g})
    return mismatches


def verify_exhaustive(net: Netlist, cap: int = DEFAULT_EXHAUSTIVE_CAP) \
        -> VerificationReport:
    """Compare every input pair against the integer oracle."""
    space = (net.radix ** net.width) ** 2
    if space > cap:
        raise VerificationSpaceError(
            f"{space} vectors exceed the cap of {cap}; use verify_random")
    # lexicographic over x then y digits: x outer, last position fastest
    weights = net.radix ** np.arange(2 * net.width - 1, -1, -1)
    mismatches = _check(net, space, lambda a, b: (
        np.arange(a, b)[:, None] // weights % net.radix).astype(np.uint8))
    return VerificationReport(design=f"radix{net.radix}-w{net.width}",
                              mode="exhaustive", vectors_tested=space,
                              mismatches=mismatches)


def verify_random(net: Netlist, count: int, seed: int) -> VerificationReport:
    """Compare ``count`` seeded random vectors against the oracle.

    The vector stream depends only on the seed, so reports are
    reproducible; it is drawn lazily, a batch at a time, so only the
    stored mismatches grow with ``count``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = random.Random(seed)
    n = 2 * net.width
    mismatches = _check(net, count, lambda a, b: np.array(
        [rng.randrange(net.radix) for _ in range((b - a) * n)],
        np.uint8).reshape(b - a, n))
    return VerificationReport(design=f"radix{net.radix}-w{net.width}",
                              mode="random", vectors_tested=count,
                              mismatches=mismatches, seed=seed)
