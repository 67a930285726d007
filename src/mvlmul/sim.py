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
from functools import partial
from itertools import islice

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


def _compile(net: Netlist):
    """Input rows, output rows, ``topo_order``, and ``(kernel, places, ins,
    outs)`` per (level, kind) group in level order: each gate's place in
    the order and ``(ports, gates)`` wire rows.  A gate's level is 1 +
    the max level of its input wires; primary inputs are level 0."""
    index = {w: k for k, w in enumerate(net.wires)}
    level = [0] * len(index)
    order = topo_order(net)
    groups: dict = {}
    for pos, g in enumerate(order):
        ins, outs = ([index[w] for w in ws] for ws in (g.inputs, g.outputs))
        lv = 1 + max(map(level.__getitem__, ins), default=0)
        for o in outs:
            level[o] = lv
        groups.setdefault((lv, g.kind), []).append((pos, ins, outs))
    return ([index[w] for w in net.primary_inputs],
            [index[w] for w in net.primary_outputs], order,
            [(KERNELS[kind], *(np.array(a).T for a in zip(*gs)))
             for (_, kind), gs in sorted(groups.items(),
                                         key=lambda kv: kv[0][0])])


def _simulate(net: Netlist, batches):
    """Yield ``(batch, output digits)``, each an ``(n, digits)`` array.

    A batch is one ``(wires, n)`` digit matrix; each (level, kind) group
    fires its kernel once on its gathered rows.  An overflow names the
    failing wire first in ``topo_order``: gates before it read in-range rows.
    """
    ranges = np.array([w.range_max for w in net.wires.values()])
    inputs, outputs, order, groups = _compile(net)
    for batch in batches:
        values = np.zeros((len(ranges), len(batch)), np.uint8)
        values[inputs] = batch.T
        over = []  # (topological place, port, wire, top) per overflow
        for fn, pos, ins, outs in groups:
            for k, (o, v) in enumerate(zip(outs, fn(*values[ins]))):
                values[o] = v
                top = v.max(axis=1)
                over += [(pos[j], k, o[j], top[j])
                         for j in np.flatnonzero(top > ranges[o])]
        if over:
            pos, _, o, top = min(over)
            w, g = list(net.wires.values())[o], order[pos]
            raise SimulationError(f"wire {w.id} (gate {g.id}, {g.kind}) "
                                  f"left its range 0..{w.range_max}: {top}")
        yield batch, values[outputs].T


def evaluate(net: Netlist, assignment: dict[str, int]) -> list[int]:
    """Evaluate one input vector; returns product digits, LSB first.

    The assignment must cover every primary input with an in-range
    digit.  Internal wires are range-checked on every gate firing.
    """
    if extra := set(assignment) - set(net.primary_inputs):
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
    return tuple(value // radix ** i % radix for i in range(ndigits))


def int_of(digits, radix: int) -> int:
    return sum(d * radix ** i for i, d in enumerate(digits))


def _products(radix: int, xs, ys):
    """Product digits ``(n, 2N)``, LSB first, of ``(n, N)`` operand digits.

    Operands become Python ints in ``object`` arrays, so the product is
    plain integer multiplication at any width.  It is split into int64
    limbs of ``k`` digits (``radix**k <= 2**62``), and each limb into
    digits with int64 array arithmetic.
    """
    weights = np.array([radix ** i for i in range(xs.shape[1])], object)
    p = (xs.astype(object) @ weights) * (ys.astype(object) @ weights)
    k = 62 // (radix - 1).bit_length()
    powers = radix ** np.arange(k, dtype=np.int64)
    out = np.empty((len(p), 2 * xs.shape[1]), np.uint8)
    for lo in range(0, out.shape[1], k):
        limb, p = (p % radix ** k).astype(np.int64), p // radix ** k
        out[:, lo:lo + k] = limb[:, None] // powers[:out.shape[1] - lo] % radix
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
    # randrange(radix) is getrandbits(radix.bit_length()) with rejection
    # of values >= radix: the same digits, drawn without a Python loop
    bits = partial(random.Random(seed).getrandbits, net.radix.bit_length())
    digits = filter(net.radix.__gt__, iter(bits, None))
    n = 2 * net.width
    mismatches = _check(net, count, lambda a, b: np.fromiter(
        islice(digits, (b - a) * n), np.uint8, (b - a) * n).reshape(b - a, n))
    return VerificationReport(design=f"radix{net.radix}-w{net.width}",
                              mode="random", vectors_tested=count,
                              mismatches=mismatches, seed=seed)
