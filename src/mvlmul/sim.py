"""Functional netlist evaluation and verification against integer math.

Evaluation is zero-delay and bit-sliced, after bit-parallel pattern
simulation (Waicukauski et al., "Fault Simulation for Structured VLSI",
1985): a batch of vectors runs at once, each wire held as the
``range_max.bit_length()`` bit-planes of its digit, and a plane is one
Python int with one bit per vector.  Gates fire once each in gate order,
which is a dependency order (see :mod:`mvlmul.netlist`), as ripple-carry
code for the ``op`` of their :data:`~mvlmul.core.PORTS` row, so each
cell keeps its one definition.  An input wire wider than its port is
an error before any gate fires, and every write is checked against the
wire's declared range over every vector of the batch, so a run doubles
as an executable range-soundness check (the ternary-carry discipline in
particular).
Verification compares the product digits with a bit-sliced shift-and-add
of the operand bits, which shares no code with the cells.
"""

from __future__ import annotations

import json
import random
from functools import cache
from itertools import islice, product, zip_longest

from .core import ARITY, PORTS, output_ranges
from .netlist import Netlist

DEFAULT_EXHAUSTIVE_CAP = 2 ** 20

#: vectors per batch: a plane holds at most this many bits, so a batch's
#: memory depends on the design, not on how many vectors a run checks
BATCH_VECTORS = 2 ** 12

#: Mersenne Twister words per ``getrandbits`` call of the random digit
#: stream, at most: the draw's memory stays small on wide designs
_DRAW_WORDS = 2 ** 14


class SimulationError(ValueError):
    """Bad assignment, or a wire left its declared range during a run."""


class VerificationSpaceError(ValueError):
    """The exhaustive input space exceeds the cap; use verify_random."""


class VerificationReport:
    """An "exhaustive" or "random" run: ``mismatch_count`` counts every
    mismatch, and ``mismatches`` holds records of the first ones."""

    def __init__(self, design: str, mode: str, vectors_tested: int,
                 mismatch_count: int, mismatches: list[dict] | None = None,
                 seed: int | None = None):
        self.design = design
        self.mode = mode
        self.vectors_tested = vectors_tested
        self.mismatch_count = mismatch_count
        self.mismatches = [] if mismatches is None else mismatches
        self.seed = seed

    @property
    def passed(self) -> bool:
        return not self.mismatch_count

    def to_json(self) -> str:
        return json.dumps({
            "design": self.design,
            "mode": self.mode,
            "seed": self.seed,
            "vectors_tested": self.vectors_tested,
            "passed": self.passed,
            "mismatch_count": self.mismatch_count,
            "mismatches": self.mismatches,
        }, indent=2) + "\n"


# -- gate plans ---------------------------------------------------------------

class _Overflow(Exception):
    """Raised by a plan: output ``port`` reached ``top`` past its range."""


@cache
def _plan(kind: str, in_ranges: tuple[int, ...],
          out_ranges: tuple[int, ...]):
    """``fire(mask, *input planes)``, the output planes of a ``kind`` gate
    per port, or None if an input range is wider than its port.  ``fire``
    adds the input bits, or for ``prod`` the partial products, column by
    column with half and full adders; each output is the next digit of
    the result, as wide as the first output.  Only a port whose range is
    below the largest value the cell reaches there is tested: the first
    past it raises :class:`_Overflow` with its largest value in the batch.
    """
    spec = PORTS[kind]
    if any(r > hi for r, (_, hi) in zip(in_ranges, spec.inputs)):
        return None
    op, m = spec.op, spec.outputs[0][1].bit_length()  # bits per digit
    tops = output_ranges(kind, in_ranges)
    body = []

    def let(expr):  # names a new plane
        body.append(f"t{len(body)} = {expr}")
        return f"t{len(body) - 1}"
    bits = [[f"a{k}_{b}" for b in range(r.bit_length())]
            for k, r in enumerate(in_ranges)]
    body += [f"{', '.join(bs)}, = a{k}" for k, bs in enumerate(bits) if bs]
    cols = [[] for _ in range(op(in_ranges).bit_length())]
    for t in ([[t] for bs in bits for t in enumerate(bs)] if op is sum
              else product(*map(enumerate, bits))):  # partial products
        p = " & ".join(p for _, p in t)
        cols[sum(b for b, _ in t)].append(let(p) if len(t) > 1 else p)
    for w, col in enumerate(cols):
        while len(col) > 1:
            x, y, *z = col[:3]
            del col[:3]
            s = let(f"{x} ^ {y}")
            if w + 1 < len(cols):  # a carry out of the top column is 0
                cols[w + 1].append(let(
                    f"{x} & {y}" + "".join(f" | {c} & {s}" for c in z)))
            col.append(let(f"{s} ^ {z[0]}") if z else s)
    value, ports = [col[0] if col else "0" for col in cols], []
    for o, hi in enumerate(out_ranges):
        ps = value[m * o:m * o + m]
        if hi < tops[o]:
            # above hi: a bit hi clears is set, and every bit above it hi sets
            over = " | ".join(" & ".join(
                p for c, p in enumerate(ps) if c == b or c > b and hi >> c & 1)
                for b in range(len(ps)) if not hi >> b & 1)
            body.append(f"if {over}: raise _Overflow({o}, max(_digit_bytes("
                        f"({', '.join(ps)},), mask.bit_length())))")
        ports.append((ps + ["0"] * hi.bit_length())[:hi.bit_length()])
    body.append("return " + "".join(
        f"({''.join(p + ', ' for p in ps)}), " for ps in ports))
    args = "".join(f", a{k}" for k in range(len(in_ranges)))
    scope = {"_Overflow": _Overflow, "_digit_bytes": _digit_bytes}
    exec(f"def fire(mask{args}):\n    " + "\n    ".join(body), scope)
    return scope["fire"]


# -- simulation ---------------------------------------------------------------

def _simulate(net: Netlist, batches):
    """Yield ``(n, columns, output planes)`` per batch.

    A batch is ``n`` vectors and one tuple of planes per primary input.
    Each gate fires once per batch, in gate order.  An overflow names
    the failing wire first in that order: every gate before it read
    in-range planes.  A wire read before any gate drives it is an error,
    and so are a primary input undeclared or not declared a full digit,
    an unknown kind, a port count that is not the kind's, an undeclared
    wire and an input wire wider than its port.
    """
    ranges = {w: wire.range_max for w, wire in net.wires.items()}
    for w in net.primary_inputs:
        if w not in ranges:
            raise SimulationError(f"input wire {w} undeclared")
        if ranges[w] != net.radix - 1:
            raise SimulationError(
                f"input wire {w} has range_max {ranges[w]}, radix "
                f"{net.radix} digits need {net.radix - 1}")
    steps = []
    for g in net.gates:
        if (len(g.inputs), len(g.outputs)) != ARITY.get(g.kind):
            raise SimulationError(g.port_error())
        ins = tuple(map(ranges.get, g.inputs))
        outs = tuple(map(ranges.get, g.outputs))
        if None in ins or None in outs:
            w = next(w for w in g.inputs + g.outputs if w not in ranges)
            raise SimulationError(f"gate {g.id} names undeclared wire {w}")
        if (fire := _plan(g.kind, ins, outs)) is None:
            raise SimulationError(next(
                g.range_error(k, r) for k, (r, (_, hi))
                in enumerate(zip(ins, PORTS[g.kind].inputs)) if r > hi))
        steps.append((fire, g))
    for n, columns in batches:
        mask = (1 << n) - 1
        planes = dict(zip(net.primary_inputs, columns))
        for fire, g in steps:
            try:
                planes.update(zip(g.outputs, fire(
                    mask, *map(planes.__getitem__, g.inputs))))
            except _Overflow as e:
                w = net.wires[g.outputs[e.args[0]]]
                raise SimulationError(
                    f"wire {w.id} (gate {g.id}, {g.kind}) left its range "
                    f"0..{w.range_max}: {e.args[1]}") from None
            except KeyError as e:
                raise SimulationError(f"gate {g.id} reads wire {e.args[0]} "
                                      "before any gate drives it") from None
        if undriven := [w for w in net.primary_outputs if w not in planes]:
            raise SimulationError(f"product digit {undriven[0]} has no driver")
        yield n, columns, [planes[w] for w in net.primary_outputs]


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
        if name not in net.wires:
            raise SimulationError(f"input wire {name} undeclared")
        v, hi = assignment[name], net.wires[name].range_max
        if not isinstance(v, int) or not 0 <= v <= hi:
            raise SimulationError(f"input {name}={v!r} outside 0..{hi}")
    columns = [tuple(assignment[name] >> b & 1
                     for b in range(net.wires[name].range_max.bit_length()))
               for name in net.primary_inputs]
    *_, got = next(_simulate(net, [(1, columns)]))
    return [sum(p << b for b, p in enumerate(planes)) for planes in got]


# -- verification -------------------------------------------------------------

def _product_planes(xs: list[int], ys: list[int]) -> list[int]:
    """Bit-planes, LSB first, of x * y from those of x and y: shift and
    add, one ripple-carry add per bit of y."""
    acc = [0] * (len(xs) + len(ys))
    for j, y in enumerate(ys):
        carry = 0
        for i, x in enumerate(xs, j):
            p, a = x & y, acc[i]
            t = a ^ p
            acc[i] = t ^ carry
            carry = a & p | carry & t
        acc[j + len(xs)] = carry
    return acc


#: '0'/'1' bytes to the bytes 0/1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _digit_bytes(planes, n: int) -> bytes:
    """Byte ``j`` is the digit of vector ``j`` whose bit-planes these are."""
    v = 0
    for b, p in enumerate(planes):
        v |= int.from_bytes(format(p, f"0{n}b").encode()
                            .translate(_BIT_BYTES), "big") << b
    return v.to_bytes(n, "little")


def _verify(net: Netlist, mode: str, vectors: int, batches,
            keep: int | None, seed: int | None = None) -> VerificationReport:
    """The report of a ``mode`` run over ``vectors`` vectors in
    ``batches``: every mismatch counted, and records of the first
    ``keep`` (all when None) in vector order.

    Each batch holds x then y digits.  Degenerate designs may emit fewer
    than 2N digits; the missing top digits must then be 0.
    """
    w, m = net.width, (net.radix - 1).bit_length()
    if net.radix != 1 << m:
        raise SimulationError(f"radix {net.radix} is not a power of two")
    count, records = 0, []
    for n, columns, got in _simulate(net, batches):
        want = _product_planes(*([p for col in part for p in col]
                                 for part in (columns[:w], columns[w:])))
        want = [tuple(want[k:k + m]) for k in range(0, len(want), m)]
        bad = 0
        for g, e in zip_longest(got, want, fillvalue=()):
            for a, b in zip_longest(g, e, fillvalue=0):
                bad |= a ^ b
        count += bad.bit_count()
        if not bad or keep is not None and len(records) >= keep:
            continue
        x_y, exp, out = ([_digit_bytes(d, n) for d in part]
                         for part in (columns, want, got))
        flags = format(bad, f"0{n}b")[::-1]
        fails = (j for j, f in enumerate(flags) if f == "1")
        for j in islice(fails, None if keep is None else keep - len(records)):
            row = [d[j] for d in x_y]
            records.append({"x": row[:w], "y": row[w:],
                            "expected": [d[j] for d in exp],
                            "got": [d[j] for d in out]})
    return VerificationReport(design=f"radix{net.radix}-w{net.width}",
                              mode=mode, vectors_tested=vectors,
                              mismatch_count=count, mismatches=records,
                              seed=seed)


def _count_plane(k: int, a: int, n: int) -> int:
    """Bit ``k`` of each of ``a, a + 1, ..., a + n - 1``, as one plane."""
    run = 1 << k  # consecutive values that share bit k
    if run >= n:  # the window holds at most two runs
        head = (1 << min(run - a % run, n)) - 1
        return head if a >> k & 1 else head ^ ((1 << n) - 1)
    period, span = ((1 << run) - 1) << run, 2 * run  # run 0s, then run 1s
    o = a % span
    plane = (period >> o | period << (span - o)) & ((1 << span) - 1)
    while span < n:
        plane |= plane << span
        span *= 2
    return plane & ((1 << n) - 1)


def verify_exhaustive(net: Netlist, cap: int = DEFAULT_EXHAUSTIVE_CAP,
                      keep: int | None = None) -> VerificationReport:
    """Compare every input pair's product digits against x * y.

    Every mismatch is counted; records are kept for the first ``keep``
    (all when None).
    """
    space = (net.radix ** net.width) ** 2
    if space > cap:
        raise VerificationSpaceError(
            f"{space} vectors exceed the cap of {cap}; use verify_random")
    # lexicographic over x then y digits, x outer, last position fastest:
    # vector v's digits are those of v, most significant first, and the
    # bits of a power-of-two radix's digits are v's bits
    m, row = (net.radix - 1).bit_length(), 2 * net.width

    def batches():
        for a in range(0, space, BATCH_VECTORS):
            n = min(BATCH_VECTORS, space - a)
            yield n, [tuple(_count_plane(k, a, n) for k in range(p * m,
                                                                (p + 1) * m))
                      for p in reversed(range(row))]
    return _verify(net, "exhaustive", space, batches(), keep)


def _digit_source(seed: int, radix: int):
    """``take(n)``: the next ``n`` digits of the stream seeded by
    ``seed``, one byte each: the digits of ``randrange(radix)`` drawn
    one at a time.

    ``randrange(radix)`` is ``getrandbits(k)``, ``k = radix.bit_length()``,
    with values >= radix rejected; for k <= 32 that is the top k bits of
    one 32-bit MT19937 word, and ``getrandbits(32 * w)`` is the next w
    words, the first least significant.  So the top byte of each word,
    in draw order and shifted right by 8 - k, is the next candidate, and
    a few C calls draw thousands of digits.  A digit must fit in that
    byte: k <= 8, so radix <= 128.
    """
    k = radix.bit_length()
    if k > 8:
        raise SimulationError(f"radix {radix} exceeds 128, the largest "
                              "radix whose random digits fit in a byte")
    rng = random.Random(seed)
    to_digit = bytes(b >> 8 - k for b in range(256))
    rejected = bytes(b for b in range(256) if b >> 8 - k >= radix)
    spare = b""  # digits drawn past the last take

    def take(n: int) -> bytearray:
        # the digits grow in place, so a batch's digits are held once
        nonlocal spare
        drawn, spare = bytearray(spare[:n]), spare[n:]
        while (short := n - len(drawn)) > 0:
            # about half the candidates of a power-of-two radix are rejected
            w = min(2 * short + 64, _DRAW_WORDS)
            part = (rng.getrandbits(32 * w).to_bytes(4 * w, "little")[3::4]
                    .translate(to_digit, rejected))
            drawn += part[:short]
            spare = part[short:]
        return drawn
    return take


def verify_random(net: Netlist, count: int, seed: int,
                  keep: int | None = None) -> VerificationReport:
    """Compare ``count`` seeded random vectors against x * y.

    The vector stream depends only on the seed, so reports are
    reproducible; it is drawn lazily, a batch at a time, so only the
    kept mismatch records grow with ``count``.  Every mismatch is
    counted; records are kept for the first ``keep`` (all when None).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    take = _digit_source(seed, net.radix)
    m, row = (net.radix - 1).bit_length(), 2 * net.width
    # each digit byte to b"1" where bit b is set and b"0" elsewhere; the
    # column is reversed so that vector j lands on bit j of int(s, 2)
    tables = [bytes(48 + (d >> b & 1) for d in range(256)) for b in range(m)]

    def batches():
        for a in range(0, count, BATCH_VECTORS):
            n = min(BATCH_VECTORS, count - a)
            drawn = take(n * row)
            yield n, [tuple(int(col.translate(t), 2) for t in tables)
                      for col in (drawn[i::row][::-1] for i in range(row))]
    return _verify(net, "random", count, batches(), keep, seed)
