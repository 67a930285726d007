"""Functional netlist evaluation and verification against integer math.

Evaluation is zero-delay and bit-sliced, after bit-parallel pattern
simulation (Waicukauski et al., "Fault Simulation for Structured VLSI",
1985): a batch of vectors runs at once, each wire held as the
``range_max.bit_length()`` bit-planes of its digit, and a plane is one
Python int with one bit per vector.  Gates fire once each in gate order,
which is a dependency order (see :mod:`mvlmul.netlist`), as ripple-carry
code for the ``op`` of their :data:`~mvlmul.core.PORTS` row, so each
cell keeps its one definition.  Before any gate fires, the netlist's
:func:`~mvlmul.netlist.walk` checks each gate's declared ranges over
every input they allow, so a run doubles as a range-soundness check of
the whole netlist.  Each wire then takes its slot in the list of planes,
and its planes are dropped after the last gate that reads them.
Verification compares the product digits with a bit-sliced shift-and-add
of the operand bits, which shares no code with the cells.
"""

from __future__ import annotations

import json
import random
from functools import cache
from itertools import chain, count, islice, product, zip_longest
from operator import attrgetter

from .core import PORTS
from .netlist import Netlist, walk

DEFAULT_EXHAUSTIVE_CAP = 2 ** 20

#: bits of planes a batch may hold: what b128's 4,096-vector batch holds
#: at its peak, 16,642 planes, about 8.1 MiB
_PLANE_BUDGET = 16_642 * 2 ** 12

#: vectors per batch, at least and at most: a plane holds at most the
#: larger, so a batch's memory depends on the design, not on how many
#: vectors a run checks
_MIN_BATCH, _MAX_BATCH = 2 ** 12, 2 ** 16

#: Mersenne Twister words per ``getrandbits`` call of the random digit
#: stream, at most: the draw's memory stays small on wide designs
_DRAW_WORDS = 2 ** 14


class SimulationError(ValueError):
    """A bad assignment to :func:`evaluate`."""


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

@cache
def _plan(kind: str, in_ranges: tuple[int, ...],
          out_ranges: tuple[int, ...]):
    """``fire(*input planes)``, the output planes of a ``kind`` gate per
    port, for ranges that :func:`~mvlmul.netlist.walk` accepts.  ``fire``
    adds the input bits, or for ``prod`` the partial products, column by
    column with half and full adders; each output is the next digit of
    the result, as wide as the first output, and the carry out of the
    last column an output reads is dropped.
    """
    spec = PORTS[kind]
    op, m = spec.op, spec.outputs[0][1].bit_length()  # bits per digit
    body = []

    def let(expr):  # names a new plane
        body.append(f"t{len(body)} = {expr}")
        return f"t{len(body) - 1}"
    bits = [[f"a{k}_{b}" for b in range(r.bit_length())]
            for k, r in enumerate(in_ranges)]
    body += [f"{', '.join(bs)}, = a{k}" for k, bs in enumerate(bits) if bs]
    cols = [[] for _ in range(min(op(in_ranges).bit_length(),
                                  m * len(out_ranges)))]
    for t in ([[t] for bs in bits for t in enumerate(bs)] if op is sum
              else product(*map(enumerate, bits))):  # partial products
        p = " & ".join(p for _, p in t)
        cols[sum(b for b, _ in t)].append(let(p) if len(t) > 1 else p)
    for w, col in enumerate(cols):
        while len(col) > 1:
            x, y, *z = col[:3]
            del col[:3]
            s = let(f"{x} ^ {y}")
            if w + 1 < len(cols):  # no output reads the last carry
                cols[w + 1].append(let(
                    f"{x} & {y}" + "".join(f" | {c} & {s}" for c in z)))
            col.append(let(f"{s} ^ {z[0]}") if z else s)
    value = [col[0] if col else "0" for col in cols]
    ports = [(value[m * o:m * o + m] + ["0"] * hi.bit_length())
             [:hi.bit_length()] for o, hi in enumerate(out_ranges)]
    body.append("return " + "".join(
        f"({''.join(p + ', ' for p in ps)}), " for ps in ports))
    args = ", ".join(f"a{k}" for k in range(len(in_ranges)))
    scope = {}
    exec(f"def fire({args}):\n    " + "\n    ".join(body), scope)
    return scope["fire"]


# -- simulation ---------------------------------------------------------------

def _fire(run: tuple[list[tuple], list[int]], columns) -> list:
    """The planes of each product digit after one batch through ``run``,
    the steps and digit slots of :func:`_steps`; ``columns`` holds a tuple
    of planes per primary input.  Each gate fires once, in gate order,
    then drops the planes whose last reader it is."""
    steps, digits = run
    planes = list(columns)
    for fire, ins, drop in steps:
        planes += fire(*map(planes.__getitem__, ins))
        for s in drop:
            planes[s] = None
    return [planes[s] for s in digits]


def _steps(net: Netlist) -> tuple[list[tuple], list[int]]:
    """``(fire, input slots, dropped slots)`` per gate, in gate order,
    and the slot of each product digit, of a netlist that has passed
    :func:`~mvlmul.netlist.walk`.  The primary inputs take slots 0, 1,
    ..., then each gate's outputs the next ones.  Each slot but a primary
    input's or a product digit's is dropped once: by its last reader, or
    by its own gate when nothing reads it."""
    ranges = net.wires.__getitem__
    slots = dict(zip(chain(net.primary_inputs, chain.from_iterable(
        map(attrgetter("outputs"), net.gates))), count()))
    steps = [(_plan(g.kind, tuple(map(ranges, g.inputs)),
                    tuple(map(ranges, g.outputs))),
              tuple(map(slots.__getitem__, g.inputs)), ())
             for g in net.gates]
    digits = [slots[w] for w in net.primary_outputs]
    del slots  # before the schedule, to keep the peak down
    # per slot, the step that drops it, or None
    last = [None] * len(net.primary_inputs)
    for i, ((_, ins, _), g) in enumerate(zip(steps, net.gates)):
        for s in ins:
            if last[s] is not None:
                last[s] = i
        last += [i] * len(g.outputs)  # a gate's outputs take the next slots
    for s in digits:
        last[s] = None
    for s, i in enumerate(last):
        if i is not None:
            fire, ins, drop = steps[i]
            steps[i] = fire, ins, drop + (s,)
    return steps, digits


def _batch_vectors(net: Netlist) -> int:
    """Vectors per batch of a run of ``net``: the plane budget over the
    planes of all its wires, clamped to 4,096..65,536.  No more planes
    than that are live at once, so a batch holds at most the budget."""
    planes = sum(map(int.bit_length, net.wires.values()))
    return max(_MIN_BATCH, min(_PLANE_BUDGET // planes, _MAX_BATCH))


def evaluate(net: Netlist, assignment: dict[str, int]) -> list[int]:
    """Evaluate one input vector; returns product digits, LSB first.

    The assignment must cover every primary input with a digit of the
    radix.  The netlist is checked first, as in every run, then the
    assignment.
    """
    walk(net)
    if extra := set(assignment) - set(net.primary_inputs):
        raise SimulationError(f"unknown inputs: {sorted(extra)}")
    for name in net.primary_inputs:
        if name not in assignment:
            raise SimulationError(f"input {name} not assigned")
        v = assignment[name]
        if type(v) is not int:  # as in a netlist document: not 1.0 or True
            raise SimulationError(f"input {name}={v!r} is not an integer "
                                  "digit")
        if not 0 <= v < net.radix:
            raise SimulationError(
                f"input {name}={v!r} outside 0..{net.radix - 1}")
    bits = range((net.radix - 1).bit_length())
    columns = [tuple(assignment[name] >> b & 1 for b in bits)
               for name in net.primary_inputs]
    got = _fire(_steps(net), columns)
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
    """Byte ``j`` is the digit of vector ``j`` whose bit-planes these are,
    for each of the first ``n`` vectors."""
    v, mask = 0, (1 << n) - 1
    for b, p in enumerate(planes):
        v |= int.from_bytes(format(p & mask, f"0{n}b").encode()
                            .translate(_BIT_BYTES), "big") << b
    return v.to_bytes(n, "little")


def _verify(net: Netlist, mode: str, vectors: int, columns,
            keep: int | None, seed: int | None = None) -> VerificationReport:
    """The report of a ``mode`` run of ``net`` over ``vectors`` vectors:
    every mismatch counted, and records of the first ``keep`` (all when
    None) in vector order.

    For each batch start ``a``, ``columns(a, n)`` gives the planes of
    vectors ``a`` to ``a + n - 1``, a tuple per primary input, x digits
    then y.  Degenerate designs may emit fewer than 2N digits; the
    missing top digits must then be 0.
    """
    run, size = _steps(net), _batch_vectors(net)
    w, m = net.width, (net.radix - 1).bit_length()
    count, records = 0, []
    for a in range(0, vectors, size):
        n = min(size, vectors - a)
        planes = columns(a, n)
        got = _fire(run, planes)
        want = _product_planes(*([p for col in part for p in col]
                                 for part in (planes[:w], planes[w:])))
        want = [tuple(want[k:k + m]) for k in range(0, len(want), m)]
        bad = 0
        for g, e in zip_longest(got, want, fillvalue=()):
            for p, q in zip_longest(g, e, fillvalue=0):
                bad |= p ^ q
        count += bad.bit_count()
        if not bad or keep is not None and len(records) >= keep:
            continue
        flags = format(bad, f"0{n}b")[::-1]
        fails = list(islice((j for j, f in enumerate(flags) if f == "1"),
                            None if keep is None else keep - len(records)))
        upto = fails[-1] + 1  # the vectors that the records read
        x_y, exp, out = ([_digit_bytes(d, upto) for d in part]
                         for part in (planes, want, got))
        for j in fails:
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
    walk(net)  # first: it checks the count of operands
    space = net.radix ** len(net.primary_inputs)
    if space > cap:
        raise VerificationSpaceError(
            f"{space} vectors exceed the cap of {cap}; use verify_random")
    # lexicographic over x then y digits, x outer, last position fastest:
    # vector v's digits are those of v, most significant first, and the
    # bits of a power-of-two radix's digits are v's bits
    m, row = (net.radix - 1).bit_length(), 2 * net.width

    def columns(a, n):
        return [tuple(_count_plane(k, a, n) for k in range(p * m, p * m + m))
                for p in reversed(range(row))]
    return _verify(net, "exhaustive", space, columns, keep)


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
    byte: k <= 8, so radix <= 128, which a walked netlist's 2 or 4 is.
    """
    k = radix.bit_length()
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
    walk(net)
    if type(count) is not int:  # as for a digit: not 1.0 or True
        raise ValueError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    take = _digit_source(seed, net.radix)
    m, row = (net.radix - 1).bit_length(), 2 * net.width
    # each digit byte to b"1" where bit b is set and b"0" elsewhere; the
    # column is reversed so that vector j lands on bit j of int(s, 2)
    tables = [bytes(48 + (d >> b & 1) for d in range(256)) for b in range(m)]

    def columns(_, n):  # the stream's next n vectors
        drawn = take(n * row)
        return [tuple(int(col.translate(t), 2) for t in tables)
                for col in (drawn[i::row][::-1] for i in range(row))]
    return _verify(net, "random", count, columns, keep, seed)
