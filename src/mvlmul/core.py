"""Logic-value domain and behavioral gate semantics.

Signals carry small unsigned digits. A wire is binary (max 1), ternary
(max 2) or quaternary (max 3); the quaternary multipliers mix all three,
because digit products carry in ternary while sums stay quaternary.

Every gate used by the netlist generator is defined here as a pure
function over digit values in the :data:`KERNELS` table, together with
its port signature (input and output ranges) in :data:`PORTS`.  The
simulator evaluates netlists through that table, and the typed wrappers
(:func:`qmul1`, :func:`qfac2`, ...) are views of it over
:class:`LogicLevel` values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache
from itertools import product


class LogicError(ValueError):
    """A digit value is outside the range its wire or port allows."""


@dataclass(frozen=True)
class LogicLevel:
    """A digit value paired with the radix range of its carrier.

    ``range_max`` is 1 for binary, 2 for ternary and 3 for quaternary.
    """

    value: int
    range_max: int

    def __post_init__(self):
        if self.range_max not in (1, 2, 3):
            raise LogicError(f"range_max must be 1, 2 or 3, got {self.range_max}")
        if not 0 <= self.value <= self.range_max:
            raise LogicError(
                f"value {self.value} outside 0..{self.range_max}")


def bit(v: int) -> LogicLevel:
    return LogicLevel(v, 1)


def trit(v: int) -> LogicLevel:
    return LogicLevel(v, 2)


def quit(v: int) -> LogicLevel:
    return LogicLevel(v, 3)


def _check(name: str, v: int, hi: int) -> None:
    if not isinstance(v, int) or not 0 <= v <= hi:
        raise LogicError(f"{name}={v!r} outside 0..{hi}")


# ---------------------------------------------------------------------------
# gate kinds, port signatures and kernels
# ---------------------------------------------------------------------------

class GateKind(enum.Enum):
    AND = "AND"
    BIN_HA = "BIN_HA"
    BIN_FA = "BIN_FA"
    QM1 = "QM1"
    QHA = "QHA"
    QFAC2 = "QFAC2"
    QFAC2WC = "QFAC2WC"
    MUX4 = "MUX4"
    DECODER = "DECODER"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class PortSpec:
    """Named ports with the maximum digit each port may carry."""

    inputs: tuple[tuple[str, int], ...]
    outputs: tuple[tuple[str, int], ...]


PORTS = {
    GateKind.AND: PortSpec((("a", 1), ("b", 1)), (("y", 1),)),
    GateKind.BIN_HA: PortSpec((("a", 1), ("b", 1)), (("sum", 1), ("cout", 1))),
    GateKind.BIN_FA: PortSpec((("a", 1), ("b", 1), ("cin", 1)),
                              (("sum", 1), ("cout", 1))),
    GateKind.QM1: PortSpec((("a", 3), ("b", 3)), (("product", 3), ("carry", 2))),
    GateKind.QHA: PortSpec((("a", 3), ("b", 3)), (("sum", 3), ("cout", 1))),
    GateKind.QFAC2: PortSpec((("a", 3), ("b", 3), ("cin", 2)),
                             (("sum", 3), ("cout", 2))),
    GateKind.QFAC2WC: PortSpec((("a", 3), ("b", 3), ("cin", 2)), (("sum", 3),)),
    GateKind.MUX4: PortSpec((("sel", 3), ("in0", 3), ("in1", 3),
                             ("in2", 3), ("in3", 3)), (("y", 3),)),
    GateKind.DECODER: PortSpec((("x", 3),),
                               (("nqi", 3), ("iqi", 3), ("pqi", 3))),
}


#: gate kernels on ints or unsigned digit arrays: each cell's one definition.
KERNELS = {
    GateKind.AND: lambda a, b: (a & b,),
    GateKind.BIN_HA: lambda a, b: ((a + b) & 1, (a + b) >> 1),
    GateKind.BIN_FA: lambda a, b, c: ((a + b + c) & 1, (a + b + c) >> 1),
    GateKind.QM1: lambda a, b: (a * b % 4, a * b // 4),
    GateKind.QHA: lambda a, b: ((a + b) % 4, (a + b) // 4),
    GateKind.QFAC2: lambda a, b, c: ((a + b + c) % 4, (a + b + c) // 4),
    GateKind.QFAC2WC: lambda a, b, c: ((a + b + c) % 4,),
    GateKind.MUX4: lambda s, i0, i1, i2, i3: (
        i0 * (s == 0) + i1 * (s == 1) + i2 * (s == 2) + i3 * (s == 3),),
    GateKind.DECODER: lambda x: (3 * (x < 1), 3 * (x < 2), 3 * (x < 3)),
}


def evaluate_gate(kind: GateKind, inputs: tuple[int, ...]) -> tuple[int, ...]:
    """Evaluate one gate on raw digit values, with port range checks."""
    spec = PORTS[kind]
    if len(inputs) != len(spec.inputs):
        raise LogicError(f"{kind} takes {len(spec.inputs)} inputs, "
                         f"got {len(inputs)}")
    for (name, hi), v in zip(spec.inputs, inputs):
        _check(f"{kind}.{name}", v, hi)
    return tuple(KERNELS[kind](*inputs))


@cache
def output_ranges(kind: GateKind, in_ranges: tuple[int, ...]) -> tuple[int, ...]:
    """Tight per-output ranges for a gate given its input wire ranges.

    Carry outputs narrow when the inputs cannot reach the port maximum
    (a quaternary adder fed one quit and two ternaries only ever carries
    a bit); the netlist generator uses this to type every wire.  The
    domain is at most 1,024 input vectors (MUX4), so it is enumerated
    exactly, once per distinct argument pair.
    """
    spec = PORTS[kind]
    if len(in_ranges) != len(spec.inputs):
        raise LogicError(f"{kind} takes {len(spec.inputs)} inputs")
    for (name, hi), r in zip(spec.inputs, in_ranges):
        if r > hi:
            raise LogicError(f"{kind}.{name} accepts at most {hi}, "
                             f"wire range is {r}")
    maxima = [0] * len(spec.outputs)
    for vals in product(*(range(r + 1) for r in in_ranges)):
        for i, o in enumerate(KERNELS[kind](*vals)):
            if o > maxima[i]:
                maxima[i] = o
    return tuple(maxima)


def _cell(kind: GateKind, *levels: LogicLevel):
    """Evaluate ``kind`` on levels; outputs are typed by their port range."""
    outs = tuple(LogicLevel(v, hi) for v, (_, hi) in
                 zip(evaluate_gate(kind, tuple(x.value for x in levels)),
                     PORTS[kind].outputs))
    return outs[0] if len(outs) == 1 else outs


# ---------------------------------------------------------------------------
# unary quaternary operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnaryTable:
    """A quaternary unary operator given by its four output digits.

    The name encodes the outputs for inputs 0,1,2,3: operator "0321"
    maps 0->0, 1->3, 2->2, 3->1.
    """

    name: str
    outputs: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.outputs) != 4:
            raise LogicError("unary table needs exactly 4 entries")
        for v in self.outputs:
            if not 0 <= v <= 3:
                raise LogicError(f"unary output {v} outside 0..3")

    @classmethod
    def from_name(cls, name: str) -> "UnaryTable":
        if len(name) != 4 or not name.isdigit():
            raise LogicError(f"bad unary operator name {name!r}")
        return cls(name, tuple(int(c) for c in name))


#: the unary operators used inside the digit multiplier, plus identity.
STANDARD_TABLES = {
    name: UnaryTable.from_name(name)
    for name in ("0000", "0123", "0202", "0321", "0001", "0011", "0012")
}


def unary_apply(table: UnaryTable, x: LogicLevel) -> LogicLevel:
    """Apply a unary operator table to a quaternary input."""
    _check("x", x.value, 3)
    return quit(table.outputs[x.value])


def decode_thresholds(x: LogicLevel) -> tuple[LogicLevel, LogicLevel, LogicLevel]:
    """Threshold-decode a quit into (nqi, iqi, pqi) pseudo-binary levels.

    The three outputs swing between 0 and 3 (full quaternary rails), one
    threshold each: nqi drops first, pqi last.

        in   nqi iqi pqi
        0    3   3   3
        1    0   3   3
        2    0   0   3
        3    0   0   0
    """
    return _cell(GateKind.DECODER, x)


def mux4(sel: LogicLevel, in0: LogicLevel, in1: LogicLevel,
         in2: LogicLevel, in3: LogicLevel) -> LogicLevel:
    """4-way mux with quaternary select: returns in<sel>."""
    _check("sel", sel.value, 3)
    return (in0, in1, in2, in3)[sel.value]


# ---------------------------------------------------------------------------
# arithmetic cells
# ---------------------------------------------------------------------------

def qmul1(a: LogicLevel, b: LogicLevel) -> tuple[LogicLevel, LogicLevel]:
    """1x1 quaternary digit multiplier: product quit and ternary carry.

    Satisfies 4*carry + product == a*b for every input pair; the carry
    never exceeds 2 (max total is 9).
    """
    return _cell(GateKind.QM1, a, b)


def qmul1_mux(a: LogicLevel, b: LogicLevel) -> tuple[LogicLevel, LogicLevel]:
    """Digit multiplier decomposed into a selector over unary operators.

    The product selects between 0, identity, 0202 and 0321 applied to
    ``b``; the carry selects between 0, 0, 0011 and 0012.  Equals
    :func:`qmul1` on all 16 input pairs.
    """
    t = STANDARD_TABLES
    qm = mux4(a, unary_apply(t["0000"], b), unary_apply(t["0123"], b),
              unary_apply(t["0202"], b), unary_apply(t["0321"], b))
    qc = mux4(a, unary_apply(t["0000"], b), unary_apply(t["0000"], b),
              unary_apply(t["0011"], b), unary_apply(t["0012"], b))
    return quit(qm.value), trit(qc.value)


def qfac2(a: LogicLevel, b: LogicLevel, cin: LogicLevel) \
        -> tuple[LogicLevel, LogicLevel]:
    """Quaternary full adder with ternary carries.

    sum = (a+b+cin) mod 4, cout = (a+b+cin) div 4.  The carry-in port is
    ternary; cin=3 is rejected because a generator that produces it has
    violated the carry discipline.  Max total 3+3+2=8, so cout <= 2.
    """
    return _cell(GateKind.QFAC2, a, b, cin)


def qfac2wc(a: LogicLevel, b: LogicLevel, cin: LogicLevel) -> LogicLevel:
    """Carry-less variant of :func:`qfac2` for the top of a final adder."""
    return _cell(GateKind.QFAC2WC, a, b, cin)


def qha(a: LogicLevel, b: LogicLevel) -> tuple[LogicLevel, LogicLevel]:
    """Quaternary half adder: sum quit plus a binary carry."""
    return _cell(GateKind.QHA, a, b)


def bin_fa(a: LogicLevel, b: LogicLevel, cin: LogicLevel) \
        -> tuple[LogicLevel, LogicLevel]:
    """Binary full adder."""
    return _cell(GateKind.BIN_FA, a, b, cin)


def bin_ha(a: LogicLevel, b: LogicLevel) -> tuple[LogicLevel, LogicLevel]:
    """Binary half adder."""
    return _cell(GateKind.BIN_HA, a, b)


def and2(a: LogicLevel, b: LogicLevel) -> LogicLevel:
    """2-input AND, the 1x1 binary multiplier."""
    return _cell(GateKind.AND, a, b)
