"""Gate semantics: each cell is one row of :data:`PORTS`.

Signals carry small unsigned digits. A wire is binary (max 1), ternary
(max 2) or quaternary (max 3); the quaternary multipliers mix all three,
because digit products carry in ternary while sums stay quaternary.

A gate kind is the string that names it, such as ``"QM1"``, in memory
as in every file mvlmul writes; :data:`PORTS` is the registry of kinds,
and a kind's row is its one definition: the maximum digit of each port,
and an ``op``, ``sum`` or ``math.prod``, whose low base-2^m digits are
its outputs, m bits being as wide as its first output.  :data:`KERNELS`
evaluates that rule on digit ints, the simulator compiles it to
bit-plane plans, and :func:`output_ranges` types the wires the generator
creates.  :data:`CELLS` says which cell plays which role in each radix.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, partial
from itertools import product
from math import prod


class PortSpec(namedtuple("PortSpec", "inputs outputs op")):
    """A cell: ``inputs`` and ``outputs`` are tuples of ``(port name, max
    digit)``, and ``op``, ``sum`` or ``math.prod``, what it computes."""

    __slots__ = ()


#: every gate kind, by name; a carry past the last output is dropped
PORTS = {
    "AND": PortSpec((("a", 1), ("b", 1)), (("y", 1),), prod),
    "BIN_HA": PortSpec((("a", 1), ("b", 1)), (("sum", 1), ("cout", 1)), sum),
    "BIN_FA": PortSpec((("a", 1), ("b", 1), ("cin", 1)),
                       (("sum", 1), ("cout", 1)), sum),
    "QM1": PortSpec((("a", 3), ("b", 3)),
                    (("product", 3), ("carry", 2)), prod),
    "QHA": PortSpec((("a", 3), ("b", 3)), (("sum", 3), ("cout", 1)), sum),
    "QFAC2": PortSpec((("a", 3), ("b", 3), ("cin", 2)),
                      (("sum", 3), ("cout", 2)), sum),
    "QFAC2WC": PortSpec((("a", 3), ("b", 3), ("cin", 2)), (("sum", 3),), sum),
}

#: per radix, the cells a multiplier is built from, by role: the digit
#: cell, the half adder, the full adder, and the full adder of the top
#: product column, whose carry out is provably zero.
CELLS = {
    2: ("AND", "BIN_HA", "BIN_FA", "BIN_FA"),
    4: ("QM1", "QHA", "QFAC2", "QFAC2WC"),
}


def _digits(spec: PortSpec, *v: int) -> tuple[int, ...]:
    """``spec``'s outputs for digits ``v``: the low digits of ``op(v)``."""
    m = spec.outputs[0][1].bit_length()
    return tuple(spec.op(v) >> m * o & (1 << m) - 1
                 for o in range(len(spec.outputs)))


#: gate kernels on digit ints, one per :data:`PORTS` row
KERNELS = {kind: partial(_digits, spec) for kind, spec in PORTS.items()}


@cache
def output_ranges(kind: str, in_ranges: tuple[int, ...]) -> tuple[int, ...]:
    """Tight per-output ranges for a gate given its input wire ranges.

    Carry outputs narrow when the inputs cannot reach the port maximum
    (a quaternary adder fed one quit and two ternaries only ever carries
    a bit); the netlist generator uses this to type every wire.  Each of
    ``in_ranges`` fits its port, which both callers ensure first.  The
    domain is at most 48 input vectors (QFAC2), so it is enumerated
    exactly, once per distinct argument pair.
    """
    spec = PORTS[kind]
    maxima = [0] * len(spec.outputs)
    for vals in product(*(range(r + 1) for r in in_ranges)):
        for i, o in enumerate(KERNELS[kind](*vals)):
            if o > maxima[i]:
                maxima[i] = o
    return tuple(maxima)
