"""Gate semantics: one table of cell kernels and port signatures.

Signals carry small unsigned digits. A wire is binary (max 1), ternary
(max 2) or quaternary (max 3); the quaternary multipliers mix all three,
because digit products carry in ternary while sums stay quaternary.

A gate kind is the string that names it, such as ``"QM1"``, in memory
as in every file mvlmul writes; :data:`PORTS` is the registry of kinds.
Every gate used by the netlist generator is a pure function over digit
values in :data:`KERNELS`, with its port signature (the maximum digit of
each input and output) in :data:`PORTS`; :data:`CELLS` is the only
place that says which cell plays which role in each radix.  The
simulator derives its bit-plane plans from :data:`KERNELS`, and
:func:`output_ranges` types the wires the generator creates.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import product


class LogicError(ValueError):
    """A wire range is wider than the gate port it feeds."""


class PortSpec(namedtuple("PortSpec", "inputs outputs")):
    """Named ports with the maximum digit each port may carry: ``inputs``
    and ``outputs`` are tuples of ``(port name, max digit)``."""

    __slots__ = ()


#: every gate kind, by name, with its port signature
PORTS = {
    "AND": PortSpec((("a", 1), ("b", 1)), (("y", 1),)),
    "BIN_HA": PortSpec((("a", 1), ("b", 1)), (("sum", 1), ("cout", 1))),
    "BIN_FA": PortSpec((("a", 1), ("b", 1), ("cin", 1)),
                       (("sum", 1), ("cout", 1))),
    "QM1": PortSpec((("a", 3), ("b", 3)), (("product", 3), ("carry", 2))),
    "QHA": PortSpec((("a", 3), ("b", 3)), (("sum", 3), ("cout", 1))),
    "QFAC2": PortSpec((("a", 3), ("b", 3), ("cin", 2)),
                      (("sum", 3), ("cout", 2))),
    "QFAC2WC": PortSpec((("a", 3), ("b", 3), ("cin", 2)), (("sum", 3),)),
}

#: per kind, its number of inputs and of outputs
ARITY = {kind: (len(s.inputs), len(s.outputs)) for kind, s in PORTS.items()}

#: per radix, the cells a multiplier is built from, by role: the digit
#: cell, the half adder, the full adder, and the full adder of the top
#: product column, whose carry out is provably zero.
CELLS = {
    2: ("AND", "BIN_HA", "BIN_FA", "BIN_FA"),
    4: ("QM1", "QHA", "QFAC2", "QFAC2WC"),
}


#: gate kernels on digit ints: each cell's one definition.
KERNELS = {
    "AND": lambda a, b: (a & b,),
    "BIN_HA": lambda a, b: ((a + b) & 1, (a + b) >> 1),
    "BIN_FA": lambda a, b, c: ((a + b + c) & 1, (a + b + c) >> 1),
    "QM1": lambda a, b: (a * b % 4, a * b // 4),
    "QHA": lambda a, b: ((a + b) % 4, (a + b) // 4),
    "QFAC2": lambda a, b, c: ((a + b + c) % 4, (a + b + c) // 4),
    "QFAC2WC": lambda a, b, c: ((a + b + c) % 4,),
}


@cache
def output_ranges(kind: str, in_ranges: tuple[int, ...]) -> tuple[int, ...]:
    """Tight per-output ranges for a gate given its input wire ranges.

    Carry outputs narrow when the inputs cannot reach the port maximum
    (a quaternary adder fed one quit and two ternaries only ever carries
    a bit); the netlist generator uses this to type every wire.  The
    domain is at most 48 input vectors (QFAC2), so it is enumerated
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
