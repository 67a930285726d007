"""Wallace-tree multiplier generation for radix 2 and radix 4.

The flow is the classic three-step one for both radices, built from
the radix's cells in :data:`~mvlmul.core.CELLS`: digit-product stage
(AND gates or 1x1 quit multipliers), row-grouped column reduction until
every column holds at most two dots, then a ripple final add.

A dot is the id of a gate output wire of true range at least 1.  The
dots are rows, each a ``{column: dot}`` dict over the 2N product
columns with at most one dot per column; ``_columns`` reads a column's
dots off them in row order.  Every adder is exact and only
provably-zero carries are dropped, so the dots can hold every product.

Reduction policy
----------------
Rows are grouped in threes; inside a group each column compresses
3 dots into a full adder, 2 into a half adder, and single dots pass.
Sum dots stay in-column, carry dots move one column up.  In radix 4 the
full adder is QFAC2, whose carry-in port is ternary: the first dot with
range <= 2 is wired to the carry-in.  Every triple holds a carry row,
whose dots (QM1, QFAC2 or QHA carries) all have range <= 2: stage 0
alternates QM1 product and carry rows (as does the 4-row plan's
triple), and every group gives a non-empty carry row, so each later
stage alternates sum and carry rows, with at most two ungrouped rows.

Grouping order is deterministic.  Most stages group consecutive triples
from the top; 8 binary rows and 4 quaternary rows use fixed grouping
plans (see ``_GROUPING_PLANS``) chosen so the generated inventories and
stage counts land on the reference totals for the 8x8-bit and 2x2-quit
designs.

Carries whose weight falls beyond the product width are provably zero
(the product of width-N operands always fits in 2N digits); such carry
outputs are left dangling.  The final add puts the radix's top-column
adder (``CELLS[radix][3]``: the carry-less QFAC2WC in radix 4) there.
"""

from __future__ import annotations

from collections import Counter

from .core import CELLS, PORTS, output_ranges
from .netlist import GateInstance, Netlist

_Rows = list[dict[int, str]]  # rows of dots: see the module docstring


class NetgenError(ValueError):
    """Raised for invalid generator arguments."""


class _NetBuilder:
    """Accumulates ``wires`` (``{id: range_max}``) and ``gates`` with
    deterministic ids; ``gates`` is in build order, a gate's id its index.
    ``inputs`` are the 2N operand digits, x then y, declared first."""

    def __init__(self, radix: int, width: int):
        self.inputs = [f"{o}{i}" for o in "xy" for i in range(width)]
        self.wires: dict[str, int] = dict.fromkeys(self.inputs, radix - 1)
        self.gates: list[GateInstance] = []
        self._nwire = 0

    def add_gate(self, kind: str, inputs: list[str]) \
            -> tuple[list[str], tuple[int, ...]]:
        """Instantiate a gate reading the wire ids ``inputs``; returns
        (output wire ids, true ranges).

        Output wire ranges are the tight bounds computed from the input
        wire ranges; a true range of 0 means the output is constant zero.
        """
        ranges = output_ranges(kind, tuple([self.wires[w] for w in inputs]))
        outs = []
        for r in ranges:
            wid = f"n{self._nwire:05d}"
            self._nwire += 1
            # a provably-zero output still needs a legal (binary) wire
            self.wires[wid] = r or 1
            outs.append(wid)
        self.gates.append(GateInstance(f"g{len(self.gates):05d}", kind,
                                       tuple(inputs), tuple(outs)))
        return outs, ranges


def _columns(rows: _Rows, ncols: int) -> list[list[str]]:
    """The dots of each of ``ncols`` columns, in row order."""
    cols: list[list[str]] = [[] for _ in range(ncols)]
    for row in rows:  # a row holds at most one dot per column
        for c, dot in row.items():
            cols[c].append(dot)
    return cols


# -- partial products ---------------------------------------------------------

def _build_pp(builder: _NetBuilder, radix: int, width: int) -> _Rows:
    """The rows of digit-product dots of two ``width``-digit operands:
    per y digit, one row per output of the radix's digit cell
    (``CELLS[radix][0]``), each cell reading the builder's ``inputs``.

    Output k of the cell for pair (i, j) carries weight radix**(i+j+k)
    and lands in column i+j+k, or is dropped past the top column.  Radix
    2 gives one AND row per y digit; radix 4 gives a QM1 product row and
    a ternary carry row, so a width-N operand pair yields 2N rows.
    """
    cell = CELLS[radix][0]
    xs, ys = builder.inputs[:width], builder.inputs[width:]
    rows: _Rows = []
    for j in range(width):
        cell_rows: _Rows = [{} for _ in PORTS[cell].outputs]
        for i in range(width):
            outs, _ = builder.add_gate(cell, [xs[i], ys[j]])
            for k, row in enumerate(cell_rows):
                if i + j + k < 2 * width:
                    row[i + j + k] = outs[k]
        rows.extend(cell_rows)
    return rows


# -- reduction ----------------------------------------------------------------

# Fixed grouping plans, keyed by (base, row count) and stage index.
# Entries list the row-index triples to group; unlisted rows pass through.
# The 8-row binary plan keeps the 8x8 totals at 47 FA + 16 HA; the 4-row
# quaternary plan reduces the 2x2-quit rows in a single stage.
_GROUPING_PLANS = {
    (2, 8): {0: ((0, 1, 2), (3, 5, 6)),
             1: ((0, 1, 4), (2, 3, 5))},
    (4, 4): {0: ((1, 2, 3),)},
}


def _wallace_stage(builder: _NetBuilder, radix: int, rows: _Rows,
                   grouping: tuple[tuple[int, int, int], ...] | None = None) \
        -> _Rows:
    """One reduction stage of rows whose tallest column holds more than
    2 dots; returns the reduced rows: per triple of ``grouping``
    (consecutive triples when None) a sum row and a non-empty carry row,
    then the ungrouped rows in order."""
    if grouping is None:
        grouping = [(i, i + 1, i + 2) for i in range(0, len(rows) - 2, 3)]
    _, half_adder, full_adder, _ = CELLS[radix]
    top = len(builder.inputs) - 1  # 2N operand digits, 2N columns
    new_rows: _Rows = []
    for trip in grouping:
        grp = [rows[i] for i in trip]
        srow, crow = {}, {}  # the group's sum row and carry row
        for c in sorted(set().union(*grp)):
            dots = [r[c] for r in grp if c in r]
            if len(dots) == 1:
                srow[c] = dots[0]
                continue
            if len(dots) == 3 and radix == 4:
                # the triple's carry row holds a dot of range <= 2
                ti = next(k for k, d in enumerate(dots)
                          if builder.wires[d] <= 2)
                dots.append(dots.pop(ti))  # cin is the last port
            outs, rng = builder.add_gate(
                full_adder if len(dots) == 3 else half_adder, dots)
            srow[c] = outs[0]
            if rng[1] > 0 and c < top:
                crow[c + 1] = outs[1]
            # rng[1] == 0 or a carry beyond the top column is provably
            # zero; the wire stays dangling.
        new_rows.append(srow)
        if crow:
            new_rows.append(crow)

    in_group = {i for trip in grouping for i in trip}
    new_rows.extend(r for i, r in enumerate(rows) if i not in in_group)
    return new_rows


def _final_cpa(builder: _NetBuilder, radix: int, rows: _Rows) -> list[str]:
    """Ripple final add over rows whose columns hold at most 2 dots;
    returns the product digit wires, LSB first.  A column's single value
    passes straight through, two values make a half adder, and two dots
    plus the incoming carry a full adder (the top-column adder in the
    top column, whose provably-zero carry out is left dangling)."""
    _, half_adder, full_adder, top_adder = CELLS[radix]
    top = len(builder.inputs) - 1
    digits, carry = [], []  # carry: the incoming carry, if any
    for c, dots in enumerate(_columns(rows, top + 1)):
        dots += carry  # the carry sits last: the (ternary) carry-in port
        if not dots:
            break  # product ends here
        carry = []
        if len(dots) > 1:
            kind = (half_adder if len(dots) == 2 else
                    top_adder if c == top else full_adder)
            dots, rng = builder.add_gate(kind, dots)
            carry = [w for w, r in zip(dots[1:], rng[1:]) if r]
        digits.append(dots[0])
    return digits


# -- top level ----------------------------------------------------------------

def gen_multiplier(radix: int, width: int) -> Netlist:
    """Generate a complete width x width multiplier netlist.

    The netlist holds every rule of :func:`~mvlmul.netlist.walk` by
    construction, which the tests check, so no walk runs here.
    Stage count, each stage's column heights and the tree / final-add
    inventory split are recorded in ``Netlist.stats``.
    """
    if type(radix) is not int or radix not in CELLS:
        raise NetgenError(f"radix must be 2 or 4, got {radix}")
    if type(width) is not int or width < 1:
        raise NetgenError(f"width must be a positive integer, got {width}")

    builder = _NetBuilder(radix, width)
    rows = _build_pp(builder, radix, width)
    plans = _GROUPING_PLANS.get((radix, len(rows)), {})
    tree_start = len(builder.gates)
    stage_heights = [list(map(len, _columns(rows, 2 * width)))]
    while max(stage_heights[-1]) > 2:
        rows = _wallace_stage(builder, radix, rows,
                              plans.get(len(stage_heights) - 1))
        stage_heights.append(list(map(len, _columns(rows, 2 * width))))

    cpa_start = len(builder.gates)
    digits = _final_cpa(builder, radix, rows)
    stats = {
        "stages": len(stage_heights) - 1,
        "stage_heights": stage_heights,
        "tree_inventory": dict(sorted(Counter(
            g.kind for g in builder.gates[tree_start:cpa_start]).items())),
        "final_add_inventory": dict(sorted(Counter(
            g.kind for g in builder.gates[cpa_start:]).items())),
    }

    return Netlist(radix=radix, width=width, wires=builder.wires,
                   gates=builder.gates, primary_inputs=builder.inputs,
                   primary_outputs=digits, stats=stats)
