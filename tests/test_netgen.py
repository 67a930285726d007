"""Generator structure: partial products, reduction, final add."""

import pytest

from mvlmul import netgen
from mvlmul.core import PORTS
from mvlmul.netgen import (NetgenError, _NetBuilder, _build_pp, _final_cpa,
                           _wallace_stage, gen_multiplier)
from mvlmul.netlist import validate_netlist


@pytest.fixture(scope="module")
def every_width():
    """b1 to b32 and q1 to q16, by (radix, width)."""
    return {(radix, width): gen_multiplier(radix, width)
            for radix, top in ((2, 32), (4, 16))
            for width in range(1, top + 1)}


def _fresh_builder(radix, width):
    b = _NetBuilder()
    for i in range(width):
        b.add_input(f"x{i}", radix - 1)
        b.add_input(f"y{i}", radix - 1)
    return b


def _capacity(m, ranges):
    """The largest value the dots of ``m`` can sum to: the sum of
    range_max * radix**column over every dot, by the builder's
    ``ranges`` (its ``wires``)."""
    return sum(ranges[d] * m.base ** c for row in m.rows
               for c, d in row.items())


# --- partial products -----------------------------------------------------

def test_pp_binary_shapes():
    b = _fresh_builder(2, 2)
    m = _build_pp(b, 2, 2)
    assert sum(1 for g in b.gates if g.kind == "AND") == 4
    assert m.heights() == [1, 2, 1, 0]

    b = _fresh_builder(2, 1)
    m = _build_pp(b, 2, 1)
    assert m.heights() == [1, 0]

    b = _fresh_builder(2, 8)
    m = _build_pp(b, 2, 8)
    assert len(b.gates) == 64
    assert max(m.heights()) == 8


def test_pp_quaternary_shapes():
    b = _fresh_builder(4, 4)
    m = _build_pp(b, 4, 4)
    assert len(b.gates) == 16
    assert len(m.rows) == 8  # product row + carry row per y digit

    b = _fresh_builder(4, 1)
    m = _build_pp(b, 4, 1)
    cols = m.columns()
    assert len(cols[0]) == 1 and b.wires[cols[0][0]] == 3
    assert len(cols[1]) == 1 and b.wires[cols[1][0]] == 2

    b = _fresh_builder(4, 2)
    m = _build_pp(b, 4, 2)
    assert len(b.gates) == 4
    dots = [d for row in m.rows for d in row.values()]
    assert sum(1 for d in dots if b.wires[d] == 3) == 4  # products
    assert sum(1 for d in dots if b.wires[d] == 2) == 4  # carries


def test_capacity_holds_from_the_start():
    # the digit products can hold the largest product, (radix**N - 1)**2
    for radix, width in ((2, 8), (4, 4)):
        b = _fresh_builder(radix, width)
        m = _build_pp(b, radix, width)
        assert _capacity(m, b.wires) >= (radix ** width - 1) ** 2, \
            (radix, width)


# --- reduction ------------------------------------------------------------

def test_stage_heights_strictly_decrease(every_width):
    # every stage lowers the tallest column, and the last ends at most 2:
    # the reduction loop of gen_multiplier ends at every width
    for (radix, width), net in every_width.items():
        hs = net.stats["stage_heights"]
        maxima = [max(h) for h in hs]
        for before, after in zip(maxima, maxima[1:]):
            assert after < before, (radix, width, maxima)
        assert maxima[-1] <= 2


def test_capacity_preserved_each_stage(monkeypatch):
    # every adder is exact and only provably-zero carries are dropped, so
    # no stage of gen_multiplier may leave dots that cannot hold the
    # largest product
    matrices = []

    def stage(builder, matrix, grouping=None):
        matrices.extend((matrix, _wallace_stage(builder, matrix, grouping)))
        return matrices[-1]
    monkeypatch.setattr(netgen, "_wallace_stage", stage)
    for radix, width in ((2, 8), (4, 4)):
        matrices.clear()
        net = gen_multiplier(radix, width)
        assert len(matrices) == 2 * net.stats["stages"] > 0
        for m in matrices:  # the builder's wires are the netlist's
            assert _capacity(m, net.wires) >= (radix ** width - 1) ** 2, \
                (radix, width)


def test_final_cpa_single_row_passthrough():
    b = _fresh_builder(2, 1)
    m = _build_pp(b, 2, 1)
    before = len(b.gates)
    digits = _final_cpa(b, m)
    assert len(b.gates) == before
    assert len(digits) == 1


# --- generated inventories -------------------------------------------------

def test_inventories(all_designs):
    inv = {k: n.inventory() for k, n in all_designs.items()}
    assert inv[(2, 1)] == {"AND": 1}
    assert inv[(2, 2)] == {"AND": 4, "BIN_HA": 2}
    assert inv[(2, 4)] == {"AND": 16, "BIN_FA": 8, "BIN_HA": 4}
    assert inv[(2, 8)] == {"AND": 64, "BIN_FA": 47, "BIN_HA": 16}
    assert inv[(4, 1)] == {"QM1": 1}
    assert inv[(4, 2)] == {"QM1": 4, "QFAC2": 2, "QFAC2WC": 1, "QHA": 2}
    assert inv[(4, 4)] == {"QM1": 16, "QFAC2": 21, "QFAC2WC": 1, "QHA": 5}


def test_tree_and_final_add_split(b8, q4):
    assert b8.stats["tree_inventory"] == {"BIN_FA": 38, "BIN_HA": 14}
    assert b8.stats["final_add_inventory"] == {"BIN_FA": 9, "BIN_HA": 2}
    assert q4.stats["tree_inventory"] == {"QFAC2": 20, "QHA": 4}
    assert q4.stats["final_add_inventory"] == {"QFAC2": 1, "QFAC2WC": 1,
                                               "QHA": 1}


def test_stage_counts(all_designs):
    stages = {k: n.stats["stages"] for k, n in all_designs.items()}
    assert stages[(2, 8)] == 4
    assert stages[(4, 4)] == 4
    assert stages[(4, 2)] == 1  # single reduction stage, then the final add
    assert stages[(2, 4)] == 2
    assert stages[(2, 2)] == stages[(4, 1)] == 0  # the final add alone
    # README's table of the preset pairs: the dots entering the tree and
    # its tallest column, from the heights before the first stage
    first = {k: n.stats["stage_heights"][0] for k, n in all_designs.items()}
    assert {k: (sum(first[k]), max(first[k])) for k in (
        (4, 1), (2, 2), (4, 2), (2, 4), (4, 4), (2, 8))} == {
        (4, 1): (2, 1), (2, 2): (4, 2), (4, 2): (8, 3), (2, 4): (16, 4),
        (4, 4): (32, 7), (2, 8): (64, 8)}


def test_no_quaternary_wire_feeds_a_carry_port(all_designs):
    for net in all_designs.values():
        for g in net.gates:
            for (pname, pmax), wid in zip(PORTS[g.kind].inputs, g.inputs):
                assert net.wires[wid] <= pmax, (g.id, pname)


def test_wc_substitution_only_at_the_top(q2, q4):
    for net in (q2, q4):
        wcs = [g for g in net.gates if g.kind == "QFAC2WC"]
        assert len(wcs) == 1
        # its sum drives the most significant product digit
        assert wcs[0].outputs[0] == net.primary_outputs[-1]


def test_determinism(q4):
    a = gen_multiplier(4, 4)
    assert a.to_json() == q4.to_json()


def test_bad_arguments_rejected():
    with pytest.raises(NetgenError):
        gen_multiplier(3, 4)
    with pytest.raises(NetgenError):
        gen_multiplier(2, 0)
    with pytest.raises(NetgenError):
        gen_multiplier(4, -1)
    # 2.0 == 2, so a float radix passed the membership test: 2.0 was
    # written to the netlist, and 4.0 ended in a TypeError from range()
    for radix in (2.0, 4.0, True):
        with pytest.raises(NetgenError, match=f"^radix must be 2 or 4, "
                                              f"got {radix}$"):
            gen_multiplier(radix, 2)


def test_non_integer_width_rejected():
    # without the check, range() raised a TypeError; a bool is an int, so
    # True passed and was written to the netlist as "width": True
    for width in (2.5, 4.0, True):
        with pytest.raises(NetgenError, match=f"^width must be a positive "
                                              f"integer, got {width}$"):
            gen_multiplier(2, width)


def test_every_width_validates(every_width):
    # gen_multiplier runs no walk of its own: each design holds every rule
    # by construction, and this is where that is checked
    for (radix, width), net in every_width.items():
        assert validate_netlist(net) == [], (radix, width)


def test_unusual_widths_still_generate():
    for radix, width in ((2, 3), (2, 5), (4, 3), (4, 5)):
        net = gen_multiplier(radix, width)
        assert net.stats["stages"] >= 1
