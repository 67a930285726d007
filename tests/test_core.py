"""Single-gate semantics: truth tables, identities, range policing."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mvlmul.core import (GateKind, KERNELS, LogicError, LogicLevel, PORTS,
                         STANDARD_TABLES, and2, bin_fa, bin_ha, bit,
                         decode_thresholds, evaluate_gate, mux4,
                         output_ranges, qfac2, qfac2wc, qha, qmul1,
                         qmul1_mux, quit, trit, unary_apply)

QUITS = [quit(v) for v in range(4)]


# --- logic levels ---------------------------------------------------------

def test_logic_level_ranges():
    assert bit(1).range_max == 1
    assert trit(2).range_max == 2
    assert quit(3).range_max == 3


@given(st.integers(-4, 8), st.integers(-1, 5))
def test_logic_level_invariants(value, range_max):
    ok = range_max in (1, 2, 3) and 0 <= value <= range_max
    if ok:
        LogicLevel(value, range_max)
    else:
        with pytest.raises(LogicError):
            LogicLevel(value, range_max)


# --- digit multiplier -----------------------------------------------------

# frozen 16-row table: product digit and ternary carry per (a, b)
QMUL1_TABLE = {
    (0, 0): (0, 0), (0, 1): (0, 0), (0, 2): (0, 0), (0, 3): (0, 0),
    (1, 0): (0, 0), (1, 1): (1, 0), (1, 2): (2, 0), (1, 3): (3, 0),
    (2, 0): (0, 0), (2, 1): (2, 0), (2, 2): (0, 1), (2, 3): (2, 1),
    (3, 0): (0, 0), (3, 1): (3, 0), (3, 2): (2, 1), (3, 3): (1, 2),
}


def test_qmul1_full_table():
    for (a, b), (qm, qc) in QMUL1_TABLE.items():
        p, c = qmul1(quit(a), quit(b))
        assert (p.value, c.value) == (qm, qc), (a, b)


def test_qmul1_arithmetic_identity_and_carry_bound():
    for a in range(4):
        for b in range(4):
            p, c = qmul1(quit(a), quit(b))
            assert 4 * c.value + p.value == a * b
            assert c.value <= 2
            assert c.range_max == 2


def test_qmul1_mux_composition_matches_direct():
    for a in QUITS:
        for b in QUITS:
            assert qmul1_mux(a, b) == qmul1(a, b)


def test_qmul1_spec_rows():
    assert qmul1(quit(3), quit(3)) == (quit(1), trit(2))
    assert qmul1(quit(2), quit(3)) == (quit(2), trit(1))
    for b in QUITS:
        assert qmul1(quit(0), b) == (quit(0), trit(0))


# --- adders ---------------------------------------------------------------

def test_qfac2_exhaustive_mod_div():
    for a in range(4):
        for b in range(4):
            for cin in range(3):
                s, c = qfac2(quit(a), quit(b), trit(cin))
                t = a + b + cin
                assert (s.value, c.value) == (t % 4, t // 4)
                assert c.value <= 2


def test_qfac2_examples():
    assert qfac2(quit(3), quit(3), trit(2)) == (quit(0), trit(2))
    assert qfac2(quit(0), quit(0), trit(0)) == (quit(0), trit(0))


def test_qfac2_rejects_carry_three():
    with pytest.raises(LogicError):
        qfac2(quit(1), quit(1), quit(3))


def test_qfac2wc_is_sum_only():
    for a in range(4):
        for b in range(4):
            for cin in range(3):
                assert qfac2wc(quit(a), quit(b), trit(cin)).value == \
                    (a + b + cin) % 4


def test_qha_exhaustive():
    for a in range(4):
        for b in range(4):
            s, c = qha(quit(a), quit(b))
            assert (s.value, c.value) == ((a + b) % 4, (a + b) // 4)
            assert c.range_max == 1
    assert qha(quit(3), quit(3)) == (quit(2), bit(1))
    assert qha(quit(1), quit(2)) == (quit(3), bit(0))


def test_binary_cells():
    assert bin_fa(bit(1), bit(1), bit(1)) == (bit(1), bit(1))
    assert bin_ha(bit(1), bit(1)) == (bit(0), bit(1))
    assert and2(bit(1), bit(0)) == bit(0)
    for a in range(2):
        for b in range(2):
            assert and2(bit(a), bit(b)).value == (a & b)
            s, c = bin_ha(bit(a), bit(b))
            assert 2 * c.value + s.value == a + b
            for cin in range(2):
                s, c = bin_fa(bit(a), bit(b), bit(cin))
                assert 2 * c.value + s.value == a + b + cin


# --- mux and unary operators ----------------------------------------------

def test_mux4_routes_by_selector():
    ins = [quit(0), quit(1), quit(2), quit(3)]
    for s in range(4):
        assert mux4(quit(s), *ins).value == s
    assert mux4(quit(0), quit(3), quit(0), quit(0), quit(0)).value == 3


def test_unary_names_encode_outputs():
    for name, table in STANDARD_TABLES.items():
        for x in range(4):
            assert unary_apply(table, quit(x)).value == int(name[x])


def test_unary_spec_examples():
    assert unary_apply(STANDARD_TABLES["0321"], quit(3)).value == 1
    assert unary_apply(STANDARD_TABLES["0202"], quit(0)).value == 0
    assert unary_apply(STANDARD_TABLES["0012"], quit(2)).value == 1


def test_unary_table_validation():
    from mvlmul.core import UnaryTable
    with pytest.raises(LogicError):
        UnaryTable("bad", (0, 1, 2))
    with pytest.raises(LogicError):
        UnaryTable.from_name("0412")


# --- threshold decoder ----------------------------------------------------

def test_decoder_table():
    rows = {0: (3, 3, 3), 1: (0, 3, 3), 2: (0, 0, 3), 3: (0, 0, 0)}
    for x, want in rows.items():
        got = decode_thresholds(quit(x))
        assert tuple(v.value for v in got) == want
        assert all(v.range_max == 3 for v in got)


def test_decoder_staircase_monotone():
    prev = None
    for x in range(4):
        cur = tuple(v.value for v in decode_thresholds(quit(x)))
        if prev is not None:
            assert all(c <= p for c, p in zip(cur, prev))
        prev = cur


# --- kernels and ranges ---------------------------------------------------

def test_evaluate_gate_checks_port_ranges():
    with pytest.raises(LogicError):
        evaluate_gate(GateKind.QFAC2, (1, 1, 3))  # ternary carry port
    with pytest.raises(LogicError):
        evaluate_gate(GateKind.AND, (2, 0))
    with pytest.raises(LogicError):
        evaluate_gate(GateKind.AND, (1,))


def test_evaluate_gate_matches_wrappers():
    assert evaluate_gate(GateKind.QM1, (3, 3)) == (1, 2)
    assert evaluate_gate(GateKind.QFAC2, (3, 3, 2)) == (0, 2)
    assert evaluate_gate(GateKind.DECODER, (2,)) == (0, 0, 3)
    assert evaluate_gate(GateKind.MUX4, (2, 9 % 4, 1, 2, 3)) == (2,)


@pytest.mark.parametrize("kind", list(GateKind), ids=str)
def test_kernels_on_digit_arrays_match_ints(kind):
    # the simulator applies each kernel to one uint8 array per port
    domain = list(product(*(range(hi + 1) for _, hi in PORTS[kind].inputs)))
    columns = np.array(domain, dtype=np.uint8).T
    got = [np.asarray(out).tolist() for out in KERNELS[kind](*columns)]
    want = [list(out) for out in zip(*(KERNELS[kind](*v) for v in domain))]
    assert got == want


@given(st.sampled_from(sorted(PORTS, key=lambda k: k.value)),
       st.data())
def test_output_ranges_are_tight_bounds(kind, data):
    spec = PORTS[kind]
    in_ranges = tuple(
        data.draw(st.integers(1, hi), label=name)
        for name, hi in spec.inputs)
    bounds = output_ranges(kind, in_ranges)
    seen = [0] * len(bounds)
    for vals in product(*(range(r + 1) for r in in_ranges)):
        outs = evaluate_gate(kind, vals)
        for i, o in enumerate(outs):
            assert o <= bounds[i]
            seen[i] = max(seen[i], o)
    assert tuple(seen) == bounds  # tight, not just safe
