"""Single-gate semantics: kernel truth tables, identities, output ranges."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from mvlmul.core import KERNELS, PORTS, output_ranges
from mvlmul.sim import _plan

QM1, QHA, QFAC2, QFAC2WC = (KERNELS[k] for k in (
    "QM1", "QHA", "QFAC2", "QFAC2WC"))


# --- digit multiplier -----------------------------------------------------

# frozen 16-row table: product digit and ternary carry per (a, b)
QMUL1_TABLE = {
    (0, 0): (0, 0), (0, 1): (0, 0), (0, 2): (0, 0), (0, 3): (0, 0),
    (1, 0): (0, 0), (1, 1): (1, 0), (1, 2): (2, 0), (1, 3): (3, 0),
    (2, 0): (0, 0), (2, 1): (2, 0), (2, 2): (0, 1), (2, 3): (2, 1),
    (3, 0): (0, 0), (3, 1): (3, 0), (3, 2): (2, 1), (3, 3): (1, 2),
}

# The paper's digit multiplier: ``a`` drives a 4-way selector over unary
# operators applied to ``b``.  Each operator is named by its outputs for
# b = 0, 1, 2, 3 ("0321" maps 1 to 3 and 3 to 1).
QM1_PRODUCT_OPS = ("0000", "0123", "0202", "0321")
QM1_CARRY_OPS = ("0000", "0000", "0011", "0012")


def _qmul1_mux(a, b):
    # the selector: digit ``a`` picks the operator that is applied to ``b``
    return tuple(int(ops[a][b]) for ops in (QM1_PRODUCT_OPS, QM1_CARRY_OPS))


def test_qmul1_full_table():
    for (a, b), want in QMUL1_TABLE.items():
        assert QM1(a, b) == want, (a, b)


def test_qmul1_arithmetic_identity_and_carry_bound():
    for a, b in product(range(4), repeat=2):
        p, c = QM1(a, b)
        assert 4 * c + p == a * b
        assert c <= 2
    assert output_ranges("QM1", (3, 3)) == (3, 2)


def test_qmul1_mux_composition_matches_direct():
    for a, b in product(range(4), repeat=2):
        assert _qmul1_mux(a, b) == QM1(a, b), (a, b)


def test_unary_names_encode_outputs():
    # row ``a`` of each operator list is the digit-``a`` column of the table
    for a, b in product(range(4), repeat=2):
        assert int(QM1_PRODUCT_OPS[a][b]) == (a * b) % 4, (a, b)
        assert int(QM1_CARRY_OPS[a][b]) == (a * b) // 4, (a, b)
    assert all(len(op) == 4 and set(op) <= set("0123")
               for op in QM1_PRODUCT_OPS + QM1_CARRY_OPS)


def test_unary_spec_examples():
    # "0321" on 3, "0202" on 0 and "0012" on 2, seen through the kernel
    assert int("0321"[3]) == QM1(3, 3)[0] == 1
    assert int("0202"[0]) == QM1(2, 0)[0] == 0
    assert int("0012"[2]) == QM1(3, 2)[1] == 1


def test_qmul1_spec_rows():
    assert QM1(3, 3) == (1, 2)
    assert QM1(2, 3) == (2, 1)
    for b in range(4):
        assert QM1(0, b) == (0, 0)


# --- adders ---------------------------------------------------------------

def test_qfac2_exhaustive_mod_div():
    for a, b, cin in product(range(4), range(4), range(3)):
        t = a + b + cin
        assert QFAC2(a, b, cin) == (t % 4, t // 4)
    assert output_ranges("QFAC2", (3, 3, 2)) == (3, 2)


def test_qfac2_examples():
    assert QFAC2(3, 3, 2) == (0, 2)
    assert QFAC2(0, 0, 0) == (0, 0)


def test_qfac2wc_is_sum_only():
    for a, b, cin in product(range(4), range(4), range(3)):
        assert QFAC2WC(a, b, cin) == ((a + b + cin) % 4,)


def test_qha_exhaustive():
    for a, b in product(range(4), repeat=2):
        assert QHA(a, b) == ((a + b) % 4, (a + b) // 4)
    assert output_ranges("QHA", (3, 3)) == (3, 1)
    assert QHA(3, 3) == (2, 1)
    assert QHA(1, 2) == (3, 0)


def test_binary_cells():
    and2, ha, fa = (KERNELS[k] for k in (
        "AND", "BIN_HA", "BIN_FA"))
    assert fa(1, 1, 1) == (1, 1)
    assert ha(1, 1) == (0, 1)
    assert and2(1, 0) == (0,)
    for a, b in product(range(2), repeat=2):
        assert and2(a, b) == (a & b,)
        s, c = ha(a, b)
        assert 2 * c + s == a + b
        for cin in range(2):
            s, c = fa(a, b, cin)
            assert 2 * c + s == a + b + cin


# --- kernels and ranges ---------------------------------------------------

@pytest.mark.parametrize("kind", list(PORTS), ids=str)
def test_kernels_on_digit_arrays_match_ints(kind):
    # the simulator fires each cell through a plan compiled from its
    # PORTS row: one int per wire bit, one bit per vector.  Every input
    # range the ports admit, with the output ranges the generator would
    # declare, over the whole domain at once.
    for in_ranges in product(*(range(1, hi + 1) for _, hi in
                               PORTS[kind].inputs)):
        domain = list(product(*(range(r + 1) for r in in_ranges)))
        ins = [tuple(sum((v[k] >> b & 1) << j for j, v in enumerate(domain))
                     for b in range(r.bit_length()))
               for k, r in enumerate(in_ranges)]
        fire = _plan(kind, in_ranges, output_ranges(kind, in_ranges))
        got = fire(*ins)
        for j, v in enumerate(domain):
            assert tuple(sum((p >> j & 1) << b for b, p in enumerate(port))
                         for port in got) == KERNELS[kind](*v), (in_ranges, v)


@given(st.sampled_from(sorted(PORTS)),
       st.data())
def test_output_ranges_are_tight_bounds(kind, data):
    spec = PORTS[kind]
    in_ranges = tuple(
        data.draw(st.integers(1, hi), label=name)
        for name, hi in spec.inputs)
    bounds = output_ranges(kind, in_ranges)
    seen = [0] * len(bounds)
    for vals in product(*(range(r + 1) for r in in_ranges)):
        outs = KERNELS[kind](*vals)
        for i, o in enumerate(outs):
            assert o <= bounds[i]
            seen[i] = max(seen[i], o)
    assert tuple(seen) == bounds  # tight, not just safe
