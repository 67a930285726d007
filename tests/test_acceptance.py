"""Acceptance suite: one test per criterion clause, with PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -rxX -s`` to see every
line.  Two clauses are marked xfail(strict): the reference gate totals
for the 4x4-bit design and the tree/final-add split for the 8x8-bit
design are not constructible from the available cell set (see the
reasons on the marks); the generator's actual, verified counts are
asserted in test_netgen.py.
"""

import random
import time

import pytest

from conftest import disjoint_union, scaled_timing
from mvlmul import (compare, critical_path, default_cost_library, evaluate,
                    gen_multiplier, timing_preset, verify_exhaustive,
                    verify_random)
from mvlmul.core import PORTS
from mvlmul.metrics import area_estimate


def note(criterion, ok, text):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


# -- 1. functional correctness ----------------------------------------------

def test_criterion_1_oracle_equivalence(all_designs):
    t0 = time.time()
    for key in ((2, 2), (2, 4), (2, 8), (4, 1), (4, 2), (4, 4)):
        net = all_designs[key]
        space = (net.radix ** net.width) ** 2
        assert space <= 65536
        report = verify_exhaustive(net)
        note(1, report.passed and report.vectors_tested == space,
             f"gen{key}: {report.vectors_tested} vectors, "
             f"{len(report.mismatches)} mismatches")
    elapsed = time.time() - t0
    note(1, elapsed < 60.0, f"exhaustive sweep took {elapsed:.1f}s (< 60s)")


def test_criterion_1_digit_multiplier_table(q1):
    # all 16 rows of the 1-digit quaternary multiplier
    for a in range(4):
        for b in range(4):
            got = evaluate(q1, {"x0": a, "y0": b})
            assert got == [(a * b) % 4, (a * b) // 4], (a, b)
    note(1, True, "1x1 quit multiplier matches all 16 table rows")


# -- 2. gate inventories -----------------------------------------------------

@pytest.mark.xfail(
    strict=True, reason=(
        "reference totals {16 AND, 7 FA, 6 HA} are not constructible: "
        "16 partial products collapsing to 8 product bits force 8 FAs "
        "(or 7 FAs plus a dropped top carry, which costs at least 8 HAs "
        "by exhaustive schedule search); the generator emits the minimal "
        "{16 AND, 8 FA, 4 HA}"))
def test_criterion_2_binary_4x4(b4):
    inv = b4.inventory()
    note(2, inv == {"AND": 16, "BIN_FA": 7, "BIN_HA": 6},
         f"gen(2,4) inventory {inv} == {{16 AND, 7 FA, 6 HA}}")


def test_criterion_2_binary_8x8_totals(b8):
    inv = b8.inventory()
    note(2, inv == {"AND": 64, "BIN_FA": 47, "BIN_HA": 16},
         f"gen(2,8) inventory {inv} == {{64 AND, 47 FA, 16 HA}}")


@pytest.mark.xfail(
    strict=True, reason=(
        "a tree split of {38 FA, 15 HA} with a {9 FA, 1 HA} final add "
        "cannot coexist with the exact 47 FA / 16 HA totals: the top "
        "product column always needs an eleventh final-add cell to merge "
        "two mutually exclusive carries; the generator keeps the totals "
        "exact with tree {38 FA, 14 HA} and final add {9 FA, 2 HA}"))
def test_criterion_2_binary_8x8_splits(b8):
    tree = b8.stats["tree_inventory"]
    cpa = b8.stats["final_add_inventory"]
    note(2, tree == {"BIN_FA": 38, "BIN_HA": 15}
         and cpa == {"BIN_FA": 9, "BIN_HA": 1},
         f"gen(2,8) tree {tree} == {{38,15}} and final add {cpa} == {{9,1}}")


def test_criterion_2_quaternary(q4):
    inv = q4.inventory()
    qf_incl_wc = inv.get("QFAC2", 0) + inv.get("QFAC2WC", 0)
    ok = inv.get("QM1") == 16 and qf_incl_wc == 22 and inv.get("QHA") == 5
    note(2, ok, f"gen(4,4) inventory {inv}: 16 QM1, "
         f"{qf_incl_wc} QFAC2 incl WC, {inv.get('QHA')} QHA")


# -- 3. area reproduction ----------------------------------------------------

AREA_TARGETS = {(2, 2): 71.0, (4, 1): 132.0, (2, 8): 2377.0, (4, 4): 7530.0}
RATIO_TARGETS = (((4, 1), (2, 2), 1.9), ((4, 2), (2, 4), 2.8),
                 ((4, 4), (2, 8), 3.2))


def test_criterion_3_absolute_areas(all_designs):
    lib = default_cost_library()
    for key, target in AREA_TARGETS.items():
        got = area_estimate(all_designs[key], lib)
        rel = abs(got - target) / target
        note(3, rel <= 0.02,
             f"gen{key} area {got:.1f} nm within 2% of {target} "
             f"({100 * rel:.2f}%)")


def test_criterion_3_pairwise_ratios(all_designs):
    lib = default_cost_library()
    for qkey, bkey, target in RATIO_TARGETS:
        ratio = (area_estimate(all_designs[qkey], lib)
                 / area_estimate(all_designs[bkey], lib))
        rel = abs(ratio - target) / target
        note(3, rel <= 0.10,
             f"area ratio gen{qkey}/gen{bkey} = x{ratio:.2f} within 10% "
             f"of x{target}")


# -- 4. critical-path composition ---------------------------------------------

def test_criterion_4_calibrated_delays(b8, q4):
    checks = ((b8, timing_preset("binary-0.9v"), 312.0),
              (b8, timing_preset("binary-0.45v"), 799.0),
              (q4, timing_preset("quaternary-0.9v"), 646.0))
    for net, lib, target in checks:
        got = critical_path(net, lib).delay_ps
        note(4, abs(got - target) <= 1.0,
             f"radix-{net.radix} {net.width}x{net.width} @ {lib.name}: "
             f"{got:.3f} ps within 1 ps of {target}")


def test_criterion_4_quaternary_path_structure(q4):
    cp = critical_path(q4, timing_preset("quaternary-0.9v"))
    kinds = cp.kinds
    ok = kinds == ["QFAC2"] * 4 + ["QHA", "QFAC2", "QFAC2WC"]
    note(4, ok, f"quaternary worst path {kinds}: 4 QFAC2 in the tree, "
         "then QHA + QFAC2 + QFAC2WC in the final add")


# -- 5. property suite ---------------------------------------------------------

def test_criterion_5_random_vectors_and_ranges(all_designs):
    # every evaluation range-checks every internal wire; a mismatch or a
    # range escape would fail the report
    for key, net in sorted(all_designs.items()):
        report = verify_random(net, 10000, seed=20240 + key[0] * 10 + key[1])
        note(5, report.passed,
             f"gen{key}: 10000 seeded vectors, ranges respected, "
             f"{len(report.mismatches)} mismatches")


def test_criterion_5_carry_port_discipline(all_designs):
    for key, net in sorted(all_designs.items()):
        for g in net.gates:
            for (pname, pmax), wid in zip(PORTS[g.kind].inputs, g.inputs):
                assert net.wires[wid] <= pmax
    note(5, True, "no wire overfills any input port (carry ports included)")


def test_criterion_5_stage_counts(b8, q4):
    note(5, b8.stats["stages"] == 4 and q4.stats["stages"] == 4,
         f"8-row trees reduce in exactly 4 stages "
         f"(binary {b8.stats['stages']}, quaternary {q4.stats['stages']})")


def test_criterion_5_area_linearity():
    rng = random.Random(5)
    lib = default_cost_library()
    for _ in range(8):
        ra, wa = rng.choice([2, 4]), rng.randint(1, 5)
        rb, wb = rng.choice([2, 4]), rng.randint(1, 5)
        a, b = gen_multiplier(ra, wa), gen_multiplier(rb, wb)
        u = disjoint_union(a, b)
        assert area_estimate(u, lib) == pytest.approx(
            area_estimate(a, lib) + area_estimate(b, lib))
    note(5, True, "area is additive over disjoint unions (8 random pairs)")


def test_criterion_5_scaling_argmax_invariance():
    rng = random.Random(55)
    for _ in range(8):
        radix, width = rng.choice([2, 4]), rng.randint(2, 5)
        net = gen_multiplier(radix, width)
        lib = timing_preset("quaternary-0.9v" if radix == 4
                            else "binary-0.9v")
        k = 2.0 ** rng.randint(-3, 4)
        base = critical_path(net, lib)
        scaled = critical_path(net, scaled_timing(lib, k))
        assert scaled.gates == base.gates
        assert scaled.delay_ps == pytest.approx(base.delay_ps * k)
    note(5, True, "scaling every delay by k scales the path by k and "
         "keeps the argmax path (8 random designs)")


# -- 6. component ratio table ---------------------------------------------------

def test_criterion_6_component_ratios(q4, b8):
    lib = default_cost_library()
    rep = compare(lib, [("4x4 quit", q4, timing_preset("quaternary-0.9v")),
                        ("8x8 bit", b8, timing_preset("binary-0.9v"))])
    cr = rep.component_ratios
    targets = {"ha_area_ratio": 4.6, "fa_area_ratio": 7.1,
               "ha_count_ratio": 0.31, "fa_count_ratio": 0.47}
    for key, target in targets.items():
        got = cr[key]
        rel = abs(got - target) / target
        note(6, rel <= 0.02,
             f"{key} = {got:.4f} within 2% of {target}")
