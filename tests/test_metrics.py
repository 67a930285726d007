"""Area, timing presets, critical paths, comparison reports."""

import json
import weakref

import pytest
from hypothesis import given, strategies as st

from conftest import disjoint_union, scaled_timing, with_gate
from mvlmul import gen_multiplier
from mvlmul.metrics import (CostLibrary, LibraryError, TimingLibrary,
                            area_estimate, compare, critical_path,
                            default_cost_library, timing_preset)
from mvlmul.netlist import Netlist, NetlistError


# --- cost library -----------------------------------------------------------

def test_default_costs():
    lib = default_cost_library()
    assert lib.lookup("AND") == 8.9
    assert lib.lookup("BIN_HA") == 18.0
    assert lib.lookup("BIN_FA") == 32.0
    assert lib.lookup("QHA") == 83.0
    assert lib.lookup("QFAC2") == 227.0
    assert lib.lookup("QFAC2WC") == 227.0
    assert lib.lookup("QM1") == 132.0
    assert lib.lookup("QFAC2") / lib.lookup("BIN_FA") == \
        pytest.approx(7.09, abs=0.01)


def test_area_linear_sums(b2, b8, q4):
    lib = default_cost_library()
    assert area_estimate(b2, lib) == pytest.approx(71.6)      # 4*8.9 + 2*18
    assert area_estimate(b8, lib) == pytest.approx(2361.6)
    assert area_estimate(q4, lib) == pytest.approx(7521.0)


def test_area_empty_netlist_is_zero():
    net = Netlist(radix=2, width=1, wires={"x0": 1, "y0": 1}, gates=[],
                  primary_inputs=["x0", "y0"], primary_outputs=["x0"])
    assert area_estimate(net, default_cost_library()) == 0.0


def test_area_missing_entry_raises(b2):
    lib = CostLibrary(name="thin", sigma_di={"AND": 8.9})
    with pytest.raises(LibraryError):
        area_estimate(b2, lib)


def test_area_additive_over_disjoint_union(b4, q2):
    lib = default_cost_library()
    u = disjoint_union(b4, q2)
    assert area_estimate(u, lib) == pytest.approx(
        area_estimate(b4, lib) + area_estimate(q2, lib))


def test_cost_library_json_round_trip():
    lib = default_cost_library()
    again = CostLibrary.from_json(lib.to_json())
    assert again.sigma_di == lib.sigma_di


# --- critical path ------------------------------------------------------------

def test_reference_path_delays(b8, q4):
    assert critical_path(b8, timing_preset("binary-0.9v")).delay_ps == \
        pytest.approx(312.0, abs=1e-6)
    assert critical_path(b8, timing_preset("binary-0.45v")).delay_ps == \
        pytest.approx(799.0, abs=1e-6)
    assert critical_path(q4, timing_preset("quaternary-0.9v")) \
        .delay_ps == pytest.approx(646.0, abs=1e-6)


def test_quaternary_path_structure(q4):
    cp = critical_path(q4, timing_preset("quaternary-0.9v"))
    assert cp.kinds == ["QFAC2"] * 4 + ["QHA", "QFAC2", "QFAC2WC"]


def test_binary_path_cells(b8):
    cp = critical_path(b8, timing_preset("binary-0.9v"))
    assert len(cp.gates) == 15  # 4 tree cells + 11-cell ripple chain


def test_reference_path_gate_ids(b8, q4):
    # pins the tie-break: among equally late paths the smallest
    # (gate id, port) is taken at every step
    assert critical_path(b8, timing_preset("binary-0.9v")).gates == [
        "g00064", "g00080", "g00096", "g00105"] + [
        f"g{k:05d}" for k in range(116, 127)]
    assert critical_path(q4, timing_preset("quaternary-0.9v")).gates == [
        "g00016", "g00024", "g00032", "g00036", "g00040", "g00041",
        "g00042"]


def test_single_gate_netlist_reports_that_gates_delay(b1):
    # b1 is one AND, priced here with the digit stage on the path
    lib = TimingLibrary("and", {("AND", "y"): 12.5})
    assert critical_path(b1, lib, exclude_kinds=()) == (12.5, ["g00000"],
                                                        ["AND"])


def test_longer_chains_never_get_faster():
    # each wider design adds tree and ripple cells to its worst path
    lib = timing_preset("quaternary-0.9v")
    delays = [critical_path(gen_multiplier(4, w), lib).delay_ps
              for w in range(1, 9)]
    assert delays == sorted(delays) and delays[0] < delays[1]
    assert delays[3] == pytest.approx(646.0)
    assert delays[-1] == pytest.approx(15 * 646 / 7)


@given(st.integers(-4, 4).filter(lambda e: e != 0))
def test_scaling_leaves_the_argmax_path_alone(q4, e):
    lib = timing_preset("quaternary-0.9v")
    k = 2.0 ** e  # dyadic scaling is exact in floats
    scaled = scaled_timing(lib, k)
    base = critical_path(q4, lib)
    after = critical_path(q4, scaled)
    assert after.gates == base.gates
    assert after.delay_ps == pytest.approx(base.delay_ps * k)


def test_frontend_kinds_can_be_included(q1):
    lib = timing_preset("quaternary-0.9v")
    assert critical_path(q1, lib).delay_ps == 0.0
    cp = critical_path(q1, lib, exclude_kinds=())
    assert cp.delay_ps == pytest.approx(118.0)
    assert cp.kinds == ["QM1"]


def test_missing_timing_entry_raises(b2):
    lib = TimingLibrary(name="thin", delays={("AND", "y"): 0.0})
    with pytest.raises(LibraryError):
        critical_path(b2, lib)


def test_timing_library_delay_names_a_missing_entry():
    lib = TimingLibrary(name="thin", delays={})
    with pytest.raises(LibraryError, match=r"^timing library 'thin' has no "
                       r"entry for AND\.y$"):
        lib.delay("AND", "y")


def test_critical_path_of_no_gates_is_empty():
    net = Netlist(radix=2, width=1, wires={"x0": 1, "y0": 1}, gates=[],
                  primary_inputs=["x0", "y0"], primary_outputs=["x0"])
    cp = critical_path(net, timing_preset("binary-0.9v"))
    assert cp == (0.0, [], [])


def test_critical_path_names_a_gate_read_before_its_driver(
        b8_last_gate_first):
    # b8 with its last gate moved first was priced at 291.2 ps, not 312
    with pytest.raises(NetlistError, match="^gate g00126 reads wire n00167 "
                       "before the gate that drives it$"):
        critical_path(b8_last_gate_first, timing_preset("binary-0.9v"))


def test_critical_path_names_a_gate_reading_its_own_output(b8):
    g = b8.gates[0]
    net = with_gate(b8, g.id, inputs=(g.outputs[0], *g.inputs[1:]))
    with pytest.raises(NetlistError, match=f"^gate {g.id} reads wire "
                       f"{g.outputs[0]} before the gate that drives it$"):
        critical_path(net, timing_preset("binary-0.9v"))


def test_critical_path_names_unknown_kind(q4):
    net = with_gate(q4, "g00000", kind="QFA2")
    with pytest.raises(NetlistError,
                       match="^gate g00000 has unknown kind 'QFA2'$"):
        critical_path(net, timing_preset("quaternary-0.9v"))


def test_timing_library_require_names_unknown_kind(q2):
    # called directly, it raised a bare KeyError('QFA2')
    net = with_gate(q2, "g00000", kind="QFA2")
    with pytest.raises(NetlistError,
                       match="^gate g00000 has unknown kind 'QFA2'$"):
        timing_preset("quaternary-0.9v").require(net)


def test_critical_path_names_miscounted_gate(q2):
    # a second output on the last gate raised a bare IndexError
    g = q2.gates[-1]
    net = with_gate(q2, g.id, outputs=(*g.outputs, q2.primary_outputs[0]))
    with pytest.raises(NetlistError, match=r"^gate g00008 \(QFAC2WC\) has "
                       r"3 in / 2 out, not 3 / 1$"):
        critical_path(net, timing_preset("quaternary-0.9v"))


def test_critical_path_names_gate_with_too_few_ports(q2):
    # the last gate cut to its first input gave a 276.9 ps path over
    # g00004, g00006 and g00007, where the sound q2 reads 369.1 ps
    g = q2.gates[-1]
    net = with_gate(q2, g.id, inputs=g.inputs[:1])
    with pytest.raises(NetlistError, match=r"^gate g00008 \(QFAC2WC\) has "
                       r"1 in / 1 out, not 3 / 1$"):
        critical_path(net, timing_preset("quaternary-0.9v"))


def test_timing_library_json_round_trip():
    lib = timing_preset("quaternary-0.9v")
    again = TimingLibrary.from_json(lib.to_json())
    assert again.delays == lib.delays
    assert again.name == lib.name


@pytest.mark.parametrize("cls,text,message", [
    (CostLibrary, '{"sigma_di": {"AND": "8.9"}}',
     "area for AND must be a number, got '8.9'"),
    (CostLibrary, '{"sigma_di": {"QM1": true}}',
     "area for QM1 must be a number, got True"),
    (TimingLibrary, '{"delays": {"QM1.carry": false}}',
     "delay for QM1.carry must be a number, got False"),
    (TimingLibrary, '{"delays": {"QM1": 0}}',
     "timing key 'QM1' is not QM1.<output port>"),
    (TimingLibrary, '{"delays": {"QM1.sum": 1.0}}',
     "timing key 'QM1.sum' is not QM1.<output port>"),
    # Python's words ("'list' object has no attribute 'get'", KeyError:
    # 'delays') named no field, and a name of 5 was accepted
    (CostLibrary, "[]",
     "malformed cost library: the document is not an object"),
    (CostLibrary, "{}",
     "malformed cost library: the document has no sigma_di"),
    (CostLibrary, '{"sigma_di": []}',
     "malformed cost library: sigma_di is not an object"),
    (CostLibrary, '{"name": 5, "sigma_di": {}}',
     "malformed cost library: name 5 is not a string"),
    (CostLibrary, '{"sigma_di": {"NAND": 1}}',
     "malformed cost library: 'NAND' is not a gate kind"),
    (TimingLibrary, "[]",
     "malformed timing library: the document is not an object"),
    (TimingLibrary, "{}",
     "malformed timing library: the document has no delays"),
    (TimingLibrary, '{"delays": []}',
     "malformed timing library: delays is not an object"),
    (TimingLibrary, '{"name": 5, "delays": {}}',
     "malformed timing library: name 5 is not a string"),
    (TimingLibrary, '{"delays": {"NAND.y": 1}}',
     "malformed timing library: 'NAND' is not a gate kind"),
], ids=["cost-str", "cost-bool", "timing-bool", "timing-no-port",
        "timing-wrong-port", "cost-list", "cost-empty", "cost-section-list",
        "cost-name-int", "cost-kind", "timing-list", "timing-empty",
        "timing-section-list", "timing-name-int", "timing-kind"])
def test_library_values_and_keys_are_strict(cls, text, message):
    with pytest.raises(LibraryError) as err:
        cls.from_json(text)
    assert str(err.value) == message


def test_libraries_with_dropped_keys_still_load(b8, q4):
    # documents as earlier versions wrote them, with a nanotube diameter
    # table and a load note that nothing reads; both keys are ignored
    cost = default_cost_library()
    old_cost = {**json.loads(cost.to_json()), "diameters": [
        {"n": 8, "diameter_nm": 0.626, "vth_v": 0.696},
        {"n": 10, "diameter_nm": 0.783, "vth_v": 0.557}]}
    again = CostLibrary.from_json(json.dumps(old_cost, indent=2))
    for net, timing, size in ((b8, timing_preset("binary-0.9v"), "8x8"),
                              (q4, timing_preset("quaternary-0.9v"), "4x4")):
        doc = json.loads(timing.to_json())
        old_timing = {"name": doc["name"],
                      "load_note": f"2fF, calibrated to the {size} "
                                   "aggregate worst path",
                      "delays": doc["delays"]}
        loaded = TimingLibrary.from_json(json.dumps(old_timing, indent=2))
        assert area_estimate(net, again) == area_estimate(net, cost)
        assert critical_path(net, loaded) == critical_path(net, timing)


# --- comparison ------------------------------------------------------------

def _preset_pairs(all_designs):
    cost = default_cost_library()
    bl = timing_preset("binary-0.9v")
    ql = timing_preset("quaternary-0.9v")
    return {
        "1v2": compare(cost, [("q1", all_designs[(4, 1)], ql),
                              ("b2", all_designs[(2, 2)], bl)]),
        "2v4": compare(cost, [("q2", all_designs[(4, 2)], ql),
                              ("b4", all_designs[(2, 4)], bl)]),
        "4v8": compare(cost, [("q4", all_designs[(4, 4)], ql),
                              ("b8", all_designs[(2, 8)], bl)]),
    }


def test_head_to_head_area_ratios(all_designs):
    reps = _preset_pairs(all_designs)
    assert reps["1v2"].pair_ratios[0]["area_ratio"] == \
        pytest.approx(1.9, rel=0.10)
    assert reps["2v4"].pair_ratios[0]["area_ratio"] == \
        pytest.approx(2.8, rel=0.10)
    assert reps["4v8"].pair_ratios[0]["area_ratio"] == \
        pytest.approx(3.2, rel=0.10)


def test_flagship_delay_row(all_designs):
    rep = _preset_pairs(all_designs)["4v8"]
    d = {m.label: m.delay_ps for m in rep.designs}
    assert d["q4"] == pytest.approx(646.0)
    assert d["b8"] == pytest.approx(312.0)
    assert rep.pair_ratios[0]["delay_ratio"] == pytest.approx(2.07, abs=0.01)


def test_component_ratio_block(all_designs):
    rep = _preset_pairs(all_designs)["4v8"]
    cr = rep.component_ratios
    assert cr["ha_area_ratio"] == pytest.approx(83 / 18)
    assert cr["fa_area_ratio"] == pytest.approx(227 / 32)
    assert cr["ha_count_ratio"] == pytest.approx(5 / 16)
    assert cr["fa_count_ratio"] == pytest.approx(22 / 47)


def test_self_compare_is_unity(q4):
    cost = default_cost_library()
    ql = timing_preset("quaternary-0.9v")
    rep = compare(cost, [("a", q4, ql), ("b", q4, ql)])
    assert rep.pair_ratios[0]["area_ratio"] == pytest.approx(1.0)
    assert rep.pair_ratios[0]["delay_ratio"] == pytest.approx(1.0)


def test_report_renders(all_designs):
    rep = _preset_pairs(all_designs)["4v8"]
    md = rep.to_markdown()
    assert "| q4 |" in md and "x3.18" in md
    csv = rep.to_csv()
    assert "pair,q4 vs b8.area_ratio,3.18471" in csv
    js = rep.to_json()
    assert '"component_ratios"' in js


def test_compare_needs_two(q4):
    with pytest.raises(ValueError):
        compare(default_cost_library(),
                [("solo", q4, timing_preset("quaternary-0.9v"))])
    # a generator too, though the design is priced before the raise
    with pytest.raises(ValueError, match="^compare needs at least two "
                       "designs$"):
        compare(default_cost_library(),
                (d for d in [("solo", q4, timing_preset("quaternary-0.9v"))]))


def test_compare_lets_each_netlist_go_before_the_next():
    # compare held every netlist of its designs until the last was priced
    cost, held, refs = default_cost_library(), [], []

    def designs():
        for label, radix, width in (("q2", 4, 2), ("b4", 2, 4), ("q1", 4, 1)):
            held.append([r() is not None for r in refs])
            net = gen_multiplier(radix, width)
            refs.append(weakref.ref(net))
            yield label, net, timing_preset(
                {2: "binary-0.9v", 4: "quaternary-0.9v"}[radix])
            del net
    rep = compare(cost, designs())
    assert held == [[], [False], [False, False]]
    assert [d.label for d in rep.designs] == ["q2", "b4", "q1"]
    assert rep.to_json() == compare(cost, [
        ("q2", gen_multiplier(4, 2), timing_preset("quaternary-0.9v")),
        ("b4", gen_multiplier(2, 4), timing_preset("binary-0.9v")),
        ("q1", gen_multiplier(4, 1), timing_preset("quaternary-0.9v"))
    ]).to_json()
