"""Netlist structure: validation, JSON round trips, violations."""

import copy
import hashlib
import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (EVERY_VIOLATION, FIRST_FAULTS, disjoint_union,
                      with_driver, with_gate, with_wire)
from mvlmul import gen_multiplier, netlist
from mvlmul.core import PORTS
from mvlmul.metrics import critical_path, timing_preset
from mvlmul.netlist import (GateInstance, Netlist, NetlistError, Violation,
                            validate_netlist, walk)
from mvlmul.sim import evaluate, verify_exhaustive, verify_random
from mvlmul.spice import export_spice


def _codes(violations):
    return {v.code for v in violations}


def test_generated_netlists_validate(all_designs):
    for net in all_designs.values():
        assert validate_netlist(net) == []


def test_json_round_trip(q4):
    text = q4.to_json()
    again = Netlist.from_json(text)
    assert again.to_json() == text
    assert again.inventory() == q4.inventory()
    assert again.primary_outputs == q4.primary_outputs
    assert validate_netlist(again) == []


def test_wires_round_trip_as_exact_ranges(all_designs):
    # each wire is its id and its range_max, with no record that could
    # name another id than its key and be written out as that one
    for net in all_designs.values():
        again = Netlist.from_json(net.to_json())
        assert again.wires == net.wires
        assert {type(r) for r in [*net.wires.values(),
                                  *again.wires.values()]} == {int}
        assert validate_netlist(again) == []


def test_json_rejects_garbage():
    with pytest.raises(NetlistError):
        Netlist.from_json("not json at all {")
    with pytest.raises(NetlistError):
        Netlist.from_json('{"format": "something-else", "version": 1}')
    with pytest.raises(NetlistError):
        Netlist.from_json('{"format": "mvl-netlist", "version": 99}')


@pytest.mark.parametrize("version", [True, 1.0, "1", None],
                         ids=["true", "float", "string", "null"])
def test_json_version_is_the_integer_1(q1, version):
    # 1.0 and true equal 1 in Python: both used to load as version 1
    doc = json.loads(q1.to_json())
    doc["version"] = version
    with pytest.raises(NetlistError) as e:
        Netlist.from_json(json.dumps(doc))
    assert str(e.value) == f"unsupported version {version!r}"


@pytest.mark.parametrize("text", ["[1, 2]", '"mvl-netlist"', "3", "null"])
def test_json_rejects_non_object_documents(text):
    with pytest.raises(NetlistError, match="not a netlist document"):
        Netlist.from_json(text)


def _reference_json(net):
    """The document as dicts through ``json.dumps``: what
    ``Netlist.to_json`` must write, byte for byte."""
    doc = {
        "format": "mvl-netlist",
        "version": 1,
        "radix": net.radix,
        "width": net.width,
        "inputs": list(net.primary_inputs),
        "outputs": list(net.primary_outputs),
        "wires": [{"id": w, "range_max": r} for w, r in net.wires.items()],
        "gates": [{"id": g.id, "kind": g.kind,
                   "inputs": list(g.inputs), "outputs": list(g.outputs)}
                  for g in net.gates],
    }
    if net.stats:
        doc["meta"] = net.stats
    return json.dumps(doc, indent=2) + "\n"


def test_to_json_matches_json_dumps(all_designs):
    for net in [*all_designs.values(), gen_multiplier(2, 32),
                gen_multiplier(4, 16)]:
        assert net.to_json() == _reference_json(net)


def _odd(wires=(), gates=(), ins=(), outs=(), stats=None):
    return Netlist(radix=4, width=1, wires=dict(wires),
                   gates=list(gates), primary_inputs=list(ins),
                   primary_outputs=list(outs), stats=stats or {})


ODD_IDS = ['a"b', "c\\d", "e\tf", "\u00e9t\u00e9", "\U0001d465"]


@pytest.mark.parametrize("net", [
    _odd(),
    _odd(wires={"x0": 3}, ins=["x0"]),
    _odd(gates=[GateInstance("g0", "QM1", (), ())], outs=["p0"]),
    _odd(wires=dict.fromkeys(ODD_IDS, 3),
         gates=[GateInstance(i, "QM1", tuple(ODD_IDS[:2]), (i,))
                for i in ODD_IDS], ins=ODD_IDS, outs=ODD_IDS[::-1]),
    _odd(wires={"x0": 3},
         stats={"stages": 2, "tree": {"QFA": 3, "rows": [4, 3, [2, []]]},
                "note": "two\nlines", "empty": {}, "ratio": 0.1,
                "flags": [True, None, {"a\nb": ["c\nd"]}]}),
], ids=["empty", "no-gates", "no-wires", "odd-ids", "nested-meta"])
def test_to_json_matches_json_dumps_on_edge_cases(net):
    assert net.to_json() == _reference_json(net)


@pytest.mark.parametrize("radix, width, sha256", [
    (2, 8, "783ee11f4c0df02b1ffce9cbeba77849c794a64504cf8c35b2d900332667579b"),
    (4, 4, "56f10fa8de91a9a0d044ba676081c51b09951f8333d9d67c72c2cd808ded275f"),
    (2, 1, "c83911886845061acbbcd9c26a7ecfb4b1c52c20011c9f828960bfe8911839e7"),
    (2, 5, "0f132fa8f125281e06809d15f582356ad3d2a576de418ef215ee3cb3c9a13eed"),
    (2, 32, "a74f1f7930b81ea9bb181a32a12116a6bb50e843f1649d1d0839d7810a17d2ba"),
    (4, 1, "3de9dfe0dfcd56daaad4bfe768c6aa4d327a9f948c88c776583f0b6301e328c7"),
    (4, 2, "9eb670f460534ac576f5e4af38746bd868cd5eb6a50a24276737f31487603be2"),
    (4, 3, "eb2e4f99fc27adf9482fff9952ecde0b8972072d5d986abc98c7950fe452093b"),
    (4, 5, "0d66328db2c4571f23bcd2466abb940560fcf121fc4977178a0e1fe233ec4f2c"),
    (4, 16, "7af8859173ff73c0a51831c516f5ac7274fac803ba328a6298964a95f65a7fc8"),
    (2, 128, "2d8ee84e0f3d1791c08ce57dc373181a61fb289807774a70559a64cd4b838561"),
    (4, 64, "c2363cbea0b57b630b99a3ab1a055531f08a55b96fac8352986e3db903743723"),
])
def test_netlist_json_bytes_pinned(radix, width, sha256):
    text = gen_multiplier(radix, width).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


@pytest.mark.parametrize("what, corrupt", [
    ("wire id", lambda d: d["wires"][0].update(id=0)),
    ("gate id", lambda d: d["gates"][0].update(id=7)),
    ("gate port wire", lambda d: d["gates"][0]["inputs"].__setitem__(1, 1)),
    ("gate port wire", lambda d: d["gates"][0]["outputs"].__setitem__(0, [])),
    ("primary input", lambda d: d["inputs"].__setitem__(0, 0.5)),
    ("primary output", lambda d: d["outputs"].__setitem__(1, None)),
], ids=["wire", "gate", "gate-input", "gate-output", "input", "output"])
def test_from_json_rejects_non_string_ids(q1, what, corrupt):
    doc = json.loads(q1.to_json())
    corrupt(doc)
    with pytest.raises(NetlistError, match=f"{what} .* is not a string"):
        Netlist.from_json(json.dumps(doc))


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: d["wires"][40].update(range_max=3.7),
     "wire range_max 3.7 of wire 'n00024' is not an integer"),
    (lambda d: d["gates"][70]["inputs"].__setitem__(0, 1),
     "gate port wire 1 of gate 'g00070' is not a string"),
    (lambda d: d["gates"][70]["outputs"].__setitem__(1, None),
     "gate port wire None of gate 'g00070' is not a string"),
    (lambda d: d["gates"][70].update(id=7),
     "gate id 7 of gate 70 is not a string"),
    # two faults: the type checks ran by category after reading, and so
    # named the gate id, though wire 40 is read first
    (lambda d: (d["wires"][40].update(range_max=3.7),
                d["gates"][70].update(id=7)),
     "wire range_max 3.7 of wire 'n00024' is not an integer"),
], ids=["wire-range", "gate-input", "gate-output", "gate-id",
        "first-in-reading-order"])
def test_from_json_type_errors_name_the_entry(b8, corrupt, message):
    # the value alone named no wire or gate: by id once read, else by index
    doc = json.loads(b8.to_json())
    corrupt(doc)
    with pytest.raises(NetlistError) as e:
        Netlist.from_json(json.dumps(doc))
    assert str(e.value) == f"malformed netlist document: {message}"


@pytest.mark.parametrize("range_max", [3, 2], ids=["same", "narrower"])
def test_from_json_rejects_repeated_wire_ids(q4, range_max):
    # the last entry won: the wire's range changed without an error
    doc = json.loads(q4.to_json())
    y = next(w for w in doc["wires"] if w["id"] == "y0")
    doc["wires"].append({"id": "y0", "range_max": range_max})
    assert y["range_max"] == 3
    with pytest.raises(NetlistError, match="wire id 'y0' is repeated"):
        Netlist.from_json(json.dumps(doc))


#: a wrong JSON value of each type, for any field or array item
_WRONG = (None, 0, 1.5, True, "x0", [1], {"id": "x0"})


def _places(doc):
    """(container, key) of every field and array item of ``doc``."""
    places, todo = [], [doc]
    while todo:
        obj = todo.pop()
        keys = (obj if type(obj) is dict
                else range(len(obj)) if type(obj) is list else ())
        places += [(obj, k) for k in keys]
        todo += [obj[k] for k in keys]
    return places


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 999), st.sampled_from(
    ["delete", "repeat-wire", *range(len(_WRONG))])), min_size=1, max_size=2))
def test_any_fault_is_named_or_read(q1, faults):
    # each fault is a deleted field or item, a wrong value (a non-object
    # entry among them) or a repeated wire
    doc = json.loads(q1.to_json())
    for where, fault in faults:
        places = _places(doc)
        obj, key = places[where % len(places)]
        wires = doc.get("wires")
        if fault == "delete":
            del obj[key]
        elif fault != "repeat-wire":
            obj[key] = copy.deepcopy(_WRONG[fault])
        elif type(wires) is list and wires:
            wires.append(copy.deepcopy(wires[where % len(wires)]))
    try:
        net = Netlist.from_json(json.dumps(doc))
    except NetlistError:
        return
    assert Netlist.from_json(net.to_json()).to_json() == net.to_json()


#: objects the reader turns into records where they stand in their own
#: array, and the same fields in another order, which it leaves alone
_WIRE_SHAPED = {"id": "n0", "range_max": 1}
_GATE_SHAPED = {"id": "g9", "kind": "AND", "inputs": ["x0", "y0"],
                "outputs": ["n00000"]}
_SHAPES = [_WIRE_SHAPED, _GATE_SHAPED, {"range_max": 1, "id": "n0"},
           {"range_max": "n0", "id": 1},
           {"id": "g9", "kind": "AND", "outputs": ["n00000"],
            "inputs": ["x0", "y0"]}]


def test_record_shaped_meta_comes_back_unchanged(b2):
    # the reader builds records as it parses, before it knows where an
    # object sits; one in meta must stay the object it was
    stats = {"shapes": _SHAPES, **dict(zip("wgabc", _SHAPES)),
             "deep": [{"in": [_GATE_SHAPED, [_WIRE_SHAPED]]}]}
    net = Netlist(b2.radix, b2.width, b2.wires, b2.gates,
                  b2.primary_inputs, b2.primary_outputs, stats)
    text = net.to_json()
    again = Netlist.from_json(text)
    assert again.stats == stats and again.to_json() == text
    assert type(again.stats["w"]) is dict and again.stats["g"] == _GATE_SHAPED


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: d["gates"].__setitem__(0, dict(_WIRE_SHAPED)),
     "malformed netlist document: gate 'n0' has no kind"),
    # last, where the wires its ports name have been read
    (lambda d: d["wires"].append(dict(_GATE_SHAPED)),
     "malformed netlist document: wire 'g9' has no range_max"),
    (lambda d: d["wires"][0].update(id=dict(_WIRE_SHAPED)),
     "malformed netlist document: wire id {'id': 'n0', 'range_max': 1} "
     "is not a string"),
    (lambda d: d["gates"][0]["inputs"].__setitem__(0, dict(_WIRE_SHAPED)),
     "malformed netlist document: gate port wire {'id': 'n0', "
     "'range_max': 1} of gate 'g00000' is not a string"),
    (lambda d: d["gates"][0].update(kind=dict(_WIRE_SHAPED)),
     "malformed netlist document: gate 'g00000' kind {'id': 'n0', "
     "'range_max': 1} is not a gate kind"),
    (lambda d: d["inputs"].__setitem__(0, dict(_WIRE_SHAPED)),
     "malformed netlist document: primary input {'id': 'n0', "
     "'range_max': 1} is not a string"),
    (lambda d: d.update(width=[dict(_WIRE_SHAPED)]),
     "malformed netlist document: width [{'id': 'n0', 'range_max': 1}] "
     "is not an integer"),
    (lambda d: d.update(version=dict(_GATE_SHAPED)),
     f"unsupported version {_GATE_SHAPED!r}"),
    (lambda d: d.update(format=dict(_WIRE_SHAPED)),
     "not a netlist document (format={'id': 'n0', 'range_max': 1})"),
], ids=["wire-in-gates", "gate-in-wires", "wire-as-id", "wire-as-port",
        "wire-as-kind", "wire-as-input", "wire-in-width", "gate-as-version",
        "wire-as-format"])
def test_misplaced_records_keep_their_messages(q1, corrupt, message):
    doc = json.loads(q1.to_json())
    corrupt(doc)
    with pytest.raises(NetlistError) as e:
        Netlist.from_json(json.dumps(doc))
    assert str(e.value) == message


@pytest.mark.parametrize("shape", _SHAPES[:2], ids=["wire", "gate"])
def test_record_shapes_anywhere_read_as_objects(q1, shape):
    # at every place of q1's document in turn, as the whole document
    # too: a load writes the document back, and an error shows the object
    with pytest.raises(NetlistError, match=r"\(format=None\)"):
        Netlist.from_json(json.dumps(shape))
    text = q1.to_json()
    for k in range(len(_places(json.loads(text)))):
        doc = json.loads(text)
        obj, key = _places(doc)[k]
        obj[key] = copy.deepcopy(shape)
        try:
            net = Netlist.from_json(json.dumps(doc))
        except NetlistError as e:
            assert "(1,)" not in str(e) and "GateInstance(" not in str(e)
        else:
            assert net.to_json() == json.dumps(doc, indent=2) + "\n"


def test_loaded_ports_share_the_wire_id_strings(b8, q4):
    # each gate port is the very string object that keys its wire, and
    # each kind is the PORTS key that spells it
    kinds = {k: k for k in PORTS}
    for net in (Netlist.from_json(b8.to_json()),
                Netlist.from_json(q4.to_json())):
        ids = {wid: wid for wid in net.wires}
        for g in net.gates:
            assert g.kind is kinds[g.kind]
            for wid in g.inputs + g.outputs:
                assert wid is ids[wid]


def _sorted_keys(net):
    return json.dumps(json.loads(net.to_json()), sort_keys=True)


def _wires_range_first(net):
    doc = json.loads(net.to_json())
    doc["wires"] = [{"range_max": w["range_max"], "id": w["id"]}
                    for w in doc["wires"]]
    return json.dumps(doc)


@pytest.mark.parametrize("rewrite", [_sorted_keys, _wires_range_first],
                         ids=["sort-keys", "range-first-wires"])
def test_reordered_entries_load_to_the_document(b8, q4, rewrite):
    # entries in another key order are read as dicts, not as records
    for net in (b8, q4):
        again = Netlist.from_json(rewrite(net))
        assert again.stats == net.stats  # sort_keys reorders meta's keys
        again.stats = net.stats
        assert again.to_json() == net.to_json()
        ids = {wid: wid for wid in again.wires}
        for g in again.gates:
            for wid in g.inputs + g.outputs:
                assert wid is ids[wid]


def test_repeated_range_first_wire_ids_are_rejected(q4):
    doc = json.loads(_wires_range_first(q4))
    doc["wires"].append({"range_max": 3, "id": "y0"})
    with pytest.raises(NetlistError) as e:
        Netlist.from_json(json.dumps(doc))
    assert str(e.value) == ("malformed netlist document: wire id 'y0' is "
                            "repeated")


def _wire_in_meta(net):
    doc = json.loads(net.to_json())
    doc["meta"] = {"w": dict(_WIRE_SHAPED)}
    return json.dumps(doc)


def _gate_in_wires(net):
    doc = json.loads(net.to_json())
    doc["wires"].append(dict(_GATE_SHAPED))
    return json.dumps(doc)


@pytest.mark.parametrize("rewrite, parses", [
    (Netlist.to_json, 1), (_sorted_keys, 1),
    (_wire_in_meta, 2), (_gate_in_wires, 2),
], ids=["canonical", "sort-keys", "wire-in-meta", "gate-in-wires"])
def test_one_parse_unless_a_record_is_misplaced(q4, monkeypatch, rewrite,
                                                parses):
    # a record built outside its own array has the text read again, with
    # every object as written
    text, loads, calls = rewrite(q4), json.loads, []
    monkeypatch.setattr(netlist.json, "loads",
                        lambda *a, **kw: calls.append(a) or loads(*a, **kw))
    if rewrite is _gate_in_wires:
        with pytest.raises(NetlistError, match="wire 'g9' has no range_max"):
            Netlist.from_json(text)
    else:
        net = Netlist.from_json(text)
        assert type(net.stats.get("w", {})) is dict
    assert len(calls) == parses


def _traced(read):
    """``read()``'s result, and what it holds and its peak, traced."""
    tracemalloc.start()
    try:
        net = read()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return net, held, peak


def test_from_json_holds_the_document_once():
    # the parsed document and the records built from it were both held:
    # b32 peaked at about 1.9 times what its netlist holds
    text = gen_multiplier(2, 32).to_json()
    net, held, peak = _traced(lambda: Netlist.from_json(text))
    assert len(net.gates) == 2145
    assert peak <= 1.4 * held
    # passed straight in, as the CLI passes it, the text is all the parse
    # holds beyond the netlist: an (id, range_max) tuple per wire, held to
    # the end of the parse, took q32 to 1.13 times what its netlist holds.
    # A 3.10 caller holds the text until the call returns, so there it
    # lives on beside the memo and the wires being built.
    data = gen_multiplier(4, 32).to_json().encode()
    net, held, peak = _traced(lambda: Netlist.from_json(data.decode()))
    assert len(net.gates) == 3202
    assert peak - len(data) <= (1.1 if sys.version_info >= (3, 11)
                                else 1.4) * held


def test_walk_holds_its_tables_as_dicts():
    # a walk holds the wires driven so far and the gate ids stepped so
    # far; as dicts, with their sizes taken on the running Python, its
    # peak on b32 is 2.16 times the two tables on 3.11, and a set of the
    # gate ids, twice the size of its dict, took it to 2.67 times
    net = gen_multiplier(2, 32)
    walk(net)  # the per-port fault table is cached from here on
    _, _, peak = _traced(lambda: walk(net))
    tables = (sys.getsizeof(dict.fromkeys(net.wires))
              + sys.getsizeof(dict.fromkeys(g.id for g in net.gates)))
    assert peak <= 2.4 * tables


@pytest.mark.parametrize("block", [1, 2, 1024])
def test_json_pieces_join_to_the_document(all_designs, monkeypatch, block):
    monkeypatch.setattr(netlist, "_BLOCK", block)
    for net in [*all_designs.values(), _odd()]:
        pieces = list(net.json_pieces())
        assert "".join(pieces) == _reference_json(net)
        # each wire or gate entry holds one id
        assert max(p.count('"id": ') for p in pieces) <= block


def test_records_are_immutable_values():
    g = GateInstance("g0", "QHA", inputs=("x0", "y0"),
                     outputs=("s", "c"))
    assert (g.id, g.kind, g.inputs, g.outputs) == \
        ("g0", "QHA", ("x0", "y0"), ("s", "c"))
    assert str(Violation("cycle", "through g0")) == "[cycle] through g0"
    for record, field in ((g, "kind"), (PORTS["AND"], "inputs")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    a, b = (Netlist(radix=2, width=1, wires={}, gates=[], primary_inputs=[],
                    primary_outputs=[]) for _ in range(2))
    assert a.stats == {} and a.stats is not b.stats


def _tiny(radix=2):
    wires = dict.fromkeys(("x0", "y0", "p0"), radix - 1)
    kind = "AND" if radix == 2 else "QM1"
    gates = [GateInstance("g0", kind, ("x0", "y0"),
                          ("p0",) if radix == 2 else ("p0", "p1"))]
    if radix == 4:
        wires["p1"] = 2
    outs = ["p0"] if radix == 2 else ["p0", "p1"]
    return Netlist(radix=radix, width=1, wires=wires, gates=gates,
                   primary_inputs=["x0", "y0"], primary_outputs=outs)


def test_hand_built_minimal_netlist_is_valid():
    assert validate_netlist(_tiny(2)) == []
    assert validate_netlist(_tiny(4)) == []


def test_multi_driver_detected():
    n = _tiny(2)
    n.gates.append(GateInstance("g1", "AND", ("x0", "y0"), ("p0",)))
    assert "multi-driver" in _codes(validate_netlist(n))


def test_walk_counts_drivers_as_validate_does(b2):
    # walk stops at the second driver, but names all three; a later gate
    # of the wrong port count is no driver in either count, and is named
    # first, as validate_netlist lists it
    net = with_driver(with_driver(b2, "n00004"), "n00004", "g99998")
    with pytest.raises(NetlistError, match="^wire n00004 has 3 drivers$"):
        walk(net)
    net.gates.append(GateInstance("g99997", "AND", ("x0",), ("n00004",)))
    assert [str(p) for p in validate_netlist(net)] == [
        "[arity] gate g99997 (AND) has 1 in / 1 out, not 2 / 1",
        "[multi-driver] wire n00004 has 3 drivers"]
    with pytest.raises(NetlistError, match=r"^gate g99997 \(AND\) has 1 in"):
        walk(net)
    # a gate that drives one wire on both of its outputs drives it twice
    g = next(g for g in b2.gates if g.kind == "BIN_HA")
    net = with_gate(b2, g.id, outputs=(g.outputs[0],) * 2)
    with pytest.raises(NetlistError,
                       match=f"^wire {g.outputs[0]} has 2 drivers$"):
        walk(net)


def test_quaternary_wire_on_carry_port_detected():
    # a quit wire wired into the ternary carry-in of a QFAC2
    wires = {"a": 3, "b": 3, "c": 3, "s": 3, "co": 2}
    gates = [GateInstance("g0", "QFAC2", ("a", "b", "c"),
                          ("s", "co"))]
    n = Netlist(radix=4, width=1, wires=wires, gates=gates,
                primary_inputs=["a", "b", "c"], primary_outputs=["s", "co"])
    assert "range" in _codes(validate_netlist(n))


def test_cycle_detected():
    wires = dict.fromkeys(("a", "s1", "c1", "s2", "c2"), 1)
    gates = [
        GateInstance("g0", "BIN_HA", ("a", "s2"), ("s1", "c1")),
        GateInstance("g1", "BIN_HA", ("s1", "c1"), ("s2", "c2")),
    ]
    n = Netlist(radix=2, width=1, wires=wires, gates=gates,
                primary_inputs=["a"], primary_outputs=["s2"])
    # g0 reads s2 before g1 drives it: a cycle always reads out of order
    orders = [str(p) for p in validate_netlist(n) if p.code == "order"]
    assert orders == ["[order] gate g0 reads wire s2 before the gate that "
                      "drives it"]


def test_gate_read_before_its_driver_detected(b8_last_gate_first):
    # the gate list is the evaluation order; it used to be re-sorted
    assert [str(p) for p in validate_netlist(b8_last_gate_first)] == [
        f"[order] gate g00126 reads wire {w} before the gate that drives it"
        for w in ("n00167", "n00187")]


def test_undriven_wire_is_not_an_order_violation():
    # a wire no gate drives is undriven, whoever reads it
    n = _tiny(2)
    n.wires["loose"] = 1
    n.gates[0] = GateInstance("g0", "AND", ("x0", "loose"), ("p0",))
    assert _codes(validate_netlist(n)) == {"undriven"}


def test_undriven_and_missing_wires_detected():
    n = _tiny(2)
    n.wires["loose"] = 1
    v = validate_netlist(n)
    assert "undriven" in _codes(v)
    n2 = _tiny(2)
    n2.gates[0] = GateInstance("g0", "AND", ("x0", "ghost"), ("p0",))
    assert "missing-wire" in _codes(validate_netlist(n2))


def test_arity_checked():
    n = _tiny(2)
    n.gates[0] = GateInstance("g0", "AND", ("x0",), ("p0",))
    assert "arity" in _codes(validate_netlist(n))


def test_unknown_kind_checked():
    # a typo is named, and the gate's ports go unchecked, as for arity
    n = _tiny(2)
    n.gates[0] = GateInstance("g0", "QFA2", ("x0",), ("p0",))
    assert [str(p) for p in validate_netlist(n)] == [
        "[kind] gate g0 has unknown kind 'QFA2'",
        "[undriven] wire p0 has no driver"]


def test_output_completeness_checked(b2):
    n = Netlist.from_json(b2.to_json())
    n.primary_outputs = n.primary_outputs[:-1]
    assert "outputs" in _codes(validate_netlist(n))


def test_duplicate_product_digit_detected(b2):
    n = Netlist.from_json(b2.to_json())
    n.primary_outputs[-1] = n.primary_outputs[0]
    assert "dup-output" in _codes(validate_netlist(n))


def test_input_digit_range_checked(q1):
    # x0 re-declared binary: a verify would still feed it 0..3
    n = Netlist.from_json(q1.to_json())
    n.wires["x0"] = 1
    assert _codes(validate_netlist(n)) == {"input-range"}
    n2 = _tiny(2)
    n2.wires["y0"] = 3
    assert "input-range" in _codes(validate_netlist(n2))


def test_input_count_checked():
    # verification reads the first N inputs as x digits and the next N as y
    n = _tiny(2)
    n.wires["z"] = 1
    n.primary_inputs.append("z")
    assert _codes(validate_netlist(n)) == {"inputs"}
    n2 = _tiny(2)
    del n2.wires["y0"]
    n2.primary_inputs.remove("y0")
    n2.gates[0] = GateInstance("g0", "AND", ("x0", "x0"), ("p0",))
    assert _codes(validate_netlist(n2)) == {"inputs"}


@pytest.mark.parametrize("case", list(FIRST_FAULTS))
def test_every_entry_point_names_the_first_fault(request, case):
    # each entry point holds the rules of walk, and names the fault that
    # validate_netlist lists first, in its words, as a NetlistError
    design, edit, violation = FIRST_FAULTS[case]
    base = request.getfixturevalue(design)
    net = edit(base)
    violations = validate_netlist(net)
    first = violations[0]
    assert str(first) == violation
    lib = timing_preset({2: "binary-0.9v", 4: "quaternary-0.9v"}[base.radix])
    for run in (lambda: walk(net),
                lambda: evaluate(net, dict.fromkeys(net.primary_inputs, 1)),
                lambda: verify_exhaustive(net),
                lambda: verify_random(net, 10, seed=1),
                lambda: critical_path(net, lib),
                lambda: lib.require(net),
                lambda: export_spice(net)):
        with pytest.raises(NetlistError) as e:
            run()
        assert type(e.value) is NetlistError
        assert str(e.value) == first.message
        assert e.value.violations == violations


@pytest.mark.parametrize("radix, width, wire, gate", [
    (4, 16, "n00841", "g00420, QFAC2"), (4, 64, "n01465", "g00732, QM1")])
def test_narrowed_carries_are_violations(radix, width, wire, gate):
    # both ternary carries, declared 0..1, passed validation; no vector of
    # 4,000 at seed 7 drives the q16 one past 1
    net = with_wire(gen_multiplier(radix, width), wire, 1)
    assert [str(p) for p in validate_netlist(net)] == [
        f"[narrow] wire {wire} (gate {gate}) is declared 0..1 but can carry "
        "up to 2"]


def test_negative_range_bounds_its_readers_outputs_at_0(q2):
    # a wire declared 0..-1 carries no value, so the QHA that reads it
    # can carry up to 0 on each output, and a carry declared 0..-1 is
    # narrow too
    net = with_wire(with_wire(q2, "n00001", -1), "n00009", -1)
    assert [str(p) for p in validate_netlist(net)] == [
        "[wire-range] wire n00001 has range_max -1",
        "[wire-range] wire n00009 has range_max -1",
        "[narrow] wire n00001 (gate g00000, QM1) is declared 0..-1 but can "
        "carry up to 2",
        "[narrow] wire n00009 (gate g00004, QHA) is declared 0..-1 but can "
        "carry up to 0"]


def test_every_violation_listed_in_order(every_violation):
    # one netlist with every code: pins each message and the order across
    # codes, which a rewrite of the checks must keep
    assert [str(p) for p in validate_netlist(every_violation)] == \
        EVERY_VIOLATION


def test_radix_and_width_violations_come_first(b1):
    net = Netlist(3, 0, b1.wires, b1.gates, b1.primary_inputs,
                  b1.primary_outputs)
    assert [str(p) for p in validate_netlist(net)][:2] == [
        "[radix] radix must be 2 or 4, got 3",
        "[width] width must be >= 1, got 0"]


def test_inventory_matches_gate_list(q4):
    inv = q4.inventory()
    assert sum(inv.values()) == len(q4.gates)
    assert inv["QM1"] == 16


def test_disjoint_union_keeps_both_sides(b2, q1):
    u = disjoint_union(b2, q1)
    inv = u.inventory()
    assert inv["AND"] == 4 and inv["QM1"] == 1
    assert len(u.wires) == len(b2.wires) + len(q1.wires)
