"""Mutated netlist documents and netlists: every entry point returns, or
raises a named error, and names the first fault that validate_netlist
lists."""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import deadline
from mvlmul import gen_multiplier
from mvlmul.core import PORTS, LogicError
from mvlmul.metrics import (LibraryError, TimingLibrary, critical_path,
                            timing_preset)
from mvlmul.netgen import NetgenError
from mvlmul.netlist import Netlist, NetlistError, validate_netlist, walk
from mvlmul.sim import (SimulationError, VerificationSpaceError, evaluate,
                        verify_exhaustive, verify_random)
from mvlmul.spice import export_spice

#: the documents mutated, as parsed JSON values
DOCUMENTS = {f"{'bq'[radix == 4]}{width}": json.loads(
    gen_multiplier(radix, width).to_json())
    for radix in (2, 4) for width in (1, 2)}

#: every error class the package raises
NAMED = (NetlistError, SimulationError, VerificationSpaceError, LibraryError,
         NetgenError, LogicError)

#: a timing library that serves both radices
TIMING = TimingLibrary("both", {**timing_preset("binary-0.9v").delays,
                                **timing_preset("quaternary-0.9v").delays})

#: values put in place of another, besides the document's wire and gate ids
VALUES = [None, True, False, 2 ** 70, -1, 0, 1, 2, 3, 4, 1.5, "", [], {},
          *PORTS]


def _slots(value, out):
    """Each (container, key or index) pair inside ``value``, depth first."""
    items = (value.items() if type(value) is dict
             else enumerate(value) if type(value) is list else ())
    for key, item in items:
        out.append((value, key))
        _slots(item, out)
    return out


@st.composite
def mutants(draw):
    """A document of :data:`DOCUMENTS` with one to three edits, each one
    a value replaced, an entry deleted or an entry copied."""
    doc = copy.deepcopy(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))])
    ids = sorted({e["id"] for key in ("wires", "gates") for e in doc[key]})
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        parent, key = draw(st.sampled_from(slots))
        edit = draw(st.sampled_from(["replace", "delete", "copy"]))
        if edit == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(VALUES)
                                             | st.sampled_from(ids)))
        elif edit == "delete":
            del parent[key]
        elif type(parent) is list:
            parent.insert(draw(st.integers(0, len(parent))),
                          copy.deepcopy(parent[key]))
        else:  # a dict entry copied under another of the dict's keys
            parent[draw(st.sampled_from(sorted(parent)))] = \
                copy.deepcopy(parent[key])
    return json.dumps(doc)


@settings(max_examples=500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutants())
def test_mutated_documents_end_in_a_named_error(text):
    with deadline(2.0):
        try:
            net = Netlist.from_json(text)
        except NetlistError:
            return
        faults = validate_netlist(net)
        for run in (lambda: walk(net),
                    lambda: evaluate(net, dict.fromkeys(net.primary_inputs,
                                                        1)),
                    lambda: verify_exhaustive(net),
                    lambda: verify_random(net, 10, seed=1),
                    lambda: critical_path(net, TIMING),
                    lambda: export_spice(net)):
            try:
                run()
            except NAMED as e:
                assert not faults or (type(e) is NetlistError
                                      and str(e) == faults[0].message), e
            else:
                assert not faults, faults[0]


#: the designs of :data:`DOCUMENTS`, parsed
NETLISTS = {name: Netlist.from_json(json.dumps(doc))
            for name, doc in DOCUMENTS.items()}


@st.composite
def edited(draw):
    """A netlist of :data:`NETLISTS` with one to three edits in memory,
    each of a gate's kind, id or port wire, a wire's range, or an entry
    of the primary inputs or outputs.  No edit can fail to parse, so
    every example reaches the walk."""
    base = NETLISTS[draw(st.sampled_from(sorted(NETLISTS)))]
    net = Netlist(base.radix, base.width, dict(base.wires), list(base.gates),
                  list(base.primary_inputs), list(base.primary_outputs))
    wires = st.sampled_from([*base.wires, "zz"])  # zz is undeclared
    gate_ids = st.sampled_from([*(g.id for g in base.gates), "g99999"])
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["kind", "id", "port", "range",
                                     "input", "output"]))
        if edit in ("kind", "id", "port"):
            i = draw(st.integers(0, len(net.gates) - 1))
            g = net.gates[i]
            if edit == "kind":
                g = g._replace(kind=draw(st.sampled_from([*PORTS, "QFA2"])))
            elif edit == "id":
                g = g._replace(id=draw(gate_ids))
            else:
                side = draw(st.sampled_from(["inputs", "outputs"]))
                ports = list(getattr(g, side))
                ports[draw(st.integers(0, len(ports) - 1))] = draw(wires)
                g = g._replace(**{side: tuple(ports)})
            net.gates[i] = g
        elif edit == "range":
            net.wires[draw(st.sampled_from(sorted(net.wires)))] = \
                draw(st.integers(0, 4))
        else:
            digits = (net.primary_inputs if edit == "input"
                      else net.primary_outputs)
            digits[draw(st.integers(0, len(digits) - 1))] = draw(wires)
    return net


@settings(max_examples=500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edited())
def test_walk_raises_exactly_when_validate_lists_a_fault(net):
    faults = validate_netlist(net)
    try:
        walk(net)
    except NetlistError as e:
        assert faults, e
        assert type(e) is NetlistError
        assert (str(e), e.violations) == (faults[0].message, faults)
    else:
        assert not faults, faults[0]


def _read(text):
    """What ``from_json`` makes of ``text``: the document it writes back,
    or the message it raises."""
    try:
        return Netlist.from_json(text).to_json()
    except NetlistError as e:
        return f"error: {e}"


def _dict_path(text):
    """``text`` with the keys of every ``wires`` entry reversed, so the
    reader's hook leaves each one a dict."""
    doc = json.loads(text)
    if type(doc) is dict and type(doc.get("wires")) is list:
        doc["wires"] = [dict(reversed(e.items())) if type(e) is dict else e
                        for e in doc["wires"]]
    return json.dumps(doc)


def _range_first(entry):
    return {"range_max": entry["range_max"], "id": entry["id"]}


def _repeat(d):
    d["wires"].append(dict(d["wires"][5]))


def _repeat_after_range_first(d):
    d["wires"].append(d["wires"][5])
    d["wires"][5] = _range_first(d["wires"][5])


def _range_first_repeat(d):
    d["wires"].append(_range_first(d["wires"][5]))


def _gates_first(d):
    d["gates"] = d.pop("gates")
    d["wires"] = d.pop("wires")


def _undeclared_port(d):
    d["gates"][0]["inputs"][0] = "zz"


#: a wire-shaped object of an undeclared id, which the hook makes a record
_NEW_WIRE = {"id": "n0", "range_max": 1}
_REPEATED = "error: malformed netlist document: wire id 'n00001' is repeated"

#: edits of q2 where reading wires as records could part from reading them
#: as dicts, and the start of what each reads to
RECORD_PATH_CASES = {
    "canonical": (lambda d: None, "{"),
    "repeated": (_repeat, _REPEATED),
    "repeated-after-range-first": (_repeat_after_range_first, _REPEATED),
    "range-first-repeat": (_range_first_repeat, _REPEATED),
    "wire-in-meta": (lambda d: d.update(meta={"w": dict(_NEW_WIRE)}), "{"),
    "declared-wire-in-meta": (
        lambda d: d.update(meta={"w": dict(d["wires"][0])}), "{"),
    "wire-in-gates": (lambda d: d["gates"].insert(1, dict(_NEW_WIRE)),
                      "error: malformed netlist document: gate 'n0' has no "
                      "kind"),
    "declared-wire-in-gates": (
        lambda d: d["gates"].insert(1, dict(d["wires"][0])),
        "error: malformed netlist document: gate 'x0' has no kind"),
    "ports-declared-later": (_gates_first, "{"),
    "port-undeclared": (_undeclared_port, "{"),
}


@pytest.mark.parametrize("edit, reads", RECORD_PATH_CASES.values(),
                         ids=RECORD_PATH_CASES.keys())
def test_wire_records_read_as_wire_dicts(edit, reads):
    # a wire record holds no id, only its range: the reader takes the id
    # from the memo, in reading order, and must make of the document what
    # it makes of the same wires as dicts
    doc = copy.deepcopy(DOCUMENTS["q2"])
    edit(doc)
    text = json.dumps(doc)
    assert text != _dict_path(text)
    assert _read(text).startswith(reads)
    assert _read(text) == _read(_dict_path(text))


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutants())
def test_mutated_documents_read_as_with_wire_dicts(text):
    assert _read(text) == _read(_dict_path(text))
