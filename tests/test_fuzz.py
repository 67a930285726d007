"""Mutated netlist documents: every entry point returns, or raises a named
error, and names the first fault that validate_netlist lists."""

import copy
import json
from collections import deque

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
        for run in (lambda: deque(walk(net), 0),
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
