import pytest

from mvlmul import gen_multiplier
from mvlmul.metrics import TimingLibrary
from mvlmul.netlist import GateInstance, Netlist, Wire


def disjoint_union(a: Netlist, b: Netlist) -> Netlist:
    """Combine two netlists side by side (ids prefixed, no shared wires).

    Useful for additivity checks; the result is a two-multiplier module
    rather than anything electrically meaningful.
    """
    wires: dict[str, Wire] = {}
    gates: list[GateInstance] = []
    ins: list[str] = []
    outs: list[str] = []
    for tag, net in (("a", a), ("b", b)):
        ren = lambda w: f"{tag}__{w}"
        for w in net.wires.values():
            wires[ren(w.id)] = Wire(ren(w.id), w.range_max)
        for g in net.gates:
            gates.append(GateInstance(ren(g.id), g.kind,
                                      tuple(ren(w) for w in g.inputs),
                                      tuple(ren(w) for w in g.outputs)))
        ins.extend(ren(w) for w in net.primary_inputs)
        outs.extend(ren(w) for w in net.primary_outputs)
    return Netlist(radix=a.radix, width=max(a.width, b.width), wires=wires,
                   gates=gates, primary_inputs=ins, primary_outputs=outs)


def with_gate(net: Netlist, gate_id: str, **fields) -> Netlist:
    """A copy of ``net`` whose gate ``gate_id`` has ``fields`` replaced."""
    return Netlist(net.radix, net.width, net.wires,
                   [g._replace(**fields) if g.id == gate_id else g
                    for g in net.gates],
                   net.primary_inputs, net.primary_outputs)


def scaled_timing(lib: TimingLibrary, k: float) -> TimingLibrary:
    """``lib`` with every delay multiplied by ``k`` (> 0)."""
    return TimingLibrary(f"{lib.name}*{k}",
                         {key: v * k for key, v in lib.delays.items()})


@pytest.fixture(scope="session")
def b1():
    return gen_multiplier(2, 1)


@pytest.fixture(scope="session")
def b2():
    return gen_multiplier(2, 2)


@pytest.fixture(scope="session")
def b4():
    return gen_multiplier(2, 4)


@pytest.fixture(scope="session")
def b8():
    return gen_multiplier(2, 8)


@pytest.fixture
def b8_last_gate_first(b8):
    """b8 with its last gate moved to the front: still acyclic, but that
    gate (g00126) now reads wires n00167 and n00187 before their drivers."""
    return Netlist(b8.radix, b8.width, b8.wires, b8.gates[-1:] + b8.gates[:-1],
                   b8.primary_inputs, b8.primary_outputs)


@pytest.fixture
def every_violation():
    """A radix-2 1x1 netlist that breaks every check but the radix and
    width ones at once; its violations, in the order
    :func:`validate_netlist` lists them, are :data:`EVERY_VIOLATION`."""
    wires = [Wire("x0", 1), Wire("y0", 3), Wire("z", 1), Wire("p0", 1),
             Wire("late", 1), Wire("wide", 3), Wire("loose", 1),
             Wire("bad", 0)]
    gates = [("g0", ("x0", "y0"), ("p0",)),
             ("g1", ("x0", "late"), ("p0",)),
             ("g1", ("x0",), ("late",)),
             ("g2", ("x0", "ghost"), ("late",)),
             ("g3", ("x0", "z"), ("gone",)),
             ("g4", ("x0", "z"), ("wide",))]
    return Netlist(radix=2, width=1, wires={w.id: w for w in wires},
                   gates=[GateInstance(gid, "AND", ins, outs)
                          for gid, ins, outs in gates],
                   primary_inputs=["x0", "y0", "z", "v"],
                   primary_outputs=["p0", "p0", "wide", "void"])


EVERY_VIOLATION = [
    "[wire-range] wire bad has range_max 0",
    "[input-range] input wire y0 has range_max 3, radix 2 digits need 1",
    "[missing-wire] input wire v undeclared",
    "[inputs] expected 2 operand digits (x then y), got 4",
    "[range] gate g0 (AND) port b accepts max 1 but wire y0 carries up to 3",
    "[dup-gate] gate id g1 reused",
    "[arity] gate g1 (AND) has 1 in / 1 out, not 2 / 1",
    "[missing-wire] gate g2 input b -> ghost undeclared",
    "[missing-wire] gate g3 output y -> gone undeclared",
    "[range] gate g4 (AND) output y max 1 but wire wide declares 3",
    "[multi-driver] wire p0 has 2 drivers",
    "[undriven] wire loose has no driver",
    "[undriven] wire bad has no driver",
    "[order] gate g1 reads wire late before the gate that drives it",
    "[missing-wire] output wire void undeclared",
    "[dup-output] wire p0 is listed as 2 product digits",
    "[outputs] expected 1 product digits, got 4",
]


@pytest.fixture(scope="session")
def q1():
    return gen_multiplier(4, 1)


@pytest.fixture(scope="session")
def q2():
    return gen_multiplier(4, 2)


@pytest.fixture(scope="session")
def q4():
    return gen_multiplier(4, 4)


@pytest.fixture(scope="session")
def all_designs(b1, b2, b4, b8, q1, q2, q4):
    return {(2, 1): b1, (2, 2): b2, (2, 4): b4, (2, 8): b8,
            (4, 1): q1, (4, 2): q2, (4, 4): q4}
