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
