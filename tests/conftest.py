import signal
from contextlib import contextmanager

import pytest

from mvlmul import gen_multiplier
from mvlmul.metrics import TimingLibrary
from mvlmul.netlist import GateInstance, Netlist


def disjoint_union(a: Netlist, b: Netlist) -> Netlist:
    """Combine two netlists side by side (ids prefixed, no shared wires).

    Useful for additivity checks; the result is a two-multiplier module
    rather than anything electrically meaningful.
    """
    wires: dict[str, int] = {}
    gates: list[GateInstance] = []
    ins: list[str] = []
    outs: list[str] = []
    for tag, net in (("a", a), ("b", b)):
        ren = lambda w: f"{tag}__{w}"
        for w, range_max in net.wires.items():
            wires[ren(w)] = range_max
        for g in net.gates:
            gates.append(GateInstance(ren(g.id), g.kind,
                                      tuple(ren(w) for w in g.inputs),
                                      tuple(ren(w) for w in g.outputs)))
        ins.extend(ren(w) for w in net.primary_inputs)
        outs.extend(ren(w) for w in net.primary_outputs)
    return Netlist(radix=a.radix, width=max(a.width, b.width), wires=wires,
                   gates=gates, primary_inputs=ins, primary_outputs=outs)


@contextmanager
def deadline(seconds: float):
    """Run the block under a wall-time limit: past ``seconds``, a
    ``SIGALRM`` timer on this process raises ``TimeoutError`` in it."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def with_fields(net: Netlist, **fields) -> Netlist:
    """A copy of ``net`` with the :class:`Netlist` arguments ``fields``
    (``radix``, ``width``, ``primary_inputs`` ...) replaced."""
    return Netlist(**{"radix": net.radix, "width": net.width,
                      "wires": net.wires, "gates": net.gates,
                      "primary_inputs": net.primary_inputs,
                      "primary_outputs": net.primary_outputs, **fields})


def with_gate(net: Netlist, gate_id: str, **fields) -> Netlist:
    """A copy of ``net`` whose gate ``gate_id`` has ``fields`` replaced."""
    return Netlist(net.radix, net.width, net.wires,
                   [g._replace(**fields) if g.id == gate_id else g
                    for g in net.gates],
                   net.primary_inputs, net.primary_outputs)


def with_wire(net: Netlist, wire_id: str, range_max: int | None) -> Netlist:
    """A copy of ``net`` whose wire ``wire_id`` is declared ``0..range_max``,
    or undeclared when ``range_max`` is None."""
    wires = {w: v for w, v in net.wires.items() if w != wire_id}
    if range_max is not None:
        wires[wire_id] = range_max
    return Netlist(net.radix, net.width, wires, net.gates,
                   net.primary_inputs, net.primary_outputs)


def with_driver(net: Netlist, wire_id: str, gate_id="g99999") -> Netlist:
    """A copy of ``net`` with one more gate, last, that drives ``wire_id``:
    ``gate_id``, an AND of x1 and y1."""
    return Netlist(net.radix, net.width, net.wires, net.gates + [
        GateInstance(gate_id, "AND", ("x1", "y1"), (wire_id,))],
        net.primary_inputs, net.primary_outputs)


def with_input(net: Netlist, k: int, wire_id: str) -> Netlist:
    """A copy of ``net`` whose primary input ``k`` is wire ``wire_id``."""
    inputs = list(net.primary_inputs)
    inputs[k] = wire_id
    return Netlist(net.radix, net.width, net.wires, net.gates, inputs,
                   net.primary_outputs)


def with_digit(net: Netlist, k: int, wire_id: str) -> Netlist:
    """A copy of ``net`` whose product digit ``k`` is wire ``wire_id``."""
    outputs = list(net.primary_outputs)
    outputs[k] = wire_id
    return Netlist(net.radix, net.width, net.wires, net.gates,
                   net.primary_inputs, outputs)


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
    wires = {"x0": 1, "y0": 3, "z": 1, "p0": 1, "late": 1, "wide": 3,
             "loose": 1, "bad": 0}
    gates = [("g0", ("x0", "y0"), ("p0",)),
             ("g1", ("x0", "late"), ("p0",)),
             ("g1", ("x0",), ("late",)),
             ("g2", ("x0", "ghost"), ("late",)),
             ("g3", ("x0", "z"), ("gone",)),
             ("g4", ("x0", "z"), ("wide",))]
    return Netlist(radix=2, width=1, wires=wires,
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


#: one fault per rule of walk, each in a generated design: (design,
#: edit, the violation that validate_netlist lists first)
FIRST_FAULTS = {
    # rule 1; the radix was a SimulationError of verify, "radix 3 is not
    # a power of two", and of verify_random, "radix 256 exceeds 128"
    "radix": ("b2", lambda n: with_fields(n, radix=3),
              "[radix] radix must be 2 or 4, got 3"),
    "radix-256": ("b2", lambda n: with_fields(n, radix=256),
                  "[radix] radix must be 2 or 4, got 256"),
    "width": ("b2", lambda n: with_fields(n, width=0),
              "[width] width must be >= 1, got 0"),
    # rule 2
    "wire-range": ("q2", lambda n: with_wire(n, "n00000", 4),
                   "[wire-range] wire n00000 has range_max 4"),
    # rule 3: 2N operands, each a declared full digit
    "input-range": ("q2", lambda n: with_wire(n, "x0", 1),
                    "[input-range] input wire x0 has range_max 1, radix 4 "
                    "digits need 3"),
    "inputs": ("b2", lambda n: with_fields(n, primary_inputs=["x0", "x1",
                                                              "y0"]),
               "[inputs] expected 4 operand digits (x then y), got 3"),
    # rule 4; with a repeated id, the deck held two Xg00000 instances
    "dup-gate": ("b8", lambda n: with_gate(n, "g00001", id="g00000"),
                 "[dup-gate] gate id g00000 reused"),
    "kind": ("q2", lambda n: with_gate(n, "g00000", kind="QFA2"),
             "[kind] gate g00000 has unknown kind 'QFA2'"),
    # once, the deck held "Xg00008 n00007 n00016 QFAC2WC" under a
    # three-input .SUBCKT QFAC2WC, and critical_path gave 276.9 ps, not
    # 369.1 ps
    "arity": ("q2", lambda n: with_gate(n, "g00008", inputs=("n00007",)),
              "[arity] gate g00008 (QFAC2WC) has 1 in / 1 out, not 3 / 1"),
    # rules 3 and 5
    "undeclared-input": ("q2", lambda n: with_wire(n, "x0", None),
                         "[missing-wire] input wire x0 undeclared"),
    "undeclared-port": ("q2", lambda n: with_gate(n, "g00000",
                                                  inputs=("zz", "y0")),
                        "[missing-wire] gate g00000 input a -> zz undeclared"),
    # rule 6 (9 for a wire with no driver): read before its driver, by
    # itself, or with no driver at all
    "order": ("b8_last_gate_first", lambda n: n,
              "[order] gate g00126 reads wire n00167 before the gate that "
              "drives it"),
    "own-output": ("b8", lambda n: with_gate(n, "g00000",
                                             inputs=("n00000", "y0")),
                   "[order] gate g00000 reads wire n00000 before the gate "
                   "that drives it"),
    "no-driver": ("q2", lambda n: with_gate(with_wire(n, "loose", 3),
                                            "g00000", inputs=("loose", "y0")),
                  "[undriven] wire loose has no driver"),
    # rule 9, even where no gate reads the wire
    "unread-undriven": ("q2", lambda n: with_wire(n, "loose", 3),
                        "[undriven] wire loose has no driver"),
    # rule 6 again, driven twice: verify counted 6 mismatches in 16 without a
    # reason, and critical_path priced b2 at 41.6 ps
    "redriven-digit": ("b2", lambda n: with_driver(n, "n00000"),
                       "[multi-driver] wire n00000 has 2 drivers"),
    # verify passed all 16 vectors, and the deck drove a primary input
    "driven-input": ("b2", lambda n: with_driver(n, "x0"),
                     "[multi-driver] wire x0 has 2 drivers"),
    # ...or listed twice as a primary input: critical_path priced b2 with
    # x0 appended at 41.6 ps, and the deck named x0 twice among its ports
    "repeated-input": ("b2", lambda n: with_input(n, 3, "x0"),
                       "[multi-driver] wire x0 has 2 drivers"),
    # rule 7: a quit on a ternary carry-in
    "wide-input": ("q2", lambda n: with_gate(
        n, "g00005", inputs=("n00006", "n00005", "x0")),
        "[range] gate g00005 (QFAC2) port cin accepts max 2 but wire x0 "
        "carries up to 3"),
    # rule 8, both ways
    "wide-output": ("b8", lambda n: with_wire(n, "n00188", 2),
                    "[range] gate g00126 (BIN_HA) output sum max 1 but wire "
                    "n00188 declares 2"),
    "narrow": ("q2", lambda n: with_wire(n, "n00001", 1),
               "[narrow] wire n00001 (gate g00000, QM1) is declared 0..1 but "
               "can carry up to 2"),
    # rule 10
    "undeclared-digit": ("q2", lambda n: with_digit(n, 3, "void"),
                         "[missing-wire] output wire void undeclared"),
    "undriven-digit": ("q2", lambda n: with_digit(with_wire(n, "ghost", 3),
                                                  3, "ghost"),
                       "[undriven] wire ghost has no driver"),
    # ...listed once, 2N of them: verify_exhaustive counted mismatches
    # and named no fault
    "dup-output": ("q2", lambda n: with_digit(n, 3, n.primary_outputs[2]),
                   "[dup-output] wire n00014 is listed as 2 product digits"),
    "outputs": ("q2", lambda n: with_fields(
        n, primary_outputs=n.primary_outputs[:-1]),
        "[outputs] expected 4 product digits, got 3"),
}


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
