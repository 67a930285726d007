"""Functional evaluation, and verification of product digits against x * y."""

import hashlib
import random
import re
import tracemalloc
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIRST_FAULTS, deadline, with_fields
from mvlmul import gen_multiplier, sim
from mvlmul.core import KERNELS, PORTS
from mvlmul.netlist import (GateInstance, Netlist, NetlistError,
                            validate_netlist, walk)
from mvlmul.sim import (SimulationError, VerificationSpaceError, evaluate,
                        verify_exhaustive, verify_random)


def digits_of(value, radix, ndigits):
    """Little-endian digit expansion."""
    return tuple(value // radix ** i % radix for i in range(ndigits))


def int_of(digits, radix):
    return sum(d * radix ** i for i, d in enumerate(digits))


def _assign(net, x, y):
    xd = digits_of(x, net.radix, net.width)
    yd = digits_of(y, net.radix, net.width)
    a = {f"x{i}": d for i, d in enumerate(xd)}
    a.update({f"y{i}": d for i, d in enumerate(yd)})
    return a


# --- evaluate ---------------------------------------------------------------

def test_evaluate_reference_vectors(q2):
    assert evaluate(q2, _assign(q2, 11, 15)) == [1, 1, 2, 2]   # 2211q
    assert evaluate(q2, _assign(q2, 11, 11)) == [1, 2, 3, 1]   # 1321q


def test_evaluate_zero_annihilates(q4, b8):
    for net in (q4, b8):
        hi = net.radix ** net.width - 1
        for x in (0, 1, hi):
            assert all(v == 0 for v in evaluate(net, _assign(net, x, 0)))


def test_evaluate_rejects_bad_assignments(b2):
    with pytest.raises(SimulationError):
        evaluate(b2, {"x0": 1})
    with pytest.raises(SimulationError):
        evaluate(b2, {**_assign(b2, 1, 1), "zz": 1})
    bad = _assign(b2, 1, 1)
    bad["x0"] = 2
    with pytest.raises(SimulationError):
        evaluate(b2, bad)


@pytest.mark.parametrize("digit, message", [
    (1.0, "input x0=1.0 is not an integer digit"),
    (True, "input x0=True is not an integer digit"),
    ("1", "input x0='1' is not an integer digit"),
    (4, "input x0=4 outside 0..3"),
    (-1, "input x0=-1 outside 0..3"),
], ids=["float", "bool", "str", "above", "below"])
def test_evaluate_names_a_bad_digit(q1, digit, message):
    # 1.0 was named as outside 0..3, and True ran as the digit 1, where a
    # netlist document takes neither as an integer
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
        evaluate(q1, {"x0": digit, "y0": 1})


def test_undeclared_input_is_named(q1):
    # x0 is a primary input, but no wire x0 is declared
    net = Netlist(q1.radix, q1.width,
                  {w: v for w, v in q1.wires.items() if w != "x0"},
                  q1.gates, q1.primary_inputs, q1.primary_outputs)
    for run in (lambda: evaluate(net, {"x0": 1, "y0": 2}),
                lambda: verify_exhaustive(net),
                lambda: verify_random(net, 5, seed=1)):
        with pytest.raises(NetlistError, match="^input wire x0 undeclared$"):
            run()


def _narrow_qha():
    """A QHA whose sum wire is declared binary, though it can carry 3."""
    wires = {"a": 3, "b": 3, "s": 1, "c": 1}
    gates = [GateInstance("g0", "QHA", ("a", "b"), ("s", "c"))]
    return Netlist(radix=4, width=1, wires=wires, gates=gates,
                   primary_inputs=["a", "b"], primary_outputs=["s", "c"])


def test_evaluate_checks_internal_ranges():
    net = _narrow_qha()
    with pytest.raises(NetlistError):
        evaluate(net, {"a": 2, "b": 1})
    # a vector whose sum fits the narrowed wire used to run: the ranges
    # are checked before any gate fires, not on the values a vector makes
    with pytest.raises(NetlistError):
        evaluate(net, {"a": 1, "b": 0})


def test_range_check_covers_every_vector_of_a_batch():
    # a batch of only (0,0) and (0,1), whose sums fit the narrowed wire:
    # the check covers every vector the declared input ranges allow, not
    # only those a run happens to reach
    batch = (2, [(0, 0), (0b10, 0)])  # planes of a, then of b
    net = _narrow_qha()
    with pytest.raises(NetlistError, match="declared 0..1 but can carry "
                                           "up to 3$"):
        walk(net)  # as every run does, before it builds its steps
        next(sim._simulate(sim._steps(net), [batch]))


def _two_overflows(order):
    """Radix-4 w1: QM1 g1 and QHA g2 both overflow a binary-declared wire
    at level 1, QHA g3 at level 2; ``order`` lists the gates."""
    ranges = {"x0": 3, "y0": 3, "s0": 3, "c0": 1, "p1": 1, "c1": 2,
              "s2": 1, "c2": 1, "s3": 1, "c3": 1}
    gates = {"g0": GateInstance("g0", "QHA", ("x0", "y0"),
                                ("s0", "c0")),
             "g1": GateInstance("g1", "QM1", ("x0", "y0"),
                                ("p1", "c1")),
             "g2": GateInstance("g2", "QHA", ("x0", "y0"),
                                ("s2", "c2")),
             "g3": GateInstance("g3", "QHA", ("s0", "x0"),
                                ("s3", "c3"))}
    return Netlist(radix=4, width=1,
                   wires=ranges,
                   gates=[gates[g] for g in order],
                   primary_inputs=["x0", "y0"], primary_outputs=["s3", "c3"])


@pytest.mark.parametrize("order, vector, msg", [
    # one level, two kinds: gate g1 comes before g2 in the list
    (["g0", "g1", "g2"], {"x0": 2, "y0": 1},
     "wire p1 (gate g1, QM1) is declared 0..1 but can carry up to 3"),
    # two levels: g3 on level 2 comes before g1 on level 1 in the list
    (["g0", "g3", "g1"], {"x0": 2, "y0": 3},
     "wire s3 (gate g3, QHA) is declared 0..1 but can carry up to 3"),
], ids=["two-kinds", "two-levels"])
def test_overflow_names_first_wire_in_topo_order(order, vector, msg):
    # the gate list is a topological order, and gates are checked in it;
    # the value is the gate's reach, whatever the vectors
    net = _two_overflows(order)
    for run in (lambda: evaluate(net, vector),
                lambda: verify_exhaustive(net),
                lambda: verify_random(net, 50, seed=1)):
        with pytest.raises(NetlistError) as e:
            run()
        assert str(e.value) == msg


def test_read_before_driver_is_a_simulation_error(b8_last_gate_first):
    # unvalidated, the first gate to read a wire that no earlier gate
    # drives is named, in validate_netlist's words; the gates used to be
    # re-sorted, and this passed
    net = b8_last_gate_first
    msg = "gate g00126 reads wire n00167 before the gate that drives it"
    with pytest.raises(NetlistError) as e:
        evaluate(net, _assign(net, 3, 5))
    assert str(e.value) == msg
    with pytest.raises(NetlistError) as e:
        verify_exhaustive(net)
    assert str(e.value) == msg


@pytest.mark.parametrize("design, kind, edit, msg", [
    ("q1", "QM1", lambda g: {"inputs": ("zz", "y0")},
     "gate {} input a -> zz undeclared"),
    ("q1", "QM1", lambda g: {"inputs": g.inputs[:1]},
     "gate {} (QM1) has 1 in / 2 out, not 2 / 2"),
    ("q2", "QHA", lambda g: {"outputs": g.outputs[:1]},
     "gate {} (QHA) has 2 in / 1 out, not 2 / 2"),
    ("q1", "QM1", lambda g: {"kind": "QFA2"},
     "gate {} has unknown kind 'QFA2'"),
], ids=["undeclared-wire", "input-too-few", "output-too-few", "unknown-kind"])
def test_unvalidated_gate_is_a_simulation_error(request, design, kind, edit,
                                                msg):
    # unvalidated, these raised a bare KeyError, the kernel's TypeError,
    # and a later gate's "reads wire ... before any gate drives it"; each
    # is now named in validate_netlist's words
    net = Netlist.from_json(request.getfixturevalue(design).to_json())
    i = next(i for i, g in enumerate(net.gates) if g.kind == kind)
    g = net.gates[i]
    net.gates[i] = g._replace(**edit(g))
    for run in (verify_exhaustive, lambda n: evaluate(n, _assign(n, 1, 2))):
        with pytest.raises(NetlistError) as e:
            run(net)
        assert str(e.value) == msg.format(g.id)


def _planes(vectors, k, bits):
    """Bit-planes of position ``k`` of each of ``vectors``: bit ``j`` of
    plane ``b`` is bit ``b`` of ``vectors[j][k]``."""
    return tuple(sum((v[k] >> b & 1) << j for j, v in enumerate(vectors))
                 for b in range(bits))


def _one_gate(kind, in_ranges, out_ranges):
    """A netlist of one ``kind`` gate whose wires, named for its ports,
    have these declared ranges; its inputs are primary inputs."""
    spec = PORTS[kind]
    ins, outs = ([name for name, _ in ports]
                 for ports in (spec.inputs, spec.outputs))
    wires = dict(zip(ins + outs, in_ranges + out_ranges))
    return Netlist(radix=2, width=1, wires=wires,
                   gates=[GateInstance("g0", kind, tuple(ins), tuple(outs))],
                   primary_inputs=ins, primary_outputs=outs)


def _port_range_faults(net):
    """The faults that :func:`validate_netlist` lists for ``net`` under
    the walk's rules on a gate's port ranges (``range`` and ``narrow``)."""
    return [p.message for p in validate_netlist(net)
            if p.code in ("range", "narrow")]


@pytest.mark.parametrize("kind", list(PORTS))
def test_plans_fire_the_kernel_or_name_the_overflow(kind):
    # expected values come from KERNELS alone: every input range up to
    # one past its port's maximum, and every declared output range 0..7.
    # One past a port's maximum, with an output declared above its port's
    # maximum, or below the largest value the kernel makes there over the
    # domain, the walk's port rules name the gate and no plan runs;
    # otherwise the plan fires the kernel on the whole domain, each port
    # cut to its width.  A one-gate netlist is no multiplier, so the walk
    # itself stops at its operands: the port rules are read from
    # validate_netlist, which runs the walk's per-gate code
    spec = PORTS[kind]
    for in_ranges in product(*(range(hi + 2) for _, hi in spec.inputs)):
        everything = product(range(8), repeat=len(spec.outputs))
        if any(r > hi for r, (_, hi) in zip(in_ranges, spec.inputs)):
            for declared in everything:
                faults = _port_range_faults(_one_gate(kind, in_ranges,
                                                      declared))
                assert faults[0].startswith("gate g0 "), faults
            continue
        domain = list(product(*(range(r + 1) for r in in_ranges)))
        got = [KERNELS[kind](*v) for v in domain]
        top = [max(o[p] for o in got) for p in range(len(spec.outputs))]
        args = [_planes(domain, k, r.bit_length())
                for k, r in enumerate(in_ranges)]
        planes = [_planes(got, p, 3) for p in range(len(top))]  # 0..7
        for declared in everything:
            key = (in_ranges, declared)
            net = _one_gate(kind, in_ranges, declared)
            if (any(map(int.__lt__, declared, top)) or any(
                    d > hi for d, (_, hi) in zip(declared, spec.outputs))):
                assert _port_range_faults(net), key
                continue
            assert _port_range_faults(net) == [], key
            fire = sim._plan(kind, in_ranges, declared)
            assert list(fire(*args)) == [
                ps[:hi.bit_length()]
                for ps, hi in zip(planes, declared)], key


@pytest.mark.parametrize("kind, port", [
    pytest.param(kind, k, id=f"{kind}.{name}") for kind, spec in PORTS.items()
    for k, (name, _) in enumerate(spec.inputs)])
def test_wire_wider_than_its_port_is_a_simulation_error(kind, port):
    # one unvalidated gate whose wire on ``port`` is one wider than the
    # port allows, each wire named for its port: the simulator names it
    # as validate_netlist does, before any gate fires.  An AND that read
    # two QM1 carries (0..2) was "neither the sum nor the product" of its
    # inputs (2 & 2 is 2), and a QFAC2 whose cin read a quit ran.  A wire
    # one wider than a quit port declares 0..4, which no wire may: the
    # walk names that declaration first
    spec = PORTS[kind]
    wires = {"x0": 1, "y0": 1}
    wires.update((name, hi + (k == port))
                 for k, (name, hi) in enumerate(spec.inputs))
    wires.update(spec.outputs)
    g = GateInstance("g0", kind, tuple(name for name, _ in spec.inputs),
                     tuple(name for name, _ in spec.outputs))
    net = Netlist(radix=2, width=1, wires=wires, gates=[g],
                  primary_inputs=["x0", "y0"], primary_outputs=list(g.outputs))
    name, hi = spec.inputs[port]
    for run in (verify_exhaustive, lambda n: verify_random(n, 50, 1),
                lambda n: evaluate(n, {"x0": 1, "y0": 1})):
        with pytest.raises(NetlistError) as e:
            run(net)
        assert type(e.value) is NetlistError
        assert str(e.value) == (f"wire {name} has range_max 4" if hi == 3
                                else f"gate g0 ({kind}) port {name} accepts "
                                f"max {hi} but wire {name} carries up to "
                                f"{hi + 1}")


def test_undriven_product_digit_is_a_simulation_error():
    # it read as zeros; it is named as validate_netlist names it
    net = _narrow_qha()
    net.wires["s"] = 3
    net.wires["ghost"] = 3
    net.primary_outputs = ["s", "ghost"]
    with pytest.raises(NetlistError, match="^wire ghost has no driver$"):
        evaluate(net, {"a": 1, "b": 2})


def _narrowed(net, wire):
    """A copy of ``net`` with ``wire`` declared ``0..1``."""
    return Netlist(net.radix, net.width, {**net.wires, wire: 1},
                   net.gates, net.primary_inputs, net.primary_outputs)


def test_narrowed_input_is_a_simulation_error(q1):
    # unvalidated, an input declared narrower than a digit used to be
    # simulated on its cut planes: 6 mismatches, with x=2 read as 0
    net = _narrowed(q1, "x0")
    msg = "input wire x0 has range_max 1, radix 4 digits need 3"
    # evaluate used to read the declaration: "input x0=2 outside 0..1"
    for run in (lambda: verify_exhaustive(net),
                lambda: verify_random(net, 100, seed=1),
                lambda: evaluate(net, {"x0": 2, "y0": 1})):
        with pytest.raises(NetlistError) as e:
            run()
        assert str(e.value) == msg


def test_narrowed_carry_is_named_whatever_the_vectors(q2):
    # the QFAC2 carry n00841 of q16 can carry 2, but no vector of 4,000
    # at seed 7 drives it there: with it declared 0..1, that run passed
    net = _narrowed(gen_multiplier(4, 16), "n00841")
    msg = ("wire n00841 (gate g00420, QFAC2) is declared 0..1 but can "
           "carry up to 2")
    for run in (lambda: verify_random(net, 4000, seed=7),
                lambda: evaluate(net, _assign(net, 0, 0))):
        with pytest.raises(NetlistError) as e:
            run()
        assert str(e.value) == msg
    with pytest.raises(NetlistError) as e:
        verify_exhaustive(_narrowed(q2, "n00001"))
    assert str(e.value) == ("wire n00001 (gate g00000, QM1) is declared 0..1 "
                            "but can carry up to 2")


@settings(max_examples=60)
@given(st.integers(0, 255), st.integers(0, 255))
def test_commutativity_8x8(b8, x, y):
    assert evaluate(b8, _assign(b8, x, y)) == evaluate(b8, _assign(b8, y, x))


# --- verification -----------------------------------------------------------

def test_exhaustive_small_designs(all_designs):
    for key in ((2, 1), (2, 2), (2, 4), (4, 1), (4, 2)):
        report = verify_exhaustive(all_designs[key])
        assert report.passed, key
        space = (all_designs[key].radix ** all_designs[key].width) ** 2
        assert report.vectors_tested == space


def test_exhaustive_odd_widths():
    # widths off the reference sizes exercise the generic grouping
    from mvlmul import gen_multiplier
    for radix, width in ((2, 3), (2, 5), (4, 3)):
        assert verify_exhaustive(gen_multiplier(radix, width)).passed


def test_exhaustive_reproduces_digit_multiplier_table(q1):
    report = verify_exhaustive(q1)
    assert report.vectors_tested == 16 and report.passed
    for a, b in product(range(4), repeat=2):
        assert evaluate(q1, {"x0": a, "y0": b}) == \
            list(KERNELS["QM1"](a, b))


def test_exhaustive_cap(b8):
    with pytest.raises(VerificationSpaceError):
        verify_exhaustive(b8, cap=1000)


def test_random_is_deterministic(b8):
    r1 = verify_random(b8, 300, seed=42)
    r2 = verify_random(b8, 300, seed=42)
    assert r1.to_json() == r2.to_json()
    assert r1.passed


_SIMULATE = sim._simulate


def _spy_batches(monkeypatch, size):
    """Set the vectors per batch to ``size``; returns the list that then
    gets, per simulated batch, its rows of input digits."""
    monkeypatch.setattr(sim, "_batch_vectors", lambda *_: size)
    batches = []

    def spy(net, stream):
        for n, columns, got in _SIMULATE(net, stream):
            batches.append([[sum((p >> j & 1) << b for b, p in enumerate(c))
                             for c in columns] for j in range(n)])
            yield n, columns, got
    monkeypatch.setattr(sim, "_simulate", spy)
    return batches


def _batch_lengths(monkeypatch):
    """The list that gets the vector count of each simulated batch."""
    lengths = []

    def spy(run, stream):
        for n, columns, got in _SIMULATE(run, stream):
            lengths.append(n)
            yield n, columns, got
    monkeypatch.setattr(sim, "_simulate", spy)
    return lengths


def _count_draws(monkeypatch):
    """Count the ``getrandbits`` calls of the Random that sim makes."""
    calls = []

    class Counting(random.Random):
        def getrandbits(self, k):
            calls.append(k)
            return super().getrandbits(k)
    monkeypatch.setattr(sim, "random", SimpleNamespace(Random=Counting))
    return calls


# seven-vector batches, and 5,000 vectors at the sized batch, whose
# first batch takes several bulk draws
@pytest.mark.parametrize("design, seed, batch, count", [
    pytest.param(d, s, 7, 33, id=f"{d}-{s}")
    for d in ("b4", "q2") for s in (5, 2024)] + [
    pytest.param(d, 5, None, 5000, id=f"{d}-5-default-batch")
    for d in ("b4", "q2")])
def test_random_stream_is_randrange(monkeypatch, request, design, seed,
                                    batch, count):
    # the digits checked, across the batches, are the seeded stream
    # drawn one randrange(radix) at a time, x digits then y
    net = request.getfixturevalue(design)
    default = batch is None
    if default:
        batch = sim._batch_vectors(net, sim._steps(net), count)
    batches = _spy_batches(monkeypatch, batch)
    draws = _count_draws(monkeypatch)
    assert verify_random(net, count, seed).passed
    assert [len(b) for b in batches] == [
        min(batch, count - a) for a in range(0, count, batch)]
    if default:
        assert len(draws) > len(batches)
    rng = random.Random(seed)
    assert sum(batches, []) == [
        [rng.randrange(net.radix) for _ in range(2 * net.width)]
        for _ in range(count)]


@pytest.mark.parametrize("radix", range(2, 129))
def test_digit_source_is_randrange(radix):
    # taken in uneven pieces, so leftover digits carry between takes
    take = sim._digit_source(11, radix)
    got = b"".join(take(n) for n in (1, 0, 700, 5, 2300))
    rng = random.Random(11)
    assert got == bytes(rng.randrange(radix) for _ in range(3006))


def test_exhaustive_walks_before_it_sizes_the_space(b2):
    # the space, (radix ** width) ** 2, was sized before any check: with
    # a width of 2**70, b2 was still computing it after 3 s
    net = with_fields(b2, width=2 ** 70)
    with deadline(1.0), pytest.raises(NetlistError, match=(
            f"^expected {2 ** 71} operand digits \\(x then y\\), got 4$")):
        verify_exhaustive(net)


def test_random_rejects_zero_count(b2):
    with pytest.raises(ValueError):
        verify_random(b2, 0, seed=1)


def test_a_bad_argument_compiles_no_plan(monkeypatch):
    # verify_exhaustive built the whole step list, a plan per gate, before
    # it sized the space; the netlist's walk is all a bad argument needs
    plans, plan = [], sim._plan
    monkeypatch.setattr(sim, "_plan", lambda *a: plans.append(a) or plan(*a))
    net = gen_multiplier(2, 11)
    with pytest.raises(VerificationSpaceError, match="^4194304 vectors "
                       "exceed the cap of 1048576; use verify_random$"):
        verify_exhaustive(net)
    with pytest.raises(ValueError, match="^count must be >= 1, got 0$"):
        verify_random(net, 0, seed=1)
    assert plans == []
    verify_random(net, 1, seed=1)  # a run asks for a plan per gate
    assert len(plans) == len(net.gates)


@pytest.mark.parametrize("case", list(FIRST_FAULTS))
def test_a_bad_netlist_is_named_before_a_bad_argument(request, case):
    # the walk comes first: a cap of 0 and a count of 0 are both bad too
    design, edit, violation = FIRST_FAULTS[case]
    net = edit(request.getfixturevalue(design))
    for run in (lambda: verify_exhaustive(net, cap=0),
                lambda: verify_random(net, 0, seed=1)):
        with pytest.raises(NetlistError) as e:
            run()
        first = e.value.violations[0]
        assert (str(first), str(e.value)) == (violation, first.message)


def _corrupt(net):
    """Feed the first half adder twice from the same wire, in place: a
    real functional corruption that still validates."""
    victim = next(i for i, g in enumerate(net.gates)
                  if g.kind == "BIN_HA")
    g = net.gates[victim]
    net.gates[victim] = GateInstance(g.id, "BIN_HA",
                                     (g.inputs[0], g.inputs[0]), g.outputs)
    return net


def _fault_b4(b4):
    return _corrupt(Netlist.from_json(b4.to_json()))


def _x0_read_as_x1(net):
    """A copy whose digit cell g00000, x0 * y0, reads x1 in place of x0."""
    net = Netlist.from_json(net.to_json())
    at = next(i for i, g in enumerate(net.gates) if g.id == "g00000")
    g = net.gates[at]
    net.gates[at] = GateInstance(g.id, g.kind, tuple(
        "x1" if w == "x0" else w for w in g.inputs), g.outputs)
    return net


def test_random_report_independent_of_batch_size(monkeypatch, b4):
    # the faulty design pins mismatch order, not only the verdict: one
    # sized batch against 500 vectors in batches of 7, and against the
    # CLI's default count of 10,000 in the three batches of 4,096 that
    # every design once ran
    net = _fault_b4(b4)
    for count, batch in ((500, 7), (10_000, 4096)):
        monkeypatch.undo()
        sized = _batch_lengths(monkeypatch)
        whole = verify_random(net, count, seed=7)
        assert sized == [count]
        batches = _spy_batches(monkeypatch, batch)
        batched = verify_random(net, count, seed=7)
        assert len(batches) >= 3
        assert not whole.passed
        same = batched.to_json() == whole.to_json()  # fast on failure
        assert same, f"batch boundaries changed the report of {count}"


def test_exhaustive_order_across_batches(monkeypatch, b4):
    # the faulty design pins the row order: batches of 7 rows against a
    # row-by-row reference over itertools.product with x outer
    net = _fault_b4(b4)
    batches = _spy_batches(monkeypatch, 7)
    want = []
    for row in product(range(2), repeat=8):
        x, y = int_of(row[:4], 2), int_of(row[4:], 2)
        got = evaluate(net, _assign(net, x, y))
        if int_of(got, 2) != x * y:
            want.append({"x": list(row[:4]), "y": list(row[4:]),
                         "expected": list(digits_of(x * y, 2, 8)),
                         "got": got})
    assert want
    batches.clear()  # evaluate is a batch of one
    assert verify_exhaustive(net).mismatches == want
    assert [len(b) for b in batches] == [7] * 36 + [4]
    assert sum(batches, []) == [list(row)
                                for row in product(range(2), repeat=8)]


def test_exhaustive_batches_are_sized_by_the_design(monkeypatch, b8, q4):
    # every design ran 4,096 vectors per batch: b8 and q4 as 16 batches,
    # b10 as 256; the plane budget over their peaks of 82, 84 and 122
    # live planes is past the 65,536 cap
    lengths = _batch_lengths(monkeypatch)
    for net in (b8, q4):
        assert verify_exhaustive(net).passed
        assert lengths == [65536]
        lengths.clear()
    assert verify_exhaustive(gen_multiplier(2, 10)).passed
    assert lengths == [65536] * 16


@pytest.mark.parametrize("radix, width", [(2, 128), (4, 64)])
def test_wide_designs_keep_the_smallest_batch(radix, width):
    # 16,642 and 16,644 live planes: b128's 4,096-vector batch is the
    # budget, so neither batch grows, nor the memory it holds
    net = gen_multiplier(radix, width)
    run = sim._steps(net)
    for vectors in (4097, 10_000, 2 ** 20):
        assert sim._batch_vectors(net, run, vectors) == 4096


def test_one_fault_q4_report_independent_of_batch_size(monkeypatch, q4):
    # the benchmark's one-fault q4: 36,864 mismatches in one sized batch,
    # whose records are built only up to the last one kept
    net = _x0_read_as_x1(q4)
    lengths = _batch_lengths(monkeypatch)
    sized = {keep: verify_exhaustive(net, keep=keep) for keep in (10, None)}
    assert lengths == [65536, 65536]
    first = sized[10].mismatches[0]
    assert (first["x"], first["y"]) == ([0, 1, 0, 0], [1, 0, 0, 0])
    monkeypatch.setattr(sim, "_batch_vectors", lambda *_: 4096)
    for keep, report in sized.items():
        lengths.clear()
        same = verify_exhaustive(net, keep=keep).to_json() == report.to_json()
        assert same, keep
        assert lengths == [4096] * 16
        assert report.mismatch_count == 36864
        assert len(report.mismatches) == (10 if keep else 36864)


def test_verify_sees_in_place_edits(b4):
    net = Netlist.from_json(b4.to_json())
    assert verify_exhaustive(net).passed
    _corrupt(net)
    assert not verify_exhaustive(net).passed


def _slots(net):
    """Each wire's slot: the primary inputs take 0, 1, ..., then each
    gate's outputs the next ones, in gate order."""
    wires = [*net.primary_inputs, *(w for g in net.gates for w in g.outputs)]
    return {w: s for s, w in enumerate(wires)}


def test_each_plane_is_dropped_after_its_last_reader(all_designs):
    # every wire kept its planes until the batch ended
    for net in all_designs.values():
        steps, digits = sim._steps(net)
        slots = _slots(net)
        assert [ins for _, ins, _ in steps] == [
            tuple(map(slots.get, g.inputs)) for g in net.gates]
        assert digits == [slots[w] for w in net.primary_outputs]
        kept = set(range(len(net.primary_inputs))) | set(digits)
        last = {}  # slot -> the last step that reads or drives it
        for i, g in enumerate(net.gates):
            last.update((slots[w], i) for w in [*g.outputs, *g.inputs])
        dropped = [(s, i) for i, (_, _, drop) in enumerate(steps)
                   for s in drop]
        assert sorted(dropped) == sorted((s, i) for s, i in last.items()
                                         if s not in kept)
        assert len(dropped) == len(slots) - len(kept)
    # a carry no gate reads goes right after its own gate: that of b8's
    # last gate, g00126 (BIN_HA), provably zero
    net = all_designs[2, 8]
    steps, _ = sim._steps(net)
    assert net.gates[-1].outputs[-1] == "n00189"
    assert _slots(net)["n00189"] in steps[-1][2]


def test_batch_memory_is_the_planes_still_to_be_read():
    # every wire kept its planes until the batch ended: 4,096 vectors of
    # b32 peaked 1.9 MiB above 64, about what all its planes hold
    net = gen_multiplier(2, 32)
    verify_random(net, 64, seed=1)  # each plan is compiled once, here
    peaks = []
    for count in (64, 4096):
        tracemalloc.start()
        try:
            verify_random(net, count, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # half of one 4,096-bit plane per wire
    assert peaks[1] - peaks[0] < len(net.wires) * 4096 // 8 // 2


def test_fault_injection_is_caught(b4):
    net = _fault_b4(b4)
    report = verify_exhaustive(net)
    assert not report.passed
    assert report.mismatches
    assert not verify_random(net, 2000, seed=3).passed


def test_every_mismatch_counted_records_bounded():
    # x0*y0 read as x1*y0 is wrong where x0 != x1 and y0 = 1: a quarter
    # of the 2**20 vectors
    net = _x0_read_as_x1(gen_multiplier(2, 10))
    first = verify_exhaustive(net, keep=5)
    for keep in (0, 1, 5):
        report = verify_exhaustive(net, keep=keep)
        assert report.mismatch_count == 262144 and not report.passed
        assert report.mismatches == first.mismatches[:keep]
        assert '"mismatch_count": 262144,' in report.to_json()
    every = verify_random(net, 1000, seed=4)
    assert every.mismatch_count == len(every.mismatches) > 3
    some = verify_random(net, 1000, seed=4, keep=3)
    assert some.mismatch_count == every.mismatch_count
    assert some.mismatches == every.mismatches[:3]


def test_report_serialization(q2):
    report = verify_exhaustive(q2)
    text = report.to_json()
    assert '"passed": true' in text
    assert '"mode": "exhaustive"' in text
    a, b = (sim.VerificationReport("d", "random", 1, 0) for _ in range(2))
    assert a.passed and a.seed is None
    assert a.mismatches == [] and a.mismatches is not b.mismatches


# --- pinned reports ----------------------------------------------------------

# sha256 of to_json() with every record, as the simulator wrote them
# when it ran on numpy digit matrices; each report is made from the
# fixture getter
PINNED_REPORTS = {
    "b8": (lambda f: verify_exhaustive(f("b8")),
           "7d0eb4257cb441078c56ed3a0164205b746ed5ada86f1342baf423843c6afcb6",
           0),
    "q4": (lambda f: verify_exhaustive(f("q4")),
           "5adbae3c0dff7afdb1bab428549997d7a8301c4ef7419ecf7ed0d5f8935f6e10",
           0),
    "q4-fault": (
        lambda f: verify_exhaustive(_x0_read_as_x1(f("q4"))),
        "e7f6c0e31e0cb1932781ed311356e2696f9acb777e60571e409ea1121439367a",
        36864),
    "b4-fault-random": (
        lambda f: verify_random(_fault_b4(f("b4")), 3000, 7),
        "10cb2b2ecbf3856a2deee4617faf354fff1fefc6d796ef4bb706dd599c628b26",
        1146),
    "q16-random": (
        lambda f: verify_random(gen_multiplier(4, 16), 500, 3),
        "ade84bb564221fa1f8b973144e06f70ccecaec3a6542800959dbb0619fb6acef",
        0),
    # 9,000 vectors cross two batch boundaries of the default size
    "q4-fault-random": (
        lambda f: verify_random(_x0_read_as_x1(f("q4")), 9000, 7),
        "263f791869a08200723bb42a138a2a4170e19f2f87f3328a8d46f9ffcecb9b3a",
        5120),
}


@pytest.mark.parametrize("name", list(PINNED_REPORTS))
def test_reports_are_pinned(request, name):
    run, digest, count = PINNED_REPORTS[name]
    report = run(request.getfixturevalue)
    assert report.mismatch_count == len(report.mismatches) == count
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


def test_overflow_messages_are_pinned():
    net = _narrow_qha()
    msg = "wire s (gate g0, QHA) is declared 0..1 but can carry up to 3"
    for run in (lambda: evaluate(net, {"a": 1, "b": 1}),
                lambda: verify_exhaustive(net),
                lambda: verify_random(net, 50, 1)):
        with pytest.raises(NetlistError) as e:
            run()
        assert str(e.value) == msg
