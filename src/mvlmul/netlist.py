"""Gate-level netlist: an immutable DAG of typed gate instances.

Wires are single-driver and carry a ``range_max`` annotation (1/2/3).
The central structural rule is the carry discipline: a gate input port
only accepts wires whose range fits the port, so a quaternary wire can
never reach a ternary carry-in.  The gates are listed in dependency
order: each reads only primary inputs and outputs of gates listed
before it, so the list is an evaluation order and holds no cycle.
:func:`validate_netlist` checks both rules along with single drivers
and output completeness.

Netlists serialize to a versioned JSON document; see :meth:`Netlist.to_json`.
The records are namedtuples and plain classes, as in every module of the
package: ``dataclasses`` would load ``inspect`` into every command.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from itertools import count, islice
from json.encoder import encode_basestring_ascii
from operator import countOf

from .core import ARITY, PORTS

JSON_FORMAT = "mvl-netlist"
JSON_VERSION = 1
#: the most wires or gates in one piece of :meth:`Netlist.json_pieces`
_BLOCK = 1024


class NetlistError(ValueError):
    """Raised when a netlist document cannot be parsed or built."""


class Wire(namedtuple("Wire", "id range_max")):
    """A wire; ``range_max`` is 1 (binary), 2 (ternary) or 3 (quaternary)."""

    __slots__ = ()


class GateInstance(namedtuple("GateInstance", "id kind inputs outputs")):
    """A gate: ``kind`` is a key of :data:`~mvlmul.core.PORTS`, and
    ``inputs`` and ``outputs`` are wire ids, in port order."""

    __slots__ = ()

    def port_error(self) -> str:
        """Why this gate's kind is unknown or its port counts are wrong."""
        if self.kind not in ARITY:
            return f"gate {self.id} has unknown kind {self.kind!r}"
        n_in, n_out = ARITY[self.kind]
        return (f"gate {self.id} ({self.kind}) has {len(self.inputs)} in / "
                f"{len(self.outputs)} out, not {n_in} / {n_out}")

    def range_error(self, port: int, wire_max: int) -> str:
        """Why input ``port`` may not read its wire, of range 0..wire_max."""
        pname, pmax = PORTS[self.kind].inputs[port]
        return (f"gate {self.id} ({self.kind}) port {pname} accepts max {pmax}"
                f" but wire {self.inputs[port]} carries up to {wire_max}")


class Violation(namedtuple("Violation", "code message")):
    __slots__ = ()

    def __str__(self):
        return f"[{self.code}] {self.message}"


class Netlist:
    """A generated or hand-built multiplier netlist.

    ``stats`` carries generator bookkeeping (stage count, tree/final-add
    inventories); it is advisory and not part of the structural identity.
    """

    def __init__(self, radix: int, width: int, wires: dict[str, Wire],
                 gates: list[GateInstance], primary_inputs: list[str],
                 primary_outputs: list[str], stats: dict | None = None):
        self.radix = radix
        self.width = width
        self.wires = wires
        self.gates = gates
        self.primary_inputs = primary_inputs
        self.primary_outputs = primary_outputs
        self.stats = {} if stats is None else stats

    # -- queries ------------------------------------------------------

    def inventory(self) -> dict[str, int]:
        """Per-kind gate counts, e.g. ``{"AND": 64, "BIN_FA": 47, ...}``."""
        return dict(sorted(Counter([g.kind for g in self.gates]).items()))

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        """The netlist document, byte for byte as ``json.dumps(doc,
        indent=2) + "\\n"`` writes it for the same fields as dicts and lists.
        """
        return "".join(self.json_pieces())

    def json_pieces(self) -> Iterator[str]:
        """:meth:`to_json` in pieces of at most ``_BLOCK`` wires or gates,
        so that a writer never holds the whole text.

        The fixed schema is formatted here because ``json.dumps`` with an
        indent always runs the pure-Python encoder; strings still go
        through its C escaper.
        """
        q, sep = encode_basestring_ascii, ",\n        "
        yield (f'{{\n'
               f'  "format": {q(JSON_FORMAT)},\n'
               f'  "version": {JSON_VERSION},\n'
               f'  "radix": {self.radix},\n'
               f'  "width": {self.width},\n'
               f'  "inputs": {"".join(_array(map(q, self.primary_inputs)))},\n'
               f'  "outputs": {"".join(_array(map(q, self.primary_outputs)))},\n'
               f'  "wires": ')
        yield from _array(f'{{\n'
                          f'      "id": {q(w.id)},\n'
                          f'      "range_max": {w.range_max}\n'
                          f'    }}' for w in self.wires.values())
        yield ',\n  "gates": '
        gates = _array(f'{{\n'
                       f'      "id": {q(g.id)},\n'
                       f'      "kind": {q(g.kind)},\n'
                       f'      "inputs": [\n        {sep.join(map(q, g.inputs))}\n      ],\n'
                       f'      "outputs": [\n        {sep.join(map(q, g.outputs))}\n      ]\n'
                       f'    }}' for g in self.gates)
        # an empty port list, the one with no item inside, is written as []
        yield from (piece.replace("[\n        \n      ]", "[]")
                    for piece in gates)
        if self.stats:
            # an encoded string holds no raw newline, so this only indents
            yield (',\n  "meta": '
                   + json.dumps(self.stats, indent=2).replace("\n", "\n  "))
        yield "\n}\n"

    @classmethod
    def from_json(cls, text: str) -> "Netlist":
        """The netlist of a document.  Wire and gate entries become
        records as the JSON is parsed, and the text is let go after: pass
        it straight in, and the document is held once.  A record built
        outside its own array has the text parsed again, with no records."""
        memo, made = {}, count()  # wire id -> the one string that spells it
        try:
            doc = json.loads(text, object_pairs_hook=_record_hook(memo, made))
            arrays = [(doc.get("wires"), Wire), (doc.get("gates"),
                      GateInstance)] if type(doc) is dict else ()
            if next(made) > sum(countOf(map(type, a), record)
                                for a, record in arrays if type(a) is list):
                doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise NetlistError(f"not valid JSON: {e}") from None
        except RecursionError:
            raise NetlistError("JSON nested too deeply to read") from None
        del text
        if not isinstance(doc, dict):
            raise NetlistError("not a netlist document (top level is "
                               f"{type(doc).__name__}, not an object)")
        if doc.get("format") != JSON_FORMAT:
            raise NetlistError("not a netlist document "
                               f"(format={doc.get('format')!r})")
        version = doc.get("version")  # the JSON integer: not 1.0 or true
        if type(version) is not int or version != JSON_VERSION:
            raise NetlistError(f"unsupported version {version!r}")
        # each entry is checked where it is read, so the first fault in
        # reading order is named; a 3.7, "4" or true is no JSON integer.
        # A record passed the same checks in the hook, and none sits elsewhere.
        wires, share = {}, memo.setdefault
        for i, entry in enumerate(_field(doc, "wires", list)):
            if type(entry) is Wire:
                if entry.id in wires:
                    raise _fault(f"wire id {entry.id!r} is repeated")
                wires[entry.id] = entry
                continue
            try:
                wid, range_max = entry["id"], entry["range_max"]
            except (KeyError, TypeError):
                raise _entry_fault("wire", i, entry) from None
            if type(wid) is not str:
                raise _fault(f"wire id {wid!r} is not a string")
            if wid in wires:
                raise _fault(f"wire id {wid!r} is repeated")
            if type(range_max) is not int:
                raise _fault(f"wire range_max {range_max!r} of wire {wid!r} "
                             "is not an integer")
            wires[wid] = Wire(share(wid, wid), range_max)
        gates = _field(doc, "gates", list)
        for i, entry in enumerate(gates):
            if type(entry) is GateInstance:
                continue
            try:
                gid, kind = entry["id"], entry["kind"]
                ins, outs = entry["inputs"], entry["outputs"]
            except (KeyError, TypeError):
                raise _entry_fault("gate", i, entry) from None
            if type(kind) is not str or kind not in PORTS:
                raise _entry_fault("gate", i, entry,
                                   f"kind {kind!r} is not a gate kind")
            if type(ins) is not list or type(outs) is not list:
                raise _entry_fault("gate", i, entry, ("outputs" if type(ins)
                                   is list else "inputs") + " is not an array")
            if type(gid) is not str:
                raise _fault(f"gate id {gid!r} of gate {i} is not a string")
            for w in ins + outs:
                if type(w) is not str:
                    raise _fault(f"gate port wire {w!r} of gate {gid!r} "
                                 "is not a string")
            gates[i] = GateInstance(gid, _KINDS[kind],
                                    tuple(share(w, w) for w in ins),
                                    tuple(share(w, w) for w in outs))
        radix, width = _field(doc, "radix", int), _field(doc, "width", int)
        inputs = _field(doc, "inputs", list, "primary input")
        outputs = _field(doc, "outputs", list, "primary output")
        meta = doc.get("meta", {})
        if type(meta) is not dict:
            raise _fault("meta is not an object")
        return cls(radix, width, wires, gates, inputs, outputs, meta)


#: each gate kind, mapped to the :data:`~mvlmul.core.PORTS` key that spells it
_KINDS = {kind: kind for kind in PORTS}


def _record_hook(memo: dict[str, str], made: count):
    """A ``json.loads`` hook: an object with only a wire's or a gate's
    fields, in record order and of their types, becomes that record, and
    any other its dict.  A wire id goes through ``memo``, so each gate
    port is the string of a wire read before it, or the gate stays a
    dict.  Each record built draws one number from ``made``: where the
    object sits is unknown here, so the caller counts them."""
    share, known, new, tick = (memo.setdefault, memo.__getitem__,
                               tuple.__new__, made.__next__)
    gate_fields, wire_fields = GateInstance._fields, Wire._fields

    def hook(pairs):
        if len(pairs) == 4:
            (k0, gid), (k1, kind), (k2, ins), (k3, outs) = pairs
            if ((k0, k1, k2, k3) == gate_fields and type(gid) is str
                    and type(ins) is list and type(outs) is list):
                try:  # fails on an unknown kind or wire, or a non-string
                    gate = new(GateInstance, (gid, _KINDS[kind],
                                              tuple(map(known, ins)),
                                              tuple(map(known, outs))))
                except (KeyError, TypeError):
                    return dict(pairs)
                tick()
                return gate
        elif len(pairs) == 2:
            (k0, wid), (k1, range_max) = pairs
            if ((k0, k1) == wire_fields and type(wid) is str
                    and type(range_max) is int):
                tick()
                return new(Wire, (share(wid, wid), range_max))
        return dict(pairs)
    return hook


def _fault(problem: str) -> NetlistError:
    return NetlistError("malformed netlist document: " + problem)


def _entry_fault(what: str, i: int, entry, problem="") -> NetlistError:
    """The fault of the ``i``-th ``what`` (wire or gate): that ``entry``
    is not an object, else the first key it lacks, else ``problem``.  It
    is named by its id when that is a string, else by its index."""
    if type(entry) is not dict:
        return _fault(f"{what} {i} is not an object")
    eid = entry.get("id")
    keys = (Wire if what == "wire" else GateInstance)._fields  # read order
    problem = next((f"has no {k}" for k in keys if k not in entry), problem)
    return _fault(f"{what} {eid!r} {problem}" if type(eid) is str
                  else f"{what} {i} {problem}")


def _field(doc: dict, key: str, typ: type, item: str = ""):
    """``doc[key]``: a JSON integer (``typ`` int) or array (``typ`` list;
    ``tuple()`` would turn an object into its keys and a string into its
    characters), whose members are strings if ``item`` names them."""
    if key not in doc:
        raise _fault(f"the document has no {key}")
    value = doc[key]
    if type(value) is not typ:
        raise _fault(f"{key} is not an array" if typ is list
                     else f"{key} {value!r} is not an integer")
    for v in value if item else ():
        if type(v) is not str:
            raise _fault(f"{item} {v!r} is not a string")
    return value


def _array(items: Iterable[str]) -> Iterator[str]:
    """Rendered JSON items as a top-level field's array, laid out as
    ``json.dumps(..., indent=2)`` lays it out, in pieces of ``_BLOCK``."""
    items, opening, sep = iter(items), "[\n    ", ",\n    "
    while block := list(islice(items, _BLOCK)):
        yield opening + sep.join(block)
        opening = sep
    yield "\n  ]" if opening == sep else "[]"


def validate_netlist(n: Netlist) -> list[Violation]:
    """Check structural invariants; returns an empty list when sound.

    Checks: field sanity, wire ranges, primary-input count and digit
    ranges, gate kinds, port arity, single drivers, dangling inputs,
    port/wire range compatibility (no quaternary wire on a carry port),
    gate order (no gate reads a wire before the gate that drives it),
    and product-output completeness (each digit named once).
    """
    v: list[Violation] = []
    if n.radix not in (2, 4):
        v.append(Violation("radix", f"radix must be 2 or 4, got {n.radix}"))
    if n.width < 1:
        v.append(Violation("width", f"width must be >= 1, got {n.width}"))

    for w in n.wires.values():
        if w.range_max not in (1, 2, 3):
            v.append(Violation("wire-range",
                               f"wire {w.id} has range_max {w.range_max}"))

    wire = n.wires.get
    seen_gate_ids = set()
    drivers: dict[str, int] = {}  # per driven wire, its driver count
    early: list[tuple[str, str]] = []  # (gate, wire) read before any driver
    for name in n.primary_inputs:
        if name not in n.wires:
            v.append(Violation("missing-wire", f"input wire {name} undeclared"))
        elif n.wires[name].range_max != n.radix - 1:
            v.append(Violation(
                "input-range", f"input wire {name} has range_max "
                f"{n.wires[name].range_max}, radix {n.radix} digits need "
                f"{n.radix - 1}"))
        drivers[name] = drivers.get(name, 0) + 1
    if len(n.primary_inputs) != 2 * n.width:
        v.append(Violation("inputs", f"expected {2 * n.width} operand "
                           f"digits (x then y), got {len(n.primary_inputs)}"))

    for g in n.gates:
        if g.id in seen_gate_ids:
            v.append(Violation("dup-gate", f"gate id {g.id} reused"))
        seen_gate_ids.add(g.id)
        spec = PORTS.get(g.kind)
        if spec is None or (len(g.inputs), len(g.outputs)) != ARITY[g.kind]:
            v.append(Violation("kind" if spec is None else "arity",
                               g.port_error()))
            continue
        for (pname, pmax), wid in zip(spec.inputs, g.inputs):
            w = wire(wid)
            if w is None:
                v.append(Violation("missing-wire",
                                   f"gate {g.id} input {pname} -> {wid} undeclared"))
            elif w.range_max > pmax:
                v.append(Violation("range", g.range_error(
                    spec.inputs.index((pname, pmax)), w.range_max)))
            if wid not in drivers:  # not driven yet: later, or never
                early.append((g.id, wid))
        for (pname, pmax), wid in zip(spec.outputs, g.outputs):
            w = wire(wid)
            if w is None:
                v.append(Violation("missing-wire",
                                   f"gate {g.id} output {pname} -> {wid} undeclared"))
            else:
                drivers[wid] = drivers.get(wid, 0) + 1
                if w.range_max > pmax:
                    v.append(Violation(
                        "range", f"gate {g.id} ({g.kind}) output {pname} "
                        f"max {pmax} but wire {wid} declares {w.range_max}"))

    for wid in n.wires:
        c = drivers.get(wid, 0)
        if c == 0:
            v.append(Violation("undriven", f"wire {wid} has no driver"))
        elif c > 1:
            v.append(Violation("multi-driver", f"wire {wid} has {c} drivers"))
    # a wire no gate drives is only undriven; one driven by the reading
    # gate itself or a later one breaks the order (a cycle always does)
    v += [Violation("order", f"gate {gid} reads wire {wid} before the "
                    "gate that drives it")
          for gid, wid in early if wid in drivers]

    for out in n.primary_outputs:
        if out not in n.wires:
            v.append(Violation("missing-wire", f"output wire {out} undeclared"))
    for out, c in Counter(n.primary_outputs).items():
        if c > 1:
            v.append(Violation("dup-output",
                               f"wire {out} is listed as {c} product digits"))

    # completeness: a width-N multiplier emits 2N digits; the degenerate
    # binary 1x1 is a bare AND whose product is a single bit.
    expected = 2 * n.width
    if n.radix == 2 and n.width == 1:
        expected = 1
    if len(n.primary_outputs) != expected:
        v.append(Violation("outputs", f"expected {expected} product digits, "
                           f"got {len(n.primary_outputs)}"))
    return v
