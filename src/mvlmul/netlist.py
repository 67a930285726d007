"""Gate-level netlist: an immutable DAG of typed gate instances.

A wire is its id, mapped in :attr:`Netlist.wires` to its ``range_max``
(1/2/3).  Gates are listed in dependency order, each reading only
primary inputs and outputs of gates before it, so the list is an
evaluation order with no cycle.  :func:`validate_netlist` lists, in
one pass, every fault under the rules of a netlist, from the radix to
the product digits, the carry discipline among them (no wire wider than
the port it feeds), and :func:`walk` raises the first it lists.

Netlists serialize to a versioned JSON document; see :meth:`Netlist.to_json`.
The gate and violation records are namedtuples, as in every module of
the package: ``dataclasses`` would load ``inspect`` into every command.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import cache
from itertools import count, islice
from json.encoder import encode_basestring_ascii
from operator import countOf

from .core import PORTS, output_ranges

JSON_FORMAT = "mvl-netlist"
JSON_VERSION = 1
#: the most wires or gates in one piece of :meth:`Netlist.json_pieces`
_BLOCK = 1024
_WIRE_FIELDS = ("id", "range_max")  # a wire entry's fields, in order


class NetlistError(ValueError):
    """A netlist document cannot be parsed, or a netlist breaks a rule of
    :func:`walk`; then ``violations`` is what :func:`validate_netlist`
    lists for it."""

    def __init__(self, message: str, violations: Sequence[Violation] = ()):
        super().__init__(message)
        self.violations = violations


class GateInstance(namedtuple("GateInstance", "id kind inputs outputs")):
    """A gate: ``kind`` is a key of :data:`~mvlmul.core.PORTS`, and
    ``inputs`` and ``outputs`` are wire ids, in port order."""

    __slots__ = ()


class Violation(namedtuple("Violation", "code message")):
    __slots__ = ()

    def __str__(self):
        return f"[{self.code}] {self.message}"


class Netlist:
    """A generated or hand-built multiplier netlist.

    ``wires`` maps each wire id to its ``range_max``.  ``stats`` carries
    generator bookkeeping (stage count, tree/final-add inventories); it
    is advisory and not part of the structural identity.
    """

    def __init__(self, radix: int, width: int, wires: dict[str, int],
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
                          f'      "id": {q(wid)},\n'
                          f'      "range_max": {range_max}\n'
                          f'    }}' for wid, range_max in self.wires.items())
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
        it straight in, and the document is held once.  A wire record is
        the one ``(range_max,)`` tuple of its range, its id held only in
        the memo.  A record built outside its own array has the text parsed
        again, with none.  Each key of ``wires`` is the one string of its
        id that every gate port naming it holds."""
        memo, made = {}, count()  # wire id -> the one string that spells it
        try:
            doc = json.loads(text, object_pairs_hook=_record_hook(memo, made))
            arrays = [(doc.get("wires"), tuple), (doc.get("gates"),
                      GateInstance)] if type(doc) is dict else ()
            if next(made) > sum(countOf(map(type, a), record)
                                for a, record in arrays if type(a) is list):
                doc = json.loads(text)
        except ValueError as e:  # or an integer past the int-digit limit
            raise NetlistError(f"cannot read the JSON: {e}") from None
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
        # A record passed the hook's checks and sits nowhere else; a wire
        # record's id is the memo's next key, copied as dicts add their own.
        wires, share, ids = {}, memo.setdefault, iter(list(memo))
        for i, entry in enumerate(_field(doc, "wires", list)):
            try:
                wid, range_max = ((next(ids), *entry) if type(entry) is tuple
                                  else (entry["id"], entry["range_max"]))
            except (KeyError, TypeError):
                raise _entry_fault("wire", i, entry) from None
            if type(wid) is not str:
                raise _fault(f"wire id {wid!r} is not a string")
            if wid in wires:
                raise _fault(f"wire id {wid!r} is repeated")
            if type(range_max) is not int:
                raise _fault(f"wire range_max {range_max!r} of wire {wid!r} "
                             "is not an integer")
            wires[share(wid, wid)] = range_max
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
    fields, in order and of their types, becomes a ``(range_max,)`` tuple
    or a :class:`GateInstance`, and any other its dict.  A wire's id goes
    into ``memo``, in reading order, unless it is there already: then the
    wire stays a dict, for the reader to name the repeat.  So a wire
    record holds no id, and all those of one range are one tuple.  Each
    gate port is the string of a wire read before it, or the gate stays a
    dict.  Each record built draws one number from ``made``: where the
    object sits is unknown here, so the caller counts them (a JSON array
    is a list: a tuple can only come from here)."""
    known, new, tick = memo.__getitem__, tuple.__new__, made.__next__
    gate_fields, ranges = GateInstance._fields, {}

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
            if ((k0, k1) == _WIRE_FIELDS and type(wid) is str
                    and type(range_max) is int and wid not in memo):
                memo[wid] = wid
                tick()
                return ranges.setdefault(range_max, (range_max,))
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
    keys = _WIRE_FIELDS if what == "wire" else GateInstance._fields
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


# -- rules ------------------------------------------------------------------

#: each range a wire may declare: a binary, ternary or quaternary digit
_RANGES = frozenset((1, 2, 3))


def walk(net: Netlist) -> None:
    """Check every rule of a netlist, or raise a :class:`NetlistError`
    with the message of the first violation :func:`validate_netlist`
    lists, and the list.
    Rules: (1) the radix is 2 or 4, and the width N at least 1; (2) each
    declared range is 1, 2 or 3; (3) the primary inputs are 2N declared full
    digits of the radix, x then y; (4) each gate's id is no earlier
    gate's, and its kind is known, with its port counts; (5) each wire a
    gate names is declared; (6) each gate input is driven earlier, no
    output is, and no primary input is listed twice; (7) no input wire
    is wider than its port; (8) no declared output range is wider than
    its port, or narrower than what the gate can carry there from its
    declared input ranges; (9) each declared wire is driven; (10) the
    product digits are 2N declared wires (1 for the binary 1x1), each
    listed once.  So no wire leaves its range if no input leaves its own.
    """
    if violations := validate_netlist(net):
        raise NetlistError(violations[0].message, violations)


@cache
def _port_faults(kind: str, n_in: int, ranges: tuple) \
        -> tuple[tuple[str, str], ...]:
    """(code, message template naming the gate ``g``) of each fault under
    rules 4, 5, 7 and 8 of :func:`walk` of a ``kind`` gate whose inputs,
    then outputs, are declared ``ranges`` (None if undeclared)."""
    if kind not in PORTS:
        return (("kind", "gate {g.id} has unknown kind {g.kind!r}"),)
    spec, n_out = PORTS[kind], len(ranges) - n_in
    if (len(spec.inputs), len(spec.outputs)) != (n_in, n_out):
        return (("arity", f"gate {{g.id}} ({kind}) has {n_in} in / {n_out} "
                 f"out, not {len(spec.inputs)} / {len(spec.outputs)}"),)
    ports, faults = spec.inputs + spec.outputs, []
    for k, ((pname, pmax), r) in enumerate(zip(ports, ranges)):
        side, wire = (("input", f"{{g.inputs[{k}]}}") if k < n_in else
                      ("output", f"{{g.outputs[{k - n_in}]}}"))
        if r is None:
            faults.append(("missing-wire", f"gate {{g.id}} {side} {pname} "
                           f"-> {wire} undeclared"))
        elif r > pmax:
            faults.append(("range", f"gate {{g.id}} ({kind}) " + (
                f"port {pname} accepts max {pmax} but wire {wire} carries "
                f"up to {r}" if k < n_in else f"output {pname} max {pmax} "
                f"but wire {wire} declares {r}")))
    ins, outs = ranges[:n_in], ranges[n_in:]
    if all(r is not None and r <= hi for r, (_, hi) in zip(ins, ports)):
        faults += [("narrow", f"wire {{g.outputs[{k}]}} (gate {{g.id}}, "
                    f"{kind}) is declared 0..{r} but can carry up to {top}")
                   for k, (r, top) in enumerate(zip(outs, output_ranges(
                       kind, ins))) if r is not None and r < top]
    return tuple(faults)


def validate_netlist(n: Netlist) -> list[Violation]:
    """Every fault under :func:`walk`'s rules, in one pass over the
    gates; empty when sound.  Rules 1 to 3 come first, then rules 4, 5,
    7 and 8 per gate, then the wires with no driver or with more than
    one, rule 6's reads before a driver, and rule 10.  Reading a wire no
    gate drives is only that."""
    v: list[Violation] = []
    if n.radix not in (2, 4):
        v.append(Violation("radix", f"radix must be 2 or 4, got {n.radix}"))
    if n.width < 1:
        v.append(Violation("width", f"width must be >= 1, got {n.width}"))
    v += [Violation("wire-range", f"wire {wid} has range_max {r}")
          for wid, r in n.wires.items() if r not in _RANGES]
    for name in n.primary_inputs:
        if (r := n.wires.get(name)) is None:
            v.append(Violation("missing-wire",
                               f"input wire {name} undeclared"))
        elif r != n.radix - 1:
            v.append(Violation("input-range", f"input wire {name} has "
                               f"range_max {r}, radix {n.radix} digits need "
                               f"{n.radix - 1}"))
    if len(n.primary_inputs) != 2 * n.width:
        v.append(Violation("inputs", f"expected {2 * n.width} operand digits "
                           f"(x then y), got {len(n.primary_inputs)}"))
    # rule 6's (wire, fault) pairs, the wires driven and the gate ids met
    # so far (dicts: a set of ids is 2-2.5x larger), and each wire's
    # drivers past its first
    early, driven, seen, again = [], {}, {}, Counter()
    for w in n.primary_inputs:
        if w in driven:  # listed again
            again[w] += 1
        driven[w] = None
    ranges = n.wires.get
    for g in n.gates:
        gid, kind, ins, outs = g
        if gid in seen:
            v.append(Violation("dup-gate", f"gate id {gid} reused"))
        seen[gid] = None
        if faults := _port_faults(kind, len(ins),
                                  tuple(map(ranges, ins + outs))):
            v += [Violation(code, t.format(g=g)) for code, t in faults]
            if faults[0][0] in ("kind", "arity"):  # no port can be checked
                continue
        for w in ins:
            if w not in driven:
                early.append((w, Violation("order", f"gate {gid} reads wire "
                                           f"{w} before the gate that "
                                           "drives it")))
        for w in outs:
            if w in driven:
                again[w] += 1
            driven[w] = None
    for wid in n.wires:
        if wid not in driven:
            v.append(Violation("undriven", f"wire {wid} has no driver"))
        elif wid in again:
            v.append(Violation("multi-driver",
                               f"wire {wid} has {again[wid] + 1} drivers"))
    # read before the reading gate itself or a later one drives it
    v += [p for wid, p in early if wid in driven]
    v += [Violation("missing-wire", f"output wire {out} undeclared")
          for out in n.primary_outputs if out not in n.wires]
    v += [Violation("dup-output", f"wire {out} is listed as {c} product "
                    "digits") for out, c in Counter(n.primary_outputs).items()
          if c > 1]
    # a width-N multiplier has 2N product digits, but the binary 1x1, a
    # bare AND, has 1
    expected = 1 if n.radix == 2 and n.width == 1 else 2 * n.width
    if len(n.primary_outputs) != expected:
        v.append(Violation("outputs", f"expected {expected} product digits, "
                           f"got {len(n.primary_outputs)}"))
    return v
