"""Area estimation, calibrated timing, critical paths and comparisons.

Area is the transistor-diameter-sum proxy: each gate kind carries one
number (nanometers) and a netlist's area is the plain sum over its
instances.  A library holds only what pricing reads; which cell plays
which role comes from :data:`~mvlmul.core.CELLS`.  The bundled default
library targets a 32 nm CNTFET flow; the digit multiplier (QM1) and
the quaternary adders are block costs that include their internal
decoders and muxes.

Timing is a calibrated lookup model, not a prediction.  Each preset is
one row of :data:`TIMING_PRESETS`, and :func:`timing_preset` gives
every adder of its radix an equal share of the row's aggregate
worst-path figure at a fixed 2 fF load.  So the only claim the model
makes is path-composition consistency: the generated design's worst
path re-adds to the aggregate it was calibrated against.  The
digit-product stage (AND / QM1) is kept out of path sums by default and
reported separately, matching how the reference aggregates are quoted.

The records are namedtuples and plain classes, as in :mod:`mvlmul.netlist`.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from functools import partial
from itertools import combinations, starmap

from .core import CELLS, PORTS
from .netlist import Netlist, walk

#: gate kinds that form the digit-product stage; excluded from path
#: delay accounting by default (every input-to-output path crosses
#: exactly one of them, and the reference aggregates leave them out).
FRONTEND_KINDS = frozenset(cells[0] for cells in CELLS.values())


class LibraryError(ValueError):
    """A library document is malformed, or lacks an entry a netlist uses."""


def _document(what: str, text: str, section: str) -> tuple[str, dict]:
    """The name and the ``section`` of a ``what`` library document: a
    JSON object whose ``section`` is an object and whose ``name``, if
    given, is a string."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # too deep is a RecursionError
        problem = f"{type(e).__name__}: {e}"
    else:
        problem = ("the document is not an object" if type(doc) is not dict
                   else f"the document has no {section}"
                   if section not in doc
                   else f"{section} is not an object"
                   if type(doc[section]) is not dict
                   else f"name {doc['name']!r} is not a string"
                   if type(doc.get("name", "")) is not str else None)
    if problem:
        raise LibraryError(f"malformed {what} library: {problem}")
    return doc.get("name", "custom"), doc[section]


def _kind(what: str, name: str) -> str:
    """``name``, which must be a gate kind, read from a ``what`` library."""
    if name not in PORTS:
        raise LibraryError(f"malformed {what} library: {name!r} is not a "
                           "gate kind")
    return name


def _checked(what: str, values: dict, name=str) -> dict:
    """``values`` as floats.  Each must be a number (as in JSON: not a
    bool, not a string) that is finite and >= 0; an int too large for a
    float is not finite."""
    for key, v in values.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise LibraryError(f"{what} for {name(key)} must be a number, "
                               f"got {v!r}")
        if not 0 <= v <= sys.float_info.max:
            raise LibraryError(f"{what} for {name(key)} must be finite and "
                               f">= 0, got {v}")
    return {key: float(v) for key, v in values.items()}


# -- cost (area) library ------------------------------------------------------

class CostLibrary:
    """Per-kind diameter sums (nm)."""

    def __init__(self, name: str, sigma_di: dict[str, float]):
        self.name = name
        self.sigma_di = _checked("area", sigma_di)

    def require(self, net: Netlist) -> None:
        """Raise a :class:`LibraryError` naming each uncosted kind."""
        missing = sorted({g.kind for g in net.gates} - self.sigma_di.keys())
        if missing:
            raise LibraryError(f"cost library {self.name!r} missing entries "
                               "for " + ", ".join(missing))

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "sigma_di": self.sigma_di},
                          indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CostLibrary":
        name, sigma_di = _document("cost", text, "sigma_di")
        return cls(name, {_kind("cost", k): v for k, v in sigma_di.items()})


def default_cost_library() -> CostLibrary:
    """Diameter-sum costs for the bundled 32 nm CNTFET cells.

    QM1 is a block cost (decoders and muxes included); QFAC2WC reuses
    the QFAC2 figure since no separate number is available.
    """
    return CostLibrary(name="cntfet-32nm-default", sigma_di={
        "AND": 8.9, "BIN_HA": 18.0, "BIN_FA": 32.0, "QHA": 83.0,
        "QFAC2": 227.0, "QFAC2WC": 227.0, "QM1": 132.0})


def area_estimate(net: Netlist, lib: CostLibrary) -> float:
    """Sum of per-gate diameter sums, in nanometers, added one gate at a
    time in gate order: from Python 3.12 on, ``sum`` of floats rounds
    differently, and compare output would depend on the Python."""
    lib.require(net)
    total = 0.0
    for g in net.gates:
        total += lib.sigma_di[g.kind]
    return total


# -- timing library -----------------------------------------------------------

class TimingLibrary:
    """Per (kind, output port) propagation delays in picoseconds."""

    def __init__(self, name: str, delays: dict[tuple[str, str], float]):
        self.name = name
        self.delays = _checked("delay", delays,
                               name=lambda key: f"{key[0]}.{key[1]}")

    def require(self, net: Netlist) -> None:
        """Raise the error of :func:`~mvlmul.netlist.walk`, or else a
        :class:`LibraryError` naming each port of ``net``'s kinds that has
        no delay, in :data:`~mvlmul.core.PORTS` order."""
        walk(net)
        missing = [f"{kind}.{pname}"
                   for kind in sorted({g.kind for g in net.gates})
                   for pname, _ in PORTS[kind].outputs
                   if (kind, pname) not in self.delays]
        if missing:
            raise LibraryError(f"timing library {self.name!r} missing "
                               "entries for " + ", ".join(missing))

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "delays": {
            f"{k}.{p}": v for (k, p), v in self.delays.items()}},
            indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TimingLibrary":
        name, entries = _document("timing", text, "delays")
        delays = {}
        for key, v in entries.items():
            kind, _, port = key.partition(".")
            if port not in dict(PORTS[_kind("timing", kind)].outputs):
                raise LibraryError(f"timing key {key!r} is not "
                                   f"{kind}.<output port>")
            delays[(kind, port)] = v
        return cls(name, delays)


#: each timing preset by name: (radix, aggregate worst-path ps of its
#: reference design at 2 fF load, adder cells on that path, digit-cell
#: ps).  The 8x8-bit worst path crosses 15 adder cells (tree depth 4
#: plus an 11-cell ripple chain); the 4x4-quit path crosses 7 (4 QFAC2
#: in the tree, then QHA + QFAC2 + QFAC2WC).
TIMING_PRESETS = {
    "binary-0.9v": (2, 312.0, 15, 0.0),
    "binary-0.45v": (2, 799.0, 15, 0.0),
    "quaternary-0.9v": (4, 646.0, 7, 118.0),
}


def timing_preset(name: str) -> TimingLibrary:
    """Preset ``name``: every adder of its radix's ``CELLS`` gets an
    equal share of the aggregate worst path, and the digit cell its own
    delay, on every output port."""
    radix, aggregate_ps, path_cells, digit_ps = TIMING_PRESETS[name]
    digit = CELLS[radix][0]
    return TimingLibrary(name, {
        (kind, pname): digit_ps if kind == digit else aggregate_ps / path_cells
        for kind in dict.fromkeys(CELLS[radix])
        for pname, _ in PORTS[kind].outputs})


# -- critical path ------------------------------------------------------------

#: a worst path: its delay (ps), and its gate ids and kinds in order
CriticalPath = namedtuple("CriticalPath", "delay_ps gates kinds")


def critical_path(net: Netlist, lib: TimingLibrary,
                  exclude_kinds=FRONTEND_KINDS) -> CriticalPath:
    """Longest weighted input-to-output path (static analysis), in one
    backward pass over the gate list that reads ``lib.delays``, once
    ``lib.require`` has checked the netlist (a dependency order among its
    rules) and named any port of its kinds that has no delay.

    Gate kinds in ``exclude_kinds`` contribute zero delay and are left
    out of the reported sequence (by default the digit-product stage).
    Ties between equally late paths break toward the lexicographically
    smallest gate-id sequence.
    """
    lib.require(net)
    exclude = frozenset(exclude_kinds)
    eps = 1e-9
    # each kind's delay per output port; an excluded kind's 0.0 adds exactly
    delays = {kind: [0.0 if kind in exclude else lib.delays[(kind, p)]
                     for p, _ in PORTS[kind].outputs]
              for kind in {g.kind for g in net.gates}}

    # one reverse pass: per wire, the latest remaining delay down to any
    # output, and the first hop (gate id, port, position) that achieves
    # it; a primary output with nothing later keeps the hop None
    order = net.gates  # a dependency order, read backwards
    rem = {w: 0.0 for w in net.primary_outputs}
    hop: dict[str, tuple | None] = dict.fromkeys(rem)
    for i in range(len(order) - 1, -1, -1):
        g = order[i]
        for k, ow in enumerate(g.outputs):
            if ow not in rem:
                continue
            t = delays[g.kind][k] + rem[ow]
            h = (g.id, k, i)
            for w in g.inputs:
                r = rem.get(w)
                if r is None or t > r + eps or t >= r - eps and (
                        hop[w] is not None and h < hop[w]):
                    hop[w] = h
                if r is None or t > r:
                    rem[w] = t

    # each product digit is driven, so some primary input reaches one
    starts = [w for w in net.primary_inputs if w in rem]
    total = max(rem[w] for w in starts)
    # among equally late paths the smallest (gate id, port) hop wins at
    # every step, making the report stable
    w = min((w for w in starts if rem[w] >= total - eps),
            key=lambda w: hop[w] or ())
    gates_seq: list[str] = []
    kinds_seq: list[str] = []
    while hop[w] is not None:
        g = order[hop[w][2]]
        if g.kind not in exclude:
            gates_seq.append(g.id)
            kinds_seq.append(g.kind)
        w = g.outputs[hop[w][1]]
    return CriticalPath(total, gates_seq, kinds_seq)


# -- comparison reports -------------------------------------------------------

#: one design's figures; ``energy`` is never set (no power model), so
#: its JSON is null
DesignMetrics = namedtuple(
    "DesignMetrics", "label radix width inventory area_nm delay_ps "
                     "path_kinds frontend_delay_ps energy", defaults=(None,))


def _fmt(ratio: float | None, template: str) -> str:
    """A pair ratio as text; ``None`` (a zero denominator) is "n/a"."""
    return "n/a" if ratio is None else template.format(ratio)


class ComparisonReport(namedtuple("ComparisonReport",
                                  "designs pair_ratios component_ratios")):
    """Per-design metrics, pairwise ratios and component ratios."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"designs": [d._asdict() for d in self.designs],
                "pair_ratios": self.pair_ratios,
                "component_ratios": self.component_ratios}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_markdown(self) -> str:
        lines = ["| design | radix | width | gates | area ΣDi (nm) | "
                 "worst path (ps) | digit stage (ps) |",
                 "|---|---|---|---|---|---|---|"]
        for d in self.designs:
            inv = " ".join(f"{k}:{v}" for k, v in sorted(d.inventory.items()))
            lines.append(f"| {d.label} | {d.radix} | {d.width} | {inv} | "
                         f"{d.area_nm:g} | {d.delay_ps:g} | "
                         f"{d.frontend_delay_ps:g} |")
        if self.pair_ratios:
            lines += ["", "| pair | area ratio | delay ratio | smaller area "
                      "| faster |", "|---|---|---|---|---|"]
            for r in self.pair_ratios:
                lines.append(f"| {r['pair']} | "
                             f"{_fmt(r['area_ratio'], 'x{:.2f}')} | "
                             f"{_fmt(r['delay_ratio'], 'x{:.2f}')} | "
                             f"{r['smaller_area']} | {r['faster']} |")
        if self.component_ratios:
            lines += ["", "| component ratio | value |", "|---|---|"]
            for k, v in self.component_ratios.items():
                lines.append(f"| {k} | {v:.4g} |")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        rows = ["section,key,value"]
        for d in self.designs:
            rows.append(f"design,{d.label}.area_nm,{d.area_nm:g}")
            rows.append(f"design,{d.label}.delay_ps,{d.delay_ps:g}")
            for k, v in sorted(d.inventory.items()):
                rows.append(f"design,{d.label}.count.{k},{v}")
        for r in self.pair_ratios:
            for k in ("area_ratio", "delay_ratio"):
                rows.append(f"pair,{r['pair']}.{k},{_fmt(r[k], '{:.6g}')}")
        for k, v in self.component_ratios.items():
            rows.append(f"component,{k},{v:.6g}")
        return "\n".join(rows) + "\n"


def _priced(cost: CostLibrary, label: str, net: Netlist,
            timing: TimingLibrary) -> DesignMetrics:
    """A design's metrics, its area priced by ``cost``."""
    cp = critical_path(net, timing)
    # the digit-product stage sits outside the path sum; report its own
    # delay alongside so nothing is hidden
    frontend = max([0.0] + [timing.delays[(kind, pname)] for kind in
                            FRONTEND_KINDS & {g.kind for g in net.gates}
                            for pname, _ in PORTS[kind].outputs])
    return DesignMetrics(label=label, radix=net.radix, width=net.width,
                         inventory=net.inventory(),
                         area_nm=area_estimate(net, cost),
                         delay_ps=cp.delay_ps, path_kinds=list(cp.kinds),
                         frontend_delay_ps=frontend)


def compare(cost: CostLibrary, designs) -> ComparisonReport:
    """Compare (label, netlist, timing_lib) designs, all priced by ``cost``.

    Reports absolute metrics per design, pairwise area/delay ratios
    (first named design over second; ``None`` when the second is 0), and,
    whenever a quaternary design is paired with a binary one, the
    component-level adder ratios.

    ``designs`` may be any iterable: each design is priced as it arrives
    and only its metrics are kept, so a generator's netlist is let go
    before the next is built.  Fewer than two designs raise
    ``ValueError``, once they are priced.
    """
    # starmap holds no tuple while it draws the next; a loop name would
    metrics = list(starmap(partial(_priced, cost), designs))
    if len(metrics) < 2:
        raise ValueError("compare needs at least two designs")
    pairs = list(combinations(metrics, 2))  # in input order
    pair_ratios = [{
        "pair": f"{a.label} vs {b.label}",
        "area_ratio": a.area_nm / b.area_nm if b.area_nm else None,
        "delay_ratio": a.delay_ps / b.delay_ps if b.delay_ps else None,
        "smaller_area": a.label if a.area_nm <= b.area_nm else b.label,
        "faster": a.label if a.delay_ps <= b.delay_ps else b.label,
    } for a, b in pairs]
    mixed = (_component_ratios(cost, a, b) for a, b in pairs
             if {a.radix, b.radix} == {2, 4})
    return ComparisonReport(designs=metrics, pair_ratios=pair_ratios,
                            component_ratios=next(filter(None, mixed), {}))


def _component_ratios(cost: CostLibrary, *pair: DesignMetrics) -> dict:
    """Quaternary-over-binary adder ratios for a pair of one radix-4 and
    one radix-2 design, in either order, both priced by ``cost``.

    Area ratios compare the half and full adders of ``CELLS``; the full
    adder count includes the top-column adder.  A ratio whose binary
    figure is 0 is left out, as are both area ratios if ``cost`` lacks
    an adder.
    """
    qm, bm = sorted(pair, key=lambda m: -m.radix)
    q, b = CELLS[4], CELLS[2]
    sd = cost.sigma_di
    area = {"ha": (sd[q[1]], sd[b[1]]), "fa": (sd[q[2]], sd[b[2]])} \
        if sd.keys() >= {*q[1:3], *b[1:3]} else {}
    count = {"ha": (_count(qm, q[1:2]), _count(bm, b[1:2])),
             "fa": (_count(qm, q[2:]), _count(bm, b[2:]))}
    return {f"{cell}_{stat}_ratio": qv / bv
            for stat, ratios in (("area", area), ("count", count))
            for cell, (qv, bv) in ratios.items() if bv}


def _count(m: DesignMetrics, kinds) -> int:
    """Instances of ``m`` whose kind is one of ``kinds``."""
    return sum(m.inventory.get(k, 0) for k in set(kinds))
