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
worst-path figure at a fixed 2 fF load; :func:`calibrate_timing` is the
least-squares fit of per-kind delays to such aggregates, and the presets
agree with it.  So the only claim the model makes is path-composition
consistency: the generated design's worst path re-adds to the aggregate
it was calibrated against.  The digit-product stage (AND / QM1) is kept
out of path sums by default and reported separately, matching how the
reference aggregates are quoted.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations

from .core import CELLS, GateKind, PORTS
from .netlist import Netlist

#: gate kinds that form the digit-product stage; excluded from path
#: delay accounting by default (every input-to-output path crosses
#: exactly one of them, and the calibration aggregates leave them out).
FRONTEND_KINDS = frozenset(cells[0] for cells in CELLS.values())

#: retired kinds, priced at 0 by older library files: their keys are skipped
_RETIRED_KINDS = ("MUX4", "DECODER")


class LibraryError(KeyError):
    """A library document is malformed, or lacks an entry a netlist uses."""

    __str__ = Exception.__str__  # KeyError would quote the message


class CalibrationError(ValueError):
    """The calibration system is underdetermined or inconsistent."""


@contextmanager
def _library_errors(what: str):
    """Report a malformed library document as a :class:`LibraryError`."""
    try:
        yield
    except LibraryError:
        raise
    except (KeyError, ValueError, TypeError, AttributeError,
            RecursionError) as e:
        # bad JSON (a ValueError, or a RecursionError when nested too
        # deeply), a missing key or an unknown kind
        raise LibraryError(f"malformed {what} library: "
                           f"{type(e).__name__}: {e}") from None


def _checked(what: str, values: dict, name=str) -> dict:
    """``values`` as floats.  Each must be a number (as in JSON: not a
    bool, not a string) that is finite and >= 0."""
    for key, v in values.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise LibraryError(f"{what} for {name(key)} must be a number, "
                               f"got {v!r}")
        if not (math.isfinite(v) and v >= 0):
            raise LibraryError(f"{what} for {name(key)} must be finite and "
                               f">= 0, got {v}")
    return {key: float(v) for key, v in values.items()}


# ---------------------------------------------------------------------------
# cost (area) library
# ---------------------------------------------------------------------------

@dataclass
class CostLibrary:
    """Per-kind diameter sums (nm)."""

    name: str
    sigma_di: dict[GateKind, float]

    def __post_init__(self):
        self.sigma_di = _checked("area", self.sigma_di)

    def lookup(self, kind: GateKind) -> float:
        try:
            return self.sigma_di[kind]
        except KeyError:
            raise LibraryError(f"cost library {self.name!r} has no entry "
                               f"for {kind}") from None

    def require(self, net: Netlist) -> None:
        """Raise a :class:`LibraryError` naming each uncosted kind."""
        missing = sorted({g.kind for g in net.gates} - self.sigma_di.keys(),
                         key=lambda k: k.value)
        if missing:
            raise LibraryError(f"cost library {self.name!r} missing entries "
                               "for " + ", ".join(k.value for k in missing))

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "sigma_di": {
            k.value: v for k, v in self.sigma_di.items()}}, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CostLibrary":
        with _library_errors("cost"):
            doc = json.loads(text)
            return cls(name=doc.get("name", "custom"),
                       sigma_di={GateKind(k): v
                                 for k, v in doc["sigma_di"].items()
                                 if k not in _RETIRED_KINDS})


def default_cost_library() -> CostLibrary:
    """Diameter-sum costs for the bundled 32 nm CNTFET cells.

    QM1 is a block cost (decoders and muxes included); QFAC2WC reuses
    the QFAC2 figure since no separate number is available.
    """
    return CostLibrary(name="cntfet-32nm-default", sigma_di={
        GateKind.AND: 8.9,
        GateKind.BIN_HA: 18.0,
        GateKind.BIN_FA: 32.0,
        GateKind.QHA: 83.0,
        GateKind.QFAC2: 227.0,
        GateKind.QFAC2WC: 227.0,
        GateKind.QM1: 132.0,
    })


def area_estimate(net: Netlist, lib: CostLibrary) -> float:
    """Sum of per-gate diameter sums, in nanometers, added one gate at a
    time in gate order: from Python 3.12 on, ``sum`` of floats rounds
    differently, and compare output would depend on the Python."""
    lib.require(net)
    total = 0.0
    for g in net.gates:
        total += lib.lookup(g.kind)
    return total


# ---------------------------------------------------------------------------
# timing library
# ---------------------------------------------------------------------------

@dataclass
class TimingLibrary:
    """Per (kind, output port) propagation delays in picoseconds."""

    name: str
    delays: dict[tuple[GateKind, str], float]

    def __post_init__(self):
        self.delays = _checked("delay", self.delays,
                               name=lambda key: f"{key[0]}.{key[1]}")

    def delay(self, kind: GateKind, port: str) -> float:
        try:
            return self.delays[(kind, port)]
        except KeyError:
            raise LibraryError(f"timing library {self.name!r} has no entry "
                               f"for {kind}.{port}") from None

    def require(self, net: Netlist) -> None:
        """Raise a :class:`LibraryError` naming each port of ``net``'s
        kinds that has no delay, in :data:`~mvlmul.core.PORTS` order."""
        missing = [f"{kind}.{pname}"
                   for kind in sorted({g.kind for g in net.gates},
                                      key=lambda k: k.value)
                   for pname, _ in PORTS[kind].outputs
                   if (kind, pname) not in self.delays]
        if missing:
            raise LibraryError(f"timing library {self.name!r} missing "
                               "entries for " + ", ".join(missing))

    def scaled(self, k: float) -> "TimingLibrary":
        if k <= 0:
            raise ValueError("scale factor must be positive")
        return TimingLibrary(name=f"{self.name}*{k}",
                             delays={key: v * k
                                     for key, v in self.delays.items()})

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "delays": {
            f"{k}.{p}": v for (k, p), v in self.delays.items()}},
            indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TimingLibrary":
        with _library_errors("timing"):
            doc = json.loads(text)
            delays = {}
            for key, v in doc["delays"].items():
                kname, _, port = key.partition(".")
                if kname in _RETIRED_KINDS:
                    continue
                kind = GateKind(kname)
                if port not in dict(PORTS[kind].outputs):
                    raise LibraryError(f"timing key {key!r} is not "
                                       f"{kind}.<output port>")
                delays[(kind, port)] = v
            return cls(name=doc.get("name", "custom"), delays=delays)


def _uniform_delays(kinds_ps: dict[GateKind, float]) \
        -> dict[tuple[GateKind, str], float]:
    """Each kind's delay on every output port of that kind."""
    return {(kind, pname): ps for kind, ps in kinds_ps.items()
            for pname, _ in PORTS[kind].outputs}


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
    delay."""
    radix, aggregate_ps, path_cells, digit_ps = TIMING_PRESETS[name]
    digit, *adders = CELLS[radix]
    return TimingLibrary(name, _uniform_delays({
        digit: digit_ps,
        **dict.fromkeys(adders, aggregate_ps / path_cells)}))


timing_binary_0v9 = partial(timing_preset, "binary-0.9v")
timing_binary_0v45 = partial(timing_preset, "binary-0.45v")
timing_quaternary_0v9 = partial(timing_preset, "quaternary-0.9v")


def calibrate_timing(constraints, equal_groups=()) -> TimingLibrary:
    """Least-squares fit of per-kind delays to aggregate path delays.

    ``constraints`` is a list of (kind -> traversal count, observed ps)
    pairs.  ``equal_groups`` ties kinds to a shared delay (the usual
    symmetry assumption, e.g. FA and HA propagate alike); without enough
    ties a single aggregate cannot pin several kinds and the fit raises
    :class:`CalibrationError` naming the free variables.  The normal
    equations are solved exactly, by Gaussian elimination over
    fractions, so rank and free variables need no tolerance.
    """
    if not constraints:
        raise CalibrationError("at least one constraint required")
    kinds = sorted({k for counts, _ in constraints for k in counts},
                   key=lambda k: k.value)
    # the tied groups in order, then one group per untied kind
    groups = [set(g) for g in equal_groups]
    groups += [{k} for k in kinds if not any(k in g for g in groups)]
    group_of = {k: next(i for i, g in enumerate(groups) if k in g)
                for k in kinds}
    used = sorted({group_of[k] for k in kinds})
    col = {g: i for i, g in enumerate(used)}
    n = len(used)

    a = [[Fraction(0)] * n for _ in constraints]
    for row, (counts, _) in zip(a, constraints):
        for kind, cnt in counts.items():
            row[col[group_of[kind]]] += Fraction(cnt)
    b = [Fraction(observed) for _, observed in constraints]
    # [AᵀA | Aᵀb] to reduced row echelon form
    rows = [[sum(r[i] * r[j] for r in a) for j in range(n)]
            + [sum(r[i] * y for r, y in zip(a, b))] for i in range(n)]
    pivots = []
    for c in range(n):
        p = next((i for i in range(len(pivots), n) if rows[i][c]), None)
        if p is None:
            continue
        r = len(pivots)
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    if len(pivots) < n:
        # a column is free when some null-space vector moves it: every
        # non-pivot column, and each pivot its row ties to one of them
        loose = set(range(n)) - set(pivots)
        loose |= {p for r, p in enumerate(pivots)
                  if any(rows[r][c] for c in loose)}
        raise CalibrationError(
            "underdetermined calibration; free variables: "
            + ", ".join(sorted(k.value for k in kinds
                               if col[group_of[k]] in loose)))
    sol = {p: rows[r][n] for r, p in enumerate(pivots)}
    per_kind = {k: float(sol[col[group_of[k]]]) for k in kinds}
    if any(v < 0 for v in per_kind.values()):
        raise CalibrationError(f"fit produced negative delays: {per_kind}")
    return TimingLibrary(name="calibrated", delays=_uniform_delays(per_kind))


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------

@dataclass
class CriticalPath:
    delay_ps: float
    gates: list[str]
    kinds: list[GateKind]

    def kind_names(self) -> list[str]:
        return [k.value for k in self.kinds]


def critical_path(net: Netlist, lib: TimingLibrary,
                  exclude_kinds=FRONTEND_KINDS) -> CriticalPath:
    """Longest weighted input-to-output path (static analysis), in one
    backward pass over the gate list, which is in dependency order.

    Gate kinds in ``exclude_kinds`` contribute zero delay and are left
    out of the reported sequence (by default the digit-product stage).
    Ties between equally late paths break toward the lexicographically
    smallest gate-id sequence.
    """
    lib.require(net)
    exclude = frozenset(exclude_kinds)
    eps = 1e-9

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
            t = rem[ow] if g.kind in exclude else \
                lib.delay(g.kind, PORTS[g.kind].outputs[k][0]) + rem[ow]
            h = (g.id, k, i)
            for w in g.inputs:
                r = rem.get(w)
                if r is None or t > r + eps or (
                        t >= r - eps and hop[w] is not None and h < hop[w]):
                    hop[w] = h
                if r is None or t > r:
                    rem[w] = t

    starts = [w for w in net.primary_inputs if w in rem]
    if not starts or not net.gates:
        return CriticalPath(0.0, [], [])
    total = max(rem[w] for w in starts)
    # among equally late paths the smallest (gate id, port) hop wins at
    # every step, making the report stable
    w = min((w for w in starts if rem[w] >= total - eps),
            key=lambda w: hop[w] or ())
    gates_seq: list[str] = []
    kinds_seq: list[GateKind] = []
    while hop[w] is not None:
        g = order[hop[w][2]]
        if g.kind not in exclude:
            gates_seq.append(g.id)
            kinds_seq.append(g.kind)
        w = g.outputs[hop[w][1]]
    return CriticalPath(total, gates_seq, kinds_seq)


# ---------------------------------------------------------------------------
# comparison reports
# ---------------------------------------------------------------------------

@dataclass
class DesignMetrics:
    label: str
    radix: int
    width: int
    inventory: dict[str, int]
    area_nm: float
    delay_ps: float
    path_kinds: list[str]
    frontend_delay_ps: float
    energy: float | None = None  # never set (no power model): JSON null


def _fmt(ratio: float | None, template: str) -> str:
    """A pair ratio as text; ``None`` (a zero denominator) is "n/a"."""
    return "n/a" if ratio is None else template.format(ratio)


@dataclass
class ComparisonReport:
    designs: list[DesignMetrics]
    pair_ratios: list[dict]
    component_ratios: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"designs": [vars(d) for d in self.designs],
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


def _metrics_for(label: str, net: Netlist, cost: CostLibrary,
                 timing: TimingLibrary) -> DesignMetrics:
    cp = critical_path(net, timing)
    # the digit-product stage sits outside the path sum; report its own
    # delay alongside so nothing is hidden
    frontend = max([0.0] + [timing.delay(kind, pname) for kind in
                            FRONTEND_KINDS & {g.kind for g in net.gates}
                            for pname, _ in PORTS[kind].outputs])
    return DesignMetrics(label=label, radix=net.radix, width=net.width,
                         inventory=net.inventory(),
                         area_nm=area_estimate(net, cost),
                         delay_ps=cp.delay_ps, path_kinds=cp.kind_names(),
                         frontend_delay_ps=frontend)


def compare(designs) -> ComparisonReport:
    """Build a comparison over (label, netlist, cost_lib, timing_lib) tuples.

    Reports absolute metrics per design, pairwise area/delay ratios
    (first named design over second; ``None`` when the second is 0), and,
    whenever a quaternary design is paired with a binary one, the
    component-level adder ratios.
    """
    if len(designs) < 2:
        raise ValueError("compare needs at least two designs")
    metrics = [_metrics_for(*d) for d in designs]
    # each design's metrics with its cost library, paired in input order
    pairs = list(combinations(zip(metrics, (d[2] for d in designs)), 2))
    pair_ratios = [{
        "pair": f"{a.label} vs {b.label}",
        "area_ratio": a.area_nm / b.area_nm if b.area_nm else None,
        "delay_ratio": a.delay_ps / b.delay_ps if b.delay_ps else None,
        "smaller_area": a.label if a.area_nm <= b.area_nm else b.label,
        "faster": a.label if a.delay_ps <= b.delay_ps else b.label,
    } for (a, _), (b, _) in pairs]
    mixed = (_component_ratios(*p) for p in pairs
             if {p[0][0].radix, p[1][0].radix} == {2, 4})
    return ComparisonReport(designs=metrics, pair_ratios=pair_ratios,
                            component_ratios=next(filter(None, mixed), {}))


def _component_ratios(*pair: tuple[DesignMetrics, CostLibrary]) -> dict:
    """Quaternary-over-binary adder ratios for a (metrics, cost library)
    pair of one radix-4 and one radix-2 design, in either order.

    Area ratios compare the half and full adders of ``CELLS``; the full
    adder count includes the top-column adder.  A ratio whose binary
    figure is 0 is left out.
    """
    (qm, qcost), (bm, bcost) = sorted(pair, key=lambda p: -p[0].radix)
    q, b = CELLS[4], CELLS[2]
    try:
        area = {"ha": (qcost.lookup(q[1]), bcost.lookup(b[1])),
                "fa": (qcost.lookup(q[2]), bcost.lookup(b[2]))}
    except LibraryError:
        area = {}
    count = {"ha": (_count(qm, q[1:2]), _count(bm, b[1:2])),
             "fa": (_count(qm, q[2:]), _count(bm, b[2:]))}
    return {f"{cell}_{stat}_ratio": qv / bv
            for stat, ratios in (("area", area), ("count", count))
            for cell, (qv, bv) in ratios.items() if bv}


def _count(m: DesignMetrics, kinds) -> int:
    """Instances of ``m`` whose kind is one of ``kinds``."""
    return sum(m.inventory.get(k.value, 0) for k in set(kinds))
