"""Structural SPICE-style export.

Each gate kind becomes one black-box ``.SUBCKT`` (port list only, no
transistor body), and the netlist becomes a top-level subcircuit that
instantiates them.  The text depends only on the netlist, so exporting
the same design twice is byte-identical.  No simulator is invoked or
implied; the deck is a structural interchange format.
"""

from __future__ import annotations

from .core import ARITY, PORTS
from .netlist import Netlist


class SpiceExportError(ValueError):
    """A gate's kind is unknown, or its port counts are not the kind's."""


def export_spice(net: Netlist) -> str:
    """Render a netlist as a hierarchical structural deck."""
    cells = []
    for g in net.gates:
        if (len(g.inputs), len(g.outputs)) != ARITY.get(g.kind):
            raise SpiceExportError(g.port_error())
        cells.append(f"X{g.id} {' '.join(g.inputs + g.outputs)} {g.kind}")
    name = f"mul_r{net.radix}_w{net.width}"
    lines = [f"* {name}: structural deck, behavioral black-box cells",
             f"* radix={net.radix} width={net.width} "
             f"gates={len(net.gates)} wires={len(net.wires)}"]
    for k, wid in enumerate(net.primary_outputs):
        lines.append(f"* product digit {k} = {wid}")
    lines.append("")

    for kind in sorted({g.kind for g in net.gates}):
        spec = PORTS[kind]
        ports = " ".join(n for n, _ in spec.inputs + spec.outputs)
        lines.append(f".SUBCKT {kind} {ports}")
        lines.append(f"* behavioral black box ({len(spec.inputs)} in, "
                     f"{len(spec.outputs)} out)")
        lines.append(".ENDS")
        lines.append("")

    ports = " ".join(net.primary_inputs + net.primary_outputs)
    lines += [f".SUBCKT {name} {ports}", *cells, ".ENDS", ".END"]
    return "\n".join(lines) + "\n"
