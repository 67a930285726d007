"""Structural SPICE-style export.

Each gate kind becomes one black-box ``.SUBCKT`` (port list only, no
transistor body), and the netlist becomes a top-level subcircuit that
instantiates them.  The text depends only on the netlist, so exporting
the same design twice is byte-identical.  No simulator is invoked or
implied; the deck is a structural interchange format.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

from .core import PORTS
from .netlist import Netlist, walk

#: the most instance lines in one piece of :func:`deck_pieces`
_BLOCK = 1024


def export_spice(net: Netlist) -> str:
    """Render a netlist as a hierarchical structural deck, or raise the
    :class:`~mvlmul.netlist.NetlistError` of :func:`~mvlmul.netlist.walk`."""
    walk(net)
    return "".join(deck_pieces(net))


def deck_pieces(net: Netlist) -> Iterator[str]:
    """The deck of :func:`export_spice` in pieces of at most ``_BLOCK``
    instances, as :meth:`~mvlmul.netlist.Netlist.json_pieces` writes a
    document, so that a writer never holds it whole.  This checks none
    of the rules of :func:`~mvlmul.netlist.walk`: walk first."""
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
    lines.append(f".SUBCKT {name} {ports}")
    yield "\n".join(lines) + "\n"
    gates = iter(net.gates)
    while block := list(islice(gates, _BLOCK)):
        yield "".join(f"X{g.id} {' '.join(g.inputs + g.outputs)} {g.kind}\n"
                      for g in block)
    yield ".ENDS\n.END\n"
