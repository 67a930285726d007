"""Gate-level binary and quaternary Wallace-tree multipliers.

Generate multiplier netlists in radix 2 or 4, verify them exhaustively
against integer multiplication, and compare designs by transistor-
diameter area and calibrated worst-path delay.

The package is pure Python: the simulator runs on Python ints as
bit-planes, and each timing library is a closed-form preset row or a
JSON file.  Importing it loads no submodule: each public name loads its
module on first use (PEP 562), so a command loads only what it runs.
"""

import importlib

#: each public name's module
_HOMES = {name: module for module, names in {
    "core": "CELLS LogicError",
    "netgen": "DotMatrix NetBuilder NetgenError build_pp final_cpa "
              "gen_multiplier wallace_stage",
    "netlist": "GateInstance Netlist NetlistError Violation "
               "validate_netlist walk",
    "metrics": "ComparisonReport CostLibrary CriticalPath LibraryError "
               "TimingLibrary area_estimate compare critical_path "
               "default_cost_library timing_preset",
    "sim": "SimulationError VerificationReport VerificationSpaceError "
           "evaluate verify_exhaustive verify_random",
    "spice": "export_spice",
}.items() for name in names.split()}

__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
