"""Gate-level binary and quaternary Wallace-tree multipliers.

Generate multiplier netlists in radix 2 or 4, verify them exhaustively
against integer multiplication, and compare designs by transistor-
diameter area and calibrated worst-path delay.

The simulator names load numpy, so they are imported on first use: a
command that builds, prices or exports designs never loads numpy.
"""

import importlib

from .core import CELLS, GateKind, LogicError
from .netgen import (DotMatrix, NetBuilder, NetgenError, build_pp, final_cpa,
                     gen_multiplier, wallace_stage)
from .netlist import (GateInstance, Netlist, NetlistError, Violation, Wire,
                      disjoint_union, validate_netlist)
from .metrics import (CalibrationError, ComparisonReport, CostLibrary,
                      CriticalPath, LibraryError, TimingLibrary,
                      area_estimate, calibrate_timing, compare, critical_path,
                      default_cost_library, timing_binary_0v45,
                      timing_binary_0v9, timing_quaternary_0v9)
from .spice import export_spice

__version__ = "0.1.0"

_SIM_NAMES = {"SimulationError", "VerificationReport",
              "VerificationSpaceError", "evaluate", "oracle",
              "verify_exhaustive", "verify_random"}


def __getattr__(name):
    # PEP 562: runs only for names not set above, so sim loads on first use
    if name in _SIM_NAMES:
        return getattr(importlib.import_module(".sim", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
