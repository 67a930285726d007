"""Gate-level binary and quaternary Wallace-tree multipliers.

Generate multiplier netlists in radix 2 or 4, verify them exhaustively
against integer multiplication, and compare designs by transistor-
diameter area and calibrated worst-path delay.

The package is pure Python: the simulator runs on Python ints as
bit-planes, and the delay fit solves its normal equations over
fractions.
"""

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
from .sim import (SimulationError, VerificationReport, VerificationSpaceError,
                  evaluate, oracle, verify_exhaustive, verify_random)
from .spice import export_spice

__version__ = "0.1.0"
