"""Timestamp-coherence (Tardis) multicore cache simulator.

Logical-lease coherence with a conventional full-map directory
baseline, exhaustive small-program enumeration, and an axiomatic
consistency checker for SC/TSO/PSO/RC traces.
"""

from .audit import AuditError, CoherenceAuditor
from .checker import Violation, check_trace, oracle_outcomes, ordered
from .config import ConfigError, PRESETS, SimConfig, load_config, preset
from .consistency import CLOCKS, MemoryModel
from .engine import (DeadlockError, SimulationError, Simulator, TraceOp,
                     enumerate_outcomes, trace_from_json)
from .metrics import Report
from .workloads import (BUILTIN_NAMES, LITMUS_NAMES, MemOp, OpKind, Program,
                        SynthParams, builtin, load_program, parse_program,
                        synth)

__version__ = "0.1.0"

__all__ = [
    "AuditError", "CoherenceAuditor", "Violation", "check_trace",
    "oracle_outcomes", "ordered", "ConfigError", "PRESETS", "SimConfig",
    "load_config", "preset", "CLOCKS", "MemoryModel", "DeadlockError",
    "SimulationError", "Simulator", "TraceOp", "enumerate_outcomes",
    "trace_from_json", "Report", "BUILTIN_NAMES",
    "LITMUS_NAMES", "MemOp", "OpKind", "Program", "SynthParams", "builtin",
    "load_program", "parse_program", "synth", "__version__",
]
