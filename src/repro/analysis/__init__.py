"""Static analysis substrates: pointer analysis, call graph, mod/ref.

These are the prerequisites of Figure 3's pipeline: the value-flow
analysis works with any pointer analysis done a priori; this package
provides the configuration the paper evaluated (offset-based
field-sensitive Andersen's analysis with 1-callsite heap cloning).
"""

from repro.analysis.andersen import (
    DeltaSolver,
    PointerResult,
    ReferenceSolver,
    analyze_pointers,
)
from repro.analysis.callgraph import CallGraph
from repro.analysis.solverstats import SolverStats
from repro.analysis.memobjects import (
    FUNC,
    GLOBAL,
    HEAP,
    STACK,
    MemLoc,
    MemObject,
    PVar,
)
from repro.analysis.modref import ModRefResult

__all__ = [
    "DeltaSolver",
    "PointerResult",
    "ReferenceSolver",
    "SolverStats",
    "analyze_pointers",
    "CallGraph",
    "FUNC",
    "GLOBAL",
    "HEAP",
    "STACK",
    "MemLoc",
    "MemObject",
    "PVar",
    "ModRefResult",
]
