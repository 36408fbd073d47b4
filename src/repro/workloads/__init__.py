"""Workloads: the SPEC-shaped benchmarks and a random generator.

``WORKLOADS`` is the paper's 15-program SPEC CPU2000 set (Table 1 /
Figures 10-11 iterate exactly these); ``CPU2006_WORKLOADS`` adds the
four CPU2006-style shape extensions (icall-heavy, recursion-heavy,
deep-copy-chain) and ``ALL_WORKLOADS`` is the 19-program set the pins
cover.  Oracle-bred ``.ir`` corpus seeds load separately through
:mod:`repro.workloads.corpus`.
"""

from repro.workloads.generator import GeneratorParams, generate_program
from repro.workloads.spec import WORKLOADS, Workload
from repro.workloads.spec2006 import CPU2006_WORKLOADS

#: The full 19-program set: the paper's 15 plus the
#: CPU2006-style shape extensions.
ALL_WORKLOADS = WORKLOADS + CPU2006_WORKLOADS

#: Name -> workload over the *full* set (the SPEC2000 subset keeps its
#: own mapping in :mod:`repro.workloads.spec`).
BY_NAME = {w.name: w for w in ALL_WORKLOADS}


def workload(name: str) -> Workload:
    """Look up any workload by its SPEC-style name (e.g. ``"181.mcf"``,
    ``"445.gobmk"``)."""
    return BY_NAME[name]


__all__ = [
    "ALL_WORKLOADS",
    "BY_NAME",
    "CPU2006_WORKLOADS",
    "GeneratorParams",
    "generate_program",
    "WORKLOADS",
    "Workload",
    "workload",
]
