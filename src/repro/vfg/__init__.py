"""The value-flow graph: construction, definedness resolution, MFCs."""

from repro.vfg.builder import build_vfg
from repro.vfg.definedness import Definedness, resolve_definedness, step_context
from repro.vfg.demand import DemandEngine
from repro.vfg.explain import (
    FlowStep,
    explain_check_site,
    explain_undefined,
    explain_undefined_demand,
)
from repro.vfg.graph import (
    BOT,
    CALL,
    INTRA,
    MEM_SUMMARY,
    RET,
    TOP,
    CheckSite,
    Edge,
    MemNode,
    Node,
    Root,
    SummaryNode,
    TopNode,
    VFG,
)
from repro.vfg.mfc import MFC, compute_mfc

__all__ = [
    "build_vfg",
    "Definedness",
    "resolve_definedness",
    "step_context",
    "DemandEngine",
    "FlowStep",
    "explain_check_site",
    "explain_undefined",
    "explain_undefined_demand",
    "BOT",
    "CALL",
    "INTRA",
    "MEM_SUMMARY",
    "RET",
    "TOP",
    "CheckSite",
    "Edge",
    "MemNode",
    "Node",
    "Root",
    "SummaryNode",
    "TopNode",
    "VFG",
    "MFC",
    "compute_mfc",
]
